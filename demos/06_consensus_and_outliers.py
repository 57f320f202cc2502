"""Watch checkpoint consensus decay and skip the score distribution's tail.

Part one trains a single run and measures how many evaluation samples
keep the same predicted class as more and more checkpoints are read
newest-first. Part two selects with an outlier window, dropping the top
slice of scores before taking a batch, and shows exactly which ranks
survive.
"""

from __future__ import annotations

import numpy as np

from alsift import (
    AcquisitionScores,
    GeneratorSpec,
    PoolBlocks,
    SubsetState,
    TrainConfig,
    consensus_counts,
    generate_pool,
    outlier_window_select,
    train,
)

pool = generate_pool(GeneratorSpec(
    n_classes=4, clusters_per_class=1, samples_per_cluster=100,
    n_features=10, center_spread=0.7, seed=11,
))
holdout = generate_pool(GeneratorSpec(
    n_classes=4, clusters_per_class=1, samples_per_cluster=100,
    n_features=10, center_spread=0.7, seed=11, sample_seed=12,
))

trainer = TrainConfig(max_epochs=12, batch_size=32, checkpoint_window=12)
result = train(pool, SubsetState.from_ids(pool.sample_ids), trainer, seed=77)

# newest checkpoint first, so "first n" always means the n latest epochs
params = [c.params for c in sorted(result.checkpoints, key=lambda c: -c.epoch)]
report = consensus_counts(PoolBlocks(params, holdout), n_max=8)
print("samples on which the n newest checkpoints all agree (of %d):"
      % report.eval_size)
for n, count in enumerate(report.cumulative, start=1):
    print("  n=%d: %4d" % (n, count))
print()

rng = np.random.default_rng(3)
values = rng.permutation(40).astype(np.float64)
scores = AcquisitionScores("entropy", values, np.arange(40, dtype=np.uint64))

plain = outlier_window_select(scores, k=10, fraction=0.0)
shifted = outlier_window_select(scores, k=10, fraction=0.25)
by_rank = {int(i): r for r, i in enumerate(np.argsort(-values))}
print("top-10 ranks chosen with no window:   %s"
      % sorted(by_rank[i] for i in plain))
print("top-10 ranks after skipping 25%%:      %s"
      % sorted(by_rank[i] for i in shifted))
print()
print("the window slides the same-sized batch past the extreme scores,")
print("which is where mislabeled or truly odd samples tend to live.")
