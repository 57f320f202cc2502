"""Harvest ensembles from training checkpoints instead of extra runs.

Trains three seeded runs on a synthetic pool, then assembles the four
ensemble modes from the same checkpoint store and reports how member
count trades off against fused accuracy. Checkpoints are free; extra
runs are not.
"""

from __future__ import annotations

from alsift import (
    EnsembleConfig,
    GeneratorSpec,
    SubsetState,
    TrainConfig,
    CheckpointStore,
    build_ensemble,
    evaluate,
    generate_pool,
    train,
)

pool = generate_pool(GeneratorSpec(
    n_classes=4, clusters_per_class=1, samples_per_cluster=120,
    n_features=10, center_spread=0.8, label_noise=0.05, seed=21,
))
holdout = generate_pool(GeneratorSpec(
    n_classes=4, clusters_per_class=1, samples_per_cluster=120,
    n_features=10, center_spread=0.8, seed=21, sample_seed=22,
))

trainer = TrainConfig(max_epochs=10, batch_size=32, checkpoint_window=10)
everything = SubsetState.from_ids(pool.sample_ids)

store = CheckpointStore()
for run_seed in (101, 102, 103):
    result = train(pool, everything, trainer, seed=run_seed)
    store.add_run(result.checkpoints)
    print("run %d: last epoch's running train loss %.4f, val accuracy %.3f"
          % (run_seed, result.train_loss[-1], result.val_accuracy[-1]))
print()

modes = (
    EnsembleConfig(mode="single"),  # single and checkpoints read the lowest run, 101
    EnsembleConfig(mode="seeds", runs=3),
    EnsembleConfig(mode="checkpoints", checkpoints_per_run=5),
    EnsembleConfig(mode="combined", runs=3, checkpoints_per_run=5),
)
print("%-12s %8s %10s" % ("mode", "members", "accuracy"))
for config in modes:
    members = build_ensemble(store, config)
    report = evaluate(members, holdout)
    print("%-12s %8d %10.3f" % (config.mode, len(members), report.accuracy))

print()
print("the combined mode multiplies runs by checkpoints per run, giving the")
print("largest ensemble for the same three training budgets.")
