"""Subset search schemes driven by ensemble acquisition scores.

Four ways to pick a training subset of size ``target_size`` out of a
labeled pool:

* ``pretrain``: score with an ensemble trained on the full pool, select
  once, fine-tune the pretrained weights on the subset.
* ``compress``: same selection, but the subset model trains from scratch.
* ``build_up``: start from a small random subset and let a subset-trained
  ensemble grow it through a doubling schedule.
* ``automatic_duplication``: like build-up, but every iteration scores the
  whole pool and re-selected samples gain multiplicity instead of being
  skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .acquisition import FUNCTION_IDS, AcquisitionScores, pool_pass
from .analysis import duplication_histogram, evaluate
from .learner import (
    CheckpointStore,
    EnsembleConfig,
    LabeledPool,
    ModelParams,
    PoolBlocks,
    TrainConfig,
    build_ensemble,
    train_runs,
)

# train and fine_tune (the one-run cases of train_runs), predict_pool and
# score_pool stay attributes of this module although the schemes no longer
# call them: perfbench's traced spans wrap them here
from .acquisition import score_pool
from .learner import fine_tune, predict_pool, train
from .state import SubsetState, derive_seed, id_array

SCHEMES = ("pretrain", "compress", "build_up", "automatic_duplication")

# role codes mixed into derived seeds; keeps the rng streams of training,
# initialization, scoring and fine-tuning disjoint
_ROLE_TRAIN = 1
_ROLE_INIT = 2
_ROLE_SCORE = 3
_ROLE_TUNE = 4


def _candidates(scores: AcquisitionScores, excluded) -> tuple[np.ndarray, np.ndarray]:
    """Sample ids and scores of the candidates outside ``excluded``."""
    ids, vals = scores.sample_ids, scores.scores
    if len(excluded):
        keep = ~np.isin(ids, id_array(excluded))
        ids, vals = ids[keep], vals[keep]
    return ids, vals


def select_top_k(scores: AcquisitionScores, k: int, excluded=frozenset()) -> np.ndarray:
    """The k highest-scoring sample ids outside ``excluded``.

    Ties break toward the lower sample id. Returned in rank order.
    """
    return outlier_window_select(scores, k, 0.0, excluded)


def outlier_window_select(
    scores: AcquisitionScores, k: int, fraction: float, excluded=frozenset()
) -> np.ndarray:
    """Skip the very highest scores, then take the next k.

    The top ``floor(fraction * N)`` candidates (N counted after exclusion)
    are treated as likely outliers and passed over; selection starts just
    below them. ``fraction`` 0 reduces to plain top-k.
    """
    k = int(k)
    if k < 0:
        raise ValueError("k must be non-negative")
    if not 0.0 <= fraction < 1.0:
        raise ValueError("outlier fraction must be in [0, 1)")
    ids, vals = _candidates(scores, excluded)
    skip = int(fraction * len(ids))
    if skip + k > len(ids):
        raise ValueError(
            "window [%d, %d) exceeds the %d available candidates" % (skip, skip + k, len(ids))
        )
    order = np.lexsort((ids, -vals))
    return ids[order[skip : skip + k]].copy()


def growth_schedule(target_size: int) -> list[int]:
    """Doubling subset sizes ending at the target: [t/8, t/4, t/2, t]."""
    target_size = int(target_size)
    if target_size < 8:
        raise ValueError("growth schedule needs a target of at least 8")
    return [target_size // 8, target_size // 4, target_size // 2, target_size]


@dataclass
class SearchConfig:
    """Everything a search scheme needs besides the pool itself."""

    scheme: str
    function_id: str
    target_size: int
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    trainer: TrainConfig = field(default_factory=TrainConfig)
    outlier_fraction: float = 0.0
    acquisition_batch: int | None = None
    initial_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError("unknown scheme %r" % self.scheme)
        if self.function_id not in FUNCTION_IDS:
            raise ValueError("unknown acquisition function %r" % self.function_id)
        if self.target_size < 1:
            raise ValueError("target size must be positive")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier fraction must be in [0, 1)")
        if self.scheme == "automatic_duplication":
            if self.acquisition_batch is None or self.acquisition_batch < 1:
                raise ValueError("automatic duplication needs a positive acquisition_batch")
        if self.initial_size is not None and self.initial_size < 1:
            raise ValueError("initial size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class IterationRecord:
    """What one search iteration did: sizes, additions, score spread."""

    iteration: int
    unique_count: int
    total_count: int
    added: tuple[int, ...]
    score_min: float
    score_mean: float
    score_max: float
    pool_accuracy: float
    histogram: tuple[tuple[int, int], ...]


@dataclass
class SubsetResult:
    """Final state of a search run plus its per-iteration trail."""

    scheme: str
    function_id: str
    records: list[IterationRecord]
    state: SubsetState
    members: list[ModelParams]
    store: CheckpointStore


def train_subset_ensemble(
    pool: LabeledPool,
    subset: SubsetState,
    ensemble: EnsembleConfig,
    trainer: TrainConfig,
    seed: int,
    iteration: int = 0,
    starts=None,
) -> tuple[CheckpointStore, list[ModelParams]]:
    """Train the runs an ensemble mode needs and assemble its members.

    The runs train in lockstep (:func:`learner.train_runs`). The trainer's
    checkpoint window is widened if the mode reads back a longer epoch
    span than the window would keep. Run seeds derive from ``seed``, the
    search ``iteration`` and the run index. With ``starts``, one ModelParams
    per run, the runs fine-tune those weights instead of training fresh ones,
    under seeds of the fine-tuning role.
    """
    if trainer.checkpoint_window < ensemble.epochs_needed:
        # the rolling window must span what the ensemble mode will read back
        trainer = replace(trainer, checkpoint_window=ensemble.epochs_needed)
    role = _ROLE_TRAIN if starts is None else _ROLE_TUNE
    seeds = [derive_seed(seed, role, iteration, r) for r in range(ensemble.runs_needed)]
    store = CheckpointStore()
    for result in train_runs(pool, subset, trainer, seeds, starts):
        store.add_run(result.checkpoints)
    return store, build_ensemble(store, ensemble)


def _pool_pass(
    members, pool: LabeledPool, config: SearchConfig, iteration: int, scores: bool, votes: bool
):
    """One walk over the whole pool's member blocks: the scores that pick
    iteration ``iteration``'s additions (if ``scores``), and the fused votes
    (if ``votes``). No prediction tensor is built."""
    # the blocks cover the whole pool in pool order, so pool.labels align;
    # labels are read only for error_count and the seed only for random
    function_id = config.function_id if scores else None
    seed = derive_seed(config.seed, _ROLE_SCORE, iteration)
    return pool_pass(PoolBlocks(members, pool), function_id, pool.labels, seed, votes)


def _record(
    iteration: int,
    state: SubsetState,
    scores: AcquisitionScores | None,
    excluded,
    added,
    accuracy: float,
) -> IterationRecord:
    if scores is None:
        lo = mean = hi = float("nan")
    else:
        vals = _candidates(scores, excluded)[1]
        lo, mean, hi = float(vals.min()), float(vals.mean()), float(vals.max())
    return IterationRecord(
        iteration,
        state.unique_count,
        state.total_count,
        tuple(int(i) for i in added),
        lo,
        mean,
        hi,
        accuracy,
        tuple(duplication_histogram(state).rows()),
    )


def random_subset_ids(pool: LabeledPool, size: int, seed: int) -> np.ndarray:
    """``size`` distinct pool ids drawn without replacement from ``seed``."""
    if size > pool.n_samples:
        raise ValueError("initial size exceeds the pool")
    rng = np.random.default_rng(seed)
    return rng.choice(np.sort(pool.sample_ids), size=size, replace=False)


def _acquire_once(pool: LabeledPool, config: SearchConfig):
    """Full-pool ensemble, its scores, and the one-shot selection."""
    if config.target_size > pool.n_samples:
        raise ValueError("target size exceeds the pool")
    full = SubsetState.from_ids(pool.sample_ids)
    store, members = train_subset_ensemble(
        pool, full, config.ensemble, config.trainer, config.seed, 0
    )
    scores = _pool_pass(members, pool, config, 0, scores=True, votes=False)[0]
    chosen = outlier_window_select(scores, config.target_size, config.outlier_fraction)
    return store, scores, chosen


def run_pretrain(pool: LabeledPool, config: SearchConfig) -> SubsetResult:
    """Select once with a full-pool ensemble, then fine-tune it on the subset."""
    store, scores, chosen = _acquire_once(pool, config)
    state = SubsetState.from_ids(chosen)
    starts = [store.get(run, store.epochs(run)[-1]).params for run in store.run_seeds()]
    sub_store, members = train_subset_ensemble(
        pool, state, config.ensemble, config.trainer, config.seed, 0, starts
    )
    rec = _record(0, state, scores, frozenset(), chosen, evaluate(members, pool).accuracy)
    return SubsetResult(config.scheme, config.function_id, [rec], state, members, sub_store)


def run_compress(pool: LabeledPool, config: SearchConfig) -> SubsetResult:
    """Select once with a full-pool ensemble, then train from scratch on the subset."""
    _, scores, chosen = _acquire_once(pool, config)
    state = SubsetState.from_ids(chosen)
    sub_store, members = train_subset_ensemble(
        pool, state, config.ensemble, config.trainer, config.seed, 1
    )
    rec = _record(0, state, scores, frozenset(), chosen, evaluate(members, pool).accuracy)
    return SubsetResult(config.scheme, config.function_id, [rec], state, members, sub_store)


def _grow(pool: LabeledPool, config: SearchConfig, sizes: list[int], unseen: bool) -> SubsetResult:
    """The growth loop shared by build-up and automatic duplication.

    Starts from a random subset of ``sizes[0]`` ids. Iteration t trains an
    ensemble on the subset and walks the pool's member blocks once; that
    one walk gives the votes behind the record's pool accuracy and, before
    the last iteration, the scores whose ``sizes[t + 1] - sizes[t]`` picks
    make iteration t + 1.
    With ``unseen`` the picks are ids outside the subset; otherwise each
    pick adds one more copy of its id.
    """
    init = random_subset_ids(pool, sizes[0], derive_seed(config.seed, _ROLE_INIT))
    state = SubsetState.from_ids(init)
    scores, excluded, chosen = None, frozenset(), init
    records = []
    for iteration in range(len(sizes)):
        store, members = train_subset_ensemble(
            pool, state, config.ensemble, config.trainer, config.seed, iteration
        )
        last = iteration == len(sizes) - 1
        next_scores, votes = _pool_pass(members, pool, config, iteration + 1, not last, True)
        accuracy = float(np.mean(votes == pool.labels))
        records.append(_record(iteration, state, scores, excluded, chosen, accuracy))
        if last:
            break
        scores = next_scores
        if unseen:
            excluded = state.ids()
        k = sizes[iteration + 1] - sizes[iteration]
        chosen = outlier_window_select(scores, k, config.outlier_fraction, excluded)
        state = state.with_new_ids(chosen) if unseen else state.with_added_copies(chosen)
    return SubsetResult(config.scheme, config.function_id, records, state, members, store)


def run_build_up(pool: LabeledPool, config: SearchConfig) -> SubsetResult:
    """Grow a subset through the doubling schedule.

    Starts from a random subset of an eighth of the target, trains an
    ensemble on it, and each iteration moves the highest-scoring unseen
    samples over until the schedule tops out at the target. The ensemble
    retrained after each growth step scores the next one.
    """
    if config.target_size > pool.n_samples:
        raise ValueError("target size exceeds the pool")
    return _grow(pool, config, growth_schedule(config.target_size), unseen=True)


def run_automatic_duplication(pool: LabeledPool, config: SearchConfig) -> SubsetResult:
    """Grow a training multiset; re-selected samples gain multiplicity.

    Every iteration scores the entire pool, including samples already in
    the subset. The top ``acquisition_batch`` ids each receive one more
    occurrence (the final batch shrinks to land exactly on the target
    total count), and the ensemble retrains on the enlarged multiset.
    """
    initial = config.initial_size
    if initial is None:
        initial = max(1, config.target_size // 8)
    if initial > config.target_size:
        raise ValueError("initial size exceeds the target")
    totals = list(range(initial, config.target_size, config.acquisition_batch))
    totals.append(config.target_size)
    return _grow(pool, config, totals, unseen=False)


_RUNNERS = {
    "pretrain": run_pretrain,
    "compress": run_compress,
    "build_up": run_build_up,
    "automatic_duplication": run_automatic_duplication,
}


def run_scheme(pool: LabeledPool, config: SearchConfig) -> SubsetResult:
    """Dispatch to the runner named by ``config.scheme``."""
    return _RUNNERS[config.scheme](pool, config)
