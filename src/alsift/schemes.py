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

Each scheme is a generator of ensemble training requests;
:func:`run_lockstep` drives one or many of them, so that the equal-shape
requests of searches run together train as one run stack.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, replace

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
    train_parts,
)

# train and fine_tune (the one-run cases of train_parts), predict_pool and
# score_pool stay attributes of this module although the schemes no longer
# call them: perfbench's traced spans wrap them here
from .acquisition import score_pool
from .learner import fine_tune, predict_pool, train
from .state import FieldError, SubsetState, derive_seed, id_array, refuse_non_finite_fields

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
        raise FieldError("target_size", "growth schedule needs a target of at least 8")
    return [target_size // 8, target_size // 4, target_size // 2, target_size]


def duplication_totals(config: "SearchConfig") -> list[int]:
    """Multiset totals of automatic duplication: ``initial_size`` (an eighth
    of the target by default), then steps of ``acquisition_batch``, the last
    one shrunk to land on the target."""
    initial = config.initial_size
    if initial is None:
        initial = max(1, config.target_size // 8)
    if initial > config.target_size:
        raise FieldError("initial_size", "initial size exceeds the target")
    return [*range(initial, config.target_size, config.acquisition_batch), config.target_size]


@dataclass
class SearchConfig:
    """Everything a search scheme needs besides the pool itself. A config its
    scheme cannot run whatever the pool is refused when built: runs that can
    never store the epoch span the ensemble mode reads (a run of E epochs
    stores max(1, E)), patience with nothing held out, or subset sizes the
    scheme's schedule refuses."""

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
        refuse_non_finite_fields(self)
        if self.scheme not in SCHEMES:
            raise FieldError("scheme", "unknown scheme %r" % self.scheme)
        if self.function_id not in FUNCTION_IDS:
            raise FieldError("function_id", "unknown acquisition function %r" % self.function_id)
        if self.target_size < 1:
            raise FieldError("target_size", "target size must be positive")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise FieldError("outlier_fraction", "outlier fraction must be in [0, 1)")
        if self.scheme == "automatic_duplication":
            if self.acquisition_batch is None or self.acquisition_batch < 1:
                raise FieldError("acquisition_batch", "automatic duplication needs a positive acquisition_batch")
        if self.initial_size is not None and self.initial_size < 1:
            raise FieldError("initial_size", "initial size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        trainer, ensemble = self.trainer, self.ensemble
        spans = {"trainer.max_epochs": trainer.max_epochs}
        if self.scheme == "pretrain" and trainer.fine_tune_epochs is not None:
            spans["trainer.fine_tune_epochs"] = trainer.fine_tune_epochs
        for key, epochs in spans.items():
            if max(1, epochs) < ensemble.epochs_needed:
                raise ValueError(
                    "%s = %d stores at most %d checkpoints per run, but ensemble.mode = %s with"
                    " ensemble.checkpoints_per_run = %d and ensemble.stride = %d"
                    " reads a span of %d epochs"
                    % (key, epochs, max(1, epochs), ensemble.mode, ensemble.checkpoints_per_run,
                       ensemble.stride, ensemble.epochs_needed)
                )
        if trainer.patience > 0 and trainer.val_fraction == 0.0:
            raise ValueError(
                "trainer.patience = %d stops runs on held-out accuracy, but"
                " trainer.val_fraction = 0 holds out nothing" % trainer.patience
            )
        if self.scheme == "build_up":
            growth_schedule(self.target_size)
        elif self.scheme == "automatic_duplication":
            duplication_totals(self)


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
) -> tuple[CheckpointStore, list[ModelParams]]:
    """Train fresh the runs an ensemble mode needs and assemble its members:
    the one-request case of :func:`train_subset_ensembles`, at search
    iteration 0."""
    return train_subset_ensembles([(pool, subset, ensemble, trainer, seed, 0, None)])[0]


def train_subset_ensembles(requests) -> list[tuple[CheckpointStore, list[ModelParams]]]:
    """Train each request's runs and assemble its members. A request is a
    tuple ``(pool, subset, ensemble, trainer, seed, iteration, starts)``;
    its run seeds derive from ``seed``, the search ``iteration`` and the run
    index. With ``starts``, one ModelParams per run, the runs fine-tune those
    weights under seeds of the fine-tuning role; with None they train fresh.

    A trainer's checkpoint window is widened to the epoch span the ensemble
    mode reads back. Requests that share a trainer train in lockstep in one
    :func:`learner.train_parts` call, which forms the run stacks. A run
    stopped early with fewer checkpoints than its ensemble mode reads is
    refused by name.
    """
    groups = {}
    for i, (pool, subset, ensemble, trainer, seed, iteration, starts) in enumerate(requests):
        if trainer.checkpoint_window < ensemble.epochs_needed:
            # the rolling window must span what the ensemble mode will read back
            trainer = replace(trainer, checkpoint_window=ensemble.epochs_needed)
        role = _ROLE_TRAIN if starts is None else _ROLE_TUNE
        seeds = [derive_seed(seed, role, iteration, r) for r in range(ensemble.runs_needed)]
        group = groups.setdefault(astuple(trainer), (trainer, []))[1]
        group.append((i, (pool, subset, seeds, starts)))
    trained = [None] * len(requests)
    for trainer, group in groups.values():
        for (i, _), runs in zip(group, train_parts([part for _, part in group], trainer)):
            ensemble, store = requests[i][2], CheckpointStore()
            for r, result in enumerate(runs):
                if len(result.checkpoints) < ensemble.epochs_needed:
                    raise ValueError(
                        "search iteration %d: run %d stopped at epoch %d under trainer.patience"
                        " = %d, but ensemble.mode = %s with ensemble.checkpoints_per_run = %d and"
                        " ensemble.stride = %d reads a span of %d epochs" % (
                            requests[i][5], r + 1, len(result.train_loss), trainer.patience,
                            ensemble.mode, ensemble.checkpoints_per_run, ensemble.stride,
                            ensemble.epochs_needed))
                store.add_run(result.checkpoints)
            trained[i] = store, build_ensemble(store, ensemble)
    return trained


def run_lockstep(steps) -> list:
    """Drive generators in lockstep and return what each returns.

    Each step yields a :func:`train_subset_ensembles` request and is sent
    back its ``(store, members)``. A round trains the pending requests of
    every live step in one call, so that equal-shape ensembles of different
    steps share one run stack. Each step's result equals driving it alone.
    """
    steps = list(steps)
    returned, sent = [None] * len(steps), {}
    live = range(len(steps))
    while live:
        requests = {}
        for i in live:
            try:
                requests[i] = steps[i].send(sent.pop(i, None))
            except StopIteration as stop:
                returned[i] = stop.value
        live = list(requests)
        sent = dict(zip(live, train_subset_ensembles(list(requests.values()))))
    return returned


def _request(
    pool: LabeledPool, subset: SubsetState, config: SearchConfig, iteration: int, starts=None
):
    """A search's :func:`train_subset_ensembles` request for the subset's ensemble."""
    return pool, subset, config.ensemble, config.trainer, config.seed, iteration, starts


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


def _select_once(pool: LabeledPool, config: SearchConfig, fine_tune: bool):
    """Select once with a full-pool ensemble's scores, then train the subset's
    ensemble: fine-tuned from the full-pool weights, or from scratch. A
    generator of training requests (see :func:`run_lockstep`) that returns
    the SubsetResult."""
    full = SubsetState.from_ids(pool.sample_ids)
    store, members = yield _request(pool, full, config, 0)
    scores = _pool_pass(members, pool, config, 0, scores=True, votes=False)[0]
    chosen = outlier_window_select(scores, config.target_size, config.outlier_fraction)
    state = SubsetState.from_ids(chosen)
    starts = None
    if fine_tune:
        starts = [store.get(run, store.epochs(run)[-1]).params for run in store.run_seeds()]
    sub_store, members = yield _request(pool, state, config, 0 if fine_tune else 1, starts)
    rec = _record(0, state, scores, frozenset(), chosen, evaluate(members, pool).accuracy)
    return SubsetResult([rec], state, members, sub_store)


def _grow(pool: LabeledPool, config: SearchConfig, unseen: bool):
    """The growth loop shared by build-up and automatic duplication, as a
    generator of training requests (see :func:`run_lockstep`) that returns
    the SubsetResult.

    Grows through :func:`growth_schedule` sizes with ``unseen``, else
    through :func:`duplication_totals`. Starts from a random subset of
    ``sizes[0]`` ids. Iteration t trains an ensemble on the subset and
    walks the pool's member blocks once; that one walk gives the votes
    behind the record's pool accuracy and, before the last iteration, the
    scores whose ``sizes[t + 1] - sizes[t]`` picks make iteration t + 1.
    With ``unseen`` the picks are ids outside the subset; otherwise each
    pick adds one more copy of its id.
    """
    sizes = growth_schedule(config.target_size) if unseen else duplication_totals(config)
    init = random_subset_ids(pool, sizes[0], derive_seed(config.seed, _ROLE_INIT))
    state = SubsetState.from_ids(init)
    scores, excluded, chosen = None, frozenset(), init
    records = []
    for iteration in range(len(sizes)):
        store, members = yield _request(pool, state, config, iteration)
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
    return SubsetResult(records, state, members, store)


def scheme_steps(pool: LabeledPool, config: SearchConfig):
    """The search ``config.scheme`` names, as a generator of training
    requests for :func:`run_lockstep` that returns the SubsetResult. Only
    automatic duplication may reach a target beyond the pool."""
    if config.scheme != "automatic_duplication" and config.target_size > pool.n_samples:
        raise ValueError("target size exceeds the pool")
    if config.scheme in ("pretrain", "compress"):
        return _select_once(pool, config, fine_tune=config.scheme == "pretrain")
    return _grow(pool, config, unseen=config.scheme == "build_up")


def run_scheme(pool: LabeledPool, config: SearchConfig) -> SubsetResult:
    """Run the scheme named by ``config.scheme`` alone: the one search
    runner. Searches that should share run stacks go through
    :func:`run_lockstep` over :func:`scheme_steps` instead."""
    return run_lockstep([scheme_steps(pool, config)])[0]
