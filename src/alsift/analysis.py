"""Diagnostics over ensembles and selected subsets.

Covers three questions: how much do ensemble members agree with each other
(consensus), how concentrated is a training multiset (duplication
histogram), and how well does a model ensemble classify a pool
(evaluation, including the selected/unselected split of a pool).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import _reduce_block, pool_pass
# predict_pool stays an attribute of this module although nothing here
# calls it: perfbench's traced spans wrap it here
from .learner import LabeledPool, PoolBlocks, predict_pool
from .state import SubsetState


@dataclass
class ConsensusReport:
    """Agreement counts among ensemble members on a fixed sample set.

    ``cumulative[n-1]`` counts samples where members 1..n all predict the
    same class; ``pairwise[i]`` counts samples where members i and i+1
    agree. Member order is the source's member axis order.
    """

    eval_size: int
    cumulative: tuple[int, ...]
    pairwise: tuple[int, ...]


def consensus_counts(source, n_max: int) -> ConsensusReport:
    """Count all-agree and consecutive-pair agreement over the member axis,
    adding up the member votes of one block at a time.

    Args:
        source: a PredictionTensor or a ``learner.PoolBlocks``.
        n_max: deepest prefix to evaluate; cumulative counts cover
            n = 1..n_max. Must be within the member axis.
    """
    n_max = int(n_max)
    if not 1 <= n_max <= source.n_members:
        raise ValueError("n_max must be in [1, %d]" % source.n_members)
    cumulative = np.zeros(n_max, dtype=np.int64)
    pairwise = np.zeros(source.n_members - 1, dtype=np.int64)
    for rows, groups in source.blocks():
        shape = (rows.stop - rows.start, source.n_members, source.n_classes)
        votes = _reduce_block(groups, shape, votes=True)[2]  # (c, E), ties toward class 0
        agree = np.logical_and.accumulate(votes[:, :n_max] == votes[:, :1], axis=1)
        cumulative += agree.sum(axis=0)
        pairwise += (votes[:, 1:] == votes[:, :-1]).sum(axis=0)
    return ConsensusReport(source.n_samples, tuple(cumulative.tolist()), tuple(pairwise.tolist()))


@dataclass
class DuplicationHistogram:
    """How many subset ids occur once, twice, three times and so on."""

    counts: dict[int, int]

    def __post_init__(self):
        cleaned = {}
        for mult, count in self.counts.items():
            mult, count = int(mult), int(count)
            if mult < 1 or count < 0:
                raise ValueError("multiplicities must be >= 1 and counts >= 0")
            if count:
                cleaned[mult] = count
        self.counts = cleaned

    @property
    def unique_count(self) -> int:
        return sum(self.counts.values())

    @property
    def total_count(self) -> int:
        return sum(mult * count for mult, count in self.counts.items())

    def rows(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


def duplication_histogram(state: SubsetState) -> DuplicationHistogram:
    """Histogram of occurrence counts for a training multiset."""
    mults, ids_per_mult = np.unique(state.counts(), return_counts=True)
    return DuplicationHistogram(dict(zip(mults.tolist(), ids_per_mult.tolist())))


@dataclass
class EvalReport:
    """Accuracy of an ensemble (predictive-mean vote) on an id set."""

    n_samples: int
    accuracy: float
    per_class: dict[int, float]


def evaluate_tensor(tensor, labels) -> EvalReport:
    """Fused-vote accuracy of pool predictions against aligned labels.

    Member probabilities are averaged and the highest-mean class wins
    (ties toward the lower class index). ``tensor`` is a PredictionTensor
    or a ``learner.PoolBlocks``. Per-class accuracies cover the classes
    that appear in ``labels``, which follow ``tensor.sample_ids``.
    """
    labels = np.asarray(labels)
    if labels.shape != (tensor.n_samples,):
        raise ValueError("labels length must match the sample axis")
    if not len(labels):
        raise ValueError("empty evaluation id set")
    return _report(pool_pass(tensor, votes=True)[1], labels)


def _report(votes: np.ndarray, labels: np.ndarray) -> EvalReport:
    """The accuracy of ``votes`` against aligned ``labels``, overall and per class."""
    per_class = {int(cls): float(np.mean(votes[labels == cls] == cls)) for cls in np.unique(labels)}
    return EvalReport(len(labels), float(np.mean(votes == labels)), per_class)


def evaluate(members, pool: LabeledPool) -> EvalReport:
    """Score an ensemble on the whole pool with :func:`evaluate_tensor`,
    block by block, without a prediction tensor.

    Args:
        members: sequence of ModelParams.
        pool: pool holding features and labels.
    """
    return evaluate_tensor(PoolBlocks(members, pool), pool.labels)


def selected_unselected_gap(
    members, pool: LabeledPool, state: SubsetState
) -> tuple[EvalReport, EvalReport]:
    """Evaluate separately on subset members and on the rest of the pool,
    from one walk of the whole pool. A subset id the pool lacks raises
    KeyError."""
    selected = np.zeros(pool.n_samples, dtype=bool)
    selected[pool.rows_for(state.ids())] = True
    if selected.all() or not selected.any():
        raise ValueError("empty partition: subset must split the pool in two")
    votes = pool_pass(PoolBlocks(members, pool), votes=True)[1]
    return tuple(_report(votes[part], pool.labels[part]) for part in (selected, ~selected))
