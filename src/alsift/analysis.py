"""Diagnostics over ensembles and selected subsets.

Covers three questions: how much do ensemble members agree with each other
(consensus), how concentrated is a training multiset (duplication
histogram), and how well does a model ensemble classify a given id set
(evaluation, including the selected/unselected split of a pool).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import PredictionTensor, pool_pass
# predict_pool stays an attribute of this module although evaluate no
# longer calls it: perfbench's traced spans wrap it here
from .learner import LabeledPool, PoolBlocks, predict_pool
from .state import SubsetState


@dataclass
class ConsensusReport:
    """Agreement counts among ensemble members on a fixed sample set.

    ``cumulative[n-1]`` counts samples where members 1..n all predict the
    same class; ``pairwise[i]`` counts samples where members i and i+1
    agree. Member order is the tensor's member axis order.
    """

    eval_size: int
    cumulative: tuple[int, ...]
    pairwise: tuple[int, ...]


def consensus_counts(tensor: PredictionTensor, n_max: int) -> ConsensusReport:
    """Count all-agree and consecutive-pair agreement over the member axis.

    Args:
        tensor: pool predictions, (N, E, K).
        n_max: deepest prefix to evaluate; cumulative counts cover
            n = 1..n_max. Must be within the member axis.
    """
    n_max = int(n_max)
    if not 1 <= n_max <= tensor.n_members:
        raise ValueError("n_max must be in [1, %d]" % tensor.n_members)
    votes = np.argmax(tensor.data, axis=2)  # (N, E), ties toward class 0
    base = votes[:, 0]
    agree = np.ones(tensor.n_samples, dtype=bool)
    cumulative = [tensor.n_samples]
    for n in range(2, n_max + 1):
        agree &= votes[:, n - 1] == base
        cumulative.append(int(agree.sum()))
    pairwise = tuple(
        int((votes[:, i] == votes[:, i + 1]).sum()) for i in range(tensor.n_members - 1)
    )
    return ConsensusReport(tensor.n_samples, tuple(cumulative), pairwise)


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
    counts: dict[int, int] = {}
    for mult in state.multiplicity.values():
        counts[mult] = counts.get(mult, 0) + 1
    return DuplicationHistogram(counts)


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
    votes = pool_pass(tensor, votes=True)[1]
    per_class = {}
    for cls in np.unique(labels):
        mask = labels == cls
        per_class[int(cls)] = float(np.mean(votes[mask] == cls))
    return EvalReport(len(labels), float(np.mean(votes == labels)), per_class)


def evaluate(members, pool: LabeledPool, ids=None) -> EvalReport:
    """Score an ensemble on the given sample ids with :func:`evaluate_tensor`,
    block by block, without a prediction tensor.

    Args:
        members: sequence of ModelParams.
        pool: pool holding features and labels.
        ids: sample ids to evaluate, unique; defaults to the whole pool.
    """
    source = PoolBlocks(members, pool, ids)
    return evaluate_tensor(source, source.labels())


def selected_unselected_gap(
    members, pool: LabeledPool, state: SubsetState
) -> tuple[EvalReport, EvalReport]:
    """Evaluate separately on subset members and on the rest of the pool."""
    selected = state.ids()
    unknown = np.setdiff1d(selected, pool.sample_ids)
    if len(unknown):
        raise KeyError("unknown sample id %d" % unknown[0])
    unselected = pool.sample_ids[~np.isin(pool.sample_ids, selected)]
    if not len(selected) or not len(unselected):
        raise ValueError("empty partition: subset must split the pool in two")
    return evaluate(members, pool, selected), evaluate(members, pool, unselected)

