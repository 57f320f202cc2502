"""Consensus counting, duplication accounting and ensemble evaluation."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from alsift.acquisition import PredictionTensor
from alsift.analysis import (
    DuplicationHistogram,
    consensus_counts,
    duplication_histogram,
    evaluate,
    evaluate_tensor,
    selected_unselected_gap,
)
from alsift.learner import LabeledPool, ModelParams
from alsift.state import SubsetState

from _pools import sub_pool


def tensor_from_votes(votes, n_classes):
    """Build a prediction tensor whose per-member argmax equals ``votes``."""
    votes = np.asarray(votes)
    n, e = votes.shape
    data = np.full((n, e, n_classes), 0.1 / (n_classes - 1), dtype=np.float32)
    for i in range(n):
        for j in range(e):
            data[i, j] = 0.1 / (n_classes - 1)
            data[i, j, votes[i, j]] = 0.9
    return PredictionTensor(data, np.arange(n))


def linear_member(weights, bias):
    w = np.asarray(weights, dtype=np.float64)
    return ModelParams("logistic", w.shape[0], w.shape[1], 0, (w, np.asarray(bias, float)))


class TestConsensus:
    def test_counts_on_hand_built_votes(self):
        votes = [
            [0, 0, 0],  # all agree
            [1, 1, 0],  # first two agree
            [2, 0, 0],  # only the last pair agrees
            [1, 1, 1],  # all agree
        ]
        report = consensus_counts(tensor_from_votes(votes, 3), n_max=3)
        assert report.eval_size == 4
        assert report.cumulative == (4, 3, 2)
        assert report.pairwise == (3, 3)

    def test_cumulative_counts_never_increase(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, e, k = int(rng.integers(5, 40)), int(rng.integers(2, 8)), int(rng.integers(2, 5))
            votes = rng.integers(0, k, size=(n, e))
            report = consensus_counts(tensor_from_votes(votes, k), n_max=e)
            counts = report.cumulative
            assert counts[0] == n
            assert all(b <= a for a, b in zip(counts, counts[1:]))
            # every consecutive pair agrees at least wherever all members agree
            assert all(p >= counts[-1] for p in report.pairwise)

    def test_identical_members_agree_everywhere(self):
        votes = np.tile(np.arange(6) % 3, (4, 1)).T
        report = consensus_counts(tensor_from_votes(votes, 3), n_max=4)
        assert report.cumulative == (6, 6, 6, 6)
        assert report.pairwise == (6, 6, 6)

    def test_n_max_bounds_checked(self):
        tensor = tensor_from_votes([[0, 1]], 2)
        with pytest.raises(ValueError, match="n_max"):
            consensus_counts(tensor, 3)
        with pytest.raises(ValueError, match="n_max"):
            consensus_counts(tensor, 0)


class TestDuplicationHistogram:
    def test_histogram_from_state(self):
        state = SubsetState({1: 1, 2: 2, 3: 1, 4: 3, 5: 2})
        hist = duplication_histogram(state)
        assert hist.counts == {1: 2, 2: 2, 3: 1}
        assert hist.unique_count == 5
        assert hist.total_count == state.total_count == 9

    def test_accounting_identity_on_random_states(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            state = SubsetState(
                {int(i): int(m) for i, m in enumerate(rng.integers(1, 5, size=n))}
            )
            hist = duplication_histogram(state)
            assert hist.unique_count == state.unique_count
            assert hist.total_count == state.total_count
            assert sum(m * c for m, c in hist.rows()) == hist.total_count

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            DuplicationHistogram({0: 3})

    def test_zero_count_rows_dropped(self):
        hist = DuplicationHistogram({1: 5, 2: 0})
        assert hist.rows() == [(1, 5)]


def two_class_pool():
    # one feature; positive means class 1
    features = np.asarray([[-2.0], [-1.0], [0.5], [2.0]])
    labels = np.asarray([0, 0, 1, 1])
    return LabeledPool(features, labels, np.asarray([10, 11, 12, 13]), 2)


class TestEvaluate:
    def test_perfect_member_scores_one(self):
        pool = two_class_pool()
        member = linear_member([[-1.0, 1.0]], [0.0, 0.0])
        report = evaluate([member], pool)
        assert report.accuracy == 1.0
        assert report.per_class == {0: 1.0, 1: 1.0}
        assert report.n_samples == 4

    def test_mean_fusion_outvotes_one_bad_member(self):
        pool = two_class_pool()
        good = linear_member([[-5.0, 5.0]], [0.0, 0.0])
        bad = linear_member([[1.0, -1.0]], [0.0, 0.0])  # inverted, low confidence
        fused = evaluate([good, good, bad], pool)
        assert fused.accuracy == 1.0

    def test_subset_of_ids(self):
        pool = two_class_pool()
        member = linear_member([[-1.0, 1.0]], [0.0, 0.0])
        report = evaluate([member], sub_pool(pool, [10, 12]))
        assert report.n_samples == 2
        assert report.per_class == {0: 1.0, 1: 1.0}

    def test_tie_breaks_toward_lower_class(self):
        pool = two_class_pool()
        indifferent = linear_member([[0.0, 0.0]], [0.0, 0.0])
        report = evaluate([indifferent], pool)
        # every vote falls to class 0
        assert report.per_class[0] == 1.0
        assert report.per_class[1] == 0.0

    def test_empty_ids_rejected(self):
        pool = two_class_pool()
        member = linear_member([[-1.0, 1.0]], [0.0, 0.0])
        with pytest.raises(ValueError, match="empty"):
            evaluate([member], sub_pool(pool, []))

    def test_tensor_votes_by_member_mean(self):
        # members vote 0, 0, 2 on sample 0 and 1, 2, 2 on sample 1
        tensor = tensor_from_votes([[0, 0, 2], [1, 2, 2]], 3)
        report = evaluate_tensor(tensor, [0, 1])
        assert report.accuracy == 0.5
        assert report.per_class == {0: 1.0, 1: 0.0}

    def test_tensor_labels_must_align(self):
        tensor = tensor_from_votes([[0, 0], [1, 1]], 2)
        with pytest.raises(ValueError, match="labels length"):
            evaluate_tensor(tensor, [0, 1, 1])


class TestSelectedUnselectedGap:
    def test_partitions_pool(self):
        pool = two_class_pool()
        member = linear_member([[-1.0, 1.0]], [0.0, 0.0])
        sel, unsel = selected_unselected_gap(member and [member], pool, SubsetState.from_ids([10, 12]))
        assert sel.n_samples == 2
        assert unsel.n_samples == 2

    def test_empty_partition_rejected(self):
        pool = two_class_pool()
        member = linear_member([[-1.0, 1.0]], [0.0, 0.0])
        for subset in (SubsetState.from_ids([10, 11, 12, 13]), SubsetState({})):
            with pytest.raises(ValueError, match="empty partition"):
                selected_unselected_gap([member], pool, subset)

    def test_unknown_subset_id_rejected(self):
        pool = two_class_pool()
        member = linear_member([[-1.0, 1.0]], [0.0, 0.0])
        with pytest.raises(KeyError, match="unknown sample id"):
            selected_unselected_gap([member], pool, SubsetState.from_ids([10, 55]))
