"""Trainer, gradient and checkpoint-ensemble tests."""

from __future__ import annotations

import hashlib
import math
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

import alsift.learner
from alsift.acquisition import pool_pass
from alsift.learner import (
    Checkpoint,
    CheckpointStore,
    EnsembleConfig,
    LabeledPool,
    ModelParams,
    PoolBlocks,
    TrainConfig,
    build_ensemble,
    fine_tune,
    init_params,
    inverse_frequency_weights,
    loss_and_gradients,
    predict_pool,
    read_checkpoint,
    train,
    train_parts,
    write_checkpoint,
)
from alsift.learner import _forward, _held_out, _softmax
from alsift.schemes import train_subset_ensemble
from alsift.state import FieldError, SubsetState


def _validation_split(ids, fraction):
    """(training ids, held-out ids) as the trainer's validation mask splits them."""
    ids = np.asarray(sorted(ids), dtype=np.uint64)
    held = _held_out(ids, fraction)
    return ids[~held].tolist(), ids[held].tolist()


def reference_proba(params, features):
    """Float64 class probabilities of one model over a (N, D) batch: the
    trainer's own forward pass and softmax."""
    return _softmax(_forward(params.tensors, np.asarray(features, dtype=np.float64))[1])


def small_pool(seed=0, n=60, d=5, k=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 2.0, (k, d))
    features = np.concatenate([centers[c] + rng.normal(0, 1, (n // k, d)) for c in range(k)])
    labels = np.repeat(np.arange(k), n // k)
    return LabeledPool(features, labels, np.arange(len(labels)), k)


def full_subset(pool):
    return SubsetState.from_ids(pool.sample_ids)


# -- oracle: central finite differences over every parameter entry ----------


def fd_gradients(params, features, labels, class_weights, weight_decay, step=1e-6):
    grads = []
    for idx in range(len(params.tensors)):
        tensor = params.tensors[idx]
        grad = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            pos = it.multi_index
            original = tensor[pos]
            tensor[pos] = original + step
            up, _ = loss_and_gradients(params, features, labels, class_weights, weight_decay)
            tensor[pos] = original - step
            down, _ = loss_and_gradients(params, features, labels, class_weights, weight_decay)
            tensor[pos] = original
            grad[pos] = (up - down) / (2 * step)
            it.iternext()
        grads.append(grad)
    return grads


def relative_error(analytic, numeric):
    num = np.linalg.norm(analytic - numeric)
    den = np.linalg.norm(analytic) + np.linalg.norm(numeric) + 1e-12
    return num / den


class TestGradients:
    @pytest.mark.parametrize("arch,hidden", [("logistic", 0), ("mlp", 6)])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_matches_finite_differences(self, arch, hidden, weight_decay):
        rng = np.random.default_rng(17)
        params = init_params(arch, 4, 3, hidden, rng)
        features = rng.normal(0, 1, (12, 4))
        labels = rng.integers(0, 3, size=12)
        weights = inverse_frequency_weights(labels, 3)
        _, grads = loss_and_gradients(params, features, labels, weights, weight_decay)
        numeric = fd_gradients(params, features, labels, weights, weight_decay)
        for got, want in zip(grads, numeric):
            assert relative_error(got, want) < 1e-6

    def test_zero_init_logistic_predicts_uniform(self):
        params = ModelParams("logistic", 4, 5, 0, (np.zeros((4, 5)), np.zeros(5)))
        probs = reference_proba(params, np.random.default_rng(0).normal(0, 1, (8, 4)))
        assert_allclose(probs, 0.2, atol=1e-15)

    def test_bias_not_decayed(self):
        rng = np.random.default_rng(1)
        params = init_params("logistic", 3, 2, 0, rng)
        features = rng.normal(0, 1, (6, 3))
        labels = rng.integers(0, 2, size=6)
        _, plain = loss_and_gradients(params, features, labels, None, 0.0)
        _, decayed = loss_and_gradients(params, features, labels, None, 0.5)
        assert_array_equal(plain[1], decayed[1])
        assert not np.array_equal(plain[0], decayed[0])

    def test_uniform_class_weights_equal_unweighted_exactly(self):
        rng = np.random.default_rng(2)
        params = init_params("mlp", 4, 2, 5, rng)
        features = rng.normal(0, 1, (10, 4))
        labels = np.repeat([0, 1], 5)  # balanced
        weights = inverse_frequency_weights(labels, 2)
        assert_array_equal(weights, np.ones(2))
        loss_w, grads_w = loss_and_gradients(params, features, labels, weights, 1e-3)
        loss_u, grads_u = loss_and_gradients(params, features, labels, None, 1e-3)
        assert loss_w == loss_u
        for a, b in zip(grads_w, grads_u):
            assert_array_equal(a, b)

    def test_inverse_frequency_values(self):
        labels = np.asarray([0, 0, 0, 1])
        weights = inverse_frequency_weights(labels, 3)
        assert_allclose(weights[:2], [4 / (3 * 3), 4 / (3 * 1)], atol=1e-15)
        assert weights[2] == 0.0


class TestTraining:
    def test_same_seed_reproduces_weights_bitwise(self):
        pool = small_pool()
        cfg = TrainConfig(max_epochs=6, batch_size=16, checkpoint_window=3)
        a = train(pool, full_subset(pool), cfg, seed=9)
        b = train(pool, full_subset(pool), cfg, seed=9)
        for ca, cb in zip(a.checkpoints, b.checkpoints):
            for ta, tb in zip(ca.params.tensors, cb.params.tensors):
                assert_array_equal(ta, tb)
        assert a.train_loss == b.train_loss

    def test_different_seeds_differ(self):
        pool = small_pool()
        cfg = TrainConfig(max_epochs=4, batch_size=16)
        a = train(pool, full_subset(pool), cfg, seed=1)
        b = train(pool, full_subset(pool), cfg, seed=2)
        assert not np.array_equal(a.checkpoints[-1].params.tensors[0], b.checkpoints[-1].params.tensors[0])

    def test_full_batch_descent_is_monotone(self):
        pool = small_pool(3)
        cfg = TrainConfig(
            learning_rate=0.05,
            momentum=0.0,
            weight_decay=0.0,
            batch_size=10_000,
            max_epochs=25,
            val_fraction=0.0,
        )
        result = train(pool, full_subset(pool), cfg, seed=4)
        losses = result.train_loss
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_loss_decreases_from_start(self):
        pool = small_pool(5)
        cfg = TrainConfig(max_epochs=15, batch_size=16)
        result = train(pool, full_subset(pool), cfg, seed=0)
        assert result.train_loss[-1] < result.train_loss[0]

    def test_multiplicity_equals_physical_copies(self):
        rng = np.random.default_rng(6)
        features = rng.normal(0, 1, (4, 3))
        labels = np.asarray([0, 1, 0, 1])
        pool_a = LabeledPool(features, labels, np.arange(4), 2)
        # pool_b physically repeats row 1 right after it, matching the
        # expansion order of a multiplicity-2 entry
        features_b = np.insert(features, 2, features[1], axis=0)
        labels_b = np.insert(labels, 2, labels[1])
        pool_b = LabeledPool(features_b, labels_b, np.arange(5), 2)
        cfg = TrainConfig(
            max_epochs=5, batch_size=2, val_fraction=0.0, checkpoint_window=1
        )
        got = train(pool_a, SubsetState({0: 1, 1: 2, 2: 1, 3: 1}), cfg, seed=8)
        want = train(pool_b, SubsetState.from_ids(range(5)), cfg, seed=8)
        for ta, tb in zip(got.checkpoints[-1].params.tensors, want.checkpoints[-1].params.tensors):
            assert_array_equal(ta, tb)

    def test_rolling_window_keeps_last_epochs(self):
        pool = small_pool()
        cfg = TrainConfig(max_epochs=9, batch_size=32, checkpoint_window=4)
        result = train(pool, full_subset(pool), cfg, seed=1)
        assert [c.epoch for c in result.checkpoints] == [6, 7, 8, 9]

    def test_early_stopping_cuts_run_short(self):
        pool = small_pool(7)
        base = TrainConfig(max_epochs=60, batch_size=16, patience=0)
        patient = replace(base, patience=3)
        full = train(pool, full_subset(pool), base, seed=2)
        stopped = train(pool, full_subset(pool), patient, seed=2)
        assert len(stopped.train_loss) < len(full.train_loss)
        best = stopped.val_accuracy.index(max(stopped.val_accuracy))
        assert len(stopped.val_accuracy) == best + 1 + 3

    def test_validation_ids_held_out(self):
        ids = list(range(40))
        train_ids, val_ids = _validation_split(ids, 0.1)
        assert len(val_ids) == 4
        assert set(train_ids) | set(val_ids) == set(ids)
        assert not set(train_ids) & set(val_ids)
        # stable under re-evaluation
        assert _validation_split(ids, 0.1)[1] == val_ids

    def test_validation_split_id_stability(self):
        # dropping unrelated ids must not reshuffle who hashes high
        _, val_a = _validation_split(list(range(40)), 0.25)
        _, val_b = _validation_split(list(range(30)), 0.25)
        kept = [i for i in val_a if i < 30]
        assert set(kept) <= set(val_b)

    def test_zero_epochs_returns_initial_params(self):
        pool = small_pool()
        cfg = TrainConfig(max_epochs=0)
        result = train(pool, full_subset(pool), cfg, seed=3)
        assert [c.epoch for c in result.checkpoints] == [0]
        direct = init_params("logistic", pool.n_features, pool.n_classes, 16,
                             np.random.default_rng(3))
        for ta, tb in zip(result.checkpoints[-1].params.tensors, direct.tensors):
            assert_array_equal(ta, tb)

    def test_empty_subset_rejected(self):
        pool = small_pool()
        with pytest.raises(ValueError, match="empty training subset"):
            train(pool, SubsetState({}), TrainConfig(max_epochs=1))

    def test_unknown_subset_id_rejected(self):
        pool = small_pool()
        with pytest.raises(KeyError, match="unknown sample id"):
            train(pool, SubsetState({10_000: 1}), TrainConfig(max_epochs=1))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_raises_with_diagnostic(self):
        pool = small_pool()
        cfg = TrainConfig(learning_rate=1e12, momentum=0.0, max_epochs=40)
        with pytest.raises(RuntimeError, match="non-finite training loss"):
            train(pool, full_subset(pool), cfg, seed=0)
        # a stack checks all its runs' losses at once, with the same message
        message = r"^non-finite training loss at epoch \d+ \(lr=1e\+12\); lower the learning rate$"
        with pytest.raises(RuntimeError, match=message):
            train_parts([(pool, full_subset(pool), [0, 1, 2], None)], cfg)[0]

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("val_fraction", [0.0, 0.1])
    def test_a_blow_up_in_the_last_step_is_refused(self, val_fraction):
        # one full-batch step: every batch loss is taken before the weights
        # blow up, so only the epoch end can see it
        pool = small_pool()
        cfg = TrainConfig(learning_rate=1e308, momentum=0.0, weight_decay=0.0,
                          batch_size=10_000, max_epochs=1, val_fraction=val_fraction)
        with pytest.raises(RuntimeError, match=r"^non-finite training loss at epoch 1 "):
            train(pool, full_subset(pool), cfg, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("rate, momentum, epoch", [(30.0, 0.9, 29), (1000.0, 0.0, 7)])
    def test_a_diverging_mlp_stack_is_refused_at_its_pinned_epoch(self, rate, momentum, epoch):
        # fixed by value, so that a rewrite of the ReLU backward cannot move
        # the epoch at which a blow-up through the hidden layer is seen
        pool = small_pool()
        cfg = TrainConfig(arch="mlp", hidden=6, learning_rate=rate, momentum=momentum,
                          batch_size=7, max_epochs=40)
        message = r"^non-finite training loss at epoch %d \(lr=%g\); lower the learning rate$"
        with pytest.raises(RuntimeError, match=message % (epoch, rate)):
            train_parts([(pool, full_subset(pool), [0, 1, 2], None)], cfg)

    def test_lr_decay_applies_at_given_epochs(self):
        pool = small_pool(9)
        base = TrainConfig(
            learning_rate=0.05, momentum=0.0, batch_size=10_000,
            max_epochs=2, val_fraction=0.0, weight_decay=0.0,
        )
        decayed = replace(base, decay_epochs=(2,), lr_decay=0.5)
        plain = train(pool, full_subset(pool), base, seed=5)
        scaled = train(pool, full_subset(pool), decayed, seed=5)
        # first epoch identical, second epoch takes a step half as long
        (one, two), (scaled_one, scaled_two) = plain.checkpoints, scaled.checkpoints
        for ta, tb in zip(one.params.tensors, scaled_one.params.tensors):
            assert_array_equal(ta, tb)
        for start, end, scaled_end in zip(
            one.params.tensors, two.params.tensors, scaled_two.params.tensors
        ):
            assert not np.array_equal(end, scaled_end)
            assert_allclose(2 * (start - scaled_end), start - end, rtol=1e-9)


def count_gradient_batches(monkeypatch):
    """Record the row count of every run in each backward pass, whoever takes it.

    Hooks the one backward pass, which SGD batch steps and
    ``loss_and_gradients`` both call, so a gradient pass outside the batch
    loop shows up as an extra entry.
    """
    rows = []
    real = alsift.learner._gradients

    def counted(tensors, inputs, probs, labels, *args, **kwargs):
        rows.extend([labels.shape[-1]] * (labels.size // labels.shape[-1]))
        return real(tensors, inputs, probs, labels, *args, **kwargs)

    monkeypatch.setattr(alsift.learner, "_gradients", counted)
    return rows


def test_pool_refuses_sample_ids_outside_uint64():
    for ids in (np.arange(3) - 1, [0, 1, -1]):
        with pytest.raises(ValueError, match=r"^sample id -1 outside \[0, 2\*\*64\)$"):
            LabeledPool(np.zeros((3, 1)), [0, 1, 0], ids, 2)
    with pytest.raises(ValueError, match=r"^sample id 18446744073709551616 outside"):
        LabeledPool(np.zeros((2, 1)), [0, 1], [0, 2**64], 2)


def test_pool_blocks_refuse_sample_ids_outside_uint64():
    pool = small_pool()
    member = init_params("logistic", pool.n_features, pool.n_classes, 0, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"^sample id -1 outside \[0, 2\*\*64\)$"):
        PoolBlocks([member], pool, np.array([-1, 0]))


def test_pool_blocks_refuse_fractional_sample_ids():
    pool = small_pool()
    member = init_params("logistic", pool.n_features, pool.n_classes, 0, np.random.default_rng(0))
    for ids in ([4, 1.5], np.array([4.0, 1.5])):
        with pytest.raises(ValueError, match=r"^sample id 1\.5 is not an integer$"):
            PoolBlocks([member], pool, ids)


def test_hidden_width_is_checked_for_mlp_only():
    with pytest.raises(ValueError, match="mlp needs a positive hidden width"):
        TrainConfig(arch="mlp", hidden=0)
    assert TrainConfig(arch="logistic", hidden=0).hidden == 0



def test_decay_epochs_count_from_one():
    for epochs, low in (((0, -3), -3), ((2, 0), 0)):
        with pytest.raises(ValueError, match=r"^decay epochs must be >= 1, got %d$" % low):
            TrainConfig(decay_epochs=epochs)
    assert TrainConfig(decay_epochs=(1, 4)).decay_epochs == (1, 4)


def test_decay_epochs_must_be_distinct():
    # a repeated epoch would decay once, as the entry alone does, under another config hash
    for epochs in ((3, 3), (1, 3, 2, 3), (5, 5, 5)):
        with pytest.raises(FieldError) as refused:
            TrainConfig(decay_epochs=epochs)
        assert refused.value.field == "decay_epochs"
        assert str(refused.value) == "decay epochs must be distinct, got %d twice" % epochs[-1]
    # kept in the order given, so the canonical echo and every hash stay as they are
    assert TrainConfig(decay_epochs=(4, 1)).decay_epochs == (4, 1)


class TestEpochLoss:
    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_logged_loss_is_the_full_objective_without_a_gradient_pass(self, arch, monkeypatch):
        # full batch, no momentum: epoch e's one step sees the full objective's
        # data term at the weights epoch e starts from; the decay term is taken
        # at the epoch's end weights
        pool = small_pool()
        cfg = TrainConfig(arch=arch, hidden=6, max_epochs=4, batch_size=10_000, momentum=0.0,
                          val_fraction=0.0, weight_decay=1e-3, class_weighting=True)
        rows = count_gradient_batches(monkeypatch)
        result = train(pool, full_subset(pool), cfg, seed=4)
        assert rows == [pool.n_samples] * 4
        weights = inverse_frequency_weights(pool.labels, pool.n_classes)
        first = init_params(arch, pool.n_features, pool.n_classes, 6, np.random.default_rng(4))
        starts = [first, *(c.params for c in result.checkpoints[:-1])]
        for logged, start, end in zip(result.train_loss, starts, result.checkpoints, strict=True):
            data, _ = loss_and_gradients(start, pool.features, pool.labels, weights)
            decay = 0.5 * 1e-3 * sum((w * w).sum() for w in end.params.tensors[::2])
            # the shuffled rows add up in another order than the pool's
            assert logged == pytest.approx(data + decay, rel=1e-12)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_zero_rate_loss_is_the_full_objective_at_the_start(self, arch, weight_decay):
        # no step runs: every epoch logs the objective over the subset's rows
        # in pool order, which loss_and_gradients computes alike
        pool = small_pool()
        cfg = TrainConfig(arch=arch, hidden=6, max_epochs=2, fine_tune_rate=0.0, val_fraction=0.0,
                          weight_decay=weight_decay, class_weighting=True)
        starts = [init_params(arch, pool.n_features, pool.n_classes, 6, np.random.default_rng(s))
                  for s in (1, 2)]
        weights = inverse_frequency_weights(pool.labels, pool.n_classes)
        for start, result in zip(starts, train_parts([(pool, full_subset(pool), [1, 2], starts)], cfg)[0]):
            want, _ = loss_and_gradients(start, pool.features, pool.labels, weights, weight_decay)
            assert result.train_loss == [want, want]


class TestFineTuning:
    def test_zero_rate_runs_no_step_and_stores_every_epoch(self, monkeypatch):
        pool = small_pool()
        cfg = TrainConfig(max_epochs=3, fine_tune_rate=0.0, batch_size=16)
        start = train(pool, full_subset(pool), cfg, seed=1).checkpoints[-1].params
        rows = count_gradient_batches(monkeypatch)
        tuned = fine_tune(pool, full_subset(pool), start, cfg, seed=2)
        assert rows == []
        assert [c.epoch for c in tuned.checkpoints] == [1, 2, 3]
        assert len(tuned.train_loss) == len(tuned.val_accuracy) == 3
        for ckpt in tuned.checkpoints:
            for ta, tb in zip(ckpt.params.tensors, start.tensors):
                assert_array_equal(ta, tb)

    def test_zero_rate_keeps_weights(self):
        pool = small_pool()
        cfg = TrainConfig(max_epochs=3, fine_tune_rate=0.0, batch_size=16)
        start = train(pool, full_subset(pool), cfg, seed=1).checkpoints[-1].params
        tuned = fine_tune(pool, full_subset(pool), start, cfg, seed=2)
        for ta, tb in zip(tuned.checkpoints[-1].params.tensors, start.tensors):
            assert_array_equal(ta, tb)

    def test_zero_epochs_keeps_weights(self):
        pool = small_pool()
        cfg = TrainConfig(max_epochs=3, fine_tune_epochs=0, batch_size=16)
        start = train(pool, full_subset(pool), cfg, seed=1).checkpoints[-1].params
        tuned = fine_tune(pool, full_subset(pool), start, cfg, seed=2)
        assert tuned.checkpoints[-1].epoch == 0
        for ta, tb in zip(tuned.checkpoints[-1].params.tensors, start.tensors):
            assert_array_equal(ta, tb)

    def test_fine_tune_moves_weights_at_positive_rate(self):
        pool = small_pool()
        cfg = TrainConfig(max_epochs=3, fine_tune_rate=1e-2, batch_size=16)
        start = train(pool, full_subset(pool), cfg, seed=1).checkpoints[-1].params
        tuned = fine_tune(pool, full_subset(pool), start, cfg, seed=2)
        assert not np.array_equal(tuned.checkpoints[-1].params.tensors[0], start.tensors[0])

    def test_shape_mismatch_rejected(self):
        pool = small_pool()
        wrong = init_params("logistic", pool.n_features + 1, pool.n_classes, 0,
                            np.random.default_rng(0))
        with pytest.raises(ValueError, match="does not match"):
            fine_tune(pool, full_subset(pool), wrong, TrainConfig(max_epochs=1))


def class_pool(k, seed=2, n=120, d=5):
    """Overlapping clusters, so validation accuracy plateaus at different epochs per run."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 1.0, (k, d))
    features = np.concatenate([centers[c] + rng.normal(0, 1, (n // k, d)) for c in range(k)])
    return LabeledPool(features, np.repeat(np.arange(k), n // k), np.arange(n), k)


def repeated_subset(pool):
    """Every id, a third of them twice or more and a ninth three times."""
    return full_subset(pool).with_added_copies(range(0, pool.n_samples, 3)).with_added_copies(
        range(0, pool.n_samples, 9)
    )


def assert_same_run(got, want):
    assert got.train_loss == want.train_loss
    assert got.val_accuracy == want.val_accuracy
    assert len(got.checkpoints) == len(want.checkpoints)
    for a, b in zip(got.checkpoints, want.checkpoints):
        assert (a.run_seed, a.epoch, a.subset_digest) == (b.run_seed, b.epoch, b.subset_digest)
        assert a.val_accuracy == b.val_accuracy
        assert (a.params.arch, a.params.hidden) == (b.params.arch, b.params.hidden)
        for ta, tb in zip(a.params.tensors, b.params.tensors):
            assert ta.shape == tb.shape
            assert ta.tobytes() == tb.tobytes()


# (runs, classes, trainer overrides); every case uses batches of 7, which
# do not divide the rows, and ids repeated up to three times
STACK_CASES = {
    "one_run": (1, 3, {}),
    "logistic_3": (3, 3, {"max_epochs": 5}),
    "mlp_5_k10": (5, 10, {"arch": "mlp", "hidden": 6, "max_epochs": 4}),
    "mlp_4_patience_1": (4, 4, {"arch": "mlp", "hidden": 5, "patience": 1}),
    "logistic_4_patience_2": (4, 4, {"patience": 2}),
    "mlp_3_k10_patience_2": (3, 10, {"arch": "mlp", "hidden": 5, "patience": 2}),
    "weighted_decayed": (3, 4, {"arch": "mlp", "hidden": 4, "class_weighting": True,
                                "decay_epochs": (2, 4), "max_epochs": 5}),
    "nothing_held_out_no_decay": (3, 3, {"val_fraction": 0.0, "weight_decay": 0.0,
                                         "max_epochs": 4}),
    "zero_epochs": (3, 4, {"arch": "mlp", "max_epochs": 0}),
}


class TestRunStack:
    @pytest.mark.parametrize("case", list(STACK_CASES))
    def test_stack_equals_runs_one_by_one(self, case):
        runs, k, overrides = STACK_CASES[case]
        pool = class_pool(k)
        subset = repeated_subset(pool)
        cfg = replace(TrainConfig(batch_size=7, max_epochs=30, val_fraction=0.2), **overrides)
        seeds = [11 + r for r in range(runs)]
        stacked = train_parts([(pool, subset, seeds, None)], cfg)[0]
        assert len(stacked) == runs
        for seed, got in zip(seeds, stacked):
            assert_same_run(got, train(pool, subset, cfg, seed=seed))
        if cfg.patience:
            # runs leave the stack at different epochs
            assert len({len(r.train_loss) for r in stacked}) > 1

    @pytest.mark.parametrize("rate", [0.0, 1e-2])
    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_fine_tune_stack_equals_runs_one_by_one(self, rate, arch):
        pool = class_pool(4)
        subset = repeated_subset(pool)
        cfg = TrainConfig(arch=arch, hidden=5, batch_size=7, max_epochs=3, fine_tune_rate=rate)
        pretrained = train_parts([(pool, full_subset(pool), [1, 2, 3], None)], cfg)[0]
        starts = [r.checkpoints[-1].params for r in pretrained]
        stacked = train_parts([(pool, subset, [21, 22, 23], starts)], cfg)[0]
        for seed, start, got in zip([21, 22, 23], starts, stacked):
            assert_same_run(got, fine_tune(pool, subset, start, cfg, seed=seed))
            assert [c.epoch for c in got.checkpoints] == [1, 2, 3]
            if rate == 0.0:
                for ta, tb in zip(got.checkpoints[-1].params.tensors, start.tensors):
                    assert_array_equal(ta, tb)

    def test_starts_are_not_written(self):
        pool = class_pool(3)
        cfg = TrainConfig(batch_size=7, max_epochs=2, fine_tune_rate=1e-2)
        pretrained = train_parts([(pool, full_subset(pool), [1, 2], None)], cfg)[0]
        starts = [r.checkpoints[-1].params for r in pretrained]
        before = [[t.copy() for t in s.tensors] for s in starts]
        train_parts([(pool, full_subset(pool), [5, 6], starts)], cfg)[0]
        for start, kept in zip(starts, before):
            for ta, tb in zip(start.tensors, kept):
                assert_array_equal(ta, tb)

    def test_starts_must_match_the_seeds(self):
        pool = class_pool(3)
        logistic = init_params("logistic", pool.n_features, 3, 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="2 starting models for 1 run seeds"):
            train_parts([(pool, full_subset(pool), [1], [logistic, logistic])], TrainConfig(max_epochs=1))

    def test_pinned_mlp_run(self):
        # a one-run result fixed by value, so that the one-run case and the
        # stack cannot drift together unseen
        pool = small_pool(3)
        cfg = TrainConfig(arch="mlp", hidden=6, max_epochs=5, batch_size=7, weight_decay=1e-3,
                          class_weighting=True, decay_epochs=(4,), checkpoint_window=3,
                          val_fraction=0.2)
        result = train(pool, full_subset(pool), cfg, seed=11)
        digest = hashlib.sha256()
        for ckpt in result.checkpoints:
            digest.update(b"%d" % ckpt.epoch)
            for tensor in ckpt.params.tensors:
                digest.update(tensor.tobytes())
        digest.update(np.asarray(result.val_accuracy).tobytes())
        assert digest.hexdigest() == (
            "ebce3fb1d1b3834a9d91352163bb29b5526c07bfc9f4a1d0dd52ec2187bff4ac"
        )
        # the running loss, pinned apart: it changed meaning while the weights
        # and accuracies above kept their bytes
        assert hashlib.sha256(np.asarray(result.train_loss).tobytes()).hexdigest() == (
            "a05a6d1c6bae21b8a0d86175548010b1c9bad89671273c3dc8c6547589e14c0f"
        )

    def test_pinned_unweighted_logistic_stack(self):
        # a three-run stack fixed by value, without class weighting; the
        # middle run stops early at epoch 3 and leaves the stack, the others
        # run all six epochs and roll their four-checkpoint windows
        pool = class_pool(4)
        cfg = TrainConfig(batch_size=7, max_epochs=6, weight_decay=1e-3, patience=2,
                          val_fraction=0.2, checkpoint_window=4)
        results = train_parts([(pool, repeated_subset(pool), [10, 11, 12], None)], cfg)[0]
        assert [len(r.train_loss) for r in results] == [6, 3, 6]
        digest = hashlib.sha256()
        for result in results:
            for ckpt in result.checkpoints:
                digest.update(b"%d" % ckpt.epoch)
                for tensor in ckpt.params.tensors:
                    digest.update(tensor.tobytes())
            digest.update(np.asarray(result.val_accuracy).tobytes())
            digest.update(np.asarray(result.train_loss).tobytes())
        assert digest.hexdigest() == (
            "0b7bf70eb27e8a688e7743856fb8d3ab2f75a825199c3539a6f30e2414673991"
        )


class TestParts:
    """Several parts, each (pool, subset, seeds, starts), trained by one call."""

    @staticmethod
    def count_stacks(monkeypatch):
        stacks = []
        real = alsift.learner._train_stack

        def counted(subsets, runs, config):
            stacks.append((len(subsets), len(runs)))
            return real(subsets, runs, config)

        monkeypatch.setattr(alsift.learner, "_train_stack", counted)
        return stacks

    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_parts_of_other_pools_stop_early_unevenly_as_each_alone(self, arch, monkeypatch):
        pools = [class_pool(3, seed=seed) for seed in (2, 3, 4)]
        cfg = TrainConfig(arch=arch, hidden=5, batch_size=7, max_epochs=30, val_fraction=0.2,
                          patience=2, class_weighting=True)
        parts = [
            (pool, repeated_subset(pool), [11 + p, 21 + p], None) for p, pool in enumerate(pools)
        ]
        stacks = self.count_stacks(monkeypatch)
        stacked = train_parts(parts, cfg)
        assert stacks == [(3, 6)]
        for (pool, subset, seeds, _), got in zip(parts, stacked):
            for seed, run in zip(seeds, got, strict=True):
                assert_same_run(run, train(pool, subset, cfg, seed=seed))
        assert len({len(run.train_loss) for got in stacked for run in got}) > 1

    def test_fine_tune_parts_equal_each_alone(self):
        pools = [class_pool(4, seed=seed) for seed in (2, 3)]
        cfg = TrainConfig(arch="mlp", hidden=5, batch_size=7, max_epochs=3, fine_tune_rate=1e-2)
        parts = []
        for p, pool in enumerate(pools):
            pretrained = train_parts([(pool, full_subset(pool), [p, p + 5], None)], cfg)[0]
            starts = [r.checkpoints[-1].params for r in pretrained]
            parts.append((pool, repeated_subset(pool), [31 + p, 41 + p], starts))
        for (pool, subset, seeds, starts), got in zip(parts, train_parts(parts, cfg)):
            for seed, start, run in zip(seeds, starts, got, strict=True):
                assert_same_run(run, fine_tune(pool, subset, start, cfg, seed=seed))

    def test_row_counts_that_differ_stack_apart(self, monkeypatch):
        pool = class_pool(3)
        cfg = TrainConfig(batch_size=7, max_epochs=2)
        small, large = (SubsetState.from_ids(pool.sample_ids[:n]) for n in (40, 60))
        stacks = self.count_stacks(monkeypatch)
        got = train_parts([(pool, small, [1], None), (pool, large, [2, 3], None),
                           (pool, small, [4], None)], cfg)
        assert sorted(stacks) == [(1, 2), (1, 2)]
        assert [len(runs) for runs in got] == [1, 2, 1]
        assert_same_run(got[2][0], train(pool, small, cfg, seed=4))

    def test_a_shared_subset_is_worked_out_once(self, monkeypatch):
        pool = class_pool(3)
        subset = repeated_subset(pool)
        calls = []
        real = alsift.learner._held_out
        monkeypatch.setattr(
            alsift.learner, "_held_out", lambda ids, f: calls.append(len(ids)) or real(ids, f)
        )
        stacks = self.count_stacks(monkeypatch)
        train_parts([(pool, subset, [1], None), (pool, subset, [2, 3], None)], TrainConfig(max_epochs=1))
        assert calls == [pool.n_samples]
        assert stacks == [(1, 3)]

    @pytest.mark.parametrize("rate", [0.0, 1e-2])
    def test_a_mixed_call_stacks_each_kind_apart_and_equals_each_run_alone(self, rate, monkeypatch):
        # fresh and fine-tuned runs on one subset, starts of two architectures
        # within one part, and pools of two class counts (each 120 samples,
        # so of equal row counts), all in one call
        pool, other = class_pool(3), class_pool(4)
        cfg = TrainConfig(arch="mlp", hidden=5, batch_size=7, max_epochs=3, val_fraction=0.2,
                          fine_tune_rate=rate, class_weighting=True)
        rng = np.random.default_rng(0)
        mlp, logistic = (init_params(arch, pool.n_features, 3, 4, rng) for arch in ("mlp", "logistic"))
        subset = repeated_subset(pool)
        parts = [
            (pool, subset, [1, 2], None),
            (pool, subset, [3, 4, 5], [mlp, logistic, mlp]),
            (other, repeated_subset(other), [6], None),
            (pool, subset, [7], [logistic]),
        ]
        stacks = self.count_stacks(monkeypatch)
        got = train_parts(parts, cfg)
        # fresh on 3 classes, MLP starts, logistic starts, fresh on 4 classes
        assert stacks == [(1, 2), (1, 2), (1, 2), (1, 1)]
        for (part_pool, part_subset, seeds, starts), runs in zip(parts, got):
            for seed, start, run in zip(seeds, starts or [None] * len(seeds), runs, strict=True):
                want = (train(part_pool, part_subset, cfg, seed=seed) if start is None
                        else fine_tune(part_pool, part_subset, start, cfg, seed=seed))
                assert_same_run(run, want)
                assert (run.checkpoints[-1].params.arch, run.checkpoints[-1].params.hidden) == (
                    ("mlp", 5) if start is None else (start.arch, start.hidden))

    def test_a_start_must_match_its_own_pool(self):
        pool, other = class_pool(3), class_pool(4)
        cfg = TrainConfig(max_epochs=1)
        start = init_params("logistic", pool.n_features, 3, 0, np.random.default_rng(0))
        assert len(train_parts([(pool, full_subset(pool), [1], [start])], cfg)[0]) == 1
        with pytest.raises(ValueError, match="^model shape does not match the pool$"):
            train_parts([(pool, full_subset(pool), [1], [start]),
                         (other, full_subset(other), [2], [start])], cfg)

    def test_a_part_without_seeds_trains_nothing(self):
        pool = class_pool(3)
        got = train_parts([(pool, SubsetState(), [], None), (pool, full_subset(pool), [1], None)],
                          TrainConfig(max_epochs=1))
        assert got[0] == [] and len(got[1]) == 1


class TestOneStackShape:
    """Epoch ends evaluate the whole run stack at once: one accuracy pass per
    epoch, whatever the number of runs and of the subsets they train on,
    while the runs' gathered rows and layer outputs fit ``_EVAL_VALUES``; a
    larger stack goes in groups. The epoch's loss comes from the batch
    steps, so no loss pass runs unless the rate is zero."""

    @staticmethod
    def count_calls(monkeypatch):
        """The run-group shapes of each accuracy pass, and of each loss pass:
        a ``_log_likelihood`` call outside an SGD step, whose own forward pass
        is the one its ``_gradients`` call follows."""
        calls = {"loss": [], "_accuracy": []}
        real = {name: getattr(alsift.learner, name) for name in ("_log_likelihood", "_gradients", "_accuracy")}

        def log_likelihood(tensors, *args, **kwargs):
            calls["loss"].append(tensors[0].shape[:-2])
            return real["_log_likelihood"](tensors, *args, **kwargs)

        def gradients(tensors, *args, **kwargs):
            assert calls["loss"].pop() == tensors[0].shape[:-2]  # the step's own forward pass
            return real["_gradients"](tensors, *args, **kwargs)

        def accuracy(tensors, *args, **kwargs):
            calls["_accuracy"].append(tensors[0].shape[:-2])
            return real["_accuracy"](tensors, *args, **kwargs)

        monkeypatch.setattr(alsift.learner, "_log_likelihood", log_likelihood)
        monkeypatch.setattr(alsift.learner, "_gradients", gradients)
        monkeypatch.setattr(alsift.learner, "_accuracy", accuracy)
        return calls

    @pytest.mark.parametrize("runs", [1, 3, 5])
    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_one_loss_and_one_accuracy_call_per_epoch(self, runs, arch, monkeypatch):
        pool = class_pool(4)
        cfg = TrainConfig(arch=arch, hidden=5, batch_size=7, max_epochs=4, weight_decay=1e-3)
        calls = self.count_calls(monkeypatch)
        results = train_parts([(pool, repeated_subset(pool), range(runs), None)], cfg)[0]
        assert calls == {"loss": [], "_accuracy": [(runs,)] * 4}
        assert all(len(r.train_loss) == 4 for r in results)

    @pytest.mark.parametrize("runs", [1, 3, 5])
    def test_zero_epochs_make_one_accuracy_call(self, runs, monkeypatch):
        pool = class_pool(4)
        cfg = TrainConfig(max_epochs=0)
        calls = self.count_calls(monkeypatch)
        results = train_parts([(pool, repeated_subset(pool), range(runs), None)], cfg)[0]
        assert calls == {"loss": [], "_accuracy": [(runs,)]}
        assert [c.epoch for r in results for c in r.checkpoints] == [0] * runs

    @pytest.mark.parametrize("runs", [1, 3])
    def test_zero_rate_fine_tune_makes_one_loss_call(self, runs, monkeypatch):
        # the weights never move, so one loss and one accuracy pass serve every epoch
        pool = class_pool(4)
        cfg = TrainConfig(batch_size=7, max_epochs=3, fine_tune_rate=0.0, weight_decay=1e-3)
        pretrained = train_parts([(pool, full_subset(pool), range(runs), None)], cfg)[0]
        starts = [r.checkpoints[-1].params for r in pretrained]
        calls = self.count_calls(monkeypatch)
        results = train_parts([(pool, repeated_subset(pool), range(runs), starts)], cfg)[0]
        assert calls == {"loss": [(runs,)], "_accuracy": [(runs,)]}
        assert all(len(set(r.train_loss)) == 1 and len(r.train_loss) == 3 for r in results)
        assert all(len(set(r.val_accuracy)) == 1 and len(r.val_accuracy) == 3 for r in results)

    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_a_stack_past_the_budget_goes_run_by_run_to_the_same_results(self, arch, monkeypatch):
        pool = class_pool(4)
        cfg = TrainConfig(arch=arch, hidden=5, batch_size=7, max_epochs=3, weight_decay=1e-3)
        whole = train_parts([(pool, repeated_subset(pool), range(5), None)], cfg)[0]
        monkeypatch.setattr(alsift.learner, "_EVAL_VALUES", 1)
        calls = self.count_calls(monkeypatch)
        grouped = train_parts([(pool, repeated_subset(pool), range(5), None)], cfg)[0]
        assert calls == {"loss": [], "_accuracy": [(1,)] * 15}
        for got, want in zip(grouped, whole):
            assert_same_run(got, want)

    def test_a_zero_rate_stack_past_the_budget_takes_one_loss_pass_per_run_group(self, monkeypatch):
        pool = class_pool(4)
        cfg = TrainConfig(batch_size=7, max_epochs=3, fine_tune_rate=0.0, weight_decay=1e-3)
        starts = [r.checkpoints[-1].params
                  for r in train_parts([(pool, full_subset(pool), range(3), None)], cfg)[0]]
        whole = train_parts([(pool, repeated_subset(pool), range(3), starts)], cfg)[0]
        monkeypatch.setattr(alsift.learner, "_EVAL_VALUES", 1)
        calls = self.count_calls(monkeypatch)
        grouped = train_parts([(pool, repeated_subset(pool), range(3), starts)], cfg)[0]
        assert calls == {"loss": [(1,)] * 3, "_accuracy": [(1,)] * 3}
        for got, want in zip(grouped, whole):
            assert_same_run(got, want)

    @staticmethod
    def three_subset_parts(pool, starts=(None, None, None)):
        """Two runs on each of three different subsets of ``pool`` with equal
        training and validation row counts, so that all six share one stack."""
        subsets = [SubsetState.from_ids(pool.sample_ids[lo : lo + 90]) for lo in (0, 15, 30)]
        return [(pool, subset, [2 * p, 2 * p + 1], start)
                for p, (subset, start) in enumerate(zip(subsets, starts))]

    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_the_runs_of_three_subsets_take_one_accuracy_pass_per_epoch(self, arch, monkeypatch):
        pool = class_pool(4)
        cfg = TrainConfig(arch=arch, hidden=5, batch_size=7, max_epochs=3)
        calls = self.count_calls(monkeypatch)
        train_parts(self.three_subset_parts(pool), cfg)
        assert calls == {"loss": [], "_accuracy": [(6,)] * 3}

    def test_zero_epochs_on_three_subsets_make_one_accuracy_call(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        results = train_parts(self.three_subset_parts(class_pool(4)), TrainConfig(max_epochs=0))
        assert calls == {"loss": [], "_accuracy": [(6,)]}
        assert [c.epoch for part in results for r in part for c in r.checkpoints] == [0] * 6

    def test_a_zero_rate_fine_tune_on_three_subsets_makes_one_loss_call(self, monkeypatch):
        pool = class_pool(4)
        cfg = TrainConfig(batch_size=7, max_epochs=3, fine_tune_rate=0.0, class_weighting=True)
        pretrained = train_parts([(pool, full_subset(pool), range(6), None)], cfg)[0]
        starts = [[r.checkpoints[-1].params for r in pretrained[p : p + 2]] for p in (0, 2, 4)]
        calls = self.count_calls(monkeypatch)
        train_parts(self.three_subset_parts(pool, starts), cfg)
        assert calls == {"loss": [(6,)], "_accuracy": [(6,)]}

    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_a_group_across_a_subset_boundary_gives_each_run_its_own_rows(self, arch, monkeypatch):
        pool = class_pool(4)
        cfg = TrainConfig(arch=arch, hidden=5, batch_size=7, max_epochs=3)
        parts = self.three_subset_parts(pool)
        whole = train_parts(parts, cfg)
        # a run's share of the budget: its gathered validation features and
        # labels, and its layer outputs; four runs fit, so the first group
        # holds the runs of the first two subsets
        n_val = len(alsift.learner._subset_rows(pool, parts[0][1], cfg, "")[2])
        width = pool.n_classes + (cfg.hidden if arch == "mlp" else 0)
        monkeypatch.setattr(alsift.learner, "_EVAL_VALUES", 4 * n_val * (pool.n_features + 1 + width))
        calls = self.count_calls(monkeypatch)
        grouped = train_parts(parts, cfg)
        assert calls == {"loss": [], "_accuracy": [(4,), (2,)] * 3}
        for got_part, want_part in zip(grouped, whole, strict=True):
            for got, want in zip(got_part, want_part, strict=True):
                assert_same_run(got, want)

    def test_a_validation_pass_holds_its_budget_however_many_runs(self):
        # one pass of 80 runs over 2000 held-out rows of 20 features would hold
        # 80 x 2000 x (20 + 1 + 4) values, 32 MiB of gathered rows and logits;
        # the groups hold 2**20 values, 8 MiB, at a time
        pool = class_pool(4, n=4000, d=20)
        cfg = TrainConfig(max_epochs=0, val_fraction=0.5)
        tracemalloc.start()
        try:
            train_parts([(pool, full_subset(pool), range(80), None)], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestOneForwardPath:
    """Only ``_log_likelihood`` computes the log probabilities of labelled
    rows: an SGD step takes it once before its one backward pass, and the
    zero-rate loss and ``loss_and_gradients`` take it directly."""

    @staticmethod
    def count_passes(monkeypatch):
        calls = []
        for name in ("_log_likelihood", "_gradients"):
            real = getattr(alsift.learner, name)

            def counted(tensors, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, tensors[0].shape[:-2]))
                return _real(tensors, *args, **kwargs)

            monkeypatch.setattr(alsift.learner, name, counted)
        return calls

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("arch", ["logistic", "mlp"])
    def test_a_step_takes_one_forward_and_one_backward_pass(self, arch, runs, weighted, monkeypatch):
        pool, epochs = class_pool(4), 2
        subset = repeated_subset(pool)
        cfg = TrainConfig(arch=arch, hidden=5, batch_size=7, max_epochs=epochs,
                          class_weighting=weighted)
        n_rows = len(alsift.learner._subset_rows(pool, subset, cfg, "")[1])
        calls = self.count_passes(monkeypatch)
        train_parts([(pool, subset, range(runs), None)], cfg)
        step = [("_log_likelihood", (runs,)), ("_gradients", (runs,))]
        assert calls == step * (epochs * math.ceil(n_rows / 7))

    @pytest.mark.parametrize("runs", [1, 3])
    def test_a_zero_rate_fine_tune_takes_one_forward_pass(self, runs, monkeypatch):
        pool = class_pool(4)
        cfg = TrainConfig(batch_size=7, max_epochs=3, fine_tune_rate=0.0, class_weighting=True)
        pretrained = train_parts([(pool, full_subset(pool), range(runs), None)], cfg)[0]
        starts = [r.checkpoints[-1].params for r in pretrained]
        calls = self.count_passes(monkeypatch)
        train_parts([(pool, repeated_subset(pool), range(runs), starts)], cfg)
        assert calls == [("_log_likelihood", (runs,))]

    def test_loss_and_gradients_take_one_pass_each(self, monkeypatch):
        pool = small_pool()
        params = init_params("mlp", pool.n_features, pool.n_classes, 4, np.random.default_rng(0))
        calls = self.count_passes(monkeypatch)
        loss_and_gradients(params, pool.features, pool.labels, np.ones(pool.n_classes), 1e-3)
        assert calls == [("_log_likelihood", ()), ("_gradients", ())]


def putmask_gradients(tensors, inputs, probs, labels, weight_decay, grads, sample_w=None):
    """A reference backward pass: ``learner._gradients`` with each label's
    probability decremented through a 2-D (row, label) index and the ReLU
    backward by ``np.putmask``."""
    n = labels.shape[-1]
    flat = probs.reshape(-1, probs.shape[-1])
    flat[np.arange(len(flat)), labels.ravel()] -= 1.0
    probs *= 1.0 / n if sample_w is None else (sample_w / n)[..., None]
    delta = probs
    for w, grad_w, grad_b in zip(tensors[-2::-2], grads[-2::-2], grads[::-2]):
        layer_input = inputs.pop()
        np.matmul(np.swapaxes(layer_input, -1, -2), delta, out=grad_w)
        if weight_decay:
            grad_w += weight_decay * w
        delta.sum(axis=-2, out=grad_b)
        if inputs:
            delta = delta @ np.swapaxes(w, -1, -2)
            np.putmask(delta, layer_input <= 0.0, 0.0)
    return grads


def small_integers(shape):
    """Float64 arrays of small integers, so that sums of products hit exactly 0."""
    return hnp.arrays(np.float64, shape, elements=st.integers(-2, 2).map(float))


class TestReluBackward:
    """The backward pass zeroes the delta of an inactive ReLU unit by a
    multiply with the unit's mask. Where a pre-activation is exactly 0 it
    must zero what ``np.putmask`` zeroes, so every gradient and weight byte
    is that of the reference pass."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_steps_through_exact_zero_pre_activations_match_putmask(self, data):
        d, k, hidden = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (2, 4), (1, 6)))
        n, runs = data.draw(st.integers(5, 24)), data.draw(st.integers(1, 3))
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        pool = LabeledPool(data.draw(small_integers((n, d))), labels, np.arange(n), k)
        shapes = alsift.learner._tensor_shapes("mlp", d, k, hidden)
        starts = [ModelParams("mlp", d, k, hidden, tuple(data.draw(small_integers(s)) for s in shapes))
                  for _ in range(runs)]
        assume(any((pool.features @ s.tensors[0] + s.tensors[1] == 0.0).any() for s in starts))
        cfg = TrainConfig(arch="mlp", hidden=hidden, batch_size=data.draw(st.integers(2, 8)), max_epochs=2,
                          fine_tune_rate=data.draw(st.sampled_from([0.125, 0.3])),
                          momentum=data.draw(st.sampled_from([0.0, 0.9])),
                          weight_decay=data.draw(st.sampled_from([0.0, 1e-3])),
                          class_weighting=data.draw(st.booleans()), val_fraction=0.2)
        parts = [(pool, full_subset(pool), range(runs), starts)]

        def passes():
            grads = [loss_and_gradients(s, pool.features, pool.labels, weight_decay=cfg.weight_decay)[1]
                     for s in starts]
            return [[g.tobytes() for g in run] for run in grads], train_parts(parts, cfg)[0]

        grads, got = passes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(alsift.learner, "_gradients", putmask_gradients)
            want_grads, want = passes()
        assert grads == want_grads
        for a, b in zip(got, want, strict=True):
            assert_same_run(a, b)


class TestEarlyStoppingNeedsHeldOutIds:
    def test_patience_without_validation_fraction_is_refused(self):
        pool = small_pool()
        cfg = TrainConfig(max_epochs=3, patience=1, val_fraction=0.0)
        with pytest.raises(ValueError, match=r"patience = 1 .*val_fraction = 0 holds out none"):
            train(pool, full_subset(pool), cfg, seed=1)

    def test_subset_too_small_to_hold_out_is_refused(self):
        pool = small_pool()
        cfg = TrainConfig(max_epochs=3, patience=2, val_fraction=0.1)
        with pytest.raises(ValueError, match="val_fraction = 0.1 holds out none of the subset's 9"):
            train(pool, SubsetState.from_ids(range(9)), cfg, seed=1)
        # ten ids hold one out, and early stopping runs on it
        assert train(pool, SubsetState.from_ids(range(10)), cfg, seed=1).train_loss

    def test_without_patience_training_rows_stand_in(self):
        pool = small_pool()
        cfg = TrainConfig(max_epochs=2, val_fraction=0.0)
        result = train(pool, full_subset(pool), cfg, seed=1)
        want = np.mean(np.argmax(reference_proba(result.checkpoints[-1].params, pool.features), axis=1)
                       == pool.labels)
        assert result.val_accuracy[-1] == want


def store_with_runs(pool, seeds, epochs=6, window=6):
    cfg = TrainConfig(max_epochs=epochs, batch_size=16, checkpoint_window=window)
    store = CheckpointStore()
    for s in seeds:
        store.add_run(train(pool, full_subset(pool), cfg, seed=s).checkpoints)
    return store


class TestEnsembles:
    def test_member_counts_per_mode(self):
        pool = small_pool()
        store = store_with_runs(pool, (3, 1, 2))
        # config, members, runs_needed, per_run, epochs_needed
        cases = [
            (EnsembleConfig(mode="single"), 1, 1, 1, 1),
            (EnsembleConfig(mode="seeds", runs=3), 3, 3, 1, 1),
            (EnsembleConfig(mode="checkpoints", checkpoints_per_run=4), 4, 1, 4, 4),
            (EnsembleConfig(mode="combined", runs=2, checkpoints_per_run=3), 6, 2, 3, 3),
        ]
        for cfg, count, runs, per_run, epochs in cases:
            assert cfg.runs_needed * cfg.per_run == count
            assert (cfg.runs_needed, cfg.per_run, cfg.epochs_needed) == (runs, per_run, epochs)
            assert len(build_ensemble(store, cfg)) == count
        # the stride widens the epoch span only where a run gives several members
        strided = {
            "single": (1, 1, 1),
            "seeds": (2, 1, 1),
            "checkpoints": (1, 3, 5),
            "combined": (2, 3, 5),
        }
        for mode, expected in strided.items():
            cfg = EnsembleConfig(mode=mode, runs=2, checkpoints_per_run=3, stride=2)
            assert (cfg.runs_needed, cfg.per_run, cfg.epochs_needed) == expected
            assert cfg.runs_needed * cfg.per_run == expected[0] * expected[1]

    def test_checkpoints_mode_takes_newest_with_stride(self):
        pool = small_pool()
        store = store_with_runs(pool, (5,), epochs=8, window=8)
        members = build_ensemble(
            store, EnsembleConfig(mode="checkpoints", checkpoints_per_run=3, stride=2)
        )
        wanted = [store.get(5, ep).params for ep in (4, 6, 8)]
        for got, want in zip(members, wanted):
            assert got is want

    def test_seeds_mode_picks_best_validation(self):
        store = CheckpointStore()
        rng = np.random.default_rng(0)
        for run, accs in ((1, [0.2, 0.9, 0.5]), (2, [0.4, 0.1, 0.3])):
            for epoch, acc in enumerate(accs, start=1):
                store.add(Checkpoint(init_params("logistic", 3, 2, 0, rng), run, epoch,
                                     val_accuracy=acc))
        members = build_ensemble(store, EnsembleConfig(mode="seeds", runs=2))
        assert members[0] is store.get(1, 2).params
        assert members[1] is store.get(2, 1).params

    def test_seeds_mode_without_metrics_falls_back_to_newest(self):
        store = CheckpointStore()
        rng = np.random.default_rng(0)
        for epoch in (1, 2, 3):
            store.add(Checkpoint(init_params("logistic", 3, 2, 0, rng), 7, epoch))
        members = build_ensemble(store, EnsembleConfig(mode="seeds", runs=1))
        assert members[0] is store.get(7, 3).params

    def test_missing_runs_rejected(self):
        pool = small_pool()
        store = store_with_runs(pool, (1,))
        with pytest.raises(ValueError, match="runs"):
            build_ensemble(store, EnsembleConfig(mode="seeds", runs=2))

    def test_missing_checkpoints_rejected(self):
        pool = small_pool()
        store = store_with_runs(pool, (1,), epochs=3, window=3)
        with pytest.raises(ValueError, match="stride"):
            build_ensemble(store, EnsembleConfig(mode="checkpoints", checkpoints_per_run=5))

    def test_duplicate_checkpoint_rejected(self):
        store = CheckpointStore()
        ckpt = Checkpoint(init_params("logistic", 3, 2, 0, np.random.default_rng(0)), 1, 1)
        store.add(ckpt)
        with pytest.raises(ValueError, match="already stored"):
            store.add(ckpt)

    def test_predict_pool_shape_and_rows(self):
        pool = small_pool()
        store = store_with_runs(pool, (1, 2))
        members = build_ensemble(store, EnsembleConfig(mode="seeds", runs=2))
        tensor = predict_pool(members, pool, ids=[5, 3, 8])
        assert tensor.data.shape == (3, 2, pool.n_classes)
        assert tensor.data.dtype == np.float32
        assert [int(i) for i in tensor.sample_ids] == [5, 3, 8]
        assert_allclose(tensor.data.sum(axis=2), 1.0, atol=1e-6)
        direct = reference_proba(members[0], pool.features[pool.rows_for([3])])
        assert_allclose(tensor.data[1, 0], direct[0], atol=1e-7)


class TestCheckpointFiles:
    def test_round_trip_preserves_header_and_tensors(self, tmp_path):
        rng = np.random.default_rng(4)
        params = init_params("mlp", 5, 3, 7, rng)
        ckpt = Checkpoint(params, run_seed=42, epoch=17)
        path = tmp_path / "run42_ep17.alck"
        write_checkpoint(path, ckpt)
        back = read_checkpoint(path)
        assert back.params.arch == "mlp"
        assert back.run_seed == 42 and back.epoch == 17
        assert (back.params.n_features, back.params.n_classes, back.params.hidden) == (5, 3, 7)
        for ta, tb in zip(back.params.tensors, params.tensors):
            assert_array_equal(ta, tb.astype(np.float32).astype(np.float64))

    def test_weights_beyond_float32_are_refused_not_written_as_infinities(self, tmp_path):
        params = init_params("logistic", 3, 2, 0, np.random.default_rng(0))
        params.tensors[0][1, 0] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^member weights outside the float32 range"):
                write_checkpoint(tmp_path / "c.alck", Checkpoint(params, 1, 1))
        assert list(tmp_path.iterdir()) == []

    def test_magic_and_version_checked(self, tmp_path):
        path = tmp_path / "zz.alck"
        path.write_bytes(b"WXYZ" + b"\0" * 60)
        with pytest.raises(ValueError, match="magic"):
            read_checkpoint(path)

    def test_predictions_survive_round_trip(self, tmp_path):
        pool = small_pool()
        result = train(pool, full_subset(pool), TrainConfig(max_epochs=4, batch_size=16), seed=1)
        ckpt = result.checkpoints[-1]
        write_checkpoint(tmp_path / "c.alck", ckpt)
        back = read_checkpoint(tmp_path / "c.alck")
        before = reference_proba(ckpt.params, pool.features)
        after = reference_proba(back.params, pool.features)
        assert_allclose(after, before, atol=1e-6)

    def test_reloaded_store_scores_like_the_in_memory_ensemble(self, tmp_path):
        """Pool inference rounds weights to float32 as ``.alck`` stores them,
        so a saved and reloaded ensemble scores and votes byte for byte like
        the one it was saved from."""
        pool = small_pool(seed=3, n=600, d=8, k=4)
        trainer = TrainConfig(arch="mlp", hidden=12, max_epochs=5, batch_size=16)
        ensemble = EnsembleConfig(mode="combined", runs=3, checkpoints_per_run=3)
        store, members = train_subset_ensemble(pool, full_subset(pool), ensemble, trainer, seed=7)
        store.save(tmp_path / "store")
        reloaded = build_ensemble(CheckpointStore.load(tmp_path / "store"), ensemble)
        assert len(reloaded) == len(members) == 9
        for function_id in ("mutual_information", "entropy", "variation_ratios"):
            want, want_votes = pool_pass(PoolBlocks(members, pool), function_id, votes=True)
            got, got_votes = pool_pass(PoolBlocks(reloaded, pool), function_id, votes=True)
            assert_array_equal(got.sample_ids, want.sample_ids)
            assert got.scores.tobytes() == want.scores.tobytes()
            assert got_votes.tobytes() == want_votes.tobytes()

    def test_store_save_load_round_trip(self, tmp_path):
        pool = small_pool()
        store = store_with_runs(pool, (2, 1), epochs=4, window=3)
        store.save(tmp_path / "store")
        names = sorted(p.name for p in (tmp_path / "store").glob("*.alck"))
        assert names[0] == "run1_ep2.alck"
        back = CheckpointStore.load(tmp_path / "store")
        assert back.run_seeds() == [1, 2]
        assert back.epochs(1) == [2, 3, 4]
        orig = store.get(1, 3)
        loaded = back.get(1, 3)
        assert loaded.val_accuracy == pytest.approx(orig.val_accuracy)
        assert loaded.subset_digest == orig.subset_digest
        for ta, tb in zip(loaded.params.tensors, orig.params.tensors):
            assert_array_equal(ta, tb.astype(np.float32).astype(np.float64))

    def test_save_into_a_used_directory_holds_exactly_the_new_store(self, tmp_path):
        pool = small_pool()
        store_with_runs(pool, (1, 2), epochs=4, window=3).save(tmp_path / "store")
        (tmp_path / "store" / "notes.txt").write_text("kept")
        smaller = store_with_runs(pool, (3,), epochs=3, window=2)
        smaller.save(tmp_path / "store")
        names = sorted(p.name for p in (tmp_path / "store").glob("*.alck"))
        assert names == ["run3_ep2.alck", "run3_ep3.alck"]
        assert (tmp_path / "store" / "notes.txt").read_text() == "kept"
        back = CheckpointStore.load(tmp_path / "store")
        assert back.run_seeds() == [3]
        assert back.epochs(3) == [2, 3]
        for epoch in (2, 3):
            assert back.get(3, epoch).val_accuracy == smaller.get(3, epoch).val_accuracy
        # seeds mode picks among the saved runs only
        assert len(build_ensemble(back, EnsembleConfig(mode="seeds", runs=1))) == 1
        with pytest.raises(ValueError, match="store holds 1 runs; 2 requested"):
            build_ensemble(back, EnsembleConfig(mode="seeds", runs=2))

    def test_a_save_failing_part_way_leaves_the_old_store(self, tmp_path, monkeypatch):
        old = store_with_runs(small_pool(0), (1,), epochs=3, window=3)
        old.save(tmp_path / "store")
        before = {p.name: p.read_bytes() for p in (tmp_path / "store").iterdir()}
        real, written = alsift.learner.atomic_file, []

        @contextmanager
        def third_checkpoint_fails(path, binary=False):
            with real(path, binary) as fh:
                if str(path).endswith(".alck"):
                    written.append(path)
                    if len(written) == 3:
                        fh.write(b"ALCK")  # a torn start, then the failure
                        raise OSError("disk full")
                yield fh

        monkeypatch.setattr(alsift.learner, "atomic_file", third_checkpoint_fails)
        # the same run seed and epochs, so the same file names, but new weights
        new = store_with_runs(small_pool(1), (1,), epochs=3, window=3)
        with pytest.raises(OSError, match="disk full"):
            new.save(tmp_path / "store")
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in (tmp_path / "store").iterdir()} == before
        back = CheckpointStore.load(tmp_path / "store")
        assert back.run_seeds() == [1] and back.epochs(1) == [1, 2, 3]
        for epoch in (1, 2, 3):
            assert back.get(1, epoch).val_accuracy == old.get(1, epoch).val_accuracy
            for ta, tb in zip(back.get(1, epoch).params.tensors, old.get(1, epoch).params.tensors):
                assert_array_equal(ta, tb.astype(np.float32).astype(np.float64))

    def test_a_save_holds_two_files_open_whatever_the_store_size(self, tmp_path, monkeypatch):
        # more checkpoints than the common default limit of 1,024 open files
        params = init_params("logistic", 1, 2, 0, np.random.default_rng(0))
        store = CheckpointStore()
        for run in range(55):
            for epoch in range(1, 21):
                store.add(Checkpoint(params, run_seed=run, epoch=epoch))
        real, handles, peak = alsift.learner.atomic_file, [], []

        @contextmanager
        def counted(path, binary=False):
            with real(path, binary) as fh:
                handles.append(fh)
                peak.append(sum(not h.closed for h in handles))
                yield fh

        monkeypatch.setattr(alsift.learner, "atomic_file", counted)
        store.save(tmp_path / "store")
        monkeypatch.undo()
        assert len(handles) == 1101 and max(peak) == 2
        back = CheckpointStore.load(tmp_path / "store")
        assert back.run_seeds() == list(range(55)) and back.epochs(54) == list(range(1, 21))

    def test_a_store_whose_files_and_meta_disagree_is_refused(self, tmp_path):
        # an interrupted copy or a deleted file must not change an ensemble unseen
        store_with_runs(small_pool(), (1, 2), epochs=4, window=4).save(tmp_path / "store")
        meta = tmp_path / "store" / "store_meta.csv"
        (tmp_path / "store" / "run2_ep4.alck").unlink()
        with pytest.raises(ValueError) as info:
            CheckpointStore.load(tmp_path / "store")
        assert str(info.value) == (
            "%s lists run 2 epoch 4, which no .alck file under %s holds" % (meta, tmp_path / "store")
        )
        # a checkpoint file the meta file does not list
        store_with_runs(small_pool(), (1, 2), epochs=4, window=4).save(tmp_path / "store")
        extra = tmp_path / "store" / "run3_ep1.alck"
        write_checkpoint(extra, Checkpoint(init_params("logistic", 5, 3, 0, np.random.default_rng(0)), 3, 1))
        with pytest.raises(ValueError) as info:
            CheckpointStore.load(tmp_path / "store")
        assert str(info.value) == "%s holds run 3 epoch 1, which %s does not list" % (extra, meta)
        # without a meta file, hand-written checkpoints load as they are
        meta.unlink()
        assert CheckpointStore.load(tmp_path / "store").run_seeds() == [1, 2, 3]

    def test_load_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CheckpointStore.load(tmp_path / "nope")

    @pytest.mark.parametrize("header", ["", "run,epoch,val_accuracy,subset_digest", "run_seed,epoch"])
    def test_store_meta_with_a_bad_header_names_the_file(self, tmp_path, header):
        store_with_runs(small_pool(), (1,), epochs=2, window=2).save(tmp_path / "store")
        meta = tmp_path / "store" / "store_meta.csv"
        meta.write_text(header and header + "\n1,2,0.5,ab\n")
        with pytest.raises(ValueError) as info:
            CheckpointStore.load(tmp_path / "store")
        assert str(info.value) == (
            "%s: expected header run_seed,epoch,val_accuracy,subset_digest" % meta
        )

    @pytest.mark.parametrize("row, message", [
        ("1,2,abc,ab", "could not convert string to float: 'abc'"),
        ("x,2,0.5,ab", "invalid literal for int() with base 10: 'x'"),
        ("1", "int() argument must be"),
        ("1,1,0.99,zzz", "duplicate row for run 1 epoch 1"),
    ])
    def test_store_meta_with_a_bad_cell_names_the_file_and_line(self, tmp_path, row, message):
        store_with_runs(small_pool(), (1,), epochs=2, window=2).save(tmp_path / "store")
        meta = tmp_path / "store" / "store_meta.csv"
        lines = meta.read_text().splitlines()
        meta.write_text("\n".join(lines[:2] + [row] + lines[2:]) + "\n")
        with pytest.raises(ValueError) as info:
            CheckpointStore.load(tmp_path / "store")
        assert str(info.value).startswith("%s line 3: %s" % (meta, message))
