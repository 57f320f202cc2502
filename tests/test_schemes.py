"""Selection primitives, subset state and the four search runners."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import alsift.schemes
from alsift import state as state_module
from alsift.acquisition import AcquisitionScores
from alsift.analysis import evaluate
from alsift.datagen import GeneratorSpec, generate_pool
from alsift.learner import EnsembleConfig, PoolBlocks, TrainConfig
from alsift.schemes import (
    SearchConfig,
    growth_schedule,
    outlier_window_select,
    run_automatic_duplication,
    run_build_up,
    run_compress,
    run_pretrain,
    run_scheme,
    select_top_k,
    train_subset_ensemble,
)
from alsift.state import (
    SubsetState,
    derive_seed,
    read_subset_csv,
    subset_hash,
    write_subset_csv,
)


def scores_of(values, ids=None):
    values = np.asarray(values, dtype=np.float64)
    if ids is None:
        ids = np.arange(len(values))
    return AcquisitionScores("entropy", values, np.asarray(ids, dtype=np.uint64))


class TestSubsetState:
    def test_counts_and_expansion(self):
        state = SubsetState({4: 2, 1: 1, 9: 3})
        assert state.unique_count == 3
        assert state.total_count == 6
        assert_array_equal(state.ids(), [1, 4, 9])
        assert_array_equal(state.as_training_ids(), [1, 4, 4, 9, 9, 9])

    def test_from_ids_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SubsetState.from_ids([1, 2, 1])

    def test_fractional_ids_are_refused_not_truncated(self):
        for call in (
            lambda: SubsetState.from_ids([3, 1.5]),
            lambda: SubsetState.from_ids(np.array([3.0, 1.5])),
            lambda: SubsetState({3: 1, 1.5: 2}),
            lambda: SubsetState.from_ids([3]).with_new_ids([1.5]),
        ):
            with pytest.raises(ValueError, match=r"^sample id 1\.5 is not an integer$"):
                call()
        assert_array_equal(SubsetState.from_ids([3.0, 2**63 + 1]).ids(), [3, 2**63 + 1])

    def test_with_new_ids_rejects_existing(self):
        state = SubsetState.from_ids([1, 2])
        with pytest.raises(ValueError, match="already in the subset"):
            state.with_new_ids([2])

    def test_subset_csv_round_trip(self, tmp_path):
        state = SubsetState({4: 2, 1: 1, 9: 3})
        path = tmp_path / "subset.csv"
        write_subset_csv(path, state)
        assert path.read_text().splitlines() == ["sample_id,multiplicity", "1,1", "4,2", "9,3"]
        assert read_subset_csv(path) == state

    def test_subset_csv_missing_or_empty_multiplicity_means_one(self, tmp_path):
        path = tmp_path / "subset.csv"
        path.write_text("sample_id,multiplicity\n3\n5,\n7,2\n")
        assert read_subset_csv(path) == SubsetState({3: 1, 5: 1, 7: 2})

    @pytest.mark.parametrize("rows, message", [
        ("1,1\n5,2,9\n", "line 3: expected at most 2 columns, found 3"),
        ("abc,1\n", "line 2: invalid literal"),
        ("1,1\n4,0\n", "line 3: multiplicity for sample 4 must be >= 1"),
        ("4,1\n2,1\n4,3\n", "line 4: duplicate sample id 4"),
    ], ids=["extra_cell", "unparsable_cell", "zero_multiplicity", "repeated_id"])
    def test_subset_csv_bad_row_names_its_line(self, rows, message, tmp_path):
        path = tmp_path / "subset.csv"
        path.write_text("sample_id,multiplicity\n" + rows)
        with pytest.raises(ValueError, match=message):
            read_subset_csv(path)

    def test_with_added_copies_increments(self):
        state = SubsetState.from_ids([1, 2]).with_added_copies([2, 3])
        assert state.multiplicity == {1: 1, 2: 2, 3: 1}

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            SubsetState({1: 0})

    @pytest.mark.parametrize("sid", [-3, 2**64], ids=["negative", "too_large"])
    def test_subset_csv_refuses_ids_outside_uint64(self, sid, tmp_path):
        path = tmp_path / "subset.csv"
        path.write_text("sample_id,multiplicity\n1,1\n%d,1\n" % sid)
        message = r"^line 3: sample id %d outside \[0, 2\*\*64\)$" % sid
        with pytest.raises(ValueError, match=message):
            read_subset_csv(path)

    @pytest.mark.parametrize("sid", [-3, 2**64], ids=["negative", "too_large"])
    def test_constructors_refuse_ids_outside_uint64(self, sid):
        message = r"sample id %d outside \[0, 2\*\*64\)" % sid
        with pytest.raises(ValueError, match=message):
            SubsetState({1: 1, sid: 1})
        with pytest.raises(ValueError, match=message):
            SubsetState.from_ids([1, sid])
        assert SubsetState.from_ids([0, 2**64 - 1]).ids().tolist() == [0, 2**64 - 1]

    def test_signed_id_arrays_are_range_checked(self):
        with pytest.raises(ValueError, match=r"^sample id -3 outside"):
            SubsetState.from_ids(np.array([1, -3]))
        assert SubsetState.from_ids(np.array([3, 1])).ids().tolist() == [1, 3]

    def test_arrays_are_aligned_and_read_only(self):
        state = SubsetState({4: 2, 1: 1, 9: 3})
        assert state.ids().dtype == np.uint64 and state.counts().dtype == np.int64
        assert state.counts().tolist() == [1, 2, 3]
        with pytest.raises(ValueError, match="read-only"):
            state.counts()[0] = 5
        assert not pickle.loads(pickle.dumps(state)).counts().flags.writeable
        assert state.multiplicity is state.multiplicity
        assert dict(state.multiplicity) == {1: 1, 4: 2, 9: 3}
        assert 2 not in state.multiplicity and -1 not in state.multiplicity

    def test_failed_subset_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "subset.csv"
        write_subset_csv(path, SubsetState({4: 2, 1: 1}))
        before = path.read_bytes()
        big = SubsetState.from_ids(range(3 * state_module._WRITE_ROWS))
        real_open, partial = open, []

        def disk_full_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            write_block = fh.writelines

            def writelines(lines):
                if partial:  # the second block of rows
                    fh.flush()
                    partial.extend(p.stat().st_size for p in tmp_path.iterdir() if p != path)
                    raise OSError("disk full")
                partial.append(len(lines))
                write_block(lines)

            fh.writelines = writelines
            return fh

        monkeypatch.setattr(state_module, "open", disk_full_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_subset_csv(path, big)
        assert len(partial) == 2 and partial[1] > 0  # one temp file, one block in it
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["subset.csv"]

    def test_hash_ignores_insertion_order(self):
        a = SubsetState({1: 2, 5: 1})
        b = SubsetState({5: 1, 1: 2})
        assert subset_hash(a) == subset_hash(b)
        assert subset_hash(a) != subset_hash(SubsetState({1: 1, 5: 2}))


class TestDeriveSeed:
    def test_deterministic_and_order_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(3, 2, 1)
        assert derive_seed(0) != derive_seed(1)


class TestSelectTopK:
    def test_picks_highest_in_rank_order(self):
        got = select_top_k(scores_of([0.1, 0.9, 0.5, 0.7]), 2)
        assert_array_equal(got, [1, 3])

    def test_score_ties_break_toward_lower_id(self):
        got = select_top_k(scores_of([0.5, 0.5, 0.5, 0.1], ids=[7, 3, 5, 1]), 2)
        assert_array_equal(got, [3, 5])

    def test_exclusion_equals_restriction(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(5, 40))
            vals = rng.random(n)
            excluded = {int(i) for i in rng.choice(n, size=n // 3, replace=False)}
            k = int(rng.integers(1, n - len(excluded) + 1))
            via_excluded = select_top_k(scores_of(vals), k, excluded)
            keep = [i for i in range(n) if i not in excluded]
            restricted = scores_of(vals[keep], ids=keep)
            assert_array_equal(via_excluded, select_top_k(restricted, k))

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            select_top_k(scores_of([1.0, 2.0]), 3)
        with pytest.raises(ValueError, match="exceeds"):
            select_top_k(scores_of([1.0, 2.0]), 2, excluded={0})

    def test_excluded_ids_outside_uint64_are_refused(self):
        with pytest.raises(ValueError, match=r"^sample id -1 outside \[0, 2\*\*64\)$"):
            select_top_k(scores_of([1.0, 2.0]), 1, [-1])

    def test_selected_count_is_exact(self):
        rng = np.random.default_rng(1)
        vals = rng.random(50)
        for k in (0, 1, 17, 50):
            assert len(select_top_k(scores_of(vals), k)) == k


class TestOutlierWindow:
    def test_skips_top_fraction(self):
        # ranks by score descending: ids 9..0
        vals = np.arange(10) / 10.0
        got = outlier_window_select(scores_of(vals), 4, 0.25)
        assert_array_equal(got, [7, 6, 5, 4])

    def test_fraction_zero_is_plain_top_k(self):
        rng = np.random.default_rng(3)
        vals = rng.random(25)
        assert_array_equal(
            outlier_window_select(scores_of(vals), 10, 0.0),
            select_top_k(scores_of(vals), 10),
        )

    def test_window_bounds_checked(self):
        vals = np.arange(10) / 10.0
        with pytest.raises(ValueError, match="exceeds"):
            outlier_window_select(scores_of(vals), 9, 0.25)
        with pytest.raises(ValueError, match="fraction"):
            outlier_window_select(scores_of(vals), 2, 1.0)

    def test_window_is_contiguous_rank_range(self):
        rng = np.random.default_rng(8)
        vals = rng.permutation(40).astype(float)
        got = outlier_window_select(scores_of(vals), 10, 0.1)
        ranks = np.argsort(-vals)
        assert_array_equal(got, ranks[4:14])


class TestGrowthSchedule:
    def test_doubles_to_target(self):
        assert growth_schedule(1000) == [125, 250, 500, 1000]
        assert growth_schedule(8) == [1, 2, 4, 8]

    def test_floors_on_odd_targets(self):
        assert growth_schedule(25) == [3, 6, 12, 25]

    def test_small_target_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            growth_schedule(7)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            sizes = growth_schedule(int(rng.integers(8, 100_000)))
            assert all(a < b for a, b in zip(sizes, sizes[1:]))


def tiny_pool(seed=11):
    return generate_pool(
        GeneratorSpec(
            n_classes=3,
            clusters_per_class=1,
            samples_per_cluster=40,
            n_features=4,
            redundancy=0.2,
            label_noise=0.05,
            center_spread=1.5,
            seed=seed,
        )
    )


def tiny_config(scheme, **kwargs):
    defaults = dict(
        scheme=scheme,
        function_id="variation_ratios",
        target_size=40,
        ensemble=EnsembleConfig(mode="combined", runs=2, checkpoints_per_run=3),
        trainer=TrainConfig(max_epochs=8, batch_size=16),
        seed=5,
    )
    defaults.update(kwargs)
    return SearchConfig(**defaults)


class TestRunners:
    def test_build_up_follows_schedule(self):
        pool = tiny_pool()
        result = run_build_up(pool, tiny_config("build_up"))
        assert [r.unique_count for r in result.records] == [5, 10, 20, 40]
        assert [r.total_count for r in result.records] == [5, 10, 20, 40]
        assert result.state.unique_count == 40
        assert all(m == 1 for m in result.state.multiplicity.values())

    def test_build_up_additions_are_new_and_sized(self):
        pool = tiny_pool()
        result = run_build_up(pool, tiny_config("build_up"))
        seen: set[int] = set()
        for record, expected in zip(result.records, (5, 5, 10, 20)):
            assert len(record.added) == expected
            assert not seen & set(record.added)
            seen |= set(record.added)

    def test_pretrain_and_compress_select_identically(self):
        pool = tiny_pool()
        a = run_pretrain(pool, tiny_config("pretrain"))
        b = run_compress(pool, tiny_config("compress"))
        assert a.state.multiplicity == b.state.multiplicity
        # but train different subset models
        assert not np.array_equal(
            a.members[0].tensors[0], b.members[0].tensors[0]
        )

    def test_one_shot_subset_runs_keep_their_seeds(self):
        # pretrain fine-tunes under iteration 0's seeds, compress trains
        # afresh under iteration 1's
        pool, config = tiny_pool(), tiny_config("compress")
        for runner, role, iteration in ((run_pretrain, 4, 0), (run_compress, 1, 1)):
            result = runner(pool, config)
            seeds = [derive_seed(config.seed, role, iteration, r) for r in range(2)]
            assert result.store.run_seeds() == sorted(seeds)

    def test_single_pass_schemes_hit_target(self):
        pool = tiny_pool()
        for scheme, runner in (("pretrain", run_pretrain), ("compress", run_compress)):
            result = runner(pool, tiny_config(scheme))
            assert result.state.unique_count == 40
            assert len(result.records) == 1
            assert result.records[0].unique_count == 40

    def test_duplication_grows_multiset_to_target(self):
        pool = tiny_pool()
        cfg = tiny_config("automatic_duplication", acquisition_batch=10, initial_size=5)
        result = run_automatic_duplication(pool, cfg)
        assert result.state.total_count == 40
        totals = [r.total_count for r in result.records]
        assert totals == [5, 15, 25, 35, 40]  # last batch clipped to 5
        assert max(result.state.multiplicity.values()) >= 2

    def test_duplication_histogram_accounting(self):
        pool = tiny_pool()
        cfg = tiny_config("automatic_duplication", acquisition_batch=10, initial_size=5)
        result = run_automatic_duplication(pool, cfg)
        for record in result.records:
            total = sum(m * c for m, c in record.histogram)
            unique = sum(c for _, c in record.histogram)
            assert total == record.total_count
            assert unique == record.unique_count

    def test_same_seed_reproduces_selection(self):
        pool = tiny_pool()
        a = run_build_up(pool, tiny_config("build_up"))
        b = run_build_up(pool, tiny_config("build_up"))
        assert a.state.multiplicity == b.state.multiplicity
        assert [r.added for r in a.records] == [r.added for r in b.records]

    def test_different_seed_changes_selection(self):
        pool = tiny_pool()
        a = run_build_up(pool, tiny_config("build_up"))
        b = run_build_up(pool, tiny_config("build_up", seed=6))
        assert a.state.multiplicity != b.state.multiplicity

    def test_dispatcher_matches_direct_call(self):
        pool = tiny_pool()
        direct = run_pretrain(pool, tiny_config("pretrain"))
        routed = run_scheme(pool, tiny_config("pretrain"))
        assert direct.state.multiplicity == routed.state.multiplicity

    def test_member_count_matches_mode(self):
        pool = tiny_pool()
        result = run_build_up(pool, tiny_config("build_up"))
        assert len(result.members) == 6  # 2 runs x 3 checkpoints

    def test_target_exceeding_pool_rejected(self):
        pool = tiny_pool()
        with pytest.raises(ValueError, match="exceeds the pool"):
            run_build_up(pool, tiny_config("build_up", target_size=pool.n_samples + 8))

    def test_duplication_requires_batch(self):
        with pytest.raises(ValueError, match="acquisition_batch"):
            tiny_config("automatic_duplication")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            tiny_config("greedy")

    def test_random_function_runs_via_seeded_scores(self):
        pool = tiny_pool()
        a = run_build_up(pool, tiny_config("build_up", function_id="random"))
        b = run_build_up(pool, tiny_config("build_up", function_id="random"))
        assert a.state.multiplicity == b.state.multiplicity

    def test_error_count_function_uses_labels(self):
        pool = tiny_pool()
        result = run_build_up(pool, tiny_config("build_up", function_id="error_count"))
        assert result.state.unique_count == 40

    def test_outlier_fraction_changes_selection(self):
        pool = tiny_pool()
        a = run_pretrain(pool, tiny_config("pretrain"))
        b = run_pretrain(pool, tiny_config("pretrain", outlier_fraction=0.3))
        assert a.state.multiplicity != b.state.multiplicity

    REFUSED = (
        ("pretrain", dict(ensemble=EnsembleConfig(mode="checkpoints", checkpoints_per_run=10),
                          trainer=TrainConfig(max_epochs=3)), "trainer.max_epochs = 3"),
        ("pretrain", dict(trainer=TrainConfig(max_epochs=8, fine_tune_epochs=2)),
         "trainer.fine_tune_epochs = 2"),
        ("compress", dict(trainer=TrainConfig(max_epochs=2)), "trainer.max_epochs = 2"),
        ("build_up", dict(trainer=TrainConfig(patience=1, val_fraction=0.0)),
         "trainer.val_fraction = 0"),
        ("build_up", dict(target_size=4), "target of at least 8"),
        ("automatic_duplication", dict(acquisition_batch=4, initial_size=41),
         "initial size exceeds the target"),
        ("automatic_duplication", dict(acquisition_batch=4, trainer=TrainConfig(max_epochs=2)),
         "trainer.max_epochs = 2"),
    )

    @pytest.mark.parametrize("scheme, kwargs, message", REFUSED, ids=[
        "pretrain_max_epochs", "pretrain_fine_tune_epochs", "compress_max_epochs",
        "build_up_patience", "build_up_target", "duplication_initial", "duplication_max_epochs",
    ])
    def test_config_its_scheme_cannot_run_is_refused_before_training(
        self, monkeypatch, scheme, kwargs, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was refused")

        monkeypatch.setattr(alsift.schemes, "train_parts", no_training)
        with pytest.raises(ValueError, match=message):
            run_scheme(tiny_pool(), tiny_config(scheme, **kwargs))

    def test_train_subset_ensemble_member_count_and_determinism(self):
        pool = tiny_pool()
        state = SubsetState.from_ids(range(30))
        ens = EnsembleConfig(mode="combined", runs=2, checkpoints_per_run=3)
        trainer = TrainConfig(max_epochs=6, batch_size=16, checkpoint_window=1)
        store, members = train_subset_ensemble(pool, state, ens, trainer, seed=4)
        assert len(members) == 6
        assert len(store.run_seeds()) == 2
        _, again = train_subset_ensemble(pool, state, ens, trainer, seed=4)
        assert_array_equal(members[0].tensors[0], again[0].tensors[0])


class TestOnePredictionPerEnsemble:
    RUNS = (
        ("pretrain", {}),
        ("compress", {}),
        ("build_up", {}),
        ("automatic_duplication", {"acquisition_batch": 10, "initial_size": 5}),
    )

    @pytest.mark.parametrize("scheme, kwargs", RUNS, ids=[name for name, _ in RUNS])
    def test_pool_predicted_once_per_trained_ensemble(self, monkeypatch, scheme, kwargs):
        # every pool prediction, with or without a tensor, is a walk over
        # PoolBlocks.blocks
        calls = []

        def counted(self, _original=PoolBlocks.blocks):
            calls.append(1)
            return _original(self)

        monkeypatch.setattr(PoolBlocks, "blocks", counted)
        result = run_scheme(tiny_pool(), tiny_config(scheme, **kwargs))
        if scheme in ("pretrain", "compress"):
            # the full-pool ensemble scores, the subset ensemble is evaluated
            assert len(calls) == 2
        else:
            assert len(calls) == len(result.records)

    @pytest.mark.parametrize("scheme, kwargs", RUNS, ids=[name for name, _ in RUNS])
    def test_last_record_accuracy_is_final_ensemble_accuracy(self, scheme, kwargs):
        pool = tiny_pool()
        result = run_scheme(pool, tiny_config(scheme, **kwargs))
        assert result.records[-1].pool_accuracy == evaluate(result.members, pool).accuracy
