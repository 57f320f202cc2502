"""Acquisition scoring against an independent per-sample oracle."""

from __future__ import annotations

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from alsift.acquisition import (
    BLOCK_ROWS,
    FUNCTION_IDS,
    AcquisitionScores,
    PredictionTensor,
    TensorFile,
    detection_heatmaps,
    pool_pass,
    read_prediction_tensor,
    read_prediction_tensor_csv,
    score_pool,
    write_prediction_tensor,
)
from alsift.datagen import GeneratorSpec, generate_pool
from alsift.learner import PoolBlocks, init_params

from _scoring import reduce_one


# -- oracle: slow per-sample reimplementation with plain math.log ------------


def oracle_entropy(probs):
    return -sum(p * math.log(p) for p in probs if p > 0)


def oracle_mutual_information(members):
    n_classes = len(members[0])
    mean = [sum(row[k] for row in members) / len(members) for k in range(n_classes)]
    expected = sum(oracle_entropy(row) for row in members) / len(members)
    return max(oracle_entropy(mean) - expected, 0.0)


def oracle_vote(row):
    best = 0
    for k in range(1, len(row)):
        if row[k] > row[best]:
            best = k
    return best


def oracle_variation_ratios(members):
    votes = [oracle_vote(row) for row in members]
    counts = [votes.count(k) for k in range(len(members[0]))]
    mode = 0
    for k in range(1, len(counts)):
        if counts[k] > counts[mode]:
            mode = k
    return 1.0 - counts[mode] / len(members)


def oracle_error_count(members, label):
    votes = [oracle_vote(row) for row in members]
    return 1.0 - votes.count(label) / len(members)


def random_ensembles(rng, n, n_members, n_classes):
    raw = rng.random((n, n_members, n_classes)) + 1e-3
    return raw / raw.sum(axis=2, keepdims=True)


class TestFrozenValues:
    def test_entropy_spot_value(self):
        assert reduce_one([0.7, 0.2, 0.1], "entropy") == pytest.approx(0.8018185525433372, abs=1e-15)

    def test_entropy_uniform_is_log_k(self):
        assert reduce_one([0.25] * 4, "entropy") == pytest.approx(math.log(4), abs=1e-15)

    def test_entropy_one_hot_is_zero(self):
        assert reduce_one([0.0, 1.0, 0.0], "entropy") == 0.0

    def test_predictive_mean_two_members(self):
        mean = reduce_one([[0.6, 0.4], [0.2, 0.8]])
        assert_allclose(mean, [0.4, 0.6], atol=1e-15)

    def test_mutual_information_spot_value(self):
        got = reduce_one([[0.9, 0.1], [0.5, 0.5]], "mutual_information")
        assert got == pytest.approx(0.10174922507919681, abs=1e-15)

    def test_mutual_information_certain_disagreement_is_log2(self):
        got = reduce_one([[1.0, 0.0], [0.0, 1.0]], "mutual_information")
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_mutual_information_identical_members_is_zero(self):
        assert reduce_one([[0.3, 0.7]] * 5, "mutual_information") == 0.0

    def test_variation_ratios_vote_split(self):
        # votes 0,0,0,1,2 -> 2 of 5 off the mode
        members = [
            [0.8, 0.1, 0.1],
            [0.6, 0.3, 0.1],
            [0.5, 0.3, 0.2],
            [0.2, 0.7, 0.1],
            [0.1, 0.2, 0.7],
        ]
        assert reduce_one(members, "variation_ratios") == pytest.approx(0.4, abs=0)

    def test_variation_ratios_mode_tie_breaks_low(self):
        # one vote each; mode falls to class 0, so 1 of 2 agrees
        assert reduce_one([[0.9, 0.1], [0.1, 0.9]], "variation_ratios") == pytest.approx(0.5, abs=0)

    def test_error_count_spot_value(self):
        members = [[0.8, 0.2], [0.7, 0.3], [0.2, 0.8]]
        assert reduce_one(members, "error_count", 0) == pytest.approx(1 / 3, abs=1e-15)
        assert reduce_one(members, "error_count", 1) == pytest.approx(2 / 3, abs=1e-15)


class TestOracleEquivalence:
    def test_matches_oracle_on_random_ensembles(self):
        rng = np.random.default_rng(42)
        data = random_ensembles(rng, 64, 7, 5)
        labels = rng.integers(0, 5, size=64)
        tensor = PredictionTensor(data.astype(np.float32), np.arange(64))
        promoted = tensor.data.astype(np.float64)

        got_h = score_pool(tensor, "entropy").scores
        got_mi = score_pool(tensor, "mutual_information").scores
        got_vr = score_pool(tensor, "variation_ratios").scores
        got_ec = score_pool(tensor, "error_count", labels=labels).scores
        for i in range(64):
            rows = [list(map(float, promoted[i, e])) for e in range(7)]
            mean = [sum(r[k] for r in rows) / 7 for k in range(5)]
            assert got_h[i] == pytest.approx(oracle_entropy(mean), abs=1e-9)
            assert got_mi[i] == pytest.approx(oracle_mutual_information(rows), abs=1e-9)
            assert got_vr[i] == pytest.approx(oracle_variation_ratios(rows), abs=1e-12)
            assert got_ec[i] == pytest.approx(
                oracle_error_count(rows, int(labels[i])), abs=1e-12
            )

    def test_single_sample_functions_match_pool_scoring(self):
        rng = np.random.default_rng(3)
        data = random_ensembles(rng, 20, 4, 3)
        tensor = PredictionTensor(data.astype(np.float32), np.arange(20))
        promoted = tensor.data.astype(np.float64)
        pooled = score_pool(tensor, "mutual_information").scores
        for i in range(20):
            assert reduce_one(promoted[i], "mutual_information") == pytest.approx(pooled[i], abs=1e-12)


class TestInvariants:
    def test_bounds_on_random_ensembles(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n_members = int(rng.integers(1, 9))
            n_classes = int(rng.integers(2, 7))
            data = random_ensembles(rng, 40, n_members, n_classes)
            tensor = PredictionTensor(data.astype(np.float32), np.arange(40))
            h = score_pool(tensor, "entropy").scores
            assert np.all(h >= 0) and np.all(h <= math.log(n_classes) + 1e-9)
            mi = score_pool(tensor, "mutual_information").scores
            assert np.all(mi >= 0) and np.all(mi <= h + 1e-9)
            vr = score_pool(tensor, "variation_ratios").scores
            allowed = {1.0 - k / n_members for k in range(1, n_members + 1)}
            assert set(np.unique(vr)) <= allowed
            labels = rng.integers(0, n_classes, size=40)
            ec = score_pool(tensor, "error_count", labels=labels).scores
            allowed_ec = {1.0 - k / n_members for k in range(0, n_members + 1)}
            assert set(np.unique(ec)) <= allowed_ec

    def test_mutual_information_never_negative(self):
        rng = np.random.default_rng(11)
        # near-identical members maximize cancellation
        base = random_ensembles(rng, 200, 1, 4)[:, 0, :]
        data = np.repeat(base[:, None, :], 6, axis=1)
        data += rng.normal(0, 1e-9, data.shape)
        data = np.clip(data, 0, 1)
        data /= data.sum(axis=2, keepdims=True)
        tensor = PredictionTensor(data.astype(np.float32), np.arange(200))
        mi = score_pool(tensor, "mutual_information").scores
        assert np.all(mi >= 0.0)

    def test_random_scores_reproducible_and_seed_sensitive(self):
        data = random_ensembles(np.random.default_rng(0), 30, 3, 4)
        tensor = PredictionTensor(data.astype(np.float32), np.arange(30))
        a = score_pool(tensor, "random", seed=5).scores
        b = score_pool(tensor, "random", seed=5).scores
        c = score_pool(tensor, "random", seed=6).scores
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_permutation_invariance_over_members(self):
        rng = np.random.default_rng(13)
        data = random_ensembles(rng, 25, 6, 4)
        shuffled = data[:, rng.permutation(6), :]
        t1 = PredictionTensor(data.astype(np.float32), np.arange(25))
        t2 = PredictionTensor(shuffled.astype(np.float32), np.arange(25))
        for fid in ("entropy", "mutual_information", "variation_ratios"):
            assert_allclose(
                score_pool(t1, fid).scores, score_pool(t2, fid).scores, atol=1e-12
            )


class TestValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="invalid distribution"):
            reduce_one([-0.1, 0.6, 0.5], "entropy")

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="invalid distribution"):
            reduce_one([0.5, 0.4], "entropy")

    def test_accepts_sum_within_tolerance(self):
        reduce_one([0.5, 0.5 + 5e-7], "entropy")

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="empty ensemble"):
            PredictionTensor(np.empty((1, 0, 3)), [0])

    def test_error_count_rejects_bad_label(self):
        with pytest.raises(ValueError, match="out of range"):
            score_pool(PredictionTensor([[[0.5, 0.5]]], [0]), "error_count", labels=[2])

    def test_error_count_requires_labels(self):
        data = random_ensembles(np.random.default_rng(0), 4, 2, 3)
        tensor = PredictionTensor(data.astype(np.float32), np.arange(4))
        with pytest.raises(ValueError, match="labels"):
            score_pool(tensor, "error_count")

    def test_error_count_labels_are_checked_before_any_block(self):
        class Unwalkable:
            """A source whose blocks, each a full round of member forward
            passes, must not be asked for."""
            n_samples, n_members, n_classes = 3 * BLOCK_ROWS, 2, 3
            sample_ids = np.arange(3 * BLOCK_ROWS, dtype=np.uint64)

            def blocks(self):
                raise AssertionError("blocks walked before the labels were checked")

        source = Unwalkable()
        labels = np.zeros(source.n_samples, dtype=np.int64)
        with pytest.raises(ValueError, match="^error_count scoring requires labels$"):
            pool_pass(source, "error_count")
        with pytest.raises(ValueError, match="^labels length must match the sample axis$"):
            pool_pass(source, "error_count", labels[1:])
        labels[-1] = 3  # in the last block
        with pytest.raises(ValueError, match=r"^labels out of range \[0, 3\)$"):
            pool_pass(source, "error_count", labels)
        labels[-1] = -1
        with pytest.raises(ValueError, match=r"^labels out of range \[0, 3\)$"):
            pool_pass(source, "error_count", labels, votes=True)

    def test_random_requires_seed(self):
        data = random_ensembles(np.random.default_rng(0), 4, 2, 3)
        tensor = PredictionTensor(data.astype(np.float32), np.arange(4))
        with pytest.raises(ValueError, match="seed"):
            score_pool(tensor, "random")

    def test_unknown_function_rejected(self):
        data = random_ensembles(np.random.default_rng(0), 4, 2, 3)
        tensor = PredictionTensor(data.astype(np.float32), np.arange(4))
        with pytest.raises(ValueError, match="unknown acquisition function"):
            score_pool(tensor, "margin")

    def test_tensor_requires_unique_ids(self):
        data = random_ensembles(np.random.default_rng(0), 3, 2, 2)
        with pytest.raises(ValueError, match="unique"):
            PredictionTensor(data.astype(np.float32), np.asarray([1, 1, 2]))

    def test_tensor_refuses_an_empty_member_axis(self):
        for n in (0, 3):
            with pytest.raises(ValueError, match="^empty ensemble$"):
                PredictionTensor(np.empty((n, 0, 2), dtype=np.float32), np.arange(n))

    def test_tensor_refuses_sample_ids_outside_uint64(self):
        with pytest.raises(ValueError, match=r"^sample id -1 outside \[0, 2\*\*64\)$"):
            PredictionTensor(np.full((2, 1, 2), 0.5), np.array([-1, 0]))

    def test_scores_refuse_sample_ids_outside_uint64(self):
        with pytest.raises(ValueError, match=r"^sample id -1 outside \[0, 2\*\*64\)$"):
            AcquisitionScores("entropy", [0.1, 0.2], np.array([-1, 0]))

    def test_scores_refuse_fractional_sample_ids(self):
        with pytest.raises(ValueError, match=r"^sample id 0\.9 is not an integer$"):
            AcquisitionScores("entropy", [0.1, 0.2], np.array([0.9, 1.2]))
        with pytest.raises(ValueError, match=r"^sample id 1\.5 is not an integer$"):
            AcquisitionScores("entropy", [0.1, 0.2], [0, 1.5])

    def test_scores_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            AcquisitionScores("entropy", np.asarray([1.0, np.nan]), np.asarray([0, 1]))


class TestDetection:
    def test_heatmap_shapes_and_entropy_value(self):
        maps = np.full((3, 2, 4, 5), 0.5)
        out = detection_heatmaps(maps, "entropy")
        assert out.shape == (2, 4, 5)
        assert_allclose(out, math.log(2), atol=1e-12)

    def test_mutual_information_spot_value(self):
        maps = np.zeros((3, 1, 1, 1))
        maps[:, 0, 0, 0] = [0.9, 0.6, 0.2]
        got = detection_heatmaps(maps, "mutual_information")[0, 0, 0]
        assert got == pytest.approx(0.18473274381733606, abs=1e-12)

    def test_image_score_is_max_over_cells_and_classes(self):
        rng = np.random.default_rng(5)
        maps = rng.random((4, 3, 6, 6))
        grids = detection_heatmaps(maps, "variation_ratios")
        per_class = [detection_heatmaps(maps[:, [c]], "variation_ratios").max() for c in range(3)]
        assert max(per_class) == grids.max()

    def test_variation_ratios_counts_majority_on_threshold(self):
        maps = np.zeros((5, 1, 1, 2))
        maps[:, 0, 0, 0] = [0.9, 0.8, 0.7, 0.2, 0.1]  # 3 vs 2 -> 0.4
        maps[:, 0, 0, 1] = [0.9, 0.9, 0.9, 0.9, 0.9]  # unanimous -> 0.0
        out = detection_heatmaps(maps, "variation_ratios")
        assert out[0, 0, 0] == pytest.approx(0.4, abs=0)
        assert out[0, 0, 1] == 0.0

    def test_unanimous_maps_score_zero_mutual_information(self):
        rng = np.random.default_rng(9)
        one = rng.random((1, 2, 3, 3))
        maps = np.repeat(one, 4, axis=0)
        assert detection_heatmaps(maps, "mutual_information").max() == 0.0

    def test_rejects_mismatched_shapes(self):
        ragged = [np.zeros((1, 2, 2)), np.zeros((1, 3, 2))]
        with pytest.raises(ValueError):
            detection_heatmaps(ragged, "entropy")

    def test_rejects_labelled_functions(self):
        with pytest.raises(ValueError, match="not applicable"):
            detection_heatmaps(np.full((2, 1, 2, 2), 0.5), "error_count")

    def test_rejects_out_of_range_cells(self):
        with pytest.raises(ValueError, match="probabilities"):
            detection_heatmaps(np.full((2, 1, 2, 2), 1.5), "entropy")


class TestTensorFiles:
    def test_binary_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        data = random_ensembles(rng, 17, 3, 4).astype(np.float32)
        ids = rng.choice(10_000, size=17, replace=False)
        tensor = PredictionTensor(data, ids)
        path = tmp_path / "preds.alpt"
        write_prediction_tensor(path, tensor)
        back = read_prediction_tensor(path)
        assert back.data.tobytes() == tensor.data.tobytes()
        assert np.array_equal(back.sample_ids, tensor.sample_ids)

    def test_header_fields(self, tmp_path):
        data = random_ensembles(np.random.default_rng(0), 2, 3, 5).astype(np.float32)
        path = tmp_path / "preds.alpt"
        write_prediction_tensor(path, PredictionTensor(data, [7, 9]))
        raw = path.read_bytes()
        assert raw[:4] == b"ALPT"
        assert int.from_bytes(raw[4:6], "little") == 1
        n, e, k = (int.from_bytes(raw[6 + 4 * i : 10 + 4 * i], "little") for i in range(3))
        assert (n, e, k) == (2, 3, 5)
        assert len(raw) == 18 + 4 * n * e * k + 8 * n

    def test_truncated_file_rejected(self, tmp_path):
        data = random_ensembles(np.random.default_rng(0), 4, 2, 3).astype(np.float32)
        path = tmp_path / "preds.alpt"
        write_prediction_tensor(path, PredictionTensor(data, np.arange(4)))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(ValueError, match="truncated"):
            read_prediction_tensor(path)

    def test_truncation_at_every_offset_names_the_short_block(self, tmp_path):
        data = random_ensembles(np.random.default_rng(1), 3, 2, 2).astype(np.float32)
        path = tmp_path / "preds.alpt"
        write_prediction_tensor(path, PredictionTensor(data, [4, 8, 15]))
        raw = path.read_bytes()
        header, data_end = 18, 18 + data.nbytes
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            if cut < header:
                message = "truncated prediction tensor file"
            elif cut < data_end:
                message = "truncated prediction tensor data"
            else:
                message = "truncated sample id block"
            with pytest.raises(ValueError, match=message):
                read_prediction_tensor(path)

    def test_header_claiming_more_data_than_the_file_holds_is_truncation(self, tmp_path):
        path = tmp_path / "huge.alpt"
        path.write_bytes(b"ALPT" + (1).to_bytes(2, "little") + b"\xff" * 12 + b"\0" * 64)
        with pytest.raises(ValueError, match="truncated prediction tensor data"):
            read_prediction_tensor(path)

    def test_io_makes_no_full_size_temporary(self, tmp_path):
        # 5 row blocks of 10 x 10 float32 probabilities: 4 MB
        data = random_ensembles(np.random.default_rng(5), 5 * BLOCK_ROWS - 7, 10, 10)
        tensor = PredictionTensor(data.astype(np.float32), np.arange(len(data)))
        path = tmp_path / "preds.alpt"
        tracemalloc.start()
        try:
            write_prediction_tensor(path, tensor)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = read_prediction_tensor(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.data.tobytes() == tensor.data.tobytes()
        assert write_peak < 0.1 * tensor.data.nbytes
        # the tensor itself plus one float64 block being validated
        assert read_peak < 1.6 * tensor.data.nbytes

    def test_file_with_no_members_is_refused(self, tmp_path):
        # header N = 2, E = 0, K = 3; no probabilities, then two sample ids
        path = tmp_path / "empty.alpt"
        header = b"ALPT" + (1).to_bytes(2, "little") + b"".join(v.to_bytes(4, "little") for v in (2, 0, 3))
        path.write_bytes(header + np.array([4, 7], dtype="<u8").tobytes())
        for read in (read_prediction_tensor, TensorFile):
            with pytest.raises(ValueError, match="^empty ensemble$"):
                read(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.alpt"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(ValueError, match="magic"):
            read_prediction_tensor(path)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        data = random_ensembles(rng, 5, 2, 3).astype(np.float32)
        ids = [10, 4, 99, 5, 6]
        path = tmp_path / "preds.csv"
        with open(path, "w") as fh:
            fh.write("sample_id,member,p_0,p_1,p_2\n")
            for i, sid in enumerate(ids):
                for e in range(2):
                    fh.write(
                        "%d,%d,%s\n" % (sid, e, ",".join(repr(float(v)) for v in data[i, e]))
                    )
        back = read_prediction_tensor_csv(path)
        assert [int(s) for s in back.sample_ids] == ids
        assert_allclose(back.data, data, atol=0)

    def test_csv_missing_member_row_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("sample_id,member,p_0,p_1\n1,0,0.5,0.5\n2,0,0.5,0.5\n2,1,0.4,0.6\n")
        with pytest.raises(ValueError, match="missing row"):
            read_prediction_tensor_csv(path)

    def test_csv_short_row_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("sample_id,member,p_0,p_1\n1,0,0.5,0.5\n1,1,0.5\n")
        with pytest.raises(ValueError, match="line 3: expected 4 columns, found 3"):
            read_prediction_tensor_csv(path)

    def test_csv_negative_member_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("sample_id,member,p_0,p_1\n# a comment\n1,-1,0.5,0.5\n1,0,0.5,0.5\n")
        with pytest.raises(ValueError, match="line 3: sample id and member index must be >= 0"):
            read_prediction_tensor_csv(path)

    def test_csv_non_integer_id_names_its_line(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("sample_id,member,p_0,p_1\n1,0,0.5,0.5\n\nx1,0,0.5,0.5\n")
        with pytest.raises(ValueError, match="line 4: invalid literal for int"):
            read_prediction_tensor_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", "expected header sample_id, member, p_0..p_{K-1}"),
        ("sample_id,member\n1,0\n", "expected header sample_id, member, p_0..p_{K-1}"),
        ("id,member,p_0,p_1\n1,0,0.5,0.5\n", "expected header sample_id, member, p_0..p_{K-1}"),
        ("sample_id,member,p_0,q_1\n1,0,0.5,0.5\n", "probability columns must be named p_0..p_1"),
        ("sample_id,member,p_0,p_1\n", "empty prediction tensor CSV"),
        ("# no rows yet\nsample_id,member,p_0,p_1\n# none\n\n", "empty prediction tensor CSV"),
        ("sample_id,member,p_0,p_1\n1,0,0.5,0.5\n# again\n1,0,0.4,0.6\n",
         "line 4: duplicate row for sample 1 member 0"),
        ("# written by hand\nsample_id,member,p_0,p_1\n1,0,0.5,0.5\n2,1,0.5,0.5\n2,1,0.4,0.6\n",
         "line 5: duplicate row for sample 2 member 1"),
        # named before any array sized by the member index
        ("sample_id,member,p_0,p_1\n1,1000000000000,0.5,0.5\n", "missing row for sample 1 member 0"),
    ], ids=["empty_file", "short_header", "misnamed_id", "misnamed_probability", "no_rows",
            "comments_only", "duplicate", "duplicate_after_a_comment", "member_far_past_the_rows"])
    def test_csv_refusals_name_what_is_wrong(self, tmp_path, text, message):
        path = tmp_path / "preds.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            read_prediction_tensor_csv(path)

    def test_csv_comment_before_the_header_is_skipped(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("# from a notebook\nsample_id,member,p_0,p_1\n"
                        "7,1,0.25,0.75\n3,0,0.5,0.5\n7,0,1.0,0.0\n3,1,0.125,0.875\n")
        back = read_prediction_tensor_csv(path)
        assert back.sample_ids.tolist() == [7, 3]
        assert back.data.tolist() == [[[1.0, 0.0], [0.25, 0.75]], [[0.5, 0.5], [0.125, 0.875]]]

    def test_csv_read_peaks_below_eight_tensors(self, tmp_path):
        # 500 samples x 20 members x 10 classes: 400 kB of float32, 10,000 rows
        # in shuffled order; a list of floats per row peaks near 15 tensors
        rng = np.random.default_rng(8)
        data = random_ensembles(rng, 500, 20, 10).astype(np.float32)
        ids = 10**12 + 7 * np.arange(500)
        path = tmp_path / "preds.csv"
        with open(path, "w") as fh:
            fh.write("sample_id,member,%s\n" % ",".join("p_%d" % j for j in range(10)))
            for i, e in rng.permutation([(i, e) for i in range(500) for e in range(20)]):
                fh.write("%d,%d,%s\n" % (ids[i], e, ",".join(repr(float(v)) for v in data[i, e])))
        tracemalloc.start()
        try:
            back = read_prediction_tensor_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = (back.sample_ids.astype(np.int64) - 10**12) // 7
        assert back.data.tobytes() == data[rows].tobytes()
        assert peak < 8 * data.nbytes


class TestStreamedTensorFile:
    """``TensorFile`` walks an ``.alpt`` file one row block at a time."""

    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 5])
    def test_streamed_walk_equals_the_tensor_walk(self, n, tmp_path):
        # a short last block follows full ones in the reused buffer, so a
        # stale row left in it would change the scores or votes
        rng = np.random.default_rng(n)
        tensor = PredictionTensor(random_ensembles(rng, n, 7, 4), rng.permutation(3 * n)[:n])
        labels = rng.integers(0, 4, n)
        write_prediction_tensor(tmp_path / "t.alpt", tensor)
        source = TensorFile(tmp_path / "t.alpt")
        assert (source.n_samples, source.n_members, source.n_classes) == tensor.data.shape
        assert source.sample_ids.tobytes() == tensor.sample_ids.tobytes()
        for function_id in FUNCTION_IDS:
            want = score_pool(tensor, function_id, labels, seed=3)
            got, votes = pool_pass(source, function_id, labels, seed=3, votes=True)
            assert got.scores.tobytes() == want.scores.tobytes(), function_id
            assert got.sample_ids.tobytes() == want.sample_ids.tobytes()
            assert votes.tobytes() == pool_pass(tensor, votes=True)[1].tobytes()
        assert read_prediction_tensor(tmp_path / "t.alpt").data.tobytes() == tensor.data.tobytes()

    def test_repeated_ids_are_refused_before_any_block(self, tmp_path):
        path = tmp_path / "t.alpt"
        data = random_ensembles(np.random.default_rng(0), 3, 2, 2)
        write_prediction_tensor(path, PredictionTensor(data, [4, 8, 15]))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8] + (4).to_bytes(8, "little"))  # ids 4, 8, 4
        for read in (read_prediction_tensor, TensorFile):
            with pytest.raises(ValueError, match="^sample_ids must be unique$"):
                read(path)

    def test_file_cut_after_the_source_is_built_is_refused_mid_walk(self, tmp_path):
        data = random_ensembles(np.random.default_rng(1), 3 * BLOCK_ROWS, 2, 3)
        path = tmp_path / "t.alpt"
        write_prediction_tensor(path, PredictionTensor(data, np.arange(len(data))))
        source = TensorFile(path)
        row_bytes = 2 * 3 * 4
        path.write_bytes(path.read_bytes()[: 18 + int(1.5 * BLOCK_ROWS) * row_bytes])
        walk = source.blocks()
        rows, _ = next(walk)  # the first block is still whole
        assert rows == slice(0, BLOCK_ROWS)
        with pytest.raises(ValueError, match="^truncated prediction tensor data$"):
            next(walk)
        with pytest.raises(ValueError, match="^truncated prediction tensor data$"):
            pool_pass(source, "entropy")

    def test_a_bad_row_in_a_late_block_is_refused_by_the_walk(self, tmp_path):
        data = random_ensembles(np.random.default_rng(2), 2 * BLOCK_ROWS + 3, 2, 3).astype(np.float32)
        data[-1, 1] = [0.5, 0.4, 0.0]
        path = tmp_path / "t.alpt"
        with open(path, "wb") as fh:  # written past PredictionTensor's own check
            fh.write(b"ALPT" + (1).to_bytes(2, "little"))
            fh.write(b"".join(v.to_bytes(4, "little") for v in data.shape))
            fh.write(data.tobytes() + np.arange(len(data), dtype="<u8").tobytes())
        source = TensorFile(path)
        for function_id in ("entropy", "variation_ratios", "random"):
            with pytest.raises(ValueError, match="sum to 1"):
                pool_pass(source, function_id, seed=1)
        with pytest.raises(ValueError, match="sum to 1"):
            read_prediction_tensor(path)


# -- walk outputs pinned by value ----------------------------------------------


def _walk_source(arch, n_classes, hidden, n_members):
    """Members with fixed random weights over a fixed pool of two row blocks,
    the second one partial. The weights are drawn, not trained, so the
    digests below follow the walk kernels alone."""
    per_cluster = -(-(BLOCK_ROWS + 500) // (2 * n_classes))
    spec = GeneratorSpec(n_classes=n_classes, samples_per_cluster=per_cluster, n_features=6,
                         label_noise=0.1, center_spread=2.0, seed=31)
    pool = generate_pool(spec)
    rng = np.random.default_rng(17)
    members = [init_params(arch, 6, n_classes, hidden, rng) for _ in range(n_members)]
    return PoolBlocks(members, pool)


# sha256 of the score bytes, then the fused-vote bytes, of one pool_pass per
# function, and of each detection heatmap; a kernel change that moves one bit
# of any output fails here
PINNED_WALKS = {
    ("logistic", 4): {
        "entropy": "bdb3f88c5ea526e8554588119ea85c50137f933e8845d7cbd564f83ca2e6ab5b",
        "mutual_information": "bfb5bf8b58b8ae88810206701e4ae491f3ea74c00835479101fdcaeaadb3c137",
        "variation_ratios": "e3cac7c45f0944334b038d2c0a162e4484aca8090a2ae137c274852083e3ee02",
        "error_count": "de68b5c26f738163563d410c7509feb0ca4ad4e7055ae0495e6f694ad499225c",
        "random": "e1420ff3dd3c5ab813ab01c4b7dae51d2b231636b9feb1a6898b290e4b7f67a6",
    },
    ("mlp", 10): {
        "entropy": "4586874d801e31a7cc256ef6cdb6a2b4ed43c84fbffd16a5d42efe1957014343",
        "mutual_information": "937454de24881db9c4dd7ede0724e29176790e84d53b2e63904233e7c915425f",
        "variation_ratios": "156c55a391f433ecfdb38ea2555db028ef87213ae4f8eeb95488ae30e2039832",
        "error_count": "ef7bc13e6e104a700827db413d143304900cc56bb30471ec3383635b8fe8c70f",
        "random": "e531f8125c79e94ebb876258f3f77d60cdb7f8a0193a105a8623a07739a5006e",
    },
}
PINNED_HEATMAPS = {
    "entropy": "99060bbffe7a474812205b6dfd041d24b018da6a2413ec33864696b90dd34a31",
    "mutual_information": "3c3f63cc4bde77f6b09771753c407424310b5e069c24f5edea9ffe3a87348aa7",
    "variation_ratios": "ea3cd076b6107e0cc5cb9bcd099451baf8e1649fa23d87bb5c74ccc60352f013",
}


class TestPinnedWalks:
    @pytest.mark.parametrize("arch, n_classes, hidden, n_members",
                             [("logistic", 4, 0, 7), ("mlp", 10, 16, 12)])
    def test_pool_pass_bytes(self, arch, n_classes, hidden, n_members):
        source = _walk_source(arch, n_classes, hidden, n_members)
        assert source.n_samples > BLOCK_ROWS
        got = {}
        for function_id in PINNED_WALKS[arch, n_classes]:
            scores, votes = pool_pass(source, function_id, source.labels(), seed=3, votes=True)
            got[function_id] = hashlib.sha256(scores.scores.tobytes() + votes.tobytes()).hexdigest()
        assert got == PINNED_WALKS[arch, n_classes]

    def test_detection_heatmap_bytes(self):
        maps = np.random.default_rng(23).random((9, 3, 6, 7))
        got = {
            function_id: hashlib.sha256(detection_heatmaps(maps, function_id).tobytes()).hexdigest()
            for function_id in PINNED_HEATMAPS
        }
        assert got == PINNED_HEATMAPS
