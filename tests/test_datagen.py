"""Synthetic pool generation and pool file round trips."""

from __future__ import annotations

import csv
import os
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from alsift import datagen, state
from alsift.datagen import (
    GeneratorSpec,
    generate_pool,
    generate_pool_with_metadata,
    read_pool_csv,
    write_metadata_csv,
    write_pool_csv,
)
from alsift.learner import LabeledPool


def spec(**kwargs):
    base = dict(
        n_classes=4,
        clusters_per_class=2,
        samples_per_cluster=25,
        n_features=5,
        seed=3,
    )
    base.update(kwargs)
    return GeneratorSpec(**base)


class TestGeneration:
    def test_sizes_and_ids(self):
        pool = generate_pool(spec())
        assert pool.n_samples == 4 * 2 * 25
        assert pool.n_features == 5
        assert_array_equal(pool.sample_ids, np.arange(200))
        assert_array_equal(np.sort(np.unique(pool.labels)), np.arange(4))

    def test_balanced_classes_without_ratios(self):
        pool = generate_pool(spec())
        assert_array_equal(np.bincount(pool.labels), [50, 50, 50, 50])

    def test_class_ratios_skew_counts(self):
        pool = generate_pool(spec(class_ratios=(1.0, 1.0, 1.0, 0.2)))
        counts = np.bincount(pool.labels)
        assert counts[3] == 10
        assert counts[0] == 50

    def test_determinism(self):
        a = generate_pool(spec())
        b = generate_pool(spec())
        assert_array_equal(a.features, b.features)
        assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = generate_pool(spec())
        b = generate_pool(spec(seed=4))
        assert not np.array_equal(a.features, b.features)

    def test_sample_seed_redraws_same_task(self):
        base = spec(clusters_per_class=1)
        a = generate_pool(replace(base, sample_seed=100))
        b = generate_pool(replace(base, sample_seed=101))
        assert not np.array_equal(a.features, b.features)
        # same centers: per-class feature means stay close across draws
        for cls in range(4):
            mean_a = a.features[a.labels == cls].mean(axis=0)
            mean_b = b.features[b.labels == cls].mean(axis=0)
            assert np.linalg.norm(mean_a - mean_b) < 1.5

    def test_redundancy_count_is_exact(self):
        n_total = 4 * 2 * 25
        pool, meta = generate_pool_with_metadata(spec(redundancy=0.5))
        assert pool.n_samples == n_total
        assert int((meta.duplicate_of >= 0).sum()) == n_total // 2

    def test_duplicates_sit_near_sources_with_matching_labels(self):
        pool, meta = generate_pool_with_metadata(spec(redundancy=0.3))
        copies = np.flatnonzero(meta.duplicate_of >= 0)
        sources = meta.duplicate_of[copies]
        gaps = np.linalg.norm(pool.features[copies] - pool.features[sources], axis=1)
        assert gaps.max() < 0.2
        assert_array_equal(meta.true_labels[copies], meta.true_labels[sources])

    def test_no_corruption_means_distinct_samples(self):
        pool, meta = generate_pool_with_metadata(spec())
        assert len(np.unique(pool.features, axis=0)) == pool.n_samples
        assert not meta.noisy.any()
        assert (meta.duplicate_of == -1).all()

    def test_label_noise_count_and_wrongness(self):
        pool, meta = generate_pool_with_metadata(spec(label_noise=0.1))
        flipped = np.flatnonzero(meta.noisy)
        assert len(flipped) == round(0.1 * pool.n_samples)
        assert (pool.labels[flipped] != meta.true_labels[flipped]).all()
        clean = np.flatnonzero(~meta.noisy)
        assert_array_equal(pool.labels[clean], meta.true_labels[clean])

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            spec(redundancy=1.0)
        with pytest.raises(ValueError):
            spec(label_noise=-0.1)
        with pytest.raises(ValueError):
            spec(class_ratios=(1.0, 1.0))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                spec(class_ratios=(1.0, bad, 1.0, 1.0))
        with pytest.raises(ValueError):
            spec(n_classes=1)
        with pytest.raises(ValueError, match=r"^pool\.seed must be non-negative, got -1$"):
            spec(seed=-1)
        with pytest.raises(ValueError, match=r"^sample_seed must be non-negative, got -2$"):
            spec(sample_seed=-2)


class TestPoolFiles:
    def test_round_trip_is_exact(self, tmp_path):
        pool = generate_pool(spec())
        path = tmp_path / "pool.csv"
        write_pool_csv(path, pool)
        back = read_pool_csv(path)
        assert_array_equal(back.features, pool.features)
        assert_array_equal(back.labels, pool.labels)
        assert_array_equal(back.sample_ids, pool.sample_ids)
        assert back.n_classes == pool.n_classes

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,x_0\n1,0,0.5\n")
        with pytest.raises(ValueError, match="header"):
            read_pool_csv(path)

    def test_row_width_checked_with_line_number(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("sample_id,label,x_0,x_1\n0,1,0.5,0.25\n\n1,0,0.5\n")
        with pytest.raises(ValueError, match=r"^line 4: expected 4 columns, found 3$"):
            read_pool_csv(path)

    def test_bad_cell_named_with_line_number(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("sample_id,label,x_0,x_1\n0,1,0.5,0.25\n1,0,abc,0.5\n")
        with pytest.raises(ValueError, match=r"^line 3: .*'abc'"):
            read_pool_csv(path)

    @pytest.mark.parametrize(
        "rows, line",
        [("0,0,0.5\n1,-1,0.25\n", 3), ("0,0,0.5\n1,1,0.25\n\n2,-1,1.0\n", 5)],
    )
    def test_negative_label_named_with_line_number(self, tmp_path, rows, line):
        path = tmp_path / "neg.csv"
        path.write_text("sample_id,label,x_0\n" + rows)
        with pytest.raises(ValueError, match=r"^line %d: negative label -1$" % line):
            read_pool_csv(path)

    @pytest.mark.parametrize("sample_id", ["-1", "18446744073709551616"])
    def test_sample_id_out_of_range_named_with_line_number(self, tmp_path, sample_id):
        path = tmp_path / "ids.csv"
        path.write_text("sample_id,label,x_0\n0,0,0.5\n%s,1,0.25\n" % sample_id)
        with pytest.raises(ValueError, match=r"^line 3: sample id %s outside \[0, 2\*\*64\)$" % sample_id):
            read_pool_csv(path)

    def test_largest_sample_id_loads(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("sample_id,label,x_0\n18446744073709551615,0,0.5\n0,1,0.25\n")
        assert read_pool_csv(path).sample_ids.tolist() == [2**64 - 1, 0]

    def test_written_files_load_without_the_row_loop(self, tmp_path, monkeypatch):
        pool = generate_pool(spec())
        write_pool_csv(tmp_path / "pool.csv", pool)

        def refuse(path):
            raise AssertionError("row loop used")

        monkeypatch.setattr(datagen, "_read_pool_rows", refuse)
        assert_array_equal(read_pool_csv(tmp_path / "pool.csv").features, pool.features)

    def test_quoted_and_underscored_cells_load_through_the_row_loop(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('sample_id,label,x_0\n"1_0",0,"0.5"\r\n2,1,2_5\r')
        pool = read_pool_csv(path)
        assert pool.sample_ids.tolist() == [10, 2]
        assert pool.features.tolist() == [[0.5], [25.0]]

    def test_cell_over_the_csv_field_limit_refused_as_before(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("sample_id,label,x_0\n0,0,0.5\n1,1,%s1\n" % ("0" * 40))
        limit = csv.field_size_limit(32)
        try:
            with pytest.raises(csv.Error, match="field larger than field limit"):
                read_pool_csv(path)
        finally:
            csv.field_size_limit(limit)

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "pool.csv"
        write_pool_csv(path, generate_pool(spec()))
        before = path.read_bytes()
        n = 3 * state._WRITE_ROWS
        big = LabeledPool(np.random.default_rng(0).normal(size=(n, 2)), np.arange(n) % 2, np.arange(n), 2)
        partial = []
        calls = iter(range(2 * n))  # one repr per feature cell

        def failing_repr(value):
            if next(calls) == 2 * n - 1:  # the last cell, after two whole blocks
                partial.extend(p.stat().st_size for p in tmp_path.iterdir() if p != path)
                raise OSError("disk full")
            return repr(value)

        monkeypatch.setattr(state, "repr", failing_repr, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_pool_csv(path, big)
        assert len(partial) == 1 and partial[0] > 0
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["pool.csv"]

    def test_write_into_missing_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_pool_csv(tmp_path / "absent" / "pool.csv", generate_pool(spec()))
        assert os.listdir(tmp_path) == []

    def test_metadata_file_written(self, tmp_path):
        pool, meta = generate_pool_with_metadata(spec(redundancy=0.2, label_noise=0.1))
        path = tmp_path / "meta.csv"
        write_metadata_csv(path, pool, meta)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,duplicate_of,noisy,true_label"
        assert len(lines) == pool.n_samples + 1
