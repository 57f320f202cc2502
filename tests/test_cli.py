"""End-to-end checks for the command line entry points."""

from __future__ import annotations

import numpy as np
import pytest

from dataclasses import replace

import alsift.schemes
from alsift.cli import main
from alsift.datagen import GeneratorSpec, generate_pool, write_pool_csv
from alsift.experiment import config_hash, config_from_file, read_results
from alsift.learner import (
    CheckpointStore,
    EnsembleConfig,
    TrainConfig,
    build_ensemble,
    predict_pool,
    train,
)
from alsift.acquisition import score_pool, write_prediction_tensor
from alsift.state import SubsetState

CONFIG_TEXT = """
pool.classes = 3
pool.clusters_per_class = 1
pool.samples_per_cluster = 30
pool.features = 4
pool.redundancy = 0.2
pool.label_noise = 0.05
pool.center_spread = 1.5
pool.seed = 7

search.scheme = build_up
search.function = variation_ratios
search.target_size = 32

ensemble.mode = combined
ensemble.runs = 2
ensemble.checkpoints_per_run = 3

trainer.max_epochs = 6
trainer.batch_size = 16

experiment.seeds = 1,2
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT)
    return path


@pytest.fixture()
def trained_store(tmp_path):
    pool = generate_pool(GeneratorSpec(
        n_classes=3, clusters_per_class=1, samples_per_cluster=20,
        n_features=4, center_spread=1.5, seed=3,
    ))
    pool_path = tmp_path / "pool.csv"
    write_pool_csv(pool_path, pool)
    store = CheckpointStore()
    trainer = TrainConfig(max_epochs=5, batch_size=16)
    everything = SubsetState.from_ids(pool.sample_ids)
    for run_seed in (11, 12):
        store.add_run(train(pool, everything, trainer, seed=run_seed).checkpoints)
    store_dir = tmp_path / "ckpts"
    store.save(store_dir)
    return pool, pool_path, store_dir


class TestGenData:
    def test_writes_pool_and_metadata(self, tmp_path, config_path, capsys):
        out = tmp_path / "data"
        code = main(["gen-data", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        assert (out / "pool.csv").exists()
        assert (out / "pool_meta.csv").exists()
        lines = (out / "pool.csv").read_text().splitlines()
        assert lines[0] == "sample_id,label,x_0,x_1,x_2,x_3"
        assert len(lines) == 91
        assert "wrote 90 samples" in capsys.readouterr().out

    def test_seed_flag_overrides_pool_seed(self, tmp_path, config_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["gen-data", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main([
            "gen-data", "--config", str(config_path), "--seed", "99", "--out", str(out_b),
        ]) == 0
        assert (out_a / "pool.csv").read_text() != (out_b / "pool.csv").read_text()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["gen-data", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err


class TestScore:
    def test_scores_from_checkpoints(self, tmp_path, trained_store, capsys):
        pool, pool_path, store_dir = trained_store
        out = tmp_path / "scored"
        code = main([
            "score", "--pool", str(pool_path), "--checkpoints", str(store_dir),
            "--function", "entropy", "--mode", "combined",
            "--runs", "2", "--checkpoints-per-run", "2", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "scores.csv").read_text().splitlines()
        assert lines[0] == "sample_id,score"
        assert len(lines) == pool.n_samples + 1

        store = CheckpointStore.load(store_dir)
        members = build_ensemble(store, EnsembleConfig(
            mode="combined", runs=2, checkpoints_per_run=2))
        expected = score_pool(predict_pool(members, pool), "entropy")
        got = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        for sid, val in zip(expected.sample_ids, expected.scores):
            assert got[int(sid)] == val

    def test_scores_from_tensor_file(self, tmp_path, trained_store):
        pool, _, store_dir = trained_store
        store = CheckpointStore.load(store_dir)
        members = build_ensemble(store, EnsembleConfig(mode="seeds", runs=2))
        tensor = predict_pool(members, pool)
        tensor_path = tmp_path / "preds.alpt"
        write_prediction_tensor(tensor_path, tensor)
        out = tmp_path / "scored"
        code = main([
            "score", "--tensor", str(tensor_path),
            "--function", "mutual_information", "--out", str(out),
        ])
        assert code == 0
        got = (out / "scores.csv").read_text().splitlines()
        expected = score_pool(tensor, "mutual_information")
        assert len(got) == tensor.n_samples + 1
        assert float(got[1].split(",")[1]) == expected.scores[0]

    def test_error_count_requires_pool_labels(self, tmp_path, trained_store, capsys):
        pool, pool_path, store_dir = trained_store
        store = CheckpointStore.load(store_dir)
        members = build_ensemble(store, EnsembleConfig(mode="seeds", runs=2))
        tensor = predict_pool(members, pool)
        tensor_path = tmp_path / "preds.alpt"
        write_prediction_tensor(tensor_path, tensor)

        code = main([
            "score", "--tensor", str(tensor_path), "--function", "error_count",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "config error" in capsys.readouterr().err

        out = tmp_path / "scored"
        code = main([
            "score", "--tensor", str(tensor_path), "--pool", str(pool_path),
            "--function", "error_count", "--out", str(out),
        ])
        assert code == 0

    def test_random_function_requires_seed(self, tmp_path, trained_store):
        pool, pool_path, store_dir = trained_store
        out = tmp_path / "scored"
        args = [
            "score", "--pool", str(pool_path), "--checkpoints", str(store_dir),
            "--function", "random", "--mode", "seeds", "--runs", "2", "--out", str(out),
        ]
        assert main(args) == 1
        assert main(args + ["--seed", "5"]) == 0


class TestSearch:
    def test_writes_results_document(self, tmp_path, config_path, capsys):
        out = tmp_path / "runs"
        code = main(["search", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        config = config_from_file(config_path)
        results = out / ("results_%s.txt" % config_hash(config))
        assert results.exists()
        docs = read_results(results)
        assert len(docs) == 1
        assert len(docs[0].trials()) == 2
        printed = capsys.readouterr().out
        assert "seed=1 subset=" in printed
        assert "al_accuracy.mean" in printed

    def test_seed_flag_runs_single_trial(self, tmp_path, config_path):
        out = tmp_path / "runs"
        code = main(["search", "--config", str(config_path), "--seed", "9", "--out", str(out)])
        assert code == 0
        config = replace(config_from_file(config_path), seeds=(9,))
        docs = read_results(out / ("results_%s.txt" % config_hash(config)))
        assert [seed for seed, _ in docs[0].trials()] == [9]

    def test_config_required(self, capsys):
        assert main(["search"]) == 1
        assert "config" in capsys.readouterr().err


class TestAnalyze:
    def test_histogram_output(self, tmp_path, config_path, capsys):
        out = tmp_path / "runs"
        main(["search", "--config", str(config_path), "--seed", "1", "--out", str(out)])
        config = replace(config_from_file(config_path), seeds=(1,))
        docs = read_results(out / ("results_%s.txt" % config_hash(config)))
        subset = out / docs[0].trials()[0][1]["subset_file"]
        code = main([
            "analyze", "--what", "histogram", "--subset", str(subset),
            "--csv", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "multiplicity 1: 32" in printed
        lines = (out / "duplication_histogram.csv").read_text().splitlines()
        assert lines == ["multiplicity,count", "1,32"]

    def test_consensus_output(self, tmp_path, trained_store, capsys):
        _, pool_path, store_dir = trained_store
        out = tmp_path / "analysis"
        args = [
            "analyze", "--what", "consensus", "--pool", str(pool_path),
            "--checkpoints", str(store_dir), "--run", "11", "--n-max", "3",
            "--csv", "--out", str(out),
        ]
        code = main(args)
        assert code == 0
        printed = capsys.readouterr().out
        assert "all-1-agree" in printed
        docs = read_results(out / "analysis_consensus.txt")
        section = dict(docs[0].sections)["consensus"]
        assert section["eval_size"] == "60"
        # the run holds 5 checkpoints: 3 cumulative rows (n_max) + 4 pairwise
        csv_lines = (out / "consensus.csv").read_text().splitlines()
        assert csv_lines[0] == "source,series,index,count"
        assert len(csv_lines) == 1 + 3 + 4
        # a second run appends its document but exports only its own rows
        assert main(args) == 0
        assert len(read_results(out / "analysis_consensus.txt")) == 2
        assert (out / "consensus.csv").read_text().splitlines() == csv_lines

    def test_eval_with_subset_gap(self, tmp_path, trained_store, capsys):
        pool, pool_path, store_dir = trained_store
        subset = tmp_path / "subset.csv"
        ids = sorted(int(i) for i in pool.sample_ids[:10])
        subset.write_text("sample_id,multiplicity\n" + "".join(
            "%d,1\n" % i for i in ids))
        out = tmp_path / "eval"
        code = main([
            "analyze", "--what", "eval", "--pool", str(pool_path),
            "--checkpoints", str(store_dir), "--subset", str(subset),
            "--csv", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "selected" in printed and "unselected" in printed
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == "partition,class,accuracy,n_samples"
        assert {l.split(",")[0] for l in lines[1:]} == {"selected", "unselected"}

    def test_malformed_pool_row_fails_with_line(self, tmp_path, trained_store, capsys):
        _, _, store_dir = trained_store
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,label,x_0,x_1\n0,1,0.5,0.25\n1,0,0.5\n")
        code = main([
            "analyze", "--what", "eval", "--pool", str(bad),
            "--checkpoints", str(store_dir), "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "line 3: expected 4 columns, found 3" in capsys.readouterr().err

    def test_unknown_run_fails(self, tmp_path, trained_store, capsys):
        _, pool_path, store_dir = trained_store
        code = main([
            "analyze", "--what", "consensus", "--pool", str(pool_path),
            "--checkpoints", str(store_dir), "--run", "404", "--out", str(tmp_path / "x"),
        ])
        assert code == 2


class TestExport:
    def test_learning_curve_csv(self, tmp_path, config_path):
        out = tmp_path / "runs"
        main(["search", "--config", str(config_path), "--out", str(out)])
        config = config_from_file(config_path)
        results = out / ("results_%s.txt" % config_hash(config))
        code = main([
            "export", "--results", str(results), "--kind", "learning_curve",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "learning_curve.csv").read_text().splitlines()
        assert lines[0].startswith("config_hash,")
        assert len(lines) == 9

    def test_multiple_results_files(self, tmp_path, config_path):
        out = tmp_path / "runs"
        main(["search", "--config", str(config_path), "--out", str(out)])
        other = tmp_path / "other.cfg"
        other.write_text(CONFIG_TEXT.replace("target_size = 32", "target_size = 16"))
        main(["search", "--config", str(other), "--out", str(out)])
        paths = sorted(out.glob("results_*.txt"))
        assert len(paths) == 2
        code = main([
            "export", "--results", *map(str, paths), "--kind", "scheme_comparison",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "scheme_comparison.csv").read_text().splitlines()
        assert len(lines) == 3


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["export", "--results", "r.txt", "--kind", "histogram", "--seed", "1"],
        ["analyze", "--what", "histogram", "--jobs", "2"],
        ["score", "--function", "entropy", "--config", "exp.cfg"],
        ["gen-data", "--jobs", "2"],
    ])
    def test_verb_rejects_flag_it_does_not_read(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_search_reads_config_seed_and_jobs(self, tmp_path, config_path):
        out = tmp_path / "runs"
        argv = ["search", "--config", str(config_path), "--seed", "3", "--jobs", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        config = replace(config_from_file(config_path), seeds=(3,))
        docs = read_results(out / ("results_%s.txt" % config_hash(config)))
        assert [seed for seed, _ in docs[0].trials()] == [3]


class TestExitCodes:
    def test_unknown_verb_maps_to_one(self, capsys):
        assert main(["warp"]) == 1

    def test_no_arguments_maps_to_one(self):
        assert main([]) == 1

    def test_unexpected_failure_maps_to_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,label,x_0\n")
        code = main([
            "score", "--pool", str(bad), "--checkpoints", str(tmp_path / "none"),
            "--function", "entropy", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_tensor_csv_maps_to_two(self, tmp_path, capsys):
        bad = tmp_path / "preds.csv"
        bad.write_text("sample_id,member,p_0,p_1\n1,0,0.5,0.5\n1,1,0.5\n")
        code = main(["score", "--tensor", str(bad), "--function", "entropy", "--out", str(tmp_path)])
        assert code == 2
        assert "error: line 3: expected 4 columns, found 3" in capsys.readouterr().err

    def test_unknown_ensemble_mode_maps_to_one(self, tmp_path, trained_store, capsys):
        _, pool_path, store_dir = trained_store
        code = main([
            "score", "--pool", str(pool_path), "--checkpoints", str(store_dir),
            "--function", "entropy", "--mode", "bogus", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--runs", "--checkpoints-per-run", "--stride"])
    def test_non_positive_ensemble_size_maps_to_one(self, tmp_path, trained_store, flag, capsys):
        _, pool_path, store_dir = trained_store
        code = main([
            "score", "--pool", str(pool_path), "--checkpoints", str(store_dir),
            "--function", "entropy", flag, "0", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "config error: runs, checkpoints per run and stride" in capsys.readouterr().err

    def test_zero_jobs_maps_to_one(self, tmp_path, config_path, capsys):
        out = tmp_path / "runs"
        code = main(["search", "--config", str(config_path), "--jobs", "0", "--out", str(out)])
        assert code == 1
        assert "experiment.jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_mlp_without_hidden_units_maps_to_one(self, tmp_path, capsys):
        path = tmp_path / "flat.cfg"
        path.write_text(CONFIG_TEXT + "trainer.arch = mlp\ntrainer.hidden = 0\n")
        out = tmp_path / "runs"
        assert main(["search", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "mlp needs a positive hidden width" in err
        assert not out.exists()

    @pytest.mark.parametrize("edits, keys", [
        (
            [("scheme = build_up", "scheme = pretrain"), ("max_epochs = 6", "max_epochs = 12"),
             ("checkpoints_per_run = 3", "checkpoints_per_run = 10\ntrainer.fine_tune_epochs = 3")],
            ["trainer.fine_tune_epochs = 3", "ensemble.checkpoints_per_run = 10"],
        ),
        (
            [("max_epochs = 6", "max_epochs = 5"),
             ("checkpoints_per_run = 3", "checkpoints_per_run = 10")],
            ["trainer.max_epochs = 5", "ensemble.checkpoints_per_run = 10"],
        ),
    ], ids=["pretrain_fine_tune_epochs", "build_up_max_epochs"])
    def test_epochs_short_of_ensemble_span_map_to_one(
        self, edits, keys, tmp_path, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was refused")

        monkeypatch.setattr(alsift.schemes, "train_runs", no_training)
        text = CONFIG_TEXT
        for old, new in edits:
            text = text.replace(old, new)
        path = tmp_path / "short.cfg"
        path.write_text(text)
        out = tmp_path / "runs"
        assert main(["search", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        for key in keys:
            assert key in err
        assert not out.exists()

    def test_patience_without_held_out_ids_maps_to_one(self, tmp_path, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was refused")

        monkeypatch.setattr(alsift.schemes, "train_runs", no_training)
        path = tmp_path / "blind.cfg"
        path.write_text(CONFIG_TEXT + "trainer.patience = 2\ntrainer.val_fraction = 0\n")
        out = tmp_path / "runs"
        assert main(["search", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "trainer.patience = 2" in err and "trainer.val_fraction = 0" in err
        assert not out.exists()
