"""End-to-end checks for the command line entry points."""

from __future__ import annotations

import argparse
import ast
import builtins
import hashlib
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dataclasses import replace

import alsift.cli
import alsift.experiment
import alsift.schemes
from alsift import state
from alsift.cli import build_parser, main
from alsift.datagen import GeneratorSpec, generate_pool, write_pool_csv
from alsift.experiment import (
    ResultsDocument,
    config_hash,
    config_from_file,
    export_plot_data,
    read_results,
)
from alsift.learner import (
    CheckpointStore,
    EnsembleConfig,
    LabeledPool,
    TrainConfig,
    build_ensemble,
    predict_pool,
    train,
    write_checkpoint,
)
from alsift.acquisition import (
    BLOCK_ROWS,
    PredictionTensor,
    read_prediction_tensor,
    score_pool,
    write_prediction_tensor,
)
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

    def test_score_tensor_holds_under_half_the_tensor(self, tmp_path):
        # (5 * BLOCK_ROWS - 7) samples x 50 members x 10 classes: 20 MB of float32
        raw = np.random.default_rng(4).random((5 * BLOCK_ROWS - 7, 50, 10)) + 1e-3
        probs = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
        tensor = PredictionTensor(probs, np.arange(len(probs)))
        path = tmp_path / "t.alpt"
        write_prediction_tensor(path, tensor)
        bound = 0.5 * tensor.data.nbytes
        del raw, probs, tensor
        for function_id in ("mutual_information", "variation_ratios", "entropy"):
            out = tmp_path / function_id
            tracemalloc.start()
            try:
                code = main(["score", "--tensor", str(path), "--function", function_id, "--out", str(out)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < bound, function_id
            got = np.loadtxt(out / "scores.csv", delimiter=",", skiprows=1)[:, 1]
            assert got.tobytes() == score_pool(read_prediction_tensor(path), function_id).scores.tobytes()

    def test_cut_tensor_file_exits_two_and_writes_no_scores(self, tmp_path, capsys):
        path = tmp_path / "t.alpt"
        write_prediction_tensor(path, _tensor(0))
        raw = path.read_bytes()
        for cut in (0, 10, 18, 22, len(raw) - 1):
            path.write_bytes(raw[:cut])
            out = tmp_path / ("out%d" % cut)
            assert main(["score", "--tensor", str(path), "--function", "entropy", "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: truncated ")
            assert not (out / "scores.csv").exists()

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

    def test_out_dot_wins_over_experiment_out(self, tmp_path, config_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["search", "--config", str(config_path), "--seed", "1", "--out", "."]) == 0
        config = replace(config_from_file(config_path), seeds=(1,))
        assert (tmp_path / ("results_%s.txt" % config_hash(config))).exists()
        assert not (tmp_path / config.out_dir).exists()

    def test_config_required(self, capsys):
        assert main(["search"]) == 1
        assert "config" in capsys.readouterr().err

    def test_results_file_with_a_torn_last_document_is_refused(self, tmp_path, config_path, capsys):
        out = tmp_path / "runs"
        argv = ["search", "--config", str(config_path), "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        results = out / ("results_%s.txt" % config_hash(replace(config_from_file(config_path), seeds=(1,))))
        raw = results.read_bytes()
        results.write_bytes(raw[: raw.index(b"al_accuracy") + 5])
        torn = results.read_bytes()
        capsys.readouterr()
        assert main(argv) == 2
        assert results.read_bytes() == torn
        assert capsys.readouterr().err == (
            "error: %s does not end in [end]; move it aside and run again\n" % results
        )

    @pytest.mark.parametrize("content, code, message", [
        ("# subset-search results\nconfig.search.scheme = build_up\n", 2,
         "error: {path} does not end in [end]; move it aside and run again\n"),
        ("# subset-search results\nconfig.search.scheme = compress\n[end]\n", 1,
         "config error: results file {name} holds a different configuration\n"),
    ], ids=["torn", "other_config"])
    def test_results_file_is_refused_before_any_training(
        self, tmp_path, config_path, capsys, monkeypatch, content, code, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the results file was checked")

        monkeypatch.setattr(alsift.schemes, "train_subset_ensemble", no_training)
        monkeypatch.setattr(alsift.experiment, "train_subset_ensemble", no_training)
        monkeypatch.setattr(alsift.schemes, "train_parts", no_training)
        out = tmp_path / "runs"
        out.mkdir()
        results = out / ("results_%s.txt" % config_hash(replace(config_from_file(config_path), seeds=(1,))))
        results.write_text(content)
        argv = ["search", "--config", str(config_path), "--seed", "1", "--out", str(out)]
        assert main(argv) == code
        assert results.read_text() == content
        assert capsys.readouterr().err == message.format(path=results, name=results.name)


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

    def test_consensus_file_with_a_torn_last_document_is_refused(self, tmp_path, trained_store, capsys):
        _, pool_path, store_dir = trained_store
        out = tmp_path / "analysis"
        argv = [
            "analyze", "--what", "consensus", "--pool", str(pool_path),
            "--checkpoints", str(store_dir), "--out", str(out),
        ]
        assert main(argv) == 0
        doc = out / "analysis_consensus.txt"
        raw = doc.read_bytes()
        doc.write_bytes(raw[: raw.index(b"cumulative.2") + 4])
        torn = doc.read_bytes()
        capsys.readouterr()
        assert main(argv) == 2
        assert doc.read_bytes() == torn
        assert "move it aside" in capsys.readouterr().err

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

    def test_eval_csv_of_the_gap_keeps_its_pinned_bytes(self, tmp_path, capsys):
        # a 7000-row pool under shuffled, non-sequential ids, a store of three
        # MLP runs trained on 600 of them, and a subset of more than one row block
        base = generate_pool(GeneratorSpec(samples_per_cluster=875, label_noise=0.1, seed=41))
        rng = np.random.default_rng(43)
        ids = rng.permutation(base.n_samples) * 7 + 3
        pool = LabeledPool(base.features, base.labels, ids, base.n_classes)
        write_pool_csv(tmp_path / "pool.csv", pool)
        store, trainer = CheckpointStore(), TrainConfig(arch="mlp", max_epochs=3)
        trained = SubsetState.from_ids(rng.choice(ids, 600, replace=False))
        for run in (1, 2, 3):
            store.add_run(train(pool, trained, trainer, seed=run).checkpoints)
        store.save(tmp_path / "ckpts")
        subset = SubsetState.from_ids(rng.choice(ids, BLOCK_ROWS + 1, replace=False))
        state.write_subset_csv(tmp_path / "subset.csv", subset)
        code = main([
            "analyze", "--what", "eval", "--pool", str(tmp_path / "pool.csv"),
            "--checkpoints", str(tmp_path / "ckpts"), "--subset", str(tmp_path / "subset.csv"),
            "--csv", "--out", str(tmp_path / "eval"),
        ])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()[:2]
        assert [line.split(" accuracy=")[0] for line in printed] == ["selected:   n=2049", "unselected: n=4951"]
        digest = hashlib.sha256((tmp_path / "eval" / "eval.csv").read_bytes()).hexdigest()
        assert digest == "66ba6ceee01d143cb97a7d635405f8b67415f03975c95b3a432503a0e4d318dd"

    @pytest.mark.parametrize("what", ["histogram", "eval"])
    @pytest.mark.parametrize("sid", [-3, 2**64], ids=["negative", "too_large"])
    def test_subset_id_outside_uint64_fails_with_line(
        self, what, sid, tmp_path, trained_store, capsys
    ):
        _, pool_path, store_dir = trained_store
        subset = tmp_path / "subset.csv"
        subset.write_text("sample_id,multiplicity\n%d,1\n1,1\n" % sid)
        # histogram reads only the subset; eval also reads the pool and store
        sources = []
        if what == "eval":
            sources = ["--pool", str(pool_path), "--checkpoints", str(store_dir)]
        code = main([
            "analyze", "--what", what, *sources,
            "--subset", str(subset), "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: line 2: sample id %d outside [0, 2**64)\n" % sid

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

    @pytest.mark.parametrize("n_max", ["0", "-1"])
    def test_n_max_below_one_is_a_usage_error(self, tmp_path, trained_store, monkeypatch, capsys, n_max):
        def no_pool(*args, **kwargs):
            raise AssertionError("read the pool before the flag was refused")

        _, pool_path, store_dir = trained_store
        monkeypatch.setattr(alsift.cli, "read_pool_csv", no_pool)
        code = main([
            "analyze", "--what", "consensus", "--pool", str(pool_path),
            "--checkpoints", str(store_dir), "--n-max", n_max, "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "--n-max must be >= 1" in capsys.readouterr().err

    def test_n_max_beyond_the_members_is_a_runtime_failure(self, tmp_path, trained_store, capsys):
        _, pool_path, store_dir = trained_store
        # run 11 stores 5 checkpoints
        code = main([
            "analyze", "--what", "consensus", "--pool", str(pool_path),
            "--checkpoints", str(store_dir), "--run", "11", "--n-max", "6",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "n_max must be in [1, 5]" in capsys.readouterr().err

    @pytest.mark.parametrize("what, flag", [
        ("histogram", ["--pool", "p.csv"]),
        ("histogram", ["--checkpoints", "ckpts"]),
        ("histogram", ["--run", "11"]),
        ("histogram", ["--n-max", "3"]),
        ("consensus", ["--subset", "s.csv"]),
        ("eval", ["--run", "11"]),
        ("eval", ["--n-max", "3"]),
        ("eval", ["--n-max", "0", "--run", "404"]),
    ], ids=["histogram-pool", "histogram-checkpoints", "histogram-run", "histogram-n_max",
            "consensus-subset", "eval-run", "eval-n_max", "eval-n_max_0-run_404"])
    def test_flag_the_chosen_what_does_not_read_is_a_usage_error(
        self, tmp_path, trained_store, monkeypatch, capsys, what, flag
    ):
        def no_file(*args, **kwargs):
            raise AssertionError("read a file before the flag was refused")

        _, pool_path, store_dir = trained_store
        for name in ("read_pool_csv", "read_subset_csv"):
            monkeypatch.setattr(alsift.cli, name, no_file)
        monkeypatch.setattr(alsift.cli.CheckpointStore, "load", no_file)
        reads = {
            "histogram": ["--subset", "s.csv"],
            "consensus": ["--pool", str(pool_path), "--checkpoints", str(store_dir)],
            "eval": ["--pool", str(pool_path), "--checkpoints", str(store_dir)],
        }[what]
        out = tmp_path / "x"
        assert main(["analyze", "--what", what, *reads, *flag, "--csv", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: analyze --what %s does not read " % what)
        assert flag[0] in err
        assert not out.exists()

    def test_unknown_run_fails(self, tmp_path, trained_store, capsys):
        _, pool_path, store_dir = trained_store
        code = main([
            "analyze", "--what", "consensus", "--pool", str(pool_path),
            "--checkpoints", str(store_dir), "--run", "404", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        # the KeyError's message, not its repr
        assert capsys.readouterr().err == "error: no checkpoints stored for run 404\n"

    def test_a_pool_table_is_not_read_as_a_subset(self, tmp_path, trained_store, capsys):
        _, pool_path, _ = trained_store
        code = main(["analyze", "--what", "histogram", "--subset", str(pool_path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == "error: expected header sample_id[, multiplicity]\n"

    def test_unknown_subset_id_fails(self, tmp_path, trained_store, capsys):
        _, pool_path, store_dir = trained_store
        subset_path = tmp_path / "subset.csv"
        state.write_subset_csv(subset_path, SubsetState.from_ids([0, 404]))
        code = main([
            "analyze", "--what", "eval", "--pool", str(pool_path),
            "--checkpoints", str(store_dir), "--subset", str(subset_path), "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown sample id 404\n"


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


@pytest.fixture()
def no_file_reads(monkeypatch):
    """Fail the test on any read of a pool, tensor or checkpoint file."""
    def no_file(*args, **kwargs):
        raise AssertionError("read a file before the flag was refused")

    for name in ("read_pool_csv", "read_prediction_tensor", "read_prediction_tensor_csv"):
        monkeypatch.setattr(alsift.cli, name, no_file)
    monkeypatch.setattr(alsift.cli.CheckpointStore, "load", no_file)


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

    @pytest.mark.parametrize("flag", [
        ["--checkpoints", "ckpts"],
        ["--mode", "combined"],
        ["--runs", "7"],
        ["--checkpoints-per-run", "2"],
        ["--stride", "2"],
        ["--mode", "combined", "--runs", "7"],
    ], ids=["checkpoints", "mode", "runs", "checkpoints_per_run", "stride", "mode-runs"])
    def test_score_tensor_refuses_the_checkpoint_flags(self, tmp_path, monkeypatch, capsys, flag):
        def no_file(*args, **kwargs):
            raise AssertionError("read a file before the flag was refused")

        for name in ("read_pool_csv", "read_prediction_tensor", "read_prediction_tensor_csv"):
            monkeypatch.setattr(alsift.cli, name, no_file)
        monkeypatch.setattr(alsift.cli.CheckpointStore, "load", no_file)
        out = tmp_path / "x"
        argv = ["score", "--function", "entropy", "--tensor", "t.alpt", "--pool", "p.csv", *flag]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: score --tensor does not read ")
        assert flag[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("function", ["entropy", "mutual_information", "variation_ratios", "error_count"])
    @pytest.mark.parametrize("source", [
        ["--tensor", "t.alpt"],
        ["--pool", "p.csv", "--checkpoints", "ckpts"],
    ], ids=["tensor", "checkpoints"])
    def test_score_refuses_seed_unless_random(self, tmp_path, no_file_reads, capsys, function, source):
        out = tmp_path / "x"
        argv = ["score", "--function", function, *source, "--seed", "3"]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: score --function %s does not read --seed\n" % function
        assert not out.exists()

    @pytest.mark.parametrize("function", [
        ["entropy"], ["mutual_information"], ["variation_ratios"], ["random", "--seed", "3"],
    ], ids=lambda f: f[0])
    def test_score_tensor_refuses_pool_unless_error_count(self, tmp_path, no_file_reads, capsys, function):
        out = tmp_path / "x"
        argv = ["score", "--function", *function, "--tensor", "t.alpt", "--pool", "p.csv"]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: score --tensor --function %s does not read --pool\n" % function[0]
        assert not out.exists()

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
        (tmp_path / "none").mkdir()  # a directory to read, so the pool's refusal is the failure
        code = main([
            "score", "--pool", str(bad), "--checkpoints", str(tmp_path / "none"),
            "--function", "entropy", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["score", "--function", "entropy", "--pool", "{missing}", "--checkpoints", "{missing}"], "--pool"),
        (["score", "--function", "entropy", "--tensor", "{directory}"], "--tensor"),
        (["analyze", "--what", "consensus", "--pool", "{file}", "--checkpoints", "{file}"], "--checkpoints"),
        (["export", "--results", "{file}", "", "--kind", "learning_curve"], "--results"),
    ], ids=["score-pool", "score-tensor", "analyze-checkpoints", "export-results"])
    def test_unreadable_input_path_maps_to_one_naming_its_flag(self, argv, flag, tmp_path, capsys):
        # beyond the flag grid's missing and empty values: a directory given
        # for a file, a file for a directory, and an empty entry of a list
        (tmp_path / "file").write_text("x")
        paths = dict(missing=tmp_path / "missing", directory=tmp_path, file=tmp_path / "file")
        out = tmp_path / "out"
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: %s: " % flag)
        assert not out.exists()

    def test_malformed_tensor_csv_maps_to_two(self, tmp_path, capsys):
        bad = tmp_path / "preds.csv"
        bad.write_text("sample_id,member,p_0,p_1\n1,0,0.5,0.5\n1,1,0.5\n")
        code = main(["score", "--tensor", str(bad), "--function", "entropy", "--out", str(tmp_path)])
        assert code == 2
        assert "error: line 3: expected 4 columns, found 3" in capsys.readouterr().err

    @pytest.mark.parametrize("function", ["entropy", "variation_ratios"])
    def test_tensor_file_with_no_members_maps_to_two(self, function, tmp_path, capsys):
        path = tmp_path / "empty.alpt"
        header = b"ALPT" + (1).to_bytes(2, "little") + b"".join(v.to_bytes(4, "little") for v in (2, 0, 3))
        path.write_bytes(header + np.array([4, 7], dtype="<u8").tobytes())
        code = main(["score", "--tensor", str(path), "--function", function, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: empty ensemble\n"

    @pytest.mark.parametrize("argv, edit, message", [
        (["search"], ("pool.seed = 7", "pool.seed = -1"), "pool.seed must be non-negative, got -1"),
        (["search"], ("seeds = 1,2", "seeds = -3"), "experiment.seeds must be non-negative, got -3"),
        (["gen-data", "--seed", "-2"], None, "--seed must be non-negative, got -2"),
        (["search", "--seed", "-5"], None, "--seed must be non-negative, got -5"),
        (["score", "--function", "random", "--seed", "-1"], None, "--seed must be non-negative, got -1"),
        (["search"], ("trainer.batch_size = 16", "trainer.decay_epochs = 0"),
         "trainer.decay_epochs: decay epochs must be >= 1, got 0"),
    ], ids=["pool.seed", "experiment.seeds", "gen-data", "search", "score", "decay_epochs"])
    def test_negative_seed_or_decay_epoch_maps_to_one(self, argv, edit, message, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(CONFIG_TEXT.replace(*edit) if edit else CONFIG_TEXT)
        if argv[0] != "score":
            argv = argv + ["--config", str(config)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "config error: %s\n" % message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        ("trainer.learning_rate = 0", "trainer.learning_rate: learning rate must be positive"),
        ("ensemble.runs = 0", "ensemble.runs: runs, checkpoints per run and stride must be >= 1"),
        ("ensemble.checkpoints_per_run = 0",
         "ensemble.checkpoints_per_run: runs, checkpoints per run and stride must be >= 1"),
        ("ensemble.stride = 0", "ensemble.stride: runs, checkpoints per run and stride must be >= 1"),
        ("trainer.patience = -1", "trainer.patience: patience must be >= 0, got -1"),
        ("search.function = nope", "search.function: unknown acquisition function 'nope'"),
        ("trainer.decay_epochs = 0", "trainer.decay_epochs: decay epochs must be >= 1, got 0"),
        ("trainer.decay_epochs = 3,3", "trainer.decay_epochs: decay epochs must be distinct, got 3 twice"),
        ("trainer.batch_size = 0", "trainer.batch_size: batch size must be >= 1, got 0"),
    ], ids=["learning_rate", "runs", "checkpoints_per_run", "stride", "patience", "function",
            "decay_epochs", "decay_epochs-distinct", "batch_size"])
    def test_config_error_names_its_key(self, edit, message, tmp_path, capsys):
        key = edit.split(" = ")[0]
        lines = [line for line in CONFIG_TEXT.splitlines() if not line.startswith(key + " ")]
        config = tmp_path / "exp.cfg"
        config.write_text("\n".join(lines + [edit, ""]))
        out = tmp_path / "out"
        assert main(["search", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        key for key, (_, parse) in alsift.experiment.CONFIG_KEYS.items()
        if parse in (alsift.experiment._FLOAT, alsift.experiment._FLOATS)
    ])
    def test_non_finite_number_names_its_key(self, key, value, tmp_path, capsys):
        lines = [line for line in CONFIG_TEXT.splitlines() if not line.startswith(key + " ")]
        text = "1,%s,1" % value if key == "pool.class_ratios" else value
        config = tmp_path / "exp.cfg"
        config.write_text("\n".join(lines + ["%s = %s" % (key, text), ""]))
        out = tmp_path / "out"
        assert main(["search", "--config", str(config), "--out", str(out)]) == 1
        words = alsift.experiment.CONFIG_KEYS[key][0].rpartition(".")[2].replace("_", " ")
        expected = "config error: %s: %s must be finite, got %s\n" % (key, words, value)
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize("section, message", [
        ("[aggregate]", "line 7: duplicate section [aggregate]"),
        ("[trial seed=one]", "line 7: trial seed 'one' is not an integer"),
    ])
    def test_export_refuses_a_section_no_writer_writes(self, section, message, tmp_path, capsys):
        results = tmp_path / "results_x.txt"
        results.write_text(
            "# subset-search results\nschema_version = 1\ncreated = X\n"
            "[aggregate]\ntrials = 1.0\n\n%s\ntrials = 2.0\n[end]\n" % section
        )
        argv = ["export", "--results", str(results), "--kind", "learning_curve"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_tensor_csv_id_past_uint64_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "preds.csv"
        bad.write_text("sample_id,member,p_0,p_1\n18446744073709551616,0,0.5,0.5\n")
        code = main(["score", "--tensor", str(bad), "--function", "entropy", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 2: sample id 18446744073709551616 outside [0, 2**64)\n"
        )

    def test_a_store_missing_a_listed_checkpoint_maps_to_two(self, tmp_path, trained_store, capsys):
        _, pool_path, store_dir = trained_store
        (store_dir / "run12_ep5.alck").unlink()
        out = tmp_path / "x"
        code = main([
            "score", "--pool", str(pool_path), "--checkpoints", str(store_dir),
            "--function", "entropy", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: %s lists run 12 epoch 5, which no .alck file under %s holds\n"
            % (store_dir / "store_meta.csv", store_dir)
        )
        assert not out.exists()

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
        assert capsys.readouterr().err == (
            "config error: %s: runs, checkpoints per run and stride must be >= 1\n" % flag
        )

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
        (
            [("target_size = 32", "target_size = 4")],
            ["growth schedule needs a target of at least 8"],
        ),
        (
            [("scheme = build_up", "scheme = automatic_duplication"),
             ("target_size = 32", "target_size = 10\nsearch.initial_size = 20\nsearch.acquisition_batch = 4")],
            ["initial size exceeds the target"],
        ),
    ], ids=["pretrain_fine_tune_epochs", "build_up_max_epochs", "build_up_target_below_8",
            "duplication_initial_above_target"])
    def test_epochs_short_of_ensemble_span_map_to_one(
        self, edits, keys, tmp_path, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was refused")

        monkeypatch.setattr(alsift.schemes, "train_parts", no_training)
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

    def test_early_stop_short_of_the_ensemble_span_names_its_cause(self, tmp_path, capsys):
        # a 360-sample pool; a run of the first iteration stops at epoch 3 and
        # stores 3 checkpoints where the combined mode reads 4
        text = CONFIG_TEXT.replace("samples_per_cluster = 30", "samples_per_cluster = 120")
        text = text.replace("target_size = 32", "target_size = 80")
        text = text.replace("checkpoints_per_run = 3", "checkpoints_per_run = 4")
        text = text.replace("max_epochs = 6", "max_epochs = 10")
        text = text.replace("seeds = 1,2", "seeds = 1,2,3")
        path = tmp_path / "stops.cfg"
        path.write_text(text + "trainer.patience = 2\ntrainer.val_fraction = 0.2\n")
        assert main(["search", "--config", str(path), "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert "run 1 stopped at epoch 3 under trainer.patience = 2" in err
        assert ("ensemble.mode = combined with ensemble.checkpoints_per_run = 4 and"
                " ensemble.stride = 1 reads a span of 4 epochs") in err

    def test_patience_without_held_out_ids_maps_to_one(self, tmp_path, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was refused")

        monkeypatch.setattr(alsift.schemes, "train_parts", no_training)
        path = tmp_path / "blind.cfg"
        path.write_text(CONFIG_TEXT + "trainer.patience = 2\ntrainer.val_fraction = 0\n")
        out = tmp_path / "runs"
        assert main(["search", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "trainer.patience = 2" in err and "trainer.val_fraction = 0" in err
        assert not out.exists()


# the run-time refusals of a search that the README lists (exit 2)
_RUNTIME_REFUSALS = (
    "target size exceeds the pool",
    "needs held-out ids to validate on",
    "under trainer.patience",
    "non-finite training loss",
    "features must be finite",
)
# refusals that depend on what the given files hold, not on a flag value alone (exit 2)
_FILE_REFUSALS = (
    r"store holds \d+ runs; \d+ requested",
    r"run \d+ stores \d+ checkpoints; \d+ at stride \d+ requested",
    r"no checkpoints stored for run \d+",
    r"n_max must be in \[1, \d+\]",
)
_PATH_FLAGS = ("--config", "--pool", "--checkpoints", "--tensor", "--subset", "--results")

# the base invocation, which exits 0, that each value-taking flag is tried in
_FLAG_BASES = {
    "gen-data": ["gen-data", "--config", "{cfg}", "--seed", "1"],
    "score-checkpoints": [
        "score", "--function", "entropy", "--pool", "{pool}", "--checkpoints", "{store}",
        "--mode", "combined", "--runs", "1", "--checkpoints-per-run", "1", "--stride", "1",
    ],
    "score-tensor": ["score", "--function", "random", "--seed", "1", "--tensor", "{tensor}"],
    "search": ["search", "--config", "{cfg}", "--seed", "1", "--jobs", "1"],
    "consensus": [
        "analyze", "--what", "consensus", "--pool", "{pool}", "--checkpoints", "{store}",
        "--run", "11", "--n-max", "2",
    ],
    "eval": ["analyze", "--what", "eval", "--pool", "{pool}", "--checkpoints", "{store}", "--subset", "{subset}"],
    "export": ["export", "--results", "{results}", "--kind", "learning_curve"],
}
_FLAG_GRID = [
    *(("gen-data", flag) for flag in ("--config", "--seed", "--out")),
    ("score-tensor", "--seed"),
    *(("score-checkpoints", flag) for flag in ("--function", "--pool", "--checkpoints")),
    ("score-tensor", "--tensor"),
    *(("score-checkpoints", flag) for flag in ("--mode", "--runs", "--checkpoints-per-run", "--stride")),
    ("score-tensor", "--out"),
    *(("search", flag) for flag in ("--config", "--seed", "--jobs", "--out")),
    *(("consensus", flag) for flag in ("--what", "--pool", "--checkpoints", "--run", "--n-max", "--out")),
    ("eval", "--subset"),
    *(("export", flag) for flag in ("--results", "--kind", "--out")),
]


@pytest.fixture(scope="class")
def flag_files(tmp_path_factory):
    """A config, pool, checkpoint store, tensor, subset and results file that
    every base invocation of the flag grid reads."""
    root = tmp_path_factory.mktemp("files")
    pool = generate_pool(GeneratorSpec(
        n_classes=3, clusters_per_class=1, samples_per_cluster=20, n_features=4, center_spread=1.5, seed=3,
    ))
    write_pool_csv(root / "pool.csv", pool)
    store = CheckpointStore()
    for run_seed in (11, 12):
        everything = SubsetState.from_ids(pool.sample_ids)
        store.add_run(train(pool, everything, TrainConfig(max_epochs=5, batch_size=16), seed=run_seed).checkpoints)
    store.save(root / "ckpts")
    members = build_ensemble(store, EnsembleConfig(runs=2))
    write_prediction_tensor(root / "t.alpt", predict_pool(members, pool))
    state.write_subset_csv(root / "subset.csv", SubsetState.from_ids(pool.sample_ids[:10]))
    (root / "exp.cfg").write_text(CONFIG_TEXT.replace("seeds = 1,2", "seeds = 1"))
    assert main(["search", "--config", str(root / "exp.cfg"), "--out", str(root / "runs")]) == 0
    results, = (root / "runs").glob("results_*.txt")
    names = dict(cfg="exp.cfg", pool="pool.csv", store="ckpts", tensor="t.alpt", subset="subset.csv")
    return {name: str(root / file) for name, file in names.items()} | {"results": str(results)}


class TestExitCodeContract:
    """Every value of every config key and flag exits 0, exits 1 naming what
    was refused, or exits 2 with a refusal only a run or the files can find."""

    # a finite value that makes training diverge exits 2 without a numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key", [key for key in alsift.experiment.CONFIG_KEYS
                                     if key not in ("pool.file", "experiment.out")])
    def test_every_config_value_keeps_the_exit_code_contract(self, key, tmp_path, capsys):
        lines = CONFIG_TEXT.replace("seeds = 1,2", "seeds = 1").splitlines()
        lines = [line for line in lines if not line.startswith(key + " ")]
        broken = []
        for i, value in enumerate(["0", "-1", "1", "2", "nan", "inf", "-inf", "1e308", "", "x"]):
            config = tmp_path / ("%d.cfg" % i)
            config.write_text("\n".join(lines + ["%s = %s" % (key, value), ""]))
            code = main(["search", "--config", str(config), "--out", str(tmp_path / str(i))])
            err = capsys.readouterr().err
            if not (code == 0 or code == 1 and key in err
                    or code == 2 and any(refusal in err for refusal in _RUNTIME_REFUSALS)):
                broken.append((value, code, err))
        assert broken == []

    @pytest.mark.parametrize("base, flag", _FLAG_GRID)
    def test_every_flag_value_keeps_the_exit_code_contract(
        self, base, flag, flag_files, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # where a relative --out value writes
        broken = []
        for i, value in enumerate(["0", "-1", "1", "99", "x", ""]):
            argv = [arg.format(**flag_files) for arg in _FLAG_BASES[base]]
            if flag in argv:
                argv[argv.index(flag) + 1] = value
            else:
                argv += [flag, value]
            if flag != "--out":
                argv += ["--out", str(tmp_path / ("out%d" % i))]
            code = main(argv)
            err = capsys.readouterr().err
            # search --jobs sets the experiment.jobs key
            named = flag in err or flag == "--jobs" and "experiment.jobs" in err
            found = any(re.search(refusal, err) for refusal in _FILE_REFUSALS)
            if flag in _PATH_FLAGS:
                # no value names a file or directory in the working directory,
                # and "" names nothing: each is refused before any file is read
                kept = code == 1 and err.startswith("config error: %s: " % flag)
            else:
                kept = code == 0 or code == 1 and named or code == 2 and found
            if not kept:
                broken.append((value, code, err))
        assert broken == []

    def test_the_flag_grid_names_every_flag_of_the_parser(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            (verb, flag)
            for verb, parser in sub.choices.items()
            for action in parser._actions
            if action.nargs != 0
            for flag in action.option_strings
        }
        assert {(_FLAG_BASES[base][0], flag) for base, flag in _FLAG_GRID} == flags


class _TornHandle:
    """A file handle whose first write stores half its data and then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError("torn write")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _torn_open(file, mode="r", **kwargs):
    fh = builtins.open(file, mode, **kwargs)
    return _TornHandle(fh) if "x" in mode else fh


def _verb(argv):
    """Run a CLI verb without main's exit-code mapping, so its failure raises."""
    args = build_parser().parse_args([str(a) for a in argv])
    return args.func(args)


def _tensor(seed):
    rng = np.random.default_rng(seed)
    return PredictionTensor(rng.dirichlet(np.ones(3), (6, 2)), np.arange(6) + seed)


# one learning-curve point, for export_plot_data
_DOCUMENT = ResultsDocument(
    {"config_hash": "c"},
    [("trial seed=1", {"iteration.0.total": "4", "iteration.0.pool_accuracy": "0.5"})],
)

# each writer, called with (paths, i): i = 0 writes the file, i = 1 writes it again
WRITERS = {
    "write_checkpoint": lambda p, i: write_checkpoint(p.out / "c.alck", p.store.get(11, 1 + i)),
    "store_meta": lambda p, i: (p.store if i else CheckpointStore()).save(p.out / "store"),
    "write_prediction_tensor": lambda p, i: write_prediction_tensor(p.out / "t.alpt", _tensor(i)),
    "write_results": lambda p, i: _verb(["search", "--config", p.config, "--seed", 1, "--out", p.out]),
    "consensus": lambda p, i: _verb([
        "analyze", "--what", "consensus", "--pool", p.pool, "--checkpoints", p.ckpts, "--out", p.out,
    ]),
    "eval_csv": lambda p, i: _verb([
        "analyze", "--what", "eval", "--pool", p.pool, "--checkpoints", p.ckpts, "--csv", "--out", p.out,
    ]),
    "export_plot_data": lambda p, i: export_plot_data([_DOCUMENT][:i], "learning_curve", p.out),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_a_write_failing_part_way_keeps_the_old_file(
        self, writer, tmp_path, trained_store, config_path, monkeypatch
    ):
        _, pool_path, store_dir = trained_store
        paths = SimpleNamespace(
            out=tmp_path / "out", store=CheckpointStore.load(store_dir), config=config_path,
            pool=pool_path, ckpts=store_dir,
        )
        paths.out.mkdir()
        WRITERS[writer](paths, 0)
        before = {f: f.read_bytes() for f in paths.out.rglob("*") if f.is_file()}
        assert before
        monkeypatch.setattr(state, "open", _torn_open, raising=False)
        with pytest.raises(OSError, match="torn write"):
            WRITERS[writer](paths, 1)
        monkeypatch.undo()
        assert {f: f.read_bytes() for f in paths.out.rglob("*") if f.is_file()} == before

    def test_no_source_file_opens_a_file_for_writing_but_the_atomic_writer(self):
        """Every ``open()`` call under ``src/alsift`` either reads or sits in
        ``state.atomic_file``; a mode that is not a string literal counts as a
        write, and so does any ``write_text`` or ``write_bytes`` call."""
        raw_writes = []
        for path in sorted(Path(state.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            exempt = {
                id(node)
                for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef) and func.name == "atomic_file" and path.name == "state.py"
                for node in ast.walk(func)
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name) and node.func.id == "open":
                    mode = node.args[1] if len(node.args) > 1 else next(
                        (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r")
                    )
                    writes = not isinstance(mode, ast.Constant) or set("wax+") & set(str(mode.value))
                else:
                    writes = getattr(node.func, "attr", None) in ("write_text", "write_bytes")
                if writes and id(node) not in exempt:
                    raw_writes.append("%s:%d" % (path.name, node.lineno))
        assert raw_writes == []

    def test_no_source_file_imports_struct_but_the_binary_frame(self):
        """Only ``state.py``, home of ``BinaryFrame``, imports ``struct``: a
        binary header packed by hand anywhere else fails here."""
        importers = set()
        for path in sorted(Path(state.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module]
                else:
                    continue
                if "struct" in modules:
                    importers.add(path.name)
        assert importers == {"state.py"}

    def test_no_source_file_calls_predict_pool_or_reads_tensor_data_but_acquisition(self):
        """Every prediction reader walks blocks: nothing under ``src/alsift``
        calls ``predict_pool``, and only ``acquisition.py`` reads a ``.data``
        attribute, so no other module holds an (N, E, K) tensor's values."""
        calls, reads = [], []
        for path in sorted(Path(state.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if name == "predict_pool":
                        calls.append("%s:%d" % (path.name, node.lineno))
                if isinstance(node, ast.Attribute) and node.attr == "data" and path.name != "acquisition.py":
                    reads.append("%s:%d" % (path.name, node.lineno))
        assert calls == []
        assert reads == []
