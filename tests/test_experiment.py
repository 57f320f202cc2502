"""Config parsing, trial orchestration, results documents and exports."""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import alsift.experiment
import alsift.learner
import alsift.schemes
from alsift.datagen import GeneratorSpec, generate_pool, write_pool_csv
from alsift.experiment import (
    ConfigError,
    ExperimentResult,
    append_document,
    build_consensus_document,
    build_document,
    canonical_config_lines,
    config_from_mapping,
    config_hash,
    export_plot_data,
    parse_config_text,
    pools_for_trial,
    read_results,
    run_experiment,
    run_trial,
    write_results,
)
from alsift.learner import TrainConfig
from alsift.schemes import SearchConfig
from alsift.state import FieldError, subset_hash

README = Path(__file__).resolve().parents[1] / "README.md"

BASE_CONFIG = """
# comment lines and blanks are ignored

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
experiment.baseline_full = true
"""


def base_config(extra: str = ""):
    return config_from_mapping(parse_config_text(BASE_CONFIG + extra))


class TestParsing:
    def test_key_value_lines(self):
        data = parse_config_text("a.b = 1\n# note\n\nc = x y\n")
        assert data == {"a.b": "1", "c": "x y"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected key = value"):
            parse_config_text("just words\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("a = 1\na = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            base_config("search.banana = 3\n")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            base_config("trainer.patience = soon\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="true or false"):
            base_config("experiment.baseline_random = maybe\n")

    def test_required_search_keys(self):
        with pytest.raises(ConfigError, match="required"):
            config_from_mapping(parse_config_text("pool.classes = 3\n"))

    @pytest.mark.parametrize("old, new, message", [
        ("pool.seed = 7", "pool.seed = -1", r"^pool\.seed must be non-negative, got -1$"),
        ("seeds = 1,2", "seeds = 1,-3", r"^experiment\.seeds must be non-negative, got -3$"),
        ("batch_size = 16", "decay_epochs = 3,0", r"^trainer\.decay_epochs: decay epochs must be >= 1, got 0$"),
    ], ids=["pool.seed", "experiment.seeds", "trainer.decay_epochs"])
    def test_value_out_of_range_is_a_config_error(self, old, new, message):
        with pytest.raises(ConfigError, match=message):
            config_from_mapping(parse_config_text(BASE_CONFIG.replace(old, new)))

    @pytest.mark.parametrize("old, new, message", [
        ("batch_size = 16", "learning_rate = 0", r"^trainer\.learning_rate: learning rate must be positive$"),
        ("runs = 2", "runs = 0", r"^ensemble\.runs: runs, checkpoints per run and stride must be >= 1$"),
        ("scheme = build_up", "scheme = automatic_duplication",
         r"^search\.acquisition_batch: automatic duplication needs a positive acquisition_batch$"),
        ("max_epochs = 6", "arch = mlp\ntrainer.hidden = 0", r"^trainer\.hidden: mlp needs a positive hidden width$"),
        ("classes = 3", "classes = 1", r"^pool\.classes: need at least two classes$"),
        ("center_spread = 1.5", "center_spread = 0",
         r"^pool\.center_spread: cluster_std and center_spread must be positive$"),
        ("batch_size = 16", "decay_epochs = 0", r"^trainer\.decay_epochs: decay epochs must be >= 1, got 0$"),
        ("batch_size = 16", "decay_epochs = 2,5,2",
         r"^trainer\.decay_epochs: decay epochs must be distinct, got 2 twice$"),
        ("target_size = 32", "target_size = 4",
         r"^search\.target_size: growth schedule needs a target of at least 8$"),
        ("scheme = build_up", "scheme = automatic_duplication\nsearch.acquisition_batch = 4\n"
         "search.initial_size = 33", r"^search\.initial_size: initial size exceeds the target$"),
    ], ids=["trainer.learning_rate", "ensemble.runs", "search.acquisition_batch", "trainer.hidden",
            "pool.classes", "pool.center_spread", "trainer.decay_epochs", "trainer.decay_epochs-distinct",
            "search.target_size", "search.initial_size"])
    def test_refused_field_is_named_by_its_key(self, old, new, message):
        with pytest.raises(ConfigError, match=message):
            config_from_mapping(parse_config_text(BASE_CONFIG.replace(old, new)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), np.float32("nan")],
                             ids=["nan", "inf", "-inf", "float32-nan"])
    @pytest.mark.parametrize("key", [
        key for key, (_, parse) in alsift.experiment.CONFIG_KEYS.items()
        if parse in (alsift.experiment._FLOAT, alsift.experiment._FLOATS)
    ])
    def test_settings_class_refuses_a_non_finite_float_as_the_config_does(self, key, value):
        owner, _, name = alsift.experiment.CONFIG_KEYS[key][0].rpartition(".")
        cls = {"generator": GeneratorSpec, "search": SearchConfig, "search.trainer": TrainConfig}[owner]
        required = dict(scheme="build_up", function_id="entropy", target_size=32) if cls is SearchConfig else {}
        given = (1.0, value, 1.0, 1.0) if name == "class_ratios" else value
        with pytest.raises(FieldError) as refused:
            cls(**required, **{name: given})
        assert refused.value.field == name

    def test_pool_file_excludes_generator_keys(self):
        text = "pool.file = p.csv\npool.classes = 3\n" \
               "search.scheme = pretrain\nsearch.function = entropy\nsearch.target_size = 5\n"
        with pytest.raises(ConfigError, match="excludes generator key"):
            config_from_mapping(parse_config_text(text))

    def test_defaults_fill_in(self):
        config = base_config()
        assert config.search.trainer.learning_rate == 0.1
        assert config.search.trainer.momentum == 0.9
        assert config.search.trainer.weight_decay == 1e-4
        assert config.search.ensemble.stride == 1
        assert config.baseline_random is True
        assert config.seeds == (1, 2)


class TestCanonicalConfig:
    def test_hash_stable_under_line_order(self):
        shuffled = "\n".join(reversed(BASE_CONFIG.strip().splitlines()))
        a = base_config()
        b = config_from_mapping(parse_config_text(shuffled))
        assert config_hash(a) == config_hash(b)
        assert canonical_config_lines(a) == canonical_config_lines(b)

    def test_hash_sensitive_to_values(self):
        a = base_config()
        b = config_from_mapping(
            parse_config_text(BASE_CONFIG.replace("target_size = 32", "target_size = 24"))
        )
        assert config_hash(a) != config_hash(b)

    def test_defaults_are_materialized(self):
        lines = canonical_config_lines(base_config())
        assert "trainer.momentum = 0.9" in lines
        assert "ensemble.stride = 1" in lines


class TestTrials:
    def test_pools_share_task_but_not_samples(self):
        config = base_config()
        pool1, eval1 = pools_for_trial(config, 1)
        pool2, _ = pools_for_trial(config, 2)
        assert pool1.n_samples == eval1.n_samples == 90
        assert not np.array_equal(pool1.features, pool2.features)
        for cls in range(3):
            gap = pool1.features[pool1.labels == cls].mean(axis=0) - eval1.features[
                eval1.labels == cls
            ].mean(axis=0)
            assert np.linalg.norm(gap) < 1.5

    def test_trial_record_contents(self):
        record = run_trial(base_config(), 1)
        assert record.seed == 1
        assert record.subset.unique_count == record.subset.total_count == 32
        assert 0.0 <= record.al_accuracy <= 1.0
        assert record.random_accuracy is not None
        assert record.full_accuracy is not None
        assert [r.total_count for r in record.iterations] == [4, 8, 16, 32]

    def test_trials_are_deterministic(self):
        a = run_trial(base_config(), 2)
        b = run_trial(base_config(), 2)
        assert a.subset == b.subset
        assert a.al_accuracy == b.al_accuracy
        assert a.random_accuracy == b.random_accuracy

    def test_run_experiment_aggregates(self):
        result = run_experiment(base_config())
        assert len(result.trials) == 2
        agg = result.aggregate
        assert agg["trials"] == 2.0
        expected = np.mean([t.al_accuracy for t in result.trials])
        assert agg["al_accuracy.mean"] == pytest.approx(expected)
        assert "random_accuracy.mean" in agg
        assert "full_accuracy.mean" in agg
        assert 0 <= agg["wins_vs_random"] <= 2

    @pytest.mark.parametrize("old, new, message", [
        ("max_epochs = 6", "max_epochs = 2", "trainer.max_epochs = 2"),
        ("target_size = 32", "target_size = 4", "target of at least 8"),
    ], ids=["max_epochs", "target_size"])
    def test_config_the_scheme_cannot_run_is_refused_before_any_pool(
        self, monkeypatch, old, new, message
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("drew a pool before the config was refused")

        monkeypatch.setattr(alsift.experiment, "generate_pool", no_pool)
        with pytest.raises(ConfigError, match=message):
            run_experiment(config_from_mapping(parse_config_text(BASE_CONFIG.replace(old, new))))

    def test_parallel_jobs_match_serial(self):
        config = base_config()
        serial = run_experiment(replace(config, jobs=1))
        parallel = run_experiment(replace(config, jobs=2))
        assert len(parallel.trials) == 2
        for a, b in zip(serial.trials, parallel.trials):
            assert a.subset == b.subset

        def timeless(result):
            doc = build_document(result, created="X")
            return [line for line in doc.splitlines() if not line.startswith("wall_time_s =")]

        assert timeless(serial) == timeless(parallel)


def _count_stacks(monkeypatch) -> list[int]:
    """The run count of every stack the trainer steps from now on, in this process."""
    stacks = []
    real = alsift.learner._train_stack

    def counted(subsets, runs, config):
        stacks.append(len(runs))
        return real(subsets, runs, config)

    monkeypatch.setattr(alsift.learner, "_train_stack", counted)
    return stacks


def _written(result, out) -> dict[str, str]:
    """The files ``write_results`` writes, results documents without their
    ``created`` and ``wall_time_s`` lines."""
    write_results(result, out)
    return {
        path.name: "".join(
            line for line in path.read_text().splitlines(keepends=True)
            if not line.startswith(("created =", "wall_time_s ="))
        )
        for path in sorted(Path(out).iterdir())
    }


# (replacements in BASE_CONFIG, extra lines)
LOCKSTEP_CASES = {
    "build_up": ([], ""),
    "automatic_duplication": (
        [("scheme = build_up", "scheme = automatic_duplication")],
        "search.acquisition_batch = 7\ntrainer.class_weighting = true\n",
    ),
    "pretrain": (
        [("scheme = build_up", "scheme = pretrain"), ("function = variation_ratios", "function = entropy")],
        "trainer.fine_tune_rate = 0.01\ntrainer.fine_tune_epochs = 4\n",
    ),
    "compress": (
        [("scheme = build_up", "scheme = compress")],
        "trainer.arch = mlp\ntrainer.hidden = 4\nsearch.outlier_fraction = 0.05\n",
    ),
    "pool_file": ([("scheme = build_up", "scheme = compress")], None),
}


def lockstep_config(case, tmp_path, more_edits=()):
    """A LOCKSTEP_CASES config over five seeds; ``more_edits`` are further
    replacements in its whole text."""
    edits, extra = LOCKSTEP_CASES[case]
    text = BASE_CONFIG
    for old, new in edits:
        text = text.replace(old, new)
    if extra is None:  # the generator's pool, written to a file
        pool_csv = tmp_path / "pool.csv"
        write_pool_csv(pool_csv, generate_pool(base_config().generator))
        lines = [line for line in text.splitlines() if not line.startswith("pool.")]
        text = "\n".join(lines) + "\npool.file = %s\n" % pool_csv
        extra = ""
    text += extra
    for old, new in more_edits:
        assert old in text
        text = text.replace(old, new)
    config = config_from_mapping(parse_config_text(text))
    return replace(config, seeds=(1, 2, 3, 4, 5))


class TestLockstep:
    """Trials of one process train in lockstep, one run stack per round."""

    @pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
    def test_lockstep_trials_equal_trials_run_one_by_one(self, case, tmp_path, monkeypatch):
        config = lockstep_config(case, tmp_path)
        serial = ExperimentResult(config, [run_trial(config, seed) for seed in config.seeds])
        want = _written(serial, tmp_path / "serial")
        assert len(want) == 6
        stacks = _count_stacks(monkeypatch)
        for jobs in (1, 2, 3):
            got = _written(run_experiment(replace(config, jobs=jobs)), tmp_path / str(jobs))
            assert got == want, "jobs = %d" % jobs
        # five trials of two-run ensembles; only automatic duplication's
        # unique counts, and so its training-row counts, differ across trials
        if case == "automatic_duplication":
            assert min(stacks) < 10 and sum(stacks) % 10 == 0
        else:
            assert set(stacks) == {10}

    def test_a_pool_file_is_read_once_for_all_trials(self, tmp_path, monkeypatch):
        config = replace(lockstep_config("pool_file", tmp_path), seeds=(1, 2, 3))
        want = _written(ExperimentResult(config, [run_trial(config, s) for s in config.seeds]),
                        tmp_path / "serial")
        reads = []
        real = alsift.experiment.read_pool_csv
        monkeypatch.setattr(
            alsift.experiment, "read_pool_csv", lambda path: reads.append(path) or real(path)
        )
        assert _written(run_experiment(config), tmp_path / "lockstep") == want
        assert reads == [config.pool_file]

    def test_equal_subsets_of_a_pool_file_are_worked_out_once_a_round(self, tmp_path, monkeypatch):
        config = lockstep_config("pool_file", tmp_path)
        config = replace(config, seeds=(1, 2, 3), search=replace(config.search, scheme="pretrain"))
        want = _written(ExperimentResult(config, [run_trial(config, s) for s in config.seeds]),
                        tmp_path / "serial")
        rounds = []
        real_parts, real_rows = alsift.schemes.train_parts, alsift.learner._subset_rows

        def parts(parts, trainer):
            rounds.append([])
            return real_parts(parts, trainer)

        def rows(pool, subset, trainer, digest):
            rounds[-1].append(subset_hash(subset))
            return real_rows(pool, subset, trainer, digest)

        monkeypatch.setattr(alsift.schemes, "train_parts", parts)
        monkeypatch.setattr(alsift.learner, "_subset_rows", rows)
        assert _written(run_experiment(config), tmp_path / "lockstep") == want
        # each round works out each distinct subset once: the full pool that
        # every trial pretrains on, the three fine-tuning subsets, the three
        # random baselines and the full baseline
        assert [len(set(digests)) for digests in rounds] == [1, 3, 3, 1]
        assert [len(digests) for digests in rounds] == [1, 3, 3, 1]

    def test_readme_search_trains_one_stack_of_every_trial_per_round(self, monkeypatch):
        text = re.search(r"cat > exp.cfg <<'EOF'\n(.*?)EOF", README.read_text(), re.S).group(1)
        config = config_from_mapping(parse_config_text(text))
        assert config.seeds == (1, 2, 3, 4, 5) and config.search.scheme == "build_up"
        assert config.baseline_random and config.baseline_full and config.jobs == 1
        stacks = _count_stacks(monkeypatch)
        run_experiment(config)
        # four build-up iterations, then the random and the full baseline:
        # each round one stack of 5 trials x 3 runs
        assert stacks == [15] * 6


# (a LOCKSTEP_CASES case, further edits to its text) -> sha256 of the files it writes
PINNED_SEARCHES = {
    **{case: (case, (), digest) for case, digest in (
        ("build_up", "37b7b7968991d35a5470402cbd7c84dd6474d7f4aa0557f9a50b561c330a0a91"),
        ("automatic_duplication", "4fdd0bc56047f5cbb471f271533bf68451bc135131aab988a1259614f22c98c3"),
        ("pretrain", "1bfcb1c360c2bcb285032450228d60f9f4b8a278269736576b5f7dffbed2704c"),
        ("compress", "287f34575b4841f553cf1dd924014a5aaf34d1b9413e9bced879e2709c72dee2"),
        ("pool_file", "4db4d9a971f0541558052a73ef83e4954d5189743c1d5a14712635c289faea83"),
    )},
    "pretrain_zero_rate": ("pretrain", [("fine_tune_rate = 0.01", "fine_tune_rate = 0")],
                           "598c27695a3850b8f140001c300776c1963cd7b5c74b91e75babb8bcfaf53ed9"),
    "pretrain_zero_epochs": ("pretrain", [("fine_tune_epochs = 4", "fine_tune_epochs = 0"),
                                          ("checkpoints_per_run = 3", "checkpoints_per_run = 1")],
                             "6a98f75f4b8e59625375699e69a4b17fda129df814db1b4432c253715b4ed78e"),
    "build_up_seeds_patience": ("build_up", [
        ("mode = combined", "mode = seeds"),
        ("target_size = 32", "target_size = 80"),  # 10 ids first, 2 of them held out
        ("batch_size = 16", "batch_size = 16\ntrainer.patience = 2\ntrainer.val_fraction = 0.2\n"
                            "trainer.class_weighting = true"),
    ], "43aa50312e8e0758e62422e09dcdafc87c1d0282e4edbf18f7a4d2b646e0d878"),
}


class TestPinnedSearches:
    """Whole two-seed searches fixed by value, where the benchmark's workloads
    do not reach: fine-tuned, zero-rate and zero-epoch stacks, MLP members,
    pool files, and early stopping with class weights under ``seeds``."""

    @pytest.mark.parametrize("case", list(PINNED_SEARCHES))
    def test_written_files_keep_their_digest(self, case, tmp_path, monkeypatch):
        base, edits, want = PINNED_SEARCHES[case]
        config = lockstep_config(base, tmp_path, edits)
        if config.pool_file is not None:  # a path that names the same pool wherever it runs
            monkeypatch.chdir(tmp_path)
            config = replace(config, pool_file="pool.csv")
        written = _written(run_experiment(replace(config, seeds=(1, 2), jobs=1)), tmp_path / "out")
        assert len(written) == 3
        digest = hashlib.sha256()
        for name, text in written.items():
            digest.update(b"%s\n%s" % (name.encode(), text.encode()))
        assert digest.hexdigest() == want


def test_trial_workers_run_one_blas_thread_unless_the_environment_says_otherwise(monkeypatch):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "4")
    with alsift.experiment._trial_workers(2) as pool:
        assert list(pool.map(os.getenv, names)) == ["1", "1", "4"]
    # this process's environment is left as it was
    assert [os.getenv(name) for name in names] == [None, None, "4"]


class TestResultsDocuments:
    def test_document_deterministic_up_to_timestamps(self):
        config = base_config()
        doc_a = build_document(run_experiment(config), created="X")
        doc_b = build_document(run_experiment(config), created="X")

        def stable(doc):
            return [
                line
                for line in doc.splitlines()
                if not line.startswith(("created =", "wall_time_s ="))
            ]

        assert stable(doc_a) == stable(doc_b)

    def test_write_read_round_trip(self, tmp_path):
        config = base_config()
        result = run_experiment(config)
        path = write_results(result, tmp_path)
        assert path.name == "results_%s.txt" % config_hash(config)
        docs = read_results(path)
        assert len(docs) == 1
        doc = docs[0]
        assert doc.header["schema_version"] == "1"
        assert doc.header["config_hash"] == config_hash(config)
        assert doc.config()["search.scheme"] == "build_up"
        trials = doc.trials()
        assert [seed for seed, _ in trials] == [1, 2]
        assert float(trials[0][1]["al_accuracy"]) == result.trials[0].al_accuracy
        assert doc.aggregate()["trials"] == "2.0"
        # per-trial subset tables land next to the results file
        for seed, data in trials:
            sub = tmp_path / data["subset_file"]
            lines = sub.read_text().splitlines()
            assert lines[0] == "sample_id,multiplicity"
            assert len(lines) == 33

    def test_append_only_per_config(self, tmp_path):
        config = base_config()
        write_results(run_experiment(config), tmp_path)
        path = write_results(run_experiment(config), tmp_path)
        assert len(read_results(path)) == 2

    def test_append_with_different_config_rejected(self, tmp_path):
        config = base_config()
        path = write_results(run_experiment(config), tmp_path)
        other = config_from_mapping(
            parse_config_text(BASE_CONFIG.replace("target_size = 32", "target_size = 24"))
        )
        # force the same file name to simulate a hash collision
        text = path.read_text().replace(
            "config.search.target_size = 32", "config.search.target_size = 24"
        )
        path.write_text(text)
        with pytest.raises(ConfigError, match="different configuration"):
            write_results(run_experiment(config), tmp_path)

    def test_append_document_checks_the_documents_own_config(self, tmp_path):
        from alsift.analysis import ConsensusReport

        result = run_experiment(base_config())
        other = config_from_mapping(
            parse_config_text(BASE_CONFIG.replace("max_epochs = 6", "max_epochs = 7"))
        )
        path = tmp_path / "results.txt"
        append_document(path, build_document(result, created="X"))
        before = path.read_bytes()
        with pytest.raises(ConfigError, match="^results file results.txt holds a different configuration$"):
            append_document(path, build_document(ExperimentResult(other, result.trials), created="X"))
        assert path.read_bytes() == before
        # a consensus document holds no config lines, so nothing refuses it
        report = ConsensusReport(10, (10, 8), (8,))
        append_document(path, build_consensus_document(report, source="run5", created="X"))
        append_document(path, build_document(result, created="X"))
        assert path.read_bytes().startswith(before)
        assert [len(doc.config()) > 0 for doc in read_results(path)] == [True, False, True]

    def test_malformed_results_file_rejected(self, tmp_path):
        path = tmp_path / "results_x.txt"
        path.write_text("not a results file\n")
        with pytest.raises(ValueError):
            read_results(path)

    def test_stray_line_rejected(self, tmp_path):
        path = write_results(run_experiment(base_config()), tmp_path)
        lines = path.read_text().splitlines()
        at = lines.index("[aggregate]") + 1
        path.write_text("\n".join([*lines[:at], "garbage line", *lines[at:]]) + "\n")
        with pytest.raises(ValueError, match=r"^line %d: expected key = value$" % (at + 1)):
            read_results(path)

    @pytest.mark.parametrize("after, line, message", [
        ("[consensus]", "= 5", "empty key"),
        ("eval_size = 10", "eval_size = 3", "duplicate key 'eval_size'"),
        ("[end]", "stray = 7", "outside a results document"),
        ("[end]", "[late]", "outside a results document"),
        ("pairwise.1 = 8", "[consensus]", r"duplicate section \[consensus\]"),
        ("eval_size = 10", "[trial seed=one]", "trial seed 'one' is not an integer"),
    ])
    def test_line_no_writer_writes_is_refused_with_its_number(self, tmp_path, after, line, message):
        from alsift.analysis import ConsensusReport

        doc = build_consensus_document(ConsensusReport(10, (10, 8), (8,)), source="run5", created="X")
        lines = (doc + doc).splitlines()
        at = lines.index(after) + 1
        path = tmp_path / "analysis.txt"
        path.write_text("\n".join([*lines[:at], line, *lines[at:]]) + "\n")
        with pytest.raises(ValueError, match=r"^line %d: %s$" % (at + 1, message)):
            read_results(path)

    def test_document_without_end_rejected(self, tmp_path):
        path = write_results(run_experiment(base_config()), tmp_path)
        whole = path.read_text()
        cut = whole[: whole.index("[end]")]
        for text, doc in ((cut, 1), (whole + cut, 2), (cut + whole, 1)):
            path.write_text(text)
            with pytest.raises(ValueError, match=r"document %d is not closed by \[end\]" % doc):
                read_results(path)


class TestExports:
    @pytest.fixture()
    def results_path(self, tmp_path):
        config = base_config()
        return write_results(run_experiment(config), tmp_path), tmp_path

    def test_learning_curve_rows(self, results_path):
        path, out = results_path
        csv_path = export_plot_data(read_results(path), "learning_curve", out)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "config_hash,trial_seed,iteration,subset_total,pool_accuracy"
        # 2 trials x 4 iterations
        assert len(lines) == 9

    def test_histogram_rows(self, results_path):
        path, out = results_path
        csv_path = export_plot_data(read_results(path), "histogram", out)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "config_hash,trial_seed,iteration,multiplicity,count"
        assert len(lines) > 1

    def test_scheme_comparison_rows(self, results_path):
        path, out = results_path
        csv_path = export_plot_data(read_results(path), "scheme_comparison", out)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith(read_results(path)[0].header["config_hash"])
        assert ",build_up,variation_ratios,32," in lines[1]

    def test_consensus_rows_from_analysis_document(self, tmp_path):
        from alsift.analysis import ConsensusReport

        report = ConsensusReport(10, (10, 8, 7), (8, 9))
        doc_path = tmp_path / "analysis.txt"
        doc_path.write_text(build_consensus_document(report, source="run5", created="X"))
        csv_path = export_plot_data(read_results(doc_path), "consensus", tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "source,series,index,count"
        assert "run5,cumulative,1,10" in lines
        assert "run5,pairwise,2,9" in lines

    def test_unknown_kind_rejected(self, results_path):
        path, out = results_path
        with pytest.raises(ValueError, match="unknown export kind"):
            export_plot_data(read_results(path), "pie_chart", out)

    def test_every_kind_keeps_its_bytes(self, tmp_path):
        from alsift.analysis import ConsensusReport

        # twelve iterations (2, 4, ..., 24 samples), so iteration 10 sorts after 9
        text = BASE_CONFIG.replace("build_up", "automatic_duplication").replace(
            "target_size = 32", "target_size = 24\nsearch.initial_size = 2\nsearch.acquisition_batch = 2"
        )
        result = run_experiment(config_from_mapping(parse_config_text(text)))
        path = write_results(result, tmp_path)
        write_results(result, tmp_path)
        docs = read_results(path)
        assert len(docs) == 2
        chash = docs[0].header["config_hash"]
        trials, agg = docs[0].trials(), docs[0].aggregate()
        # the first of two documents of one source has indices up to 11
        first = ConsensusReport(12, tuple(range(12, 1, -1)), tuple(range(20, 10, -1)))
        second = ConsensusReport(12, (12, 10), (10,))
        consensus_path = tmp_path / "analysis_consensus.txt"
        for report in (first, second):
            append_document(consensus_path, build_consensus_document(report, "run5", created="X"))
        consensus_docs = read_results(consensus_path)

        # rows spelled out in the order each kind promises; ties keep document order
        curve = [
            [chash, seed, it, data["iteration.%d.total" % it], data["iteration.%d.pool_accuracy" % it]]
            for _ in docs
            for seed, data in trials
            for it in range(12)
        ]
        hist = [
            [chash, seed, it, mult, data["iteration.%d.hist.%d" % (it, mult)]]
            for seed, data in trials
            for it in range(12)
            for mult in range(1, 25)
            if "iteration.%d.hist.%d" % (it, mult) in data
            for _ in docs
        ]
        assert max(row[3] for row in hist) > 1
        consensus = [
            ["run5", series, index, getattr(report, series)[index - 1]]
            for series in ("cumulative", "pairwise")
            for index in range(1, 12)
            for report in (first, second)
            if index <= len(getattr(report, series))
        ]
        comparison = [
            [chash, "automatic_duplication", "variation_ratios", "24"]
            + [agg[key] for key in ("al_accuracy.mean", "al_accuracy.std", "random_accuracy.mean")]
            + [agg[key] for key in ("random_accuracy.std", "full_accuracy.mean", "full_accuracy.std")]
            for _ in docs
        ]
        expected = {
            "learning_curve": (
                docs, "config_hash,trial_seed,iteration,subset_total,pool_accuracy", curve
            ),
            "histogram": (docs, "config_hash,trial_seed,iteration,multiplicity,count", hist),
            "consensus": (docs + consensus_docs, "source,series,index,count", consensus),
            "scheme_comparison": (
                docs,
                "config_hash,scheme,function,target_size,al_accuracy_mean,al_accuracy_std,"
                "random_accuracy_mean,random_accuracy_std,full_accuracy_mean,full_accuracy_std",
                comparison,
            ),
        }
        for kind, (documents, header, rows) in expected.items():
            lines = [header] + [",".join(map(str, row)) for row in rows]
            csv_path = export_plot_data(documents, kind, tmp_path / "plots")
            assert csv_path.read_bytes() == "".join(line + "\r\n" for line in lines).encode(), kind

    @pytest.mark.parametrize("kind, key, bad", [
        ("learning_curve", "iteration.2.total", "iteration.x.total"),
        ("histogram", "iteration.2.hist.1", "iteration.2.hist.y"),
        ("consensus", "cumulative.2", "cumulative.x"),
    ])
    def test_non_integer_index_is_refused(self, tmp_path, kind, key, bad):
        from alsift.analysis import ConsensusReport

        if kind == "consensus":
            path = tmp_path / "analysis.txt"
            path.write_text(build_consensus_document(ConsensusReport(10, (10, 8), (8,)), "run5", "X"))
        else:
            path = write_results(run_experiment(base_config()), tmp_path)
        path.write_text(path.read_text().replace(key, bad))
        with pytest.raises(ValueError, match="invalid literal for int"):
            export_plot_data(read_results(path), kind, tmp_path)

    def test_numbers_round_trip_exactly(self, results_path):
        path, out = results_path
        docs = read_results(path)
        csv_path = export_plot_data(docs, "learning_curve", out)
        rows = csv_path.read_text().splitlines()[1:]
        doc_vals = {
            (seed, int(k.split(".")[1])): v
            for seed, data in docs[0].trials()
            for k, v in data.items()
            if k.startswith("iteration.") and k.endswith(".pool_accuracy")
        }
        for row in rows:
            _, seed, iteration, _, acc = row.split(",")
            assert doc_vals[(int(seed), int(iteration))] == acc
