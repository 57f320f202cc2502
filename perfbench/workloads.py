"""The three benchmark workloads: inputs, timed steps and output checks.

Each workload turns the workload seed into its inputs in ``prepare``
(timed as set-up), lists the operations of one pass in ``steps`` (timed
as wall time), and checks what a pass wrote in ``check`` (untimed).
Every operation is a CLI verb called through ``alsift.cli.main`` or a
public library entry, looked up at call time so the span recorder sees
it.

Why these three: ``readme_search`` is training-bound, ``wide_pool_dup``
is prediction/scoring-bound, and ``files_cli`` feeds the same learner and
acquisition layers from files with no training in the pass. A change to
one layer shows on one workload and should read "no change" on another.

Quality is judged against a yardstick that no change to alsift's
learner, acquisition or schemes moves: a ridge least-squares linear
classifier the benchmark fits itself on the same training pool
(:class:`Reference`). ``error_vs_ref`` is alsift's
ensemble error over the reference's, and ``pick_margin_ratio`` is the
reference margin of the samples alsift picked over that of the whole
pool: an acquisition picks near the class boundaries, so it reads well
below 1, and picks no better than random read 1.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import alsift.acquisition
import alsift.cli
from alsift.datagen import generate_pool
from alsift.experiment import (
    config_from_file,
    config_hash,
    generator_from_mapping,
    parse_config_file,
    pools_for_trial,
    read_results,
    results_filename,
    subset_filename,
)
from alsift.learner import EnsembleConfig, LabeledPool, TrainConfig, predict_pool
from alsift.schemes import train_subset_ensemble
from alsift.state import SubsetState, derive_seed, subset_hash

# The README quick-start config. Workload seed s uses pool.seed 3 + s and
# trial seeds 5s+1..5s+5, so seed 0 is the README run itself (config hash
# README_HASH).
README_CONFIG = """\
pool.classes = 4
pool.clusters_per_class = 1
pool.samples_per_cluster = 500
pool.features = 24
pool.redundancy = 0.4
pool.label_noise = 0.05
pool.center_spread = 0.46
pool.seed = {pool_seed}

search.scheme = build_up
search.function = variation_ratios
search.target_size = 1000

ensemble.mode = combined
ensemble.runs = 3
ensemble.checkpoints_per_run = 10

trainer.max_epochs = 12
trainer.batch_size = 64

experiment.seeds = {seeds}
experiment.baseline_full = true
"""
README_POOL_SEED = 3
README_HASH = "6c71b4dd53f5de3c"

# A 20k-sample, 32-feature, 10-class pool: a quarter of the cells of the
# 40k x 100-member large-pool probe, so a pass stays near 13 s on 2 cores.
# files_cli generates the same pool from the pool.* keys.
WIDE_CONFIG = """\
pool.classes = 10
pool.clusters_per_class = 2
pool.samples_per_cluster = 1000
pool.features = 32
pool.redundancy = 0.3
pool.label_noise = 0.05
pool.center_spread = 0.5
pool.seed = {pool_seed}

search.scheme = automatic_duplication
search.function = mutual_information
search.target_size = 1600
search.acquisition_batch = 400
search.initial_size = 200

ensemble.mode = combined
ensemble.runs = 5
ensemble.checkpoints_per_run = 10

trainer.arch = mlp
trainer.hidden = 32
trainer.max_epochs = 12
trainer.batch_size = 64

experiment.seeds = {seeds}
experiment.baseline_random = true
experiment.baseline_full = false
"""

WIDE_POOL_SEED = 7

# files_cli: the checkpoint store trained in set-up, 5 runs x 10 members.
STORE_RUNS = 5
STORE_CHECKPOINTS = 10
STORE_SUBSET = 1600


# ridge term of the reference classifier
REFERENCE_RIDGE = 1e-3


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


def call_cli(*argv) -> CliResult:
    """Run one verb through ``alsift.cli.main``, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = alsift.cli.main([str(a) for a in argv])
    return CliResult(rc, out.getvalue(), err.getvalue())


class CheckFailed(Exception):
    """An output check failed; ``step`` names the operation it blames."""

    def __init__(self, step: str, message: str):
        super().__init__("%s: %s" % (step, message))
        self.step = step


def _require(ok: bool, step: str, message: str) -> None:
    if not ok:
        raise CheckFailed(step, message)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _read_subset(path) -> SubsetState:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["sample_id", "multiplicity"], "search", "bad subset header in %s" % path)
    return SubsetState({int(sid): int(mult) for sid, mult in rows[1:]})


def _read_scores(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    ids = np.asarray([int(r[0]) for r in rows[1:]], dtype=np.uint64)
    values = np.asarray([float(r[1]) for r in rows[1:]])
    return ids, values


class Reference:
    """Ridge least-squares linear classifier on one-hot labels, fitted by
    the benchmark on a training pool with numpy alone."""

    def __init__(self, pool: LabeledPool):
        x = self._design(pool.features)
        y = np.eye(pool.n_classes)[pool.labels]
        self.weights = np.linalg.solve(x.T @ x + REFERENCE_RIDGE * np.eye(x.shape[1]), x.T @ y)

    @staticmethod
    def _design(features: np.ndarray) -> np.ndarray:
        return np.hstack([features, np.ones((len(features), 1))])

    def error(self, pool: LabeledPool) -> float:
        scores = self._design(pool.features) @ self.weights
        return float(np.mean(np.argmax(scores, axis=1) != pool.labels))

    def margins(self, pool: LabeledPool) -> np.ndarray:
        """Best minus second-best class score of every pool row."""
        scores = np.sort(self._design(pool.features) @ self.weights, axis=1)
        return scores[:, -1] - scores[:, -2]


@dataclass
class PassOutcome:
    """What the checks of one pass found."""

    fingerprint: dict
    quality: dict[str, float]


class SearchWorkload:
    """``alsift search`` on one config, plus the README's follow-up verbs."""

    def __init__(self, name, template, pool_seed, trials_per_seed, follow_up, expected_hash=None):
        self.name = name
        self.template = template
        self.pool_seed = pool_seed
        self.trials_per_seed = trials_per_seed
        self.follow_up = follow_up
        self.expected_hash = expected_hash
        # trial seed -> (training pool, reference margins, reference error on the eval pool)
        self._references: dict[int, tuple[LabeledPool, np.ndarray, float]] = {}

    def reference(self, seed: int) -> tuple[LabeledPool, np.ndarray, float]:
        if seed not in self._references:
            pool, eval_pool = pools_for_trial(self.config, seed)
            ref = Reference(pool)
            self._references[seed] = (pool, ref.margins(pool), ref.error(eval_pool))
        return self._references[seed]

    def config_text(self, seed: int) -> str:
        n = self.trials_per_seed
        seeds = ",".join(str(n * seed + i) for i in range(1, n + 1))
        return self.template.format(pool_seed=self.pool_seed + seed, seeds=seeds)

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.config_path = work / "search.cfg"
        self.config_path.write_text(self.config_text(seed))
        self.config = config_from_file(self.config_path)
        self.hash = config_hash(self.config)

    def steps(self, out: Path):
        config = str(self.config_path)
        results = out / results_filename(self.config)
        steps = [("search", lambda: call_cli("search", "--config", config, "--out", out))]
        if self.follow_up:
            first = out / subset_filename(self.config, self.config.seeds[0])
            steps += [
                (
                    "export",
                    lambda: call_cli(
                        "export", "--results", results, "--kind", "learning_curve", "--out", out / "plots"
                    ),
                ),
                ("analyze", lambda: call_cli("analyze", "--what", "histogram", "--subset", first, "--out", out)),
            ]
        return steps

    def check(self, out: Path, results: dict) -> PassOutcome:
        config = self.config
        target = config.search.target_size
        if self.expected_hash is not None and self.seed == 0:
            _require(self.hash == self.expected_hash, "search", "config hash %s" % self.hash)
        path = out / results_filename(config)
        text = path.read_text()
        _require(text.rstrip().endswith("[end]"), "search", "results document does not end in [end]")
        docs = read_results(path)
        _require(len(docs) == 1, "search", "expected one document, found %d" % len(docs))
        doc = docs[0]
        _require(doc.header.get("config_hash") == self.hash, "search", "document config hash")
        trials = doc.trials()
        _require([s for s, _ in trials] == list(config.seeds), "search", "trial seeds")

        rows = []
        al_errors, ref_errors, margin_ratios = [], [], []
        for seed, data in trials:
            state = _read_subset(out / subset_filename(config, seed))
            unique, total = int(data["subset_unique"]), int(data["subset_total"])
            _require(total == target == state.total_count, "search", "seed %d total %d" % (seed, total))
            _require(unique == state.unique_count, "search", "seed %d unique %d" % (seed, unique))
            if config.search.scheme == "build_up":
                _require(unique == target, "search", "seed %d unique %d" % (seed, unique))
            al = float(data["al_accuracy"])
            rnd = float(data["random_accuracy"])
            full = float(data["full_accuracy"]) if "full_accuracy" in data else None
            for acc in (al, rnd) + ((full,) if full is not None else ()):
                _require(0.0 <= acc <= 1.0, "search", "accuracy %r out of range" % acc)
            rows.append({"seed": seed, "subset_hash": subset_hash(state), "al": al, "random": rnd, "full": full})

            pool, margins, ref_error = self.reference(seed)
            picked = sorted(state.multiplicity)
            weights = [state.multiplicity[sid] for sid in picked]
            picked_margin = np.average(margins[pool.rows_for(picked)], weights=weights)
            al_errors.append(1.0 - al)
            ref_errors.append(ref_error)
            margin_ratios.append(float(picked_margin / margins.mean()))

        if self.follow_up:
            with open(out / "plots" / "learning_curve.csv", newline="") as fh:
                curve = list(csv.reader(fh))[1:]
            _require(len(curve) == 4 * len(trials), "export", "%d learning-curve rows" % len(curve))
            first = trials[0][1]
            expect = "unique=%s total=%s" % (first["subset_unique"], first["subset_total"])
            _require(results["analyze"].out.startswith(expect), "analyze", "histogram totals")

        quality = {
            "error_vs_ref": sum(al_errors) / sum(ref_errors),
            "pick_margin_ratio": statistics.fmean(margin_ratios),
        }
        return PassOutcome({"config_hash": self.hash, "trials": rows}, quality)


class FilesWorkload:
    """The file-based verbs over the 20k pool, fed by a store trained in set-up."""

    name = "files_cli"

    def prepare(self, seed: int, work: Path) -> None:
        self.config_path = work / "pool.cfg"
        self.config_path.write_text(WIDE_CONFIG.format(pool_seed=WIDE_POOL_SEED + seed, seeds=seed + 1))
        pool = generate_pool(generator_from_mapping(parse_config_file(self.config_path)))
        rng = np.random.default_rng(derive_seed(seed, 31))
        ids = rng.choice(np.sort(pool.sample_ids), size=STORE_SUBSET, replace=False)
        ensemble = EnsembleConfig(mode="combined", runs=STORE_RUNS, checkpoints_per_run=STORE_CHECKPOINTS)
        trainer = TrainConfig(arch="mlp", hidden=32, max_epochs=12, batch_size=64)
        self.store, members = train_subset_ensemble(
            pool, SubsetState.from_ids(ids), ensemble, trainer, derive_seed(seed, 32)
        )
        self.tensor = predict_pool(members, pool)
        self.reference = alsift.acquisition.score_pool(self.tensor, "mutual_information")
        self.pool = pool
        self.n_samples = pool.n_samples
        self.n_classes = pool.n_classes
        self._ref_quality = None

    def steps(self, out: Path):
        pool_csv, ckpt, alpt = out / "pool.csv", out / "ckpt", out / "pred.alpt"
        return [
            ("gen-data", lambda: call_cli("gen-data", "--config", self.config_path, "--out", out)),
            ("checkpoint_save", lambda: self.store.save(ckpt)),
            ("write_tensor", lambda: alsift.acquisition.write_prediction_tensor(alpt, self.tensor)),
            (
                "score_tensor",
                lambda: call_cli(
                    "score", "--function", "mutual_information", "--tensor", alpt, "--out", out / "s_tensor"
                ),
            ),
            (
                "score_checkpoints",
                lambda: call_cli(
                    "score", "--function", "variation_ratios", "--pool", pool_csv, "--checkpoints", ckpt,
                    "--mode", "combined", "--runs", STORE_RUNS, "--checkpoints-per-run", STORE_CHECKPOINTS,
                    "--out", out / "s_ckpt",
                ),
            ),
            (
                "consensus",
                lambda: call_cli(
                    "analyze", "--what", "consensus", "--pool", pool_csv, "--checkpoints", ckpt,
                    "--out", out / "consensus",
                ),
            ),
            (
                "eval",
                lambda: call_cli(
                    "analyze", "--what", "eval", "--pool", pool_csv, "--checkpoints", ckpt, "--csv",
                    "--out", out / "eval",
                ),
            ),
        ]

    def check(self, out: Path, results: dict) -> PassOutcome:
        n, k = self.n_samples, self.n_classes
        with open(out / "pool.csv") as fh:
            lines = sum(1 for _ in fh)
        _require(lines == n + 1, "gen-data", "pool.csv has %d lines" % lines)
        _require((out / "pool_meta.csv").is_file(), "gen-data", "no pool_meta.csv")

        stored = sorted(p.name for p in (out / "ckpt").glob("*.alck"))
        _require(len(stored) == len(self.store), "checkpoint_save", "%d checkpoint files" % len(stored))

        e = self.tensor.n_members
        size = (out / "pred.alpt").stat().st_size
        _require(size == 18 + 4 * n * e * k + 8 * n, "write_tensor", ".alpt is %d bytes" % size)

        ids, mi = _read_scores(out / "s_tensor" / "scores.csv")
        _require(
            np.array_equal(ids, self.reference.sample_ids) and np.array_equal(mi, self.reference.scores),
            "score_tensor",
            "scores differ from in-memory score_pool of the same tensor",
        )
        _require(bool(np.all((mi >= 0.0) & (mi <= math.log(k)))), "score_tensor", "MI outside [0, log K]")

        ids_vr, vr = _read_scores(out / "s_ckpt" / "scores.csv")
        members = STORE_RUNS * STORE_CHECKPOINTS
        _require(len(vr) == n, "score_checkpoints", "%d scores" % len(vr))
        _require(
            bool(np.all((vr >= 0.0) & (vr <= 1.0 - 1.0 / members + 1e-12))),
            "score_checkpoints",
            "variation ratio outside [0, 1 - 1/E]",
        )

        agree = [
            int(line.split(":")[1].split("/")[0])
            for line in results["consensus"].out.splitlines()
            if line.startswith("all-")
        ]
        _require(bool(agree) and agree[0] == n, "consensus", "first consensus count")
        _require(all(a >= b for a, b in zip(agree, agree[1:])), "consensus", "counts not monotone")

        with open(out / "eval" / "eval.csv", newline="") as fh:
            pool_row = [r for r in csv.reader(fh) if r[:2] == ["pool", "all"]]
        _require(len(pool_row) == 1 and int(pool_row[0][3]) == n, "eval", "eval.csv pool row")
        accuracy = float(pool_row[0][2])
        _require(0.0 <= accuracy <= 1.0, "eval", "accuracy %r" % accuracy)

        if self._ref_quality is None:
            ref = Reference(self.pool)
            self._ref_quality = (ref.margins(self.pool), ref.error(self.pool))
        margins, ref_error = self._ref_quality
        # the STORE_SUBSET samples an acquisition by mutual information would pick
        top = ids[np.argsort(-mi, kind="stable")[:STORE_SUBSET]]
        quality = {
            "error_vs_ref": (1.0 - accuracy) / ref_error,
            "pick_margin_ratio": float(margins[self.pool.rows_for(top)].mean() / margins.mean()),
        }
        fingerprint = {
            "pool_csv": _sha256(out / "pool.csv"),
            "scores_tensor": _sha256(out / "s_tensor" / "scores.csv"),
            "scores_checkpoints": _sha256(out / "s_ckpt" / "scores.csv"),
            "consensus": agree,
            "eval_accuracy": accuracy,
        }
        return PassOutcome(fingerprint, quality)


WORKLOADS = {
    "readme_search": lambda: SearchWorkload(
        "readme_search", README_CONFIG, README_POOL_SEED, 5, True, README_HASH
    ),
    "wide_pool_dup": lambda: SearchWorkload("wide_pool_dup", WIDE_CONFIG, WIDE_POOL_SEED, 1, False),
    "files_cli": FilesWorkload,
}
