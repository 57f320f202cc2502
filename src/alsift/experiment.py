"""Experiment configs, trial orchestration and results documents.

A config is a line-oriented ``key = value`` file with dotted section
prefixes (pool.*, search.*, ensemble.*, trainer.*, experiment.*). Running
an experiment executes the configured search scheme over a list of trial
seeds, trains baseline subsets for comparison, and appends one
self-describing results document per run to a per-config results file.
The trials of one process run in lockstep, sharing run stacks.
Everything in a results document except the ``created`` timestamp and the
``wall_time_s`` lines is a pure function of the config.
"""

from __future__ import annotations

import csv
import hashlib
import multiprocessing
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path

import numpy as np

from .analysis import evaluate
from .datagen import GeneratorSpec, generate_pool, read_pool_csv
from .learner import EnsembleConfig, LabeledPool, TrainConfig
from .schemes import (
    IterationRecord,
    SearchConfig,
    random_subset_ids,
    run_lockstep,
    scheme_steps,
)

# run_scheme and train_subset_ensemble (the one-step cases of run_lockstep)
# stay attributes of this module although trials no longer call them:
# perfbench's traced spans wrap them here
from .schemes import run_scheme, train_subset_ensemble
from .state import SubsetState, atomic_file, derive_seed, write_subset_csv

SCHEMA_VERSION = 1
RESULTS_BANNER = "# subset-search results"

# seed roles for the per-trial derivation chain
_ROLE_POOL = 21
_ROLE_EVAL_POOL = 22
_ROLE_SEARCH = 23
_ROLE_RANDOM_IDS = 24
_ROLE_RANDOM_TRAIN = 25
_ROLE_FULL_TRAIN = 26


class ConfigError(Exception):
    """Raised for malformed or inconsistent experiment configuration."""


def _key_value(target: dict[str, str], line: str, lineno: int, error) -> None:
    """Store the stripped ``key = value`` line ``line`` in ``target``; a line
    without ``=``, an empty key or a key ``target`` holds raises ``error``."""
    key, equals, value = line.partition("=")
    key = key.strip()
    if not equals:
        raise error("line %d: expected key = value" % lineno)
    if not key:
        raise error("line %d: empty key" % lineno)
    if key in target:
        raise error("line %d: duplicate key %r" % (lineno, key))
    target[key] = value.strip()


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` lines and blank lines are skipped."""
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            _key_value(data, line, lineno, ConfigError)
    return data


def parse_config_file(path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from None
    return parse_config_text(text)


def _number(kind, noun):
    def parse(key: str, value: str):
        try:
            return kind(value)
        except ValueError:
            raise ConfigError("%s must be %s, got %r" % (key, noun, value)) from None

    return parse


def _number_list(kind, noun):
    def parse(key: str, value: str):
        try:
            return tuple(kind(part.strip()) for part in value.split(",") if part.strip())
        except ValueError:
            raise ConfigError("%s must be a comma-separated %s list" % (key, noun)) from None

    return parse


def _bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError("%s must be true or false, got %r" % (key, value))


def _str(key: str, value: str) -> str:
    return value


_INT, _FLOAT = _number(int, "an integer"), _number(float, "a number")
_INTS, _FLOATS = _number_list(int, "integer"), _number_list(float, "number")

# Config key -> (attribute path under ExperimentConfig, parser). Parsing,
# the pool generator and the canonical echo all read this table; defaults
# live only in the dataclasses, and an empty value also means the default.
CONFIG_KEYS = {
    "pool.file": ("pool_file", _str),
    "pool.classes": ("generator.n_classes", _INT),
    "pool.clusters_per_class": ("generator.clusters_per_class", _INT),
    "pool.samples_per_cluster": ("generator.samples_per_cluster", _INT),
    "pool.features": ("generator.n_features", _INT),
    "pool.redundancy": ("generator.redundancy", _FLOAT),
    "pool.label_noise": ("generator.label_noise", _FLOAT),
    "pool.class_ratios": ("generator.class_ratios", _FLOATS),
    "pool.cluster_std": ("generator.cluster_std", _FLOAT),
    "pool.center_spread": ("generator.center_spread", _FLOAT),
    "pool.seed": ("generator.seed", _INT),
    "search.scheme": ("search.scheme", _str),
    "search.function": ("search.function_id", _str),
    "search.target_size": ("search.target_size", _INT),
    "search.outlier_fraction": ("search.outlier_fraction", _FLOAT),
    "search.acquisition_batch": ("search.acquisition_batch", _INT),
    "search.initial_size": ("search.initial_size", _INT),
    "ensemble.mode": ("search.ensemble.mode", _str),
    "ensemble.runs": ("search.ensemble.runs", _INT),
    "ensemble.checkpoints_per_run": ("search.ensemble.checkpoints_per_run", _INT),
    "ensemble.stride": ("search.ensemble.stride", _INT),
    "trainer.arch": ("search.trainer.arch", _str),
    "trainer.hidden": ("search.trainer.hidden", _INT),
    "trainer.learning_rate": ("search.trainer.learning_rate", _FLOAT),
    "trainer.momentum": ("search.trainer.momentum", _FLOAT),
    "trainer.weight_decay": ("search.trainer.weight_decay", _FLOAT),
    "trainer.batch_size": ("search.trainer.batch_size", _INT),
    "trainer.lr_decay": ("search.trainer.lr_decay", _FLOAT),
    "trainer.decay_epochs": ("search.trainer.decay_epochs", _INTS),
    "trainer.max_epochs": ("search.trainer.max_epochs", _INT),
    "trainer.patience": ("search.trainer.patience", _INT),
    "trainer.fine_tune_rate": ("search.trainer.fine_tune_rate", _FLOAT),
    "trainer.fine_tune_epochs": ("search.trainer.fine_tune_epochs", _INT),
    "trainer.class_weighting": ("search.trainer.class_weighting", _bool),
    "trainer.checkpoint_window": ("search.trainer.checkpoint_window", _INT),
    "trainer.val_fraction": ("search.trainer.val_fraction", _FLOAT),
    "experiment.seeds": ("seeds", _INTS),
    "experiment.baseline_random": ("baseline_random", _bool),
    "experiment.baseline_full": ("baseline_full", _bool),
    "experiment.out": ("out_dir", _str),
    "experiment.jobs": ("jobs", _INT),
}

# where and how fast a run happens, not what it computes: kept out of the hash
_UNHASHED = ("experiment.out", "experiment.jobs")


def _fields(data: dict[str, str], owner: str) -> dict[str, object]:
    """Parsed non-empty values of the keys whose attribute sits directly
    under ``owner``, as keyword arguments for that dataclass."""
    out = {}
    for key, (path, parse) in CONFIG_KEYS.items():
        head, _, name = path.rpartition(".")
        if head == owner and data.get(key):
            out[name] = parse(key, data[key])
    return out


def _reject_unknown(data: dict[str, str]) -> None:
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))


def _build(cls, data: dict[str, str], owner: str, **parts):
    """``cls`` from the keys under ``owner`` and ``parts``. Its ValueError
    becomes a ConfigError, led by the key of the field a FieldError names."""
    try:
        return cls(**_fields(data, owner), **parts)
    except ValueError as exc:
        path = "%s.%s" % (owner, getattr(exc, "field", ""))
        keys = [key for key, (at, _) in CONFIG_KEYS.items() if at == path]
        raise ConfigError(": ".join(keys + [str(exc)])) from None


@dataclass
class ExperimentConfig:
    """A fully resolved experiment: data source, search setup, trials."""

    search: SearchConfig
    generator: GeneratorSpec | None = None
    pool_file: str | None = None
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    baseline_random: bool = True
    baseline_full: bool = False
    out_dir: str = "runs"
    jobs: int = 1

    def __post_init__(self):
        if (self.generator is None) == (self.pool_file is None):
            raise ConfigError("configure either a generator or pool.file, not both")
        if not self.seeds:
            raise ConfigError("experiment.seeds must not be empty")
        if min(self.seeds) < 0:
            raise ConfigError("experiment.seeds must be non-negative, got %d" % min(self.seeds))
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("experiment.seeds must be distinct")
        if self.jobs < 1:
            raise ConfigError("experiment.jobs must be >= 1")


def config_from_mapping(data: dict[str, str]) -> ExperimentConfig:
    """Resolve raw config strings into a validated ExperimentConfig.

    Unknown keys and malformed values raise :class:`ConfigError` so CLI
    callers can report them as configuration problems.
    """
    generator = None
    if not data.get("pool.file"):
        generator = _build(GeneratorSpec, data, "generator")
    else:
        for key in data:
            if key.startswith("pool.") and key != "pool.file" and data[key]:
                raise ConfigError("pool.file excludes generator key %s" % key)

    search = _fields(data, "search")
    if not {"scheme", "function_id", "target_size"} <= search.keys():
        raise ConfigError("search.scheme, search.function and search.target_size are required")
    ensemble = _build(EnsembleConfig, data, "search.ensemble")
    trainer = _build(TrainConfig, data, "search.trainer")
    config = ExperimentConfig(
        search=_build(SearchConfig, data, "search", ensemble=ensemble, trainer=trainer),
        generator=generator,
        **_fields(data, ""),
    )
    _reject_unknown(data)
    return config


def config_from_file(path) -> ExperimentConfig:
    return config_from_mapping(parse_config_file(path))


def generator_from_mapping(data: dict[str, str]) -> GeneratorSpec:
    """Build just the pool generator from a config mapping.

    Ignores non-pool keys, so a full experiment config works as input.
    """
    data = {k: v for k, v in data.items() if k.startswith("pool.")}
    if data.get("pool.file"):
        raise ConfigError("pool.file points at an existing pool; nothing to generate")
    spec = _build(GeneratorSpec, data, "generator")
    _reject_unknown(data)
    return spec


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    if value is None:
        return ""
    return str(value)


def canonical_config_lines(config: ExperimentConfig) -> list[str]:
    """Every knob as a sorted ``key = value`` line; hash input and doc header."""
    from_file = config.pool_file is not None
    lines = []
    for key, (path, _) in CONFIG_KEYS.items():
        if key in _UNHASHED or (key.startswith("pool.") and (key == "pool.file") != from_file):
            continue
        lines.append("%s = %s" % (key, _fmt(attrgetter(path)(config))))
    return sorted(lines)


def config_hash(config: ExperimentConfig) -> str:
    text = "\n".join(canonical_config_lines(config))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------


@dataclass
class TrialRecord:
    """Outcome of one trial seed."""

    seed: int
    iterations: list[IterationRecord]
    subset: SubsetState
    al_accuracy: float
    random_accuracy: float | None
    full_accuracy: float | None
    wall_time_s: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trials: list[TrialRecord]
    aggregate: dict[str, float] = field(init=False)

    def __post_init__(self):
        self.aggregate = _aggregate(self.trials)


def _aggregate(trials: list[TrialRecord]) -> dict[str, float]:
    out: dict[str, float] = {"trials": float(len(trials))}
    for name in ("al_accuracy", "random_accuracy", "full_accuracy"):
        values = [getattr(t, name) for t in trials if getattr(t, name) is not None]
        if values:
            out[name + ".mean"] = float(np.mean(values))
            out[name + ".std"] = float(np.std(values))
    randoms = [t for t in trials if t.random_accuracy is not None]
    if randoms:
        out["wins_vs_random"] = float(
            sum(t.al_accuracy >= t.random_accuracy for t in randoms)
        )
    return out


def pools_for_trial(
    config: ExperimentConfig, trial_seed: int
) -> tuple[LabeledPool, LabeledPool]:
    """The training pool and the clean evaluation pool of one trial.

    All trials share one task (the generator seed fixes the cluster
    centers); each trial redraws the samples. The evaluation pool is a
    fresh draw of the same task with redundancy and label noise switched
    off. A pool loaded from a file is shared by all trials and evaluated
    in-sample.
    """
    if config.pool_file is not None:
        pool = read_pool_csv(config.pool_file)
        return pool, pool
    return _draw(config, trial_seed), _draw(config, trial_seed, evaluation=True)


def _draw(config: ExperimentConfig, trial_seed: int, evaluation: bool = False) -> LabeledPool:
    """One trial's generated training pool, or its clean evaluation pool."""
    g = config.generator
    if evaluation:
        g = replace(g, redundancy=0.0, label_noise=0.0)
    role = _ROLE_EVAL_POOL if evaluation else _ROLE_POOL
    return generate_pool(replace(g, sample_seed=derive_seed(g.seed, role, trial_seed)))


def _train_trial(config: ExperimentConfig, trial_seed: int, shared=None):
    """One trial's training as a generator of training requests for
    :func:`schemes.run_lockstep`: the scheme, then its baselines. Returns
    the SubsetResult and the members of the random and the full baseline
    (None for one not configured). ``shared`` is the pool loaded from
    ``pool.file``, read once for all trials."""
    pool = shared if shared is not None else _draw(config, trial_seed)
    search = replace(config.search, seed=derive_seed(trial_seed, _ROLE_SEARCH))
    result = yield from scheme_steps(pool, search)

    def baseline(ids, role: int):
        subset = SubsetState.from_ids(ids)
        seed = derive_seed(trial_seed, role)
        return (yield pool, subset, search.ensemble, search.trainer, seed, 0, None)[1]

    random_members = full_members = None
    if config.baseline_random:
        size = min(search.target_size, pool.n_samples)
        ids = random_subset_ids(pool, size, derive_seed(trial_seed, _ROLE_RANDOM_IDS))
        random_members = yield from baseline(ids, _ROLE_RANDOM_TRAIN)
    if config.baseline_full:
        full_members = yield from baseline(pool.sample_ids, _ROLE_FULL_TRAIN)
    return result, random_members, full_members


def run_trials(config: ExperimentConfig, seeds) -> list[TrialRecord]:
    """Run the trials of ``seeds``: train them in lockstep
    (:func:`schemes.run_lockstep`), each round training the equal-shape
    ensembles of every trial as one run stack, then evaluate each trial's
    ensembles. A generated evaluation pool is drawn once the training pools
    are gone, one at a time. Each record equals its trial run alone, but
    for ``wall_time_s``, the time from this call's start to the end of the
    trial's evaluation."""
    start = time.perf_counter()
    shared = None if config.pool_file is None else read_pool_csv(config.pool_file)
    trained = run_lockstep(_train_trial(config, seed, shared) for seed in seeds)
    trials = []
    for seed, (result, *baselines) in zip(seeds, trained):
        eval_pool = shared if shared is not None else _draw(config, seed, evaluation=True)
        al_accuracy, random_accuracy, full_accuracy = (
            None if members is None else evaluate(members, eval_pool).accuracy
            for members in (result.members, *baselines)
        )
        trials.append(
            TrialRecord(
                seed=int(seed),
                iterations=result.records,
                subset=result.state,
                al_accuracy=al_accuracy,
                random_accuracy=random_accuracy,
                full_accuracy=full_accuracy,
                wall_time_s=time.perf_counter() - start,
            )
        )
    return trials


def run_trial(config: ExperimentConfig, trial_seed: int) -> TrialRecord:
    """Run the scheme and its baselines for one trial seed."""
    return run_trials(config, [trial_seed])[0]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every trial seed in lockstep (:func:`run_trials`), in one process
    or split into ``config.jobs`` contiguous groups of seeds, one group per
    process.

    Trial results are deterministic either way; only wall time changes.
    With ``jobs > 1`` the groups run in spawned processes, which import the
    calling script afresh: a script that calls this must do so under
    ``if __name__ == "__main__":``.
    """
    seeds = list(config.seeds)
    jobs = min(config.jobs, len(seeds))
    if jobs == 1:
        return ExperimentResult(config, run_trials(config, seeds))
    cuts = [len(seeds) * j // jobs for j in range(jobs + 1)]
    groups = [seeds[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    with _trial_workers(jobs) as pool:
        trials = [t for group in pool.map(run_trials, [config] * jobs, groups) for t in group]
    return ExperimentResult(config, trials)


# the thread-count variables that OpenBLAS, OpenMP and MKL read when loaded
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _trial_workers(count: int):
    """A pool of ``count`` trial processes that run one BLAS thread each,
    unless the environment sets another count.

    Forked workers would inherit this process's BLAS thread pool, so that
    N workers of M threads each contend for the cores. Spawned workers load
    BLAS afresh; each thread-count variable the environment leaves unset is
    set to 1 while they start, and unset again afterwards.
    """
    added = [name for name in _BLAS_THREADS if name not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))
    try:
        with ProcessPoolExecutor(count, multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name in added:
            os.environ.pop(name, None)


# ---------------------------------------------------------------------------
# Results documents
# ---------------------------------------------------------------------------


def _document(identity: str, created: str | None, body: list[str]) -> str:
    """One results document: the banner, ``schema_version``, the ``identity``
    line, ``created`` (now, in UTC, when None), ``body`` and ``[end]``."""
    if created is None:
        created = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    head = [RESULTS_BANNER, "schema_version = %d" % SCHEMA_VERSION, identity]
    return "\n".join([*head, "created = " + created, *body, "[end]"]) + "\n"


def _config_header(config: ExperimentConfig) -> list[str]:
    """The ``config.<key> = value`` header lines of ``config``'s documents."""
    return ["config." + line for line in canonical_config_lines(config)]


def build_document(result: ExperimentResult, created: str | None = None) -> str:
    """Render one results document. Only ``created`` and ``wall_time_s``
    lines vary between identical runs."""
    config = result.config
    lines = _config_header(config)
    for trial in result.trials:
        lines.append("[trial seed=%d]" % trial.seed)
        lines.append("wall_time_s = %s" % repr(round(trial.wall_time_s, 3)))
        lines.append("subset_unique = %d" % trial.subset.unique_count)
        lines.append("subset_total = %d" % trial.subset.total_count)
        lines.append("subset_file = %s" % subset_filename(config, trial.seed))
        lines.append("al_accuracy = %s" % repr(trial.al_accuracy))
        if trial.random_accuracy is not None:
            lines.append("random_accuracy = %s" % repr(trial.random_accuracy))
        if trial.full_accuracy is not None:
            lines.append("full_accuracy = %s" % repr(trial.full_accuracy))
        for rec in trial.iterations:
            prefix = "iteration.%d" % rec.iteration
            lines.append("%s.unique = %d" % (prefix, rec.unique_count))
            lines.append("%s.total = %d" % (prefix, rec.total_count))
            lines.append("%s.added = %d" % (prefix, len(rec.added)))
            lines.append("%s.score_min = %s" % (prefix, repr(rec.score_min)))
            lines.append("%s.score_mean = %s" % (prefix, repr(rec.score_mean)))
            lines.append("%s.score_max = %s" % (prefix, repr(rec.score_max)))
            lines.append("%s.pool_accuracy = %s" % (prefix, repr(rec.pool_accuracy)))
            for mult, count in rec.histogram:
                lines.append("%s.hist.%d = %d" % (prefix, mult, count))
    lines.append("[aggregate]")
    for key in sorted(result.aggregate):
        lines.append("%s = %s" % (key, repr(result.aggregate[key])))
    return _document("config_hash = %s" % config_hash(config), created, lines)


def subset_filename(config: ExperimentConfig, seed: int) -> str:
    return "subset_%s_seed%d.csv" % (config_hash(config), seed)


def results_filename(config: ExperimentConfig) -> str:
    return "results_%s.txt" % config_hash(config)


def _appendable(path) -> str:
    """The text of a results-style file that a document may extend ("" when
    there is no file). A non-empty file not ending in ``[end]`` (its last
    document cut short) raises ``ValueError``."""
    try:
        with open(path, newline="") as fh:
            old = fh.read()
    except FileNotFoundError:
        old = ""
    if old and not old.endswith("[end]\n"):
        raise ValueError("%s does not end in [end]; move it aside and run again" % path)
    return old


def append_document(path, text: str, check=lambda old: None) -> None:
    """Add a document to a results-style file, atomically. The file is read
    once, checked as :func:`_appendable` checks it, and ``check`` is called
    with its text, all before anything is written; a refused file is left
    as it is."""
    old = _appendable(path)
    check(old)
    with atomic_file(path) as fh:
        fh.write(old + text)


def check_results_file(config: ExperimentConfig, out_dir, old: str | None = None) -> Path:
    """The results file of ``config`` under ``out_dir``, refused as
    :func:`write_results` would refuse it: one whose last document is cut
    short (``ValueError``), or one holding a different configuration
    (:class:`ConfigError`). ``old`` is the file's text when the caller has
    read it already; the search calls this before any training."""
    path = Path(out_dir) / results_filename(config)
    if old is None:
        old = _appendable(path)
    ours = _config_header(config)
    stored = [line for line in old.splitlines() if line.startswith("config.")]
    if old and stored[: len(ours)] != ours:
        raise ConfigError("results file %s holds a different configuration" % path.name)
    return path


def write_results(result: ExperimentResult, out_dir) -> Path:
    """Append the run's document to the per-config results file.

    Also writes one subset table per trial (sample_id, multiplicity).
    Appending to a results file whose stored config lines differ from
    this run's raises :class:`ConfigError`.
    """
    config, out = result.config, Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / results_filename(config)
    append_document(path, build_document(result), lambda old: check_results_file(config, out, old))
    for trial in result.trials:
        write_subset_csv(out / subset_filename(config, trial.seed), trial.subset)
    return path


@dataclass
class ResultsDocument:
    """One parsed document: header key/values plus named sections."""

    header: dict[str, str]
    sections: list[tuple[str, dict[str, str]]]

    def config(self) -> dict[str, str]:
        return {
            key[len("config.") :]: value
            for key, value in self.header.items()
            if key.startswith("config.")
        }

    def trials(self) -> list[tuple[int, dict[str, str]]]:
        out = []
        for name, data in self.sections:
            if name.startswith("trial seed="):
                out.append((int(name.split("=", 1)[1]), data))
        return out

    def aggregate(self) -> dict[str, str]:
        for name, data in self.sections:
            if name == "aggregate":
                return data
        return {}


def read_results(path) -> list[ResultsDocument]:
    """Parse every document appended to a results file.

    Raises ``ValueError`` for a document not closed by ``[end]`` (cut short
    by a crash), a line that is not a banner, ``#`` comment, ``[section]``,
    ``[end]`` or ``key = value``, an empty key, a key repeated in one header
    or section, a section name repeated in one document, a ``[trial seed=S]``
    section whose seed is not an integer, and any line but a comment between
    ``[end]`` and a banner.
    """
    documents: list[ResultsDocument] = []
    target: dict[str, str] | None = None  # the open header or section; None outside a document
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if line == RESULTS_BANNER:
            if target is not None:
                raise ValueError("results document %d is not closed by [end]" % len(documents))
            documents.append(ResultsDocument({}, []))
            target = documents[-1].header
        elif not line or line.startswith("#"):
            continue
        elif not documents:
            raise ValueError("results file does not start with %r" % RESULTS_BANNER)
        elif target is None:
            raise ValueError("line %d: outside a results document" % lineno)
        elif line == "[end]":
            target = None
        elif line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if any(name == seen for seen, _ in documents[-1].sections):
                raise ValueError("line %d: duplicate section [%s]" % (lineno, name))
            if name.startswith("trial seed="):
                seed = name.split("=", 1)[1]
                try:
                    int(seed)
                except ValueError:
                    raise ValueError(
                        "line %d: trial seed %r is not an integer" % (lineno, seed)
                    ) from None
            target = {}
            documents[-1].sections.append((name, target))
        else:
            _key_value(target, line, lineno, ValueError)
    if not documents:
        raise ValueError("no results documents in file")
    if target is not None:
        raise ValueError("results document %d is not closed by [end]" % len(documents))
    return documents


# ---------------------------------------------------------------------------
# Plot data exports
# ---------------------------------------------------------------------------

# the aggregate keys a scheme comparison tabulates, each a column with "_" for "."
_COMPARED = [b + "_accuracy." + stat for b in ("al", "random", "full") for stat in ("mean", "std")]
# the columns of each export kind, whose rows _export_rows gives
_EXPORT_HEADERS = {
    "learning_curve": ["config_hash", "trial_seed", "iteration", "subset_total", "pool_accuracy"],
    "histogram": ["config_hash", "trial_seed", "iteration", "multiplicity", "count"],
    "consensus": ["source", "series", "index", "count"],
    "scheme_comparison": ["config_hash", "scheme", "function", "target_size"]
    + [key.replace(".", "_") for key in _COMPARED],
}
EXPORT_KINDS = tuple(_EXPORT_HEADERS)


def export_plot_data(documents: list[ResultsDocument], kind: str, out_dir) -> Path:
    """Write one plot-ready CSV for the requested figure kind.

    ``learning_curve`` and ``histogram`` flatten per-iteration trial
    lines; ``consensus`` reads consensus sections produced by the analyze
    step; ``scheme_comparison`` tabulates aggregate accuracies of any
    number of documents side by side. ``histogram`` and ``consensus`` rows
    are sorted by every column but the count, ties in document order.
    """
    if kind not in EXPORT_KINDS:
        raise ValueError("unknown export kind %r" % kind)
    rows = [row for doc in documents for row in _export_rows(doc, kind)]
    if kind in ("histogram", "consensus"):
        rows.sort(key=lambda row: row[:-1])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / ("%s.csv" % kind)
    with atomic_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(_EXPORT_HEADERS[kind])
        writer.writerows(rows)
    return path


def _export_rows(doc: ResultsDocument, kind: str) -> list[list]:
    """One document's rows of an export kind."""
    chash = doc.header.get("config_hash", "")
    if kind == "scheme_comparison":
        cfg, agg = doc.config(), doc.aggregate()
        searched = [cfg.get("search." + key, "") for key in ("scheme", "function", "target_size")]
        return [[chash, *searched, *(agg.get(key, "") for key in _COMPARED)]]
    if kind == "consensus":
        source = doc.header.get("config_hash", doc.header.get("source", ""))
        return [
            [source, series, index, count]
            for name, data in doc.sections
            if name == "consensus"
            for series in ("cumulative", "pairwise")
            for index, count in _numbered(data, series + r"\.([^.]*)")
        ]
    if kind == "learning_curve":
        return [
            [chash, seed, it, total, data["iteration.%d.pool_accuracy" % it]]
            for seed, data in doc.trials()
            for it, total in _numbered(data, r"iteration\.([^.]*)\.total")
        ]
    return [
        [chash, seed, it, mult, count]
        for seed, data in doc.trials()
        for it, mult, count in _numbered(data, r"iteration\.([^.]*)\.hist\.([^.]*)")
    ]


def _numbered(data: dict[str, str], pattern: str) -> list[tuple]:
    """``(indices..., value)`` for each key of ``data`` that ``pattern``
    matches in full, its groups read as integers, sorted by the indices.
    A group that is not an integer raises ``ValueError``."""
    fullmatch = re.compile(pattern).fullmatch
    found = [
        (*map(int, match.groups()), value)
        for key, value in data.items()
        if (match := fullmatch(key))
    ]
    return sorted(found, key=lambda item: item[:-1])


def build_consensus_document(report, source: str, created: str | None = None) -> str:
    """Small analysis document holding one consensus report."""
    lines = ["[consensus]", "eval_size = %d" % report.eval_size]
    lines += ["cumulative.%d = %d" % item for item in enumerate(report.cumulative, 1)]
    lines += ["pairwise.%d = %d" % item for item in enumerate(report.pairwise, 1)]
    return _document("source = %s" % source, created, lines)
