"""Span recorder that times alsift's layers from outside the package.

The recorder wraps public functions at the module attributes their
callers resolve at call time: ``schemes`` does ``from .learner import
predict_pool``, so the search path is traced through
``alsift.schemes.predict_pool``, not ``alsift.learner.predict_pool``.
Spans are recorded only while a pass is open; outside a pass every
wrapper calls straight through. :func:`installed` restores the original
attributes when it exits.

A span is ``(span_id, parent_id, pass_id, name, start, end)``. A layer's
self time is its span's duration minus the durations of its direct
children; spans nest strictly because the workloads run on one thread.
A wrapper's counter runs after the layer's span closes, in a
``trace.counters`` span of its own, so that tracing cost is reported as
``trace.counters.s`` and not charged to the caller's self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Orchestration spans: their self time is glue between layers and is
# reported together as trace.unattributed_s.
ORCHESTRATION = ("cli.main", "experiment.run_experiment", "experiment.run_trial", "schemes.run_scheme")

# Counts that include run times: the results document records each
# trial's wall time, so its size varies by a few bytes between passes.
TIMED_COUNTS = ("experiment.write_results.bytes",)

# Per-layer metrics in output order: (name, unit, better).
LAYER_METRICS = [
    ("datagen.generate_pool.s", "s", "lower"),
    ("datagen.generate_pool.rows", "count", "lower"),
    ("datagen.write_pool_csv.s", "s", "lower"),
    ("datagen.write_pool_csv.bytes", "bytes", "lower"),
    ("datagen.write_metadata_csv.s", "s", "lower"),
    ("datagen.read_pool_csv.s", "s", "lower"),
    ("datagen.read_pool_csv.bytes", "bytes", "lower"),
    ("learner.train.calls", "count", "lower"),
    ("learner.train.s", "s", "lower"),
    ("learner.train.epochs", "count", "lower"),
    ("learner.loss_and_gradients.calls", "count", "lower"),
    ("learner.loss_and_gradients.rows", "count", "lower"),
    ("learner.build_ensemble.s", "s", "lower"),
    ("learner.build_ensemble.members", "count", "lower"),
    ("learner.predict_pool.calls", "count", "lower"),
    ("learner.predict_pool.s", "s", "lower"),
    ("learner.predict_pool.member_rows", "count", "lower"),
    ("learner.predict_pool.repeat_calls", "count", "lower"),
    ("learner.checkpoint_save.s", "s", "lower"),
    ("learner.checkpoint_save.bytes", "bytes", "lower"),
    ("learner.checkpoint_load.s", "s", "lower"),
    ("learner.checkpoint_load.bytes", "bytes", "lower"),
    ("acquisition.score_pool.calls", "count", "lower"),
    ("acquisition.score_pool.s", "s", "lower"),
    ("acquisition.score_pool.cells", "count", "lower"),
    ("acquisition.read_prediction_tensor.s", "s", "lower"),
    ("acquisition.read_prediction_tensor.bytes", "bytes", "lower"),
    ("acquisition.write_prediction_tensor.s", "s", "lower"),
    ("acquisition.write_prediction_tensor.bytes", "bytes", "lower"),
    ("schemes.select.calls", "count", "lower"),
    ("schemes.select.s", "s", "lower"),
    ("schemes.run_scheme.s", "s", "lower"),
    ("schemes.train_subset_ensemble.s", "s", "lower"),
    ("analysis.evaluate.s", "s", "lower"),
    ("analysis.evaluate.member_rows", "count", "lower"),
    ("analysis.consensus_counts.s", "s", "lower"),
    ("experiment.run_trial.s_median", "s", "lower"),
    ("experiment.run_trial.s_max", "s", "lower"),
    ("experiment.write_results.s", "s", "lower"),
    ("experiment.write_results.bytes", "bytes", "lower"),
    ("experiment.read_results.s", "s", "lower"),
    ("experiment.export_plot_data.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.nonzero_exits", "count", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.counters.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class Recorder:
    """In-memory spans and counters, grouped by pass."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: dict[int, Counter] = {}
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._pools: dict[int, tuple[object, bytes]] = {}
        self._predictions: set[bytes] = set()

    @property
    def active(self) -> bool:
        return self.pass_id is not None

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts[pass_id] = Counter()
        self._pools.clear()
        self._predictions.clear()

    def end_pass(self) -> None:
        self.pass_id = None
        self._stack.clear()
        self._pools.clear()
        self._predictions.clear()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.pass_id][name] += int(amount)

    def open(self) -> tuple[int, int | None, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, token, name: str) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack.pop()
        self.spans.append((span_id, parent, self.pass_id, name, start, end))

    def prediction_is_repeat(self, members, pool, ids) -> bool:
        """True when the same members already predicted the same rows of
        the same pool object in this pass."""
        token = self._pools.get(id(pool))
        if token is None:
            # keep the pool alive so its id is not reused within the pass
            token = (pool, hashlib.blake2b(pool.features.tobytes(), digest_size=16).digest())
            self._pools[id(pool)] = token
        h = hashlib.blake2b(token[1], digest_size=16)
        for member in members:
            for tensor in member.tensors:
                h.update(tensor.tobytes())
        rows = pool.sample_ids if ids is None else [int(i) for i in ids]
        h.update(np.ascontiguousarray(rows, dtype=np.uint64).tobytes())
        key = h.digest()
        seen = key in self._predictions
        self._predictions.add(key)
        return seen

    def write(self, path) -> None:
        """One JSON object per span, in closing order."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "pass", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# --- counters: (recorder, args, kwargs, result) -> None ---------------------


def _count_calls(name):
    def count(rec, args, kwargs, result):
        rec.count(name + ".calls")

    return count


def _count_cli(rec, args, kwargs, result):
    rec.count("cli.main.calls")
    if result != 0:
        rec.count("cli.main.nonzero_exits")


def _count_train(rec, args, kwargs, result):
    rec.count("learner.train.calls")
    rec.count("learner.train.epochs", len(result.train_loss))


def _count_members(rec, args, kwargs, result):
    rec.count("learner.build_ensemble.members", len(result))


def _count_predict(rec, args, kwargs, result):
    members, pool = args[0], args[1]
    ids = args[2] if len(args) > 2 else kwargs.get("ids")
    rec.count("learner.predict_pool.calls")
    rec.count("learner.predict_pool.member_rows", result.n_samples * result.n_members)
    if rec.prediction_is_repeat(list(members), pool, ids):
        rec.count("learner.predict_pool.repeat_calls")


def _count_score(rec, args, kwargs, result):
    rec.count("acquisition.score_pool.calls")
    rec.count("acquisition.score_pool.cells", args[0].data.size)


def _count_evaluate(rec, args, kwargs, result):
    rec.count("analysis.evaluate.member_rows", len(list(args[0])) * result.n_samples)


def _count_generate(rec, args, kwargs, result):
    pool = result[0] if isinstance(result, tuple) else result
    rec.count("datagen.generate_pool.rows", pool.n_samples)


def _count_path_bytes(name, arg_index, size=_file_bytes):
    def count(rec, args, kwargs, result):
        rec.count(name + ".bytes", size(args[arg_index]))

    return count


def _count_write_results(rec, args, kwargs, result):
    from alsift.experiment import subset_filename

    run, out_dir = args[0], Path(args[1])
    total = _file_bytes(result)
    for trial in run.trials:
        total += _file_bytes(out_dir / subset_filename(run.config, trial.seed))
    rec.count("experiment.write_results.bytes", total)


# (module, attribute, span name, counter). A class attribute is given as
# "module:Class".
SITES = [
    ("alsift.cli", "main", "cli.main", _count_cli),
    ("alsift.cli", "run_experiment", "experiment.run_experiment", None),
    ("alsift.cli", "write_results", "experiment.write_results", _count_write_results),
    ("alsift.cli", "read_results", "experiment.read_results", None),
    ("alsift.cli", "export_plot_data", "experiment.export_plot_data", None),
    ("alsift.cli", "generate_pool_with_metadata", "datagen.generate_pool", _count_generate),
    ("alsift.cli", "write_pool_csv", "datagen.write_pool_csv", _count_path_bytes("datagen.write_pool_csv", 0)),
    ("alsift.cli", "write_metadata_csv", "datagen.write_metadata_csv", None),
    ("alsift.cli", "read_pool_csv", "datagen.read_pool_csv", _count_path_bytes("datagen.read_pool_csv", 0)),
    ("alsift.cli", "build_ensemble", "learner.build_ensemble", _count_members),
    ("alsift.cli", "predict_pool", "learner.predict_pool", _count_predict),
    ("alsift.cli", "score_pool", "acquisition.score_pool", _count_score),
    (
        "alsift.cli",
        "read_prediction_tensor",
        "acquisition.read_prediction_tensor",
        _count_path_bytes("acquisition.read_prediction_tensor", 0),
    ),
    (
        "alsift.cli",
        "read_prediction_tensor_csv",
        "acquisition.read_prediction_tensor",
        _count_path_bytes("acquisition.read_prediction_tensor", 0),
    ),
    ("alsift.cli", "consensus_counts", "analysis.consensus_counts", None),
    ("alsift.cli", "evaluate", "analysis.evaluate", _count_evaluate),
    ("alsift.analysis", "evaluate", "analysis.evaluate", _count_evaluate),
    ("alsift.analysis", "predict_pool", "learner.predict_pool", _count_predict),
    (
        "alsift.acquisition",
        "write_prediction_tensor",
        "acquisition.write_prediction_tensor",
        _count_path_bytes("acquisition.write_prediction_tensor", 0),
    ),
    ("alsift.experiment", "run_trial", "experiment.run_trial", None),
    ("alsift.experiment", "run_scheme", "schemes.run_scheme", None),
    ("alsift.experiment", "train_subset_ensemble", "schemes.train_subset_ensemble", None),
    ("alsift.experiment", "evaluate", "analysis.evaluate", _count_evaluate),
    ("alsift.experiment", "generate_pool", "datagen.generate_pool", _count_generate),
    ("alsift.experiment", "read_pool_csv", "datagen.read_pool_csv", _count_path_bytes("datagen.read_pool_csv", 0)),
    ("alsift.schemes", "train", "learner.train", _count_train),
    ("alsift.schemes", "fine_tune", "learner.train", _count_train),
    ("alsift.schemes", "build_ensemble", "learner.build_ensemble", _count_members),
    ("alsift.schemes", "predict_pool", "learner.predict_pool", _count_predict),
    ("alsift.schemes", "score_pool", "acquisition.score_pool", _count_score),
    ("alsift.schemes", "select_top_k", "schemes.select", _count_calls("schemes.select")),
    ("alsift.schemes", "outlier_window_select", "schemes.select", _count_calls("schemes.select")),
    ("alsift.learner:CheckpointStore", "save", "learner.checkpoint_save", _count_path_bytes("learner.checkpoint_save", 1, _dir_bytes)),
    ("alsift.learner:CheckpointStore", "load", "learner.checkpoint_load", _count_path_bytes("learner.checkpoint_load", 1, _dir_bytes)),
]


def _span_wrapper(rec: Recorder, fn, name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        token = rec.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(token, name)
        if counter is not None:
            token = rec.open()
            try:
                counter(rec, args, kwargs, result)
            finally:
                rec.close(token, "trace.counters")
        return result

    return wrapper


def _loss_counter(rec: Recorder, fn):
    # called once per SGD batch: counts only, no span, to keep the cost low
    @functools.wraps(fn)
    def wrapper(params, features, *args, **kwargs):
        if rec.active:
            counts = rec.counts[rec.pass_id]
            counts["learner.loss_and_gradients.calls"] += 1
            counts["learner.loss_and_gradients.rows"] += len(features)
        return fn(params, features, *args, **kwargs)

    return wrapper


def _resolve(owner_name: str):
    module_name, _, class_name = owner_name.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextmanager
def installed(rec: Recorder):
    """Wrap every site for the duration of the block, then restore."""
    patches = []
    try:
        for owner_name, attr, name, counter in SITES:
            owner = _resolve(owner_name)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(_span_wrapper(rec, original.__func__, name, counter))
                else:
                    wrapped = _span_wrapper(rec, original, name, counter)
            else:
                original = getattr(owner, attr)
                wrapped = _span_wrapper(rec, original, name, counter)
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        learner = importlib.import_module("alsift.learner")
        patches.append((learner, "loss_and_gradients", learner.loss_and_gradients))
        learner.loss_and_gradients = _loss_counter(rec, learner.loss_and_gradients)
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for owner, attr, original in patches:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError("failed to restore %s.%s" % (owner.__name__, attr))


def exact_counts(rec: Recorder, pass_id: int) -> dict[str, int]:
    """The counts of a pass that must repeat exactly for the same seed."""
    return {k: v for k, v in sorted(rec.counts[pass_id].items()) if k not in TIMED_COUNTS}


def pass_metrics(rec: Recorder, pass_id: int, wall_s: float) -> dict[str, float]:
    """Self times and counts of one traced pass."""
    spans = [s for s in rec.spans if s[2] == pass_id]
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    trials = []
    for span_id, _, _, name, start, end in spans:
        self_time[name] += (end - start) - child_time[span_id]
        if name == "experiment.run_trial":
            trials.append(end - start)
    out: dict[str, float] = {}
    for name, unit, _ in LAYER_METRICS:
        if name.endswith(".s"):
            out[name] = self_time.get(name[: -len(".s")], 0.0)
    out.update(rec.counts[pass_id])
    out["trace.unattributed_s"] = sum(self_time.get(n, 0.0) for n in ORCHESTRATION)
    out["trace.wall_s"] = wall_s
    out["trace.coverage"] = sum(self_time.values()) / wall_s
    out["_trials"] = trials
    return out


def summarize(per_pass: list[dict], untraced_walls: list[float]) -> dict[str, float]:
    """Median of each per-layer metric over the traced passes."""
    result: dict[str, float] = {}
    trials = [t for m in per_pass for t in m["_trials"]]
    for name, unit, _ in LAYER_METRICS:
        if name == "experiment.run_trial.s_median":
            result[name] = statistics.median(trials) if trials else 0.0
        elif name == "experiment.run_trial.s_max":
            result[name] = max(trials) if trials else 0.0
        elif name == "trace.overhead_s":
            result[name] = statistics.median(m["trace.wall_s"] for m in per_pass) - statistics.median(
                untraced_walls
            )
        elif unit in ("s", "ratio") or name in TIMED_COUNTS:
            result[name] = statistics.median(m.get(name, 0.0) for m in per_pass)
        else:
            # the other counts repeat exactly from pass to pass; the caller checks that
            result[name] = per_pass[0].get(name, 0)
    return result
