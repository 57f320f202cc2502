"""Deterministic SGD training of small classifiers and checkpoint ensembles.

Models are multinomial logistic regression or a one-hidden-layer ReLU
network, trained in float64 with momentum SGD, weight decay on weight
matrices, and optional inverse-frequency class weighting. The runs of one
ensemble, and of ensembles of other subsets with as many training rows,
train in lockstep, as one SGD loop over a stack of their weights.
Each run keeps a rolling window of end-of-epoch checkpoints; ensembles are
assembled from stored checkpoints across runs, across epochs, or both.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acquisition import (
    PredictionTensor,
    _check_rows,
    _group_size,
    _row_max,
    _row_sum,
    row_blocks,
)
from .state import BinaryFrame, FieldError, SubsetState, atomic_file, id_array, refuse_non_finite_fields
from .state import sorted_unique_ids, subset_hash

ARCHITECTURES = ("logistic", "mlp")
ENSEMBLE_MODES = ("single", "seeds", "checkpoints", "combined")


def _mix64(ids: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 sample ids; the arithmetic wraps mod 2**64."""
    z = ids + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@dataclass
class LabeledPool:
    """Feature matrix, labels and stable sample ids for a labeled pool."""

    features: np.ndarray
    labels: np.ndarray
    sample_ids: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        self.sample_ids = np.ascontiguousarray(id_array(self.sample_ids))
        self.n_classes = int(self.n_classes)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D (samples, features) array")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.sample_ids.shape != (n,):
            raise ValueError("labels and sample_ids must match the sample count")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels out of range [0, %d)" % self.n_classes)
        # the index rows_for searches: sample ids ascending, and the row of each
        self._sorted_ids = sorted_unique_ids(self.sample_ids, "sample ids must be unique")
        self._order = np.argsort(self.sample_ids)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def rows_for(self, ids) -> np.ndarray:
        """Row indices for the given sample ids, in the given order. An id
        outside [0, 2**64) raises ValueError, any other unknown id KeyError."""
        ids = id_array(ids)
        pos = self._sorted_ids.searchsorted(ids)
        known = pos < len(self._sorted_ids)
        known[known] = self._sorted_ids[pos[known]] == ids[known]
        if not known.all():
            raise KeyError("unknown sample id %d" % ids[~known][0])
        return self._order[pos]


def _layer_widths(arch: str, d: int, k: int, hidden: int) -> list[int]:
    """Widths from the input to the logits: [D, K] or [D, hidden, K]."""
    return [d, hidden, k] if arch == "mlp" else [d, k]


def _tensor_shapes(arch: str, d: int, k: int, hidden: int) -> list[tuple[int, ...]]:
    """(W, b) shapes of each layer, in ``ModelParams.tensors`` order."""
    widths = _layer_widths(arch, d, k, hidden)
    return [shape for n_in, n_out in zip(widths, widths[1:]) for shape in ((n_in, n_out), (n_out,))]


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of ``shapes``' tensors laid end to end on the last axis of ``flat``."""
    parts = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1], axis=-1)
    return [part.reshape(*flat.shape[:-1], *shape) for part, shape in zip(parts, shapes)]


@dataclass
class ModelParams:
    """Weights of one classifier.

    ``tensors`` is (W, b) for logistic regression and (W1, b1, W2, b2)
    for the one-hidden-layer network. All tensors are float64.
    """

    arch: str
    n_features: int
    n_classes: int
    hidden: int
    tensors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError("unknown architecture %r" % self.arch)
        self.tensors = tuple(np.asarray(t, dtype=np.float64) for t in self.tensors)
        if self.arch == "mlp" and self.hidden < 1:
            raise ValueError("mlp needs a positive hidden width")
        expected = _tensor_shapes(self.arch, self.n_features, self.n_classes, self.hidden)
        got = [t.shape for t in self.tensors]
        if got != expected:
            raise ValueError("tensor shapes %s do not match %s" % (got, expected))


def init_params(
    arch: str, n_features: int, n_classes: int, hidden: int, rng: np.random.Generator
) -> ModelParams:
    """Gaussian weights scaled by 1/sqrt(fan-in), drawn layer by layer; zero biases."""
    widths = _layer_widths(arch, n_features, n_classes, hidden)
    tensors = []
    for n_in, n_out in zip(widths, widths[1:]):
        tensors += [rng.normal(0.0, 1.0 / math.sqrt(n_in), (n_in, n_out)), np.zeros(n_out)]
    return ModelParams(arch, n_features, n_classes, hidden if arch == "mlp" else 0, tuple(tensors))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in place in ``logits``, whose class-axis
    kernels give the bytes of numpy's last-axis max and sum at less cost."""
    logits -= _row_max(logits)
    np.exp(logits, out=logits)
    logits /= _row_sum(logits)
    return logits


def _forward(tensors, features: np.ndarray, out=None):
    """The input of each layer, then the logits; a ReLU joins two layers.

    ``tensors`` are ordered like ``ModelParams.tensors``. They may carry a
    leading run axis, (R, D, H) weights and (R, H) biases, with
    ``features`` stacked to (R, n, D). Every layer output is a new array,
    updated in place, or the logits go to ``out``; ``features`` is never written.
    """
    inputs = []
    x = features
    for w, b in zip(tensors[::2], tensors[1::2]):
        if inputs:
            np.maximum(x, 0.0, out=x)
        inputs.append(x)
        x = np.matmul(x, w, out=out if 2 * len(inputs) == len(tensors) else None)
        x += b[..., None, :]
    return inputs, x


def inverse_frequency_weights(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class weights total / (K * count_k); uniform counts give all ones.

    Classes absent from ``labels`` get weight 0, which is never consulted
    because no sample carries them.
    """
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=n_classes).astype(np.float64)
    weights = np.zeros(n_classes)
    present = counts > 0
    weights[present] = len(labels) / (n_classes * counts[present])
    return weights


def _log_likelihood(tensors, features, labels, sample_w=None):
    """The one forward pass over labelled rows, for one model or a run stack:
    ``(log_likelihood, inputs, probs)``, each run's sum of its labels' log
    probabilities (clamped away from log(0), times the per-sample class
    weights ``sample_w`` if given), then what :func:`_gradients` reads.

    ``tensors`` and ``features`` may carry a leading run axis as in
    :func:`_forward`; ``labels`` have the probabilities' shape without the
    class axis, and ``sample_w`` broadcasts to it."""
    inputs, logits = _forward(tensors, features)
    probs = _softmax(logits)
    # a view: probs is contiguous, so each row's label sits at row * K + label
    flat = probs.reshape(-1)
    logs = flat[np.arange(0, flat.size, probs.shape[-1]) + labels.ravel()].reshape(labels.shape)
    np.log(np.maximum(logs, 1e-300, out=logs), out=logs)
    if sample_w is not None:
        logs *= sample_w
    return logs.sum(axis=-1), inputs, probs


def _decay_term(tensors, weight_decay: float):
    """(wd / 2) * the sum of squared weight matrix entries, of each run of a stack."""
    squares = 0.0
    for w in reversed(tensors[::2]):
        squares += (w * w).reshape(*w.shape[:-2], -1).sum(axis=-1)
    return 0.5 * weight_decay * squares


def _gradients(tensors, inputs, probs, labels, weight_decay: float, grads, sample_w=None):
    """Gradients of every tensor from one forward pass, ordered like ``tensors``,
    written into ``grads``.

    The one backward pass, for one model or a run stack: arrays may carry
    a leading run axis as in :func:`_forward`. ``probs`` (fresh from
    :func:`_softmax`) becomes the logits' gradient in place.
    """
    n = labels.shape[-1]
    flat = probs.reshape(-1)  # a view: probs is contiguous
    flat[np.arange(0, flat.size, probs.shape[-1]) + labels.ravel()] -= 1.0
    probs *= 1.0 / n if sample_w is None else (sample_w / n)[..., None]

    delta = probs
    for w, grad_w, grad_b in zip(tensors[-2::-2], grads[-2::-2], grads[::-2]):
        layer_input = inputs.pop()
        np.matmul(np.swapaxes(layer_input, -1, -2), delta, out=grad_w)
        if weight_decay:
            grad_w += weight_decay * w
        delta.sum(axis=-2, out=grad_b)
        if inputs:  # this layer's input is a ReLU output: backpropagate through it
            delta = delta @ np.swapaxes(w, -1, -2)
            delta *= layer_input > 0.0
    return grads


def loss_and_gradients(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    class_weights: np.ndarray | None = None,
    weight_decay: float = 0.0,
):
    """Regularized cross-entropy and gradients for every parameter tensor.

    The objective is mean(w_y * CE) + (wd / 2) * sum of squared weight
    matrix entries; biases are not decayed. Returns ``(loss, grads)`` with
    ``grads`` ordered like ``params.tensors``. The gradients come from the
    backward pass every SGD step takes, here without a run axis.
    """
    tensors, labels = params.tensors, np.asarray(labels, dtype=np.int64)
    if labels.shape[-1] == 0:
        raise ValueError("empty batch")
    sample_w = None if class_weights is None else np.asarray(class_weights, np.float64)[labels]
    features = np.asarray(features, dtype=np.float64)
    log_likelihood, inputs, probs = _log_likelihood(tensors, features, labels, sample_w)
    loss = -log_likelihood / labels.shape[-1]
    if weight_decay:  # an added 0.0 would turn a -0.0 loss into 0.0
        loss += _decay_term(tensors, weight_decay)
    grads = [np.empty(t.shape) for t in tensors]
    _gradients(tensors, inputs, probs, labels, weight_decay, grads, sample_w)
    return float(loss), tuple(grads)


@dataclass
class TrainConfig:
    """Hyperparameters for one SGD run."""

    arch: str = "logistic"
    hidden: int = 16
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 32
    lr_decay: float = 0.1
    decay_epochs: tuple[int, ...] = ()
    max_epochs: int = 50
    patience: int = 0
    fine_tune_rate: float = 1e-3
    fine_tune_epochs: int | None = None
    class_weighting: bool = False
    checkpoint_window: int = 20
    val_fraction: float = 0.1

    def __post_init__(self):
        refuse_non_finite_fields(self)
        if self.arch not in ARCHITECTURES:
            raise FieldError("arch", "unknown architecture %r" % self.arch)
        if self.arch == "mlp" and self.hidden < 1:
            raise FieldError("hidden", "mlp needs a positive hidden width")
        if self.learning_rate <= 0.0:
            raise FieldError("learning_rate", "learning rate must be positive")
        if self.fine_tune_rate < 0.0:
            raise FieldError("fine_tune_rate", "fine-tune rate must be non-negative")
        if not 0.0 < self.lr_decay <= 1.0:
            raise FieldError("lr_decay", "lr decay factor must be in (0, 1]")
        if self.momentum < 0.0 or self.momentum >= 1.0:
            raise FieldError("momentum", "momentum must be in [0, 1)")
        if self.weight_decay < 0.0:
            raise FieldError("weight_decay", "weight decay must be non-negative")
        for name, low in (("batch_size", 1), ("max_epochs", 0), ("patience", 0)):
            if getattr(self, name) < low:
                raise FieldError(
                    name, "%s must be >= %d, got %d" % (name.replace("_", " "), low, getattr(self, name))
                )
        if self.fine_tune_epochs is not None and self.fine_tune_epochs < 0:
            raise FieldError("fine_tune_epochs", "fine-tune epochs must be non-negative")
        if not 0.0 <= self.val_fraction < 1.0:
            raise FieldError("val_fraction", "validation fraction must be in [0, 1)")
        if self.checkpoint_window < 1:
            raise FieldError("checkpoint_window", "checkpoint window must be >= 1")
        self.decay_epochs = tuple(int(e) for e in self.decay_epochs)
        if self.decay_epochs and min(self.decay_epochs) < 1:
            raise FieldError("decay_epochs", "decay epochs must be >= 1, got %d" % min(self.decay_epochs))
        repeated = [e for e in self.decay_epochs if self.decay_epochs.count(e) > 1]
        if repeated:
            raise FieldError("decay_epochs", "decay epochs must be distinct, got %d twice" % repeated[0])


@dataclass
class Checkpoint:
    """One end-of-epoch snapshot of a training run."""

    params: ModelParams
    run_seed: int
    epoch: int
    subset_digest: str = ""
    val_accuracy: float = float("nan")

    def __post_init__(self):
        self.run_seed = int(self.run_seed)
        self.epoch = int(self.epoch)
        if self.run_seed < 0:
            raise ValueError("run seed must be non-negative")
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")


@dataclass
class TrainResult:
    """One run's kept checkpoints, and per epoch its training loss and
    validation accuracy.

    ``train_loss[e]`` is the running loss of epoch e: the class-weighted
    mean cross-entropy of the epoch's batches, each taken at the weights its
    SGD step started from, plus the weight-decay term at the epoch's end
    weights. When no step runs (a zero fine-tune rate) it is the full
    objective at the unchanged weights.
    """

    checkpoints: list[Checkpoint]
    train_loss: list[float]
    val_accuracy: list[float]


def _held_out(ids: np.ndarray, fraction: float) -> np.ndarray:
    """Id-stable validation mask over sorted unique ids: ranks the ids by a
    hash and holds out the top ``fraction``."""
    held = np.zeros(len(ids), dtype=bool)
    n_val = int(len(ids) * fraction)
    held[np.lexsort((ids, _mix64(ids)))[len(ids) - n_val :]] = True
    return held


def _accuracy(tensors, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Top-class accuracy on shared rows, of one model or of each run of a
    stack; NaN for a run whose probabilities are not all finite."""
    probs = _softmax(_forward(tensors, features)[1])
    accuracy = np.mean(np.argmax(probs, axis=-1) == labels, axis=-1)
    return np.where(np.isfinite(probs).all(axis=(-2, -1)), accuracy, np.nan)


# the most values one evaluation pass over a run stack holds, its gathered
# rows and its layer outputs (8 MiB of float64); see _by_run_groups
_EVAL_VALUES = 1 << 20


def _by_run_groups(evaluate, tensors, rows, owner) -> np.ndarray:
    """``evaluate(tensors, *rows)``, one value per run, a group of runs at a
    time. ``rows`` are (S, n, ...) arrays of each subset's rows, and a group
    gathers its runs' own, ``a[owner[lo:hi]]`` (``owner`` holds each run's
    subset): one pass covers the runs of every subset, and the groups keep
    their gathered rows and layer outputs within ``_EVAL_VALUES`` however
    many runs the stack holds. Each run's value is the same in a group of
    any size."""
    n_rows = rows[0].shape[1]
    per_run = sum(math.prod(a.shape[1:]) for a in rows) + n_rows * sum(b.shape[-1] for b in tensors[1::2])
    size = max(1, _EVAL_VALUES // max(1, per_run))
    groups = [slice(lo, lo + size) for lo in range(0, len(owner), size)]
    return np.concatenate([evaluate([t[g] for t in tensors], *(a[owner[g]] for a in rows)) for g in groups])


def _subset_rows(pool: LabeledPool, subset: SubsetState, config: TrainConfig, digest: str):
    """One subset's bookkeeping: ``(pool, training rows, validation rows,
    digest)``, given its ``subset_hash``. The training rows repeat each id's
    row by its count; the validation rows are those of the held-out ids,
    empty when none is."""
    ids = subset.ids()
    if not len(ids):
        raise ValueError("empty training subset")
    held = _held_out(ids, config.val_fraction)
    if config.patience > 0 and not held.any():
        raise ValueError(
            "patience = %d needs held-out ids to validate on, but val_fraction = %g holds"
            " out none of the subset's %d ids" % (config.patience, config.val_fraction, len(ids))
        )
    counts, rows = subset.counts(), pool.rows_for(ids)
    return pool, np.repeat(rows[~held], counts[~held]), rows[held], digest


def train_parts(parts, config: TrainConfig) -> list[list[TrainResult]]:
    """Train one run per seed of each part ``(pool, subset, seeds, starts)``
    under one ``config``, all runs in lockstep.

    Each sample of a subset appears in every epoch as many times as its
    multiplicity. A held-out part (``config.val_fraction`` of the unique
    ids, chosen by an id-stable hash) drives early stopping when
    ``config.patience`` > 0; early stopping with nothing held out is
    refused with a ValueError. Without a held-out part the validation
    accuracy is measured on the training rows. Each run keeps its own
    ``default_rng(seed)`` for its initialization and per-epoch shuffles,
    and the last ``config.checkpoint_window`` end-of-epoch checkpoints.

    Without ``starts`` every run trains fresh weights. With ``starts``, one
    ModelParams per seed, the runs fine-tune those weights at the fine-tune
    rate. With ``config.fine_tune_epochs`` (or ``config.max_epochs``) equal
    to 0, the input weights come back unchanged as an epoch-0 checkpoint.
    With a fine-tune rate of 0 no SGD step runs: epochs 1..E each log the
    loss and validation accuracy and store a checkpoint of the input
    weights, so checkpoint ensembles read the same epoch span as at any
    other rate.

    Each distinct pair of a pool and a subset's contents has its held-out
    mask, rows, digest and class weights worked out once, and the runs of
    every part on it index one block. This function alone forms the run
    stacks: all runs with equal training and validation row counts, all
    fresh or all fine-tuned, on one pool shape and one model architecture,
    step through one SGD loop over an (R, ...) parameter stack. Under
    ``config.patience`` a run that stops early leaves the stack and the
    others go on. Each run's result equals training it alone, byte for byte.

    Returns:
        Per part, one TrainResult per seed, in seed order: checkpoints plus
        per-epoch loss and validation accuracy. The loss of an epoch is its
        running loss, the mean over its batches as the SGD steps saw them
        (see :class:`TrainResult`); a run whose loss or validation
        probabilities are not finite raises RuntimeError.
    """
    subsets = {}  # (pool identity, subset digest) -> bookkeeping
    stacks = {}  # stack shape -> {subset key: [(seed, start, (part, run))]}
    results = []
    for p, (pool, subset, seeds, starts) in enumerate(parts):
        seeds = [int(seed) for seed in seeds]
        starts = [None] * len(seeds) if starts is None else list(starts)
        if len(starts) != len(seeds):
            raise ValueError("%d starting models for %d run seeds" % (len(starts), len(seeds)))
        results.append([None] * len(seeds))
        key = id(pool), subset_hash(subset)
        if seeds and key not in subsets:
            subsets[key] = _subset_rows(pool, subset, config, key[1])
        pool_shape = pool.n_features, pool.n_classes
        for r, (seed, start) in enumerate(zip(seeds, starts)):
            if start is not None and (start.n_features, start.n_classes) != pool_shape:
                raise ValueError("model shape does not match the pool")
            model = None if start is None else (start.arch, start.hidden)  # None: fresh, as config says
            shape = len(subsets[key][1]), len(subsets[key][2]), pool_shape, model
            stacks.setdefault(shape, {}).setdefault(key, []).append((seed, start, (p, r)))
    for stack in stacks.values():
        runs = [(s, *run) for s, key in enumerate(stack) for run in stack[key]]
        trained = _train_stack([subsets[key] for key in stack], runs, config)
        for (*_, (p, r)), result in zip(runs, trained):
            results[p][r] = result
    return results


# a diverging run overflows on its way to the finiteness check that refuses it
@np.errstate(over="ignore", invalid="ignore")
def _train_stack(subsets, runs, config: TrainConfig) -> list[TrainResult]:
    """The one SGD loop, over a stack :func:`train_parts` forms: ``runs``,
    ``(s, seed, start, where)`` sorted by ``s``, the index in ``subsets``
    (each as :func:`_subset_rows` gives it) of the subset the run trains on.

    The subsets' rows are gathered once into (S, n, ...) arrays, and each
    run's batches index its own subset's rows. A step takes one forward
    pass, :func:`_log_likelihood`, then one backward pass. Each run's
    ``train_loss`` adds up the log-likelihoods of its steps, so the epoch
    ends with only one validation pass over the live runs of every subset
    (:func:`_by_run_groups`). At a zero rate no step runs, and one loss and
    one validation pass before the first epoch serve every epoch. The stack's
    weights, velocities and gradients are one flat (R, P) array each, with
    the layer tensors as views, so that a step's momentum update is three
    whole-stack operations.
    """
    d, k = subsets[0][0].n_features, subsets[0][0].n_classes

    def gather(column: str, at: int) -> np.ndarray:
        first = getattr(subsets[0][0], column)
        out = np.empty((len(subsets), len(subsets[0][at]), *first.shape[1:]), first.dtype)
        for s, sub in enumerate(subsets):
            np.take(getattr(sub[0], column), sub[at], axis=0, out=out[s])
        return out

    features, labels = gather("features", 1), gather("labels", 1)
    val_rows = (gather("features", 2), gather("labels", 2)) if len(subsets[0][2]) else (features, labels)
    per_subset = [features, labels]  # and the sample weights, unless all are 1
    if config.class_weighting:
        per_subset.append(np.stack([inverse_frequency_weights(y, k)[y] for y in labels]))
    stacked = [a.reshape(-1, *a.shape[2:]) for a in per_subset]

    owner = np.array([s for s, *_ in runs])
    seeds = [seed for _, seed, _, _ in runs]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if runs[0][2] is None:
        models = [init_params(config.arch, d, k, config.hidden, rng) for rng in rngs]
        learning_rate, max_epochs = config.learning_rate, config.max_epochs
    else:
        models = [start for _, _, start, _ in runs]
        learning_rate, max_epochs = config.fine_tune_rate, config.fine_tune_epochs
        if max_epochs is None:
            max_epochs = config.max_epochs
    arch, hidden = models[0].arch, models[0].hidden
    shapes = _tensor_shapes(arch, d, k, hidden)
    weights = np.stack([np.concatenate([t.ravel() for t in m.tensors]) for m in models])
    velocity, grads = np.zeros_like(weights), np.empty_like(weights)
    tensors, grad_views = _views(weights, shapes), _views(grads, shapes)

    def run_params(j: int) -> ModelParams:  # a copy of run j's weights
        return ModelParams(arch, d, k, hidden, tuple(t[j].copy() for t in tensors))

    windows = [deque(maxlen=config.checkpoint_window) for _ in runs]
    results = [TrainResult([], [], []) for _ in runs]
    n_rows = labels.shape[1]

    if max_epochs == 0:
        # nothing to optimize; snapshot the starting points
        for j, acc in enumerate(_by_run_groups(_accuracy, tensors, val_rows, owner).tolist()):
            ckpt = Checkpoint(run_params(j), seeds[j], 0, subsets[owner[j]][3], acc)
            results[j] = TrainResult([ckpt], [], [acc])
        return results

    if not learning_rate:  # the weights never move: one pass and accuracy for every epoch
        still = _by_run_groups(lambda *a: _log_likelihood(*a)[0], tensors, per_subset, owner)
        still_accs = _by_run_groups(_accuracy, tensors, val_rows, owner)
    live = list(range(len(runs)))  # the run of each stack row
    order = np.empty((len(runs), n_rows), np.int64)  # each live run's shuffle, row by row
    best = [-np.inf] * len(runs)
    stale = [0] * len(runs)
    lr = learning_rate
    for epoch in range(1, max_epochs + 1):
        if epoch in config.decay_epochs:
            lr *= config.lr_decay
        if learning_rate:  # at a zero rate no step would move the weights
            perms = order[: len(live)]
            perms[:] = np.arange(n_rows)
            for i, perm in zip(live, perms):
                rngs[i].shuffle(perm)  # the draws of rngs[i].permutation(n_rows)
            perms += n_rows * owner[live, None]  # into the run's own subset's rows
            total = np.zeros(len(live))
            for lo in range(0, n_rows, config.batch_size):
                batch = perms[:, lo : lo + config.batch_size]
                x, y, *w = (a.take(batch, 0) for a in stacked)  # w: the sample weights, if any
                log_likelihood, inputs, probs = _log_likelihood(tensors, x, y, *w)
                total += log_likelihood
                _gradients(tensors, inputs, probs, y, config.weight_decay, grad_views, *w)
                # held into the next step, these arrays make every step fault memory back in
                del x, y, w, inputs, probs
                velocity *= config.momentum
                velocity += grads
                weights -= lr * velocity
            accs = _by_run_groups(_accuracy, tensors, val_rows, owner[live])
        else:
            total, accs = still[live], still_accs[live]
        losses = -total / n_rows
        if config.weight_decay:
            losses += _decay_term(tensors, config.weight_decay)
        # a blow-up in the epoch's last step shows only in the end weights'
        # validation probabilities
        if not (np.isfinite(losses).all() and np.isfinite(accs).all()):
            raise RuntimeError(
                "non-finite training loss at epoch %d (lr=%g); lower the learning rate"
                % (epoch, lr)
            )
        keep = []
        for j, (i, epoch_loss, acc) in enumerate(zip(live, losses.tolist(), accs.tolist())):
            results[i].train_loss.append(epoch_loss)
            results[i].val_accuracy.append(acc)
            ckpt = Checkpoint(run_params(j), seeds[i], epoch, subsets[owner[i]][3], acc)
            windows[i].append(ckpt)
            if acc > best[i]:
                best[i] = acc
                stale[i] = 0
            else:
                stale[i] += 1
            if config.patience == 0 or stale[i] < config.patience:
                keep.append(j)
        if not keep:
            break
        if len(keep) < len(live):
            weights, velocity, grads = weights[keep], velocity[keep], grads[keep]
            tensors, grad_views = _views(weights, shapes), _views(grads, shapes)
            live = [live[j] for j in keep]

    for result, window in zip(results, windows):
        result.checkpoints = list(window)
    return results


def train(
    pool: LabeledPool,
    subset: SubsetState,
    config: TrainConfig,
    seed: int = 0,
) -> TrainResult:
    """Train a fresh model on a subset of the pool under run seed ``seed``:
    the one-run case of :func:`train_parts`."""
    return train_parts([(pool, subset, [seed], None)], config)[0][0]


def fine_tune(
    pool: LabeledPool,
    subset: SubsetState,
    params: ModelParams,
    config: TrainConfig,
    seed: int = 0,
) -> TrainResult:
    """Continue training ``params`` on a subset of the pool at the fine-tune
    rate, under run seed ``seed``: the one-run case of :func:`train_parts`."""
    return train_parts([(pool, subset, [seed], [params])], config)[0][0]


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


@dataclass
class EnsembleConfig:
    """How to assemble ensemble members from stored checkpoints.

    Modes: ``single`` (one checkpoint), ``seeds`` (one per run),
    ``checkpoints`` (several epochs of one run), ``combined`` (both axes).
    """

    mode: str = "seeds"
    runs: int = 5
    checkpoints_per_run: int = 20
    stride: int = 1

    def __post_init__(self):
        refuse_non_finite_fields(self)
        if self.mode not in ENSEMBLE_MODES:
            raise FieldError("mode", "unknown ensemble mode %r" % self.mode)
        for name in ("runs", "checkpoints_per_run", "stride"):
            if getattr(self, name) < 1:
                raise FieldError(name, "runs, checkpoints per run and stride must be >= 1")

    @property
    def runs_needed(self) -> int:
        """Number of independent training runs the mode consumes."""
        return self.runs if self.mode in ("seeds", "combined") else 1

    @property
    def per_run(self) -> int:
        """Members the mode reads from each run."""
        return self.checkpoints_per_run if self.mode in ("checkpoints", "combined") else 1

    @property
    def epochs_needed(self) -> int:
        """Stored-epoch span the mode reads from each run."""
        return (self.per_run - 1) * self.stride + 1


class CheckpointStore:
    """Checkpoints indexed by (run seed, epoch)."""

    _FIELDS = ["run_seed", "epoch", "val_accuracy", "subset_digest"]  # store_meta.csv header

    def __init__(self):
        self._items: dict[tuple[int, int], Checkpoint] = {}

    def __len__(self) -> int:
        return len(self._items)

    def add(self, checkpoint: Checkpoint) -> None:
        key = (checkpoint.run_seed, checkpoint.epoch)
        if key in self._items:
            raise ValueError("checkpoint for run %d epoch %d already stored" % key)
        self._items[key] = checkpoint

    def add_run(self, checkpoints) -> None:
        for ckpt in checkpoints:
            self.add(ckpt)

    def run_seeds(self) -> list[int]:
        return sorted({run for run, _ in self._items})

    def epochs(self, run_seed: int) -> list[int]:
        eps = sorted(ep for run, ep in self._items if run == int(run_seed))
        if not eps:
            raise KeyError("no checkpoints stored for run %d" % run_seed)
        return eps

    def get(self, run_seed: int, epoch: int) -> Checkpoint:
        try:
            return self._items[(int(run_seed), int(epoch))]
        except KeyError:
            raise KeyError("no checkpoint for run %d epoch %d" % (run_seed, epoch)) from None

    def save(self, dir_path) -> None:
        """Write every checkpoint plus a metadata table to a directory.

        All or nothing: every file is written in full to its temporary file
        before any of them replaces its target, so a save that fails while
        writing leaves the directory as it was. Each temporary checkpoint
        file is closed once written, so a save holds two files open
        whatever the size of the store. The directory then holds
        exactly this store: ``.alck`` files left there by an earlier save
        are removed, so :meth:`load` cannot mix them in.
        """
        out = Path(dir_path)
        out.mkdir(parents=True, exist_ok=True)
        names = set()
        with ExitStack() as files:
            writer = csv.writer(files.enter_context(atomic_file(out / "store_meta.csv")))
            writer.writerow(self._FIELDS)
            for run, epoch in sorted(self._items):
                ckpt = self._items[(run, epoch)]
                writer.writerow([run, epoch, repr(ckpt.val_accuracy), ckpt.subset_digest])
                name = "run%d_ep%d.alck" % (run, epoch)
                names.add(name)
                fh = files.enter_context(atomic_file(out / name, binary=True))
                _write_alck(fh, ckpt)
                fh.close()  # renamed when the stack exits; closing again is a no-op
        for stale in out.glob("*.alck"):
            if stale.name not in names:
                stale.unlink()

    @classmethod
    def load(cls, dir_path) -> "CheckpointStore":
        """Read every ``.alck`` file of a directory. With a ``store_meta.csv``,
        as :meth:`save` writes, the checkpoints it lists and those the files
        hold must be the same: a missing or unlisted one is refused."""
        src = Path(dir_path)
        paths = sorted(src.glob("*.alck"))
        if not paths:
            raise FileNotFoundError("no checkpoint files under %s" % src)
        meta: dict[tuple[int, int], tuple[float, str]] | None = None
        meta_path = src / "store_meta.csv"
        if meta_path.exists():
            meta = {}
            with open(meta_path, newline="") as fh:
                reader = csv.DictReader(fh)
                if not set(cls._FIELDS) <= set(reader.fieldnames or ()):
                    raise ValueError("%s: expected header %s" % (meta_path, ",".join(cls._FIELDS)))
                try:
                    for row in reader:
                        key = (int(row["run_seed"]), int(row["epoch"]))
                        if key in meta:
                            raise ValueError("duplicate row for run %d epoch %d" % key)
                        meta[key] = (float(row["val_accuracy"]), row["subset_digest"])
                except (TypeError, ValueError) as exc:
                    raise ValueError("%s line %d: %s" % (meta_path, reader.line_num, exc)) from None
        store = cls()
        for path in paths:
            ckpt = read_checkpoint(path)
            if meta is not None:
                key = ckpt.run_seed, ckpt.epoch
                if key not in meta:
                    raise ValueError("%s holds run %d epoch %d, which %s does not list"
                                     % (path, *key, meta_path))
                ckpt.val_accuracy, ckpt.subset_digest = meta[key]
            store.add(ckpt)
        for key in meta or ():
            if key not in store._items:
                raise ValueError("%s lists run %d epoch %d, which no .alck file under %s holds"
                                 % (meta_path, *key, src))
        return store


def _best_checkpoint(store: CheckpointStore, run: int) -> Checkpoint:
    ckpts = [store.get(run, epoch) for epoch in store.epochs(run)]
    scored = [c for c in ckpts if not math.isnan(c.val_accuracy)]
    # the earliest best epoch wins; runs without validation metrics fall
    # back to the newest snapshot
    return max(scored, key=lambda c: c.val_accuracy) if scored else ckpts[-1]


def _strided_tail(store: CheckpointStore, run: int, count: int, stride: int) -> list[Checkpoint]:
    epochs = store.epochs(run)
    picks = [len(epochs) - 1 - stride * i for i in range(count)]
    if picks[-1] < 0:
        raise ValueError(
            "run %d stores %d checkpoints; %d at stride %d requested"
            % (run, len(epochs), count, stride)
        )
    return [store.get(run, epochs[i]) for i in reversed(picks)]


def build_ensemble(store: CheckpointStore, config: EnsembleConfig) -> list[ModelParams]:
    """Pick ensemble members out of a checkpoint store.

    ``single``: newest checkpoint of the lowest run. ``seeds``: per run, the
    checkpoint with the best validation accuracy (newest when no metrics
    are stored). ``checkpoints``: the newest ``checkpoints_per_run``
    snapshots of the lowest run, ``stride`` epochs apart. ``combined``: the
    checkpoint selection applied to each of ``runs`` runs. Members come
    back ordered by (run seed, epoch).
    """
    runs = store.run_seeds()
    if not runs:
        raise ValueError("empty checkpoint store")
    if len(runs) < config.runs_needed:
        raise ValueError("store holds %d runs; %d requested" % (len(runs), config.runs_needed))
    members = []
    for run in runs[: config.runs_needed]:
        if config.mode == "seeds":
            members.append(_best_checkpoint(store, run).params)
        else:
            members += [c.params for c in _strided_tail(store, run, config.per_run, config.stride)]
    return members


# Why a value is refused where pool inference or an .alck file holds it as float32
_FLOAT32_RANGE = "outside the float32 range (|x| <= %.8g)" % np.finfo(np.float32).max


@contextmanager
def _float32_range(what: str):
    """Refuse, as ValueError naming ``what``, a float32 cast in the block
    that rounds a finite value to an infinity."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValueError("%s %s" % (what, _FLOAT32_RANGE)) from None


class PoolBlocks:
    """Member predictions over pool rows, computed one block of rows at a time.

    The source that every pool pass reads. It offers what
    :class:`PredictionTensor` offers its readers (``sample_ids``,
    ``n_samples``, ``n_members``, ``n_classes`` and ``blocks()``), so
    ``acquisition.pool_pass`` and ``analysis.evaluate_tensor`` take either,
    but it never holds an (N, E, K) array: each walk predicts its blocks
    afresh, one float32 group of members at a time.

    Inference runs in float32, from member weights rounded to float32 as
    ``.alck`` files store them, so a saved and reloaded ensemble predicts
    the same bytes as the one it was saved from. Features, weights or
    logits beyond the float32 range are refused with ValueError.

    Args:
        members: sequence of ModelParams sharing input width and class count.
        pool: pool to predict on, every row in pool order.
    """

    def __init__(self, members, pool: LabeledPool):
        self.members = list(members)
        if not self.members:
            raise ValueError("empty ensemble")
        for m in self.members:
            if m.n_features != pool.n_features or m.n_classes != pool.n_classes:
                raise ValueError("member shape does not match the pool")
        self.pool, self.sample_ids = pool, pool.sample_ids

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def n_classes(self) -> int:
        return self.pool.n_classes

    def blocks(self):
        """Yield ``(rows, groups)`` for each :func:`acquisition.row_blocks` run
        of the source: the rows, and a generator of their member probabilities,
        computed in float32. Each group of members that fills a member-major
        (E_g, c, K) buffer of ``acquisition.GROUP_VALUES`` logits takes one
        row-wise softmax and passes :func:`acquisition._check_rows`; the next
        group overwrites it."""
        with _float32_range("member weights"):  # the values .alck files store
            weights = [[t.astype(np.float32) for t in m.tensors] for m in self.members]
        for rows in row_blocks(self.n_samples):
            with _float32_range("pool features"):
                features = self.pool.features[rows].astype(np.float32)
            yield rows, self._groups(weights, features)

    def _groups(self, weights, features):
        size = _group_size(len(features), self.n_classes)
        logits = np.empty((min(size, self.n_members), len(features), self.n_classes), np.float32)
        for lo in range(0, self.n_members, size):
            group = logits[: self.n_members - lo]
            with np.errstate(over="ignore", invalid="ignore"):
                for j, w in enumerate(weights[lo : lo + size]):
                    _forward(w, features, out=group[j])
                _softmax(group)
            try:
                _check_rows(group)
            except ValueError:
                if all(np.isfinite(t).all() for w in weights for t in w):
                    # finite float32 inputs: only an overflowed logit breaks a row
                    raise ValueError("member logits %s" % _FLOAT32_RANGE) from None
                raise
            yield group


def predict_pool(members, pool: LabeledPool) -> PredictionTensor:
    """Stack member predictions over the whole pool into a prediction tensor.

    ``PredictionTensor.gather`` of a :class:`PoolBlocks`, for callers that
    keep a tensor (``.alpt`` files); the perfbench harness imports and wraps
    it, and no alsift code path calls it.

    Args:
        members: sequence of ModelParams sharing input width and class count.
        pool: pool to predict on.

    Returns:
        PredictionTensor of shape (N, len(members), K), samples in pool order.
    """
    return PredictionTensor.gather(PoolBlocks(members, pool))


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------

# header: architecture tag, D, K, hidden width, run seed, epoch; then the
# float32 tensors in ``ModelParams.tensors`` order
_ALCK = BinaryFrame(b"ALCK", "8sIIIQI", "checkpoint", "tensors")


def write_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Binary checkpoint: header then float32 tensors in declared order."""
    with atomic_file(path, binary=True) as fh:
        _write_alck(fh, checkpoint)


def _write_alck(fh, checkpoint: Checkpoint) -> None:
    params = checkpoint.params
    arch_tag = params.arch.encode()
    if len(arch_tag) > 8:
        raise ValueError("architecture tag too long")
    fields = (arch_tag.ljust(8, b"\0"), params.n_features, params.n_classes, params.hidden,
              checkpoint.run_seed, checkpoint.epoch)
    with _float32_range("member weights"):
        _ALCK.write(fh, fields, [(tensor, "<f4") for tensor in params.tensors])


def _alck_tensors(tag: bytes, d: int, k: int, hidden: int, *_):
    """The arrays an ``.alck`` header describes; an unknown tag is refused."""
    arch = tag.rstrip(b"\0").decode()
    if arch not in ARCHITECTURES:
        raise ValueError("unknown architecture tag %r" % arch)
    return [(shape, "<f4", "truncated checkpoint tensors") for shape in _tensor_shapes(arch, d, k, hidden)]


def read_checkpoint(path) -> Checkpoint:
    (tag, d, k, hidden, run_seed, epoch), tensors = _ALCK.read(path, _alck_tensors)
    tensors = tuple(t.astype(np.float64) for t in tensors)
    return Checkpoint(ModelParams(tag.rstrip(b"\0").decode(), d, k, hidden, tensors), run_seed, epoch)

