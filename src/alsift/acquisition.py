"""Ensemble uncertainty scores for classification vectors and detection maps.

Everything in this module is a pure function over probability arrays. An
ensemble prediction is an (E, K) matrix with one probability row per member;
a pool of predictions is an (N, E, K) tensor wrapped in
:class:`PredictionTensor`. Scores use natural logarithms throughout.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .state import _read_array, atomic_file, id_array, parse_sample_id, sorted_unique_ids

# Clamp applied inside logarithms. Exact zeros still contribute exactly 0
# to entropies via the 0 * log 0 convention.
LOG_EPS = 1e-12

# Probability vectors must sum to 1 within this tolerance.
SUM_TOL = 1e-6

# Mutual information more negative than this signals a real bug instead of
# floating-point cancellation; anything in (-MI_CLAMP, 0) is clamped to 0.
MI_CLAMP = 1e-9

# Pool passes (prediction, validation, scoring, votes, consensus) walk the
# samples in row_blocks of this many rows, so their working set, one float64
# block of probabilities that member inference computes in float32, is
# O(BLOCK_ROWS * E * K) whatever the pool size.
BLOCK_ROWS = 2048

FUNCTION_IDS = ("entropy", "mutual_information", "variation_ratios", "error_count", "random")

# Functions applicable to detection heatmaps (no labels, no randomness).
DETECTION_FUNCTION_IDS = ("entropy", "mutual_information", "variation_ratios")


def row_blocks(shape):
    """Yield ``(rows, block)`` for each run of at most ``BLOCK_ROWS`` samples of
    an (N, E, K) ``shape``: the rows as a slice and an unfilled contiguous
    float64 (c, E, K) view of one buffer, which the next block reuses. An
    empty source yields one empty block, so per-block checks still run."""
    n = shape[0]
    buffer = np.empty((min(n, BLOCK_ROWS), *shape[1:]))
    for lo in range(0, max(n, 1), BLOCK_ROWS):
        rows = slice(lo, min(lo + BLOCK_ROWS, n))
        yield rows, buffer[: rows.stop - lo]


def _check_rows(probs: np.ndarray) -> np.ndarray:
    """Validate an array whose last axis holds probability vectors."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape[-1] < 1:
        raise ValueError("invalid distribution: no classes")
    # min and max propagate NaN, so one test covers both conditions
    if not (probs.min(initial=0.0) >= 0.0 and probs.max(initial=1.0) <= 1.0):
        if not np.all(np.isfinite(probs)):
            raise ValueError("invalid distribution: non-finite entries")
        raise ValueError("invalid distribution: entries outside [0, 1]")
    # a matrix-vector product adds K-wide rows several times faster than a
    # last-axis sum; the order of addition does not matter at SUM_TOL
    sums = probs @ np.ones(probs.shape[-1])
    if np.any(np.abs(sums - 1.0) > SUM_TOL):
        raise ValueError("invalid distribution: rows must sum to 1 within %g" % SUM_TOL)
    return probs


def _unique_ids(sample_ids) -> np.ndarray:
    """Sample ids as a contiguous uint64 array, refused when any repeats."""
    sample_ids = np.ascontiguousarray(id_array(sample_ids))
    sorted_unique_ids(sample_ids, "sample_ids must be unique")
    return sample_ids


def _check_members(members: np.ndarray) -> np.ndarray:
    members = np.asarray(members, dtype=np.float64)
    if members.ndim != 2:
        raise ValueError("ensemble must be a 2-D (members, classes) array")
    if members.shape[0] < 1:
        raise ValueError("empty ensemble")
    return _check_rows(members)


def _entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Entropy in nats along the last axis, with 0 * log 0 = +0."""
    terms = np.maximum(probs, LOG_EPS)
    np.log(terms, out=terms)
    terms *= probs
    np.copyto(terms, 0.0, where=probs <= 0.0)
    return -terms.sum(axis=-1)


def predictive_mean(members: np.ndarray) -> np.ndarray:
    """Element-wise mean of the member distributions.

    Args:
        members: (E, K) array, one probability row per ensemble member.

    Returns:
        Length-K marginal probability vector.
    """
    members = _check_members(members)
    return members.mean(axis=0)


def entropy(probs: np.ndarray) -> float:
    """Entropy of a single probability vector, in nats."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("invalid distribution: expected a 1-D vector")
    probs = _check_rows(probs)
    return float(_entropy_rows(probs))


def _clamp_mutual_information(values: np.ndarray) -> np.ndarray:
    if np.any(values < -MI_CLAMP):
        raise ValueError(
            "mutual information below -%g; member rows are inconsistent" % MI_CLAMP
        )
    return np.maximum(values, 0.0)


def _ensemble_scores(members: np.ndarray, function_id: str, labels=None, mean=None) -> np.ndarray:
    """Score a float64 (..., E, K) stack of member rows over its last two axes.

    Handles ``entropy``, ``mutual_information``, ``variation_ratios`` and
    ``error_count``; ``labels`` holds one class index per (E, K) ensemble,
    and ``mean``, when given, the member mean ``members.mean(axis=-2)``.
    Member votes and the majority vote break argmax ties toward the lowest
    class index, so every score is deterministic.
    """
    n_members, n_classes = members.shape[-2:]
    if function_id in ("entropy", "mutual_information"):
        total = _entropy_rows(members.mean(axis=-2) if mean is None else mean)
        if function_id == "entropy":
            return total
        expected = _entropy_rows(members).mean(axis=-1)
        return _clamp_mutual_information(total - expected)
    votes = np.argmax(members, axis=-1)
    if function_id == "variation_ratios":
        counts = (votes[..., None] == np.arange(n_classes)).sum(axis=-2)
        return 1.0 - counts.max(axis=-1) / n_members
    if labels is None:
        raise ValueError("error_count scoring requires labels")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != members.shape[:-2]:
        raise ValueError("labels length must match the sample axis")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError("labels out of range [0, %d)" % n_classes)
    return 1.0 - (votes == labels[..., None]).sum(axis=-1) / n_members


def mutual_information(members: np.ndarray) -> float:
    """Entropy of the mean prediction minus the mean member entropy.

    Zero when all members agree exactly (regardless of how uncertain each
    one is); large when members disagree. Tiny negative values from
    floating-point cancellation are clamped to 0.
    """
    return float(_ensemble_scores(_check_members(members), "mutual_information"))


def variation_ratios(members: np.ndarray) -> float:
    """Fraction of members whose top class differs from the majority vote.

    Per-member argmax ties and majority-vote ties both resolve to the
    lowest class index, so the score is deterministic.
    """
    return float(_ensemble_scores(_check_members(members), "variation_ratios"))


def error_count(members: np.ndarray, label: int) -> float:
    """Fraction of members whose top class differs from the true label."""
    return float(_ensemble_scores(_check_members(members), "error_count", label))


@dataclass
class PredictionTensor:
    """Per-sample, per-member class probabilities for a pool.

    ``data`` has shape (N, E, K) and is stored as float32 to match the
    on-disk format; score computations promote to float64.
    """

    data: np.ndarray
    sample_ids: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        self.sample_ids = np.ascontiguousarray(id_array(self.sample_ids))
        if self.data.ndim != 3:
            raise ValueError("prediction tensor must be (samples, members, classes)")
        if self.sample_ids.shape != (self.data.shape[0],):
            raise ValueError("sample_ids length must match the sample axis")
        _unique_ids(self.sample_ids)
        for _, block in self.blocks():
            _check_rows(block)

    @classmethod
    def _checked(cls, data: np.ndarray, sample_ids: np.ndarray) -> "PredictionTensor":
        """Wrap arrays that already hold what the constructor checks: contiguous
        float32 (N, E, K) data whose blocks passed :func:`_check_rows`, and
        unique uint64 ids. Nothing is copied or validated again. Only
        ``learner.predict_pool`` calls it; perfbench imports and wraps that."""
        tensor = cls.__new__(cls)
        tensor.data, tensor.sample_ids = data, sample_ids
        return tensor

    def blocks(self):
        """Yield the :func:`row_blocks` of the tensor, filled with its values."""
        for rows, block in row_blocks(self.data.shape):
            block[...] = self.data[rows]
            yield rows, block

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_members(self) -> int:
        return self.data.shape[1]

    @property
    def n_classes(self) -> int:
        return self.data.shape[2]


@dataclass
class AcquisitionScores:
    """Per-sample scores produced by one acquisition function."""

    function_id: str
    scores: np.ndarray
    sample_ids: np.ndarray

    def __post_init__(self):
        self.scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        self.sample_ids = np.ascontiguousarray(id_array(self.sample_ids))
        if self.function_id not in FUNCTION_IDS:
            raise ValueError("unknown acquisition function %r" % self.function_id)
        if self.scores.shape != self.sample_ids.shape:
            raise ValueError("scores and sample_ids must have equal length")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")


def pool_pass(source, function_id=None, labels=None, seed=None, votes=False):
    """Scores and fused votes of every sample from one walk over its blocks.

    Args:
        source: a :class:`PredictionTensor` or a ``learner.PoolBlocks``;
            anything with ``n_samples``, ``sample_ids`` and a ``blocks()``
            that yields ``(rows, block)`` pairs covering the samples.
        function_id: one of ``FUNCTION_IDS``, or None for no scores.
        labels: true class indices, required for ``error_count``.
        seed: RNG seed, required for ``random``, whose scores are seeded
            uniform draws so downstream selection code is shared.
        votes: also return each sample's fused vote: the class with the
            highest member-mean probability, ties toward the lower index.

    Returns:
        ``(scores, votes)``: AcquisitionScores aligned with
        ``source.sample_ids`` and an int64 vote array, each None when not
        asked for. The walk runs whatever is asked, so a ``PoolBlocks``
        source validates every block even for ``random``.
    """
    n = source.n_samples
    if function_id is not None and function_id not in FUNCTION_IDS:
        raise ValueError("unknown acquisition function %r" % function_id)
    if function_id == "random" and seed is None:
        raise ValueError("random scoring requires a seed")
    if function_id == "error_count" and labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError("labels length must match the sample axis")
    else:
        labels = None  # only error_count reads labels
    scored = function_id not in (None, "random")
    scores = np.empty(n) if scored else None
    fused = np.empty(n, dtype=np.int64) if votes else None
    # one member mean per block serves both the entropies and the votes
    averaged = votes or function_id in ("entropy", "mutual_information")
    for rows, block in source.blocks():
        mean = block.mean(axis=1) if averaged else None
        if scored:
            block_labels = None if labels is None else labels[rows]
            scores[rows] = _ensemble_scores(block, function_id, block_labels, mean)
        if votes:
            fused[rows] = np.argmax(mean, axis=1)
    if function_id == "random":
        scores = np.random.default_rng(seed).random(n)
    if function_id is not None:
        scores = AcquisitionScores(function_id, scores, source.sample_ids)
    return scores, fused


def score_pool(
    tensor: PredictionTensor,
    function_id: str,
    labels: np.ndarray | None = None,
    seed: int | None = None,
) -> AcquisitionScores:
    """Apply one acquisition function to every sample of a pool.

    Args:
        tensor: pool predictions, (N, E, K).
        function_id: one of ``FUNCTION_IDS``.
        labels: true class indices, required for ``error_count``.
        seed: RNG seed, required for ``random``.

    Returns:
        AcquisitionScores aligned with ``tensor.sample_ids``.
    """
    return pool_pass(tensor, function_id, labels, seed)[0]


# ---------------------------------------------------------------------------
# Detection heatmaps
# ---------------------------------------------------------------------------


def _as_heatmap_stack(maps) -> np.ndarray:
    try:
        stack = np.asarray(maps, dtype=np.float64)
    except ValueError as exc:
        raise ValueError("heatmaps must share one (height, width) shape") from exc
    if stack.ndim != 4:
        raise ValueError("heatmaps must be shaped (members, classes, height, width)")
    if stack.shape[0] < 1:
        raise ValueError("empty ensemble")
    if min(stack.shape[1:]) < 1:
        raise ValueError("heatmaps must be non-empty")
    if not np.all(np.isfinite(stack)) or np.any(stack < 0.0) or np.any(stack > 1.0):
        raise ValueError("heatmap cells must be probabilities in [0, 1]")
    return stack


def detection_heatmaps(maps, function_id: str) -> np.ndarray:
    """Per-class acquisition heatmaps for object-center probability maps.

    ``maps`` is (members, classes, height, width); every cell holds the
    probability that an object of that class is centered there. Each cell
    is treated as an independent binary classifier with distribution
    [q, 1 - q] and scored across members, producing one acquisition map
    per class for inspection.
    """
    if function_id not in DETECTION_FUNCTION_IDS:
        raise ValueError(
            "function %r not applicable to detection maps" % function_id
        )
    stack = _as_heatmap_stack(maps)
    # (C, H, W, E, 2) view; members stay outermost in memory, so the
    # member means add in member order
    binary = np.moveaxis(np.stack([stack, 1.0 - stack], axis=-1), 0, -2)
    return _ensemble_scores(binary, function_id)


def detection_image_score(maps, function_id: str) -> float:
    """Single image-level score: the maximum cell value over all classes."""
    return float(detection_heatmaps(maps, function_id).max())


# ---------------------------------------------------------------------------
# Prediction tensor files
# ---------------------------------------------------------------------------

_ALPT_MAGIC = b"ALPT"
_ALPT_VERSION = 1
_ALPT_HEADER = struct.Struct("<4sHIII")


def write_prediction_tensor(path, tensor: PredictionTensor) -> None:
    """Write a tensor in the binary pool-prediction format.

    Layout: magic ``ALPT``, u16 version, u32 N, u32 E, u32 K, then
    N*E*K little-endian f32 in (sample, member, class) order, then N
    little-endian u64 sample ids.
    """
    n, e, k = tensor.data.shape
    with atomic_file(path, binary=True) as fh:
        fh.write(_ALPT_HEADER.pack(_ALPT_MAGIC, _ALPT_VERSION, n, e, k))
        # contiguous little-endian arrays are written without a copy
        fh.write(np.ascontiguousarray(tensor.data, dtype="<f4"))
        fh.write(np.ascontiguousarray(tensor.sample_ids, dtype="<u8"))


def read_prediction_tensor(path) -> PredictionTensor:
    with open(path, "rb") as fh:
        header = fh.read(_ALPT_HEADER.size)
        if len(header) < _ALPT_HEADER.size:
            raise ValueError("truncated prediction tensor file")
        magic, version, n, e, k = _ALPT_HEADER.unpack(header)
        if magic != _ALPT_MAGIC:
            raise ValueError("not a prediction tensor file (bad magic)")
        if version != _ALPT_VERSION:
            raise ValueError("unsupported prediction tensor version %d" % version)
        data = _read_array(fh, (n, e, k), "<f4", "truncated prediction tensor data")
        ids = _read_array(fh, (n,), "<u8", "truncated sample id block")
        if fh.read(1):
            raise ValueError("trailing bytes after the prediction tensor file's sample ids")
    return PredictionTensor(data, ids)


def read_prediction_tensor_csv(path) -> PredictionTensor:
    """Read the CSV form: columns sample_id, member, p_0..p_{K-1}.

    Rows may appear in any order but must cover the full (sample, member)
    grid. Samples keep their order of first appearance. Lines starting
    with ``#`` are skipped. A row with other than K + 2 cells, a cell that
    does not parse, an id outside [0, 2**64), a negative member or a
    repeated (sample, member) pair is rejected with its line number.
    """
    with open(path, newline="") as fh:
        # comment lines become empty rows, so line_num counts file lines
        reader = csv.reader("" if line.startswith("#") else line for line in fh)
        header = next((row for row in reader if row), None)
        if header is None or len(header) < 3 or header[0] != "sample_id" or header[1] != "member":
            raise ValueError("expected header sample_id, member, p_0..p_{K-1}")
        n_classes = len(header) - 2
        if [h.strip() for h in header[2:]] != ["p_%d" % i for i in range(n_classes)]:
            raise ValueError("probability columns must be named p_0..p_%d" % (n_classes - 1))
        rows: dict[tuple[int, int], list[float]] = {}
        order: list[int] = []
        seen: set[int] = set()
        max_member = -1
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != n_classes + 2:
                    raise ValueError("expected %d columns, found %d" % (n_classes + 2, len(row)))
                sid, member = parse_sample_id(row[0]), int(row[1])
                if member < 0:
                    raise ValueError("sample id and member index must be >= 0")
                if (sid, member) in rows:
                    raise ValueError("duplicate row for sample %d member %d" % (sid, member))
                rows[(sid, member)] = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ValueError("line %d: %s" % (reader.line_num, exc)) from None
            if sid not in seen:
                seen.add(sid)
                order.append(sid)
            max_member = max(max_member, member)
    n_members = max_member + 1
    if n_members < 1 or not order:
        raise ValueError("empty prediction tensor CSV")
    data = np.empty((len(order), n_members, n_classes), dtype=np.float32)
    for i, sid in enumerate(order):
        for e in range(n_members):
            try:
                data[i, e] = rows[(sid, e)]
            except KeyError:
                raise ValueError("missing row for sample %d member %d" % (sid, e)) from None
    return PredictionTensor(data, np.asarray(order, dtype=np.uint64))
