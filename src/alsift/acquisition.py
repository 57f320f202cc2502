"""Ensemble uncertainty scores for pools of predictions and for detection maps.

One walk, :func:`pool_pass`, scores a pool block by block from a (N, E, K)
:class:`PredictionTensor` (:func:`score_pool`), an ``.alpt`` file read one
block at a time (:class:`TensorFile`) or a ``learner.PoolBlocks``; one reducer
serves it and :func:`detection_heatmaps`. Scores use natural logarithms
throughout.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

import numpy as np

from .state import BinaryFrame, atomic_file, id_array, parse_sample_id, sorted_unique_ids

# Clamp applied inside logarithms. Exact zeros still contribute exactly 0
# to entropies via the 0 * log 0 convention.
LOG_EPS = 1e-12

# Probability vectors must sum to 1 within this tolerance.
SUM_TOL = 1e-6

# Mutual information more negative than this signals a real bug instead of
# floating-point cancellation; anything in (-MI_CLAMP, 0) is clamped to 0.
MI_CLAMP = 1e-9

# Pool passes (prediction, validation, scoring, votes, consensus) walk the
# samples in row_blocks of this many rows, each as member-major float32 groups
# reduced while in cache, so a pass holds one group and O(BLOCK_ROWS * (E + K))
# float64 values whatever the pool size, never a float64 (rows, E, K) block.
BLOCK_ROWS = 2048

# values per member group (1 MiB of float32): every walk takes a block's members
# in groups this small, so a group and its float64 entropy terms stay in cache
GROUP_VALUES = 1 << 18

FUNCTION_IDS = ("entropy", "mutual_information", "variation_ratios", "error_count", "random")

# Functions applicable to detection heatmaps (no labels, no randomness).
DETECTION_FUNCTION_IDS = ("entropy", "mutual_information", "variation_ratios")


def row_blocks(n: int):
    """Yield each run of at most ``BLOCK_ROWS`` of ``n`` samples as a slice. An
    empty source yields one empty slice, so per-block checks still run."""
    for lo in range(0, max(n, 1), BLOCK_ROWS):
        yield slice(lo, min(lo + BLOCK_ROWS, n))


def _group_size(n_rows: int, n_classes: int) -> int:
    """Members per group of an ``n_rows``-row block: as many as fit in GROUP_VALUES, at least one."""
    return max(1, GROUP_VALUES // max(1, n_rows * n_classes))


def _member_groups(block: np.ndarray) -> list[np.ndarray]:
    """A (c, E, K) block's members as member-major (E_g, c, K) views of it,
    in order, each of :func:`_group_size` members but the last."""
    size = _group_size(len(block), block.shape[2])
    return [block[:, lo : lo + size].swapaxes(0, 1) for lo in range(0, block.shape[1], size)]


def _check_rows(probs: np.ndarray) -> np.ndarray:
    """Validate an array whose last axis holds probability vectors, float32 or
    float64; the row sums are float64."""
    if probs.shape[-1] < 1:
        raise ValueError("invalid distribution: no classes")
    # min and max propagate NaN, so one test covers both conditions
    if not (probs.min(initial=0.0) >= 0.0 and probs.max(initial=1.0) <= 1.0):
        if not np.all(np.isfinite(probs)):
            raise ValueError("invalid distribution: non-finite entries")
        raise ValueError("invalid distribution: entries outside [0, 1]")
    # float64 column adds, with no float64 copy of float32 rows; order does not matter at SUM_TOL
    sums = np.add(probs[..., 0], 0.0, dtype=np.float64)
    for j in range(1, probs.shape[-1]):
        sums += probs[..., j]
    if np.any(np.abs(sums - 1.0) > SUM_TOL):
        raise ValueError("invalid distribution: rows must sum to 1 within %g" % SUM_TOL)
    return probs


def _unique_ids(sample_ids) -> np.ndarray:
    """Sample ids as a contiguous uint64 array, refused when any repeats."""
    sample_ids = np.ascontiguousarray(id_array(sample_ids))
    sorted_unique_ids(sample_ids, "sample_ids must be unique")
    return sample_ids


# Class-axis kernels: numpy's reductions over a short last axis cost more per
# row than their adds, so these run one whole-array operation per column or
# member, in the order numpy adds, and give its bytes.
def _row_max(values: np.ndarray) -> np.ndarray:
    """Each row's largest entry, as ``max(axis=-1, keepdims=True)`` gives it:
    both propagate NaN and give equal values; only the sign of a zero maximum
    may differ, which no softmax shows: ``x - 0.0`` equals ``x - -0.0`` for
    every x but -0.0, whose exp is 1 either way."""
    top = values[..., 0].copy()
    for j in range(1, values.shape[-1]):
        np.maximum(top, values[..., j], out=top)
    return top[..., None]


def _row_sum(values: np.ndarray) -> np.ndarray:
    """Each row's sum, the bytes of ``sum(axis=-1, keepdims=True)`` but for a
    NaN's sign. Onto +0.0 numpy adds a row shorter than 8 in order; one of 8
    to 128 as 8 partial sums over runs of 8, added as a tree, then the rest in
    order, as this does a column at a time; a longer one in halves, so its own
    reduction runs."""
    k = values.shape[-1]
    if k > 128:
        return values.sum(axis=-1, keepdims=True)
    if k < 8:
        total, done = values[..., :1] + 0.0, 1
    else:
        parts = [values[..., j : j + 1] for j in range(8)]
        for lo in range(8, k - k % 8, 8):
            parts = [p + values[..., lo + j : lo + j + 1] for j, p in enumerate(parts)]
        while len(parts) > 1:
            parts = [a + b for a, b in zip(parts[::2], parts[1::2])]
        total, done = parts[0] + 0.0, k - k % 8
    for j in range(done, k):
        total += values[..., j : j + 1]
    return total


def _vote_counts(votes: np.ndarray, n_classes: int) -> np.ndarray:
    """The (..., K) count of each class among each row's (..., E) member
    votes, from one ``np.bincount`` of ``row * K + vote``."""
    flat = votes.reshape(-1, votes.shape[-1])
    cells = flat + n_classes * np.arange(len(flat))[:, None]
    counts = np.bincount(cells.ravel(), minlength=len(flat) * n_classes)
    return counts.reshape(*votes.shape[:-1], n_classes)


def _entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Entropy in nats along the last axis, with 0 * log 0 = +0, in float64."""
    terms = np.maximum(probs, LOG_EPS, dtype=np.float64)
    np.log(terms, out=terms)
    terms *= probs
    np.copyto(terms, 0.0, where=probs <= 0.0)
    return -_row_sum(terms)[..., 0]


def _clamp_mutual_information(values: np.ndarray) -> np.ndarray:
    if np.any(values < -MI_CLAMP):
        raise ValueError(
            "mutual information below -%g; member rows are inconsistent" % MI_CLAMP
        )
    return np.maximum(values, 0.0)


def _check_labels(labels, shape, n_classes: int) -> np.ndarray:
    """``error_count``'s true class indices, refused when missing, of another
    shape than ``shape`` or outside [0, n_classes)."""
    if labels is None:
        raise ValueError("error_count scoring requires labels")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != shape:
        raise ValueError("labels length must match the sample axis")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError("labels out of range [0, %d)" % n_classes)
    return labels


def _reduce_block(groups, shape, function_id=None, labels=None, mean=False, votes=False,
                  order="C"):
    """``(scores, mean, votes)`` of one block of ``shape`` (c, E, K) from its
    member-major (E_g, c, K) float32 or float64 groups, members in order, each
    reduced in float64 while in cache: into a member sum added in member order
    onto +0.0, member entropies (c, E) in ``order`` for ``mutual_information``
    and member votes (c, E), argmax ties toward the lowest class. The scores of
    ``function_id`` (None for none; ``labels`` holds ``error_count``'s checked
    classes) come from them; the mean and votes come back if used, else None."""
    n_rows, n_members, n_classes = shape
    mean = mean or function_id in ("entropy", "mutual_information")
    votes = votes or function_id in ("variation_ratios", "error_count")
    total = np.zeros((n_rows, n_classes)) if mean else None
    spread = np.empty(shape[:2], order=order) if function_id == "mutual_information" else None
    member_votes = np.empty(shape[:2], np.intp) if votes else None
    lo = 0
    for group in groups:
        for p in group if mean else ():
            total += p
        if spread is not None:
            spread[:, lo : lo + len(group)] = _entropy_rows(group).T
        if votes:
            member_votes[:, lo : lo + len(group)] = np.argmax(group, axis=-1).T
        lo += len(group)
    if mean:
        total /= n_members
    scores = None
    if function_id in ("entropy", "mutual_information"):
        scores = _entropy_rows(total)
        if spread is not None:
            scores = _clamp_mutual_information(scores - spread.mean(axis=-1))
    elif function_id == "variation_ratios":
        scores = 1.0 - _row_max(_vote_counts(member_votes, n_classes))[..., 0] / n_members
    elif function_id == "error_count":
        scores = 1.0 - (member_votes == labels[..., None]).sum(axis=-1) / n_members
    return scores, total, member_votes


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
        if self.data.shape[1] < 1:
            raise ValueError("empty ensemble")
        if self.sample_ids.shape != (self.data.shape[0],):
            raise ValueError("sample_ids length must match the sample axis")
        _unique_ids(self.sample_ids)
        for rows in row_blocks(self.n_samples):
            _check_rows(self.data[rows])

    @classmethod
    def gather(cls, source) -> "PredictionTensor":
        """The one way to build a tensor from a block source (a
        ``learner.PoolBlocks``, a :class:`TensorFile` or a tensor): its member
        groups copied into one contiguous float32 (N, E, K) array. The source
        checked each block and its ids, so nothing is checked again."""
        data = np.empty((source.n_samples, source.n_members, source.n_classes), np.float32)
        for rows, groups in source.blocks():
            lo = 0
            for group in groups:
                data[rows, lo : lo + len(group)] = group.swapaxes(0, 1)
                lo += len(group)
        tensor = cls.__new__(cls)
        tensor.data, tensor.sample_ids = data, source.sample_ids
        return tensor

    def blocks(self):
        """Yield ``(rows, groups)`` for each :func:`row_blocks` run of the
        tensor: the rows, and their :func:`_member_groups`, views of the tensor."""
        for rows in row_blocks(self.n_samples):
            yield rows, _member_groups(self.data[rows])

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
        source: a :class:`PredictionTensor`, a :class:`TensorFile` or a
            ``learner.PoolBlocks``;
            anything with ``n_samples``, ``n_members``, ``n_classes``,
            ``sample_ids`` and a ``blocks()`` that yields, for row slices that
            cover the samples, ``(rows, groups)``: member-major (E_g, c, K)
            probability groups that hold every member in order.
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
    if function_id == "error_count":
        labels = _check_labels(labels, (n,), source.n_classes)
    else:
        labels = None  # only error_count reads labels
    scored = function_id not in (None, "random")
    scores = np.empty(n) if scored else None
    fused = np.empty(n, dtype=np.int64) if votes else None
    for rows, groups in source.blocks():
        shape = (rows.stop - rows.start, source.n_members, source.n_classes)
        block_labels = None if labels is None else labels[rows]
        # one member mean per block serves both the entropies and the votes
        block_scores, mean, _ = _reduce_block(groups, shape, function_id, block_labels, mean=votes)
        if scored:
            scores[rows] = block_scores
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
    # one member-major (E, cells, 2) group; the member entropies keep members
    # outermost in memory, so their mean adds in member order as it always has
    binary = np.stack([stack, 1.0 - stack], axis=-1).reshape(len(stack), -1, 2)
    scores = _reduce_block([binary], (binary.shape[1], len(stack), 2), function_id, order="F")[0]
    return scores.reshape(stack.shape[1:])


# ---------------------------------------------------------------------------
# Prediction tensor files
# ---------------------------------------------------------------------------

_ALPT = BinaryFrame(b"ALPT", "III", "prediction tensor", "sample ids")


def write_prediction_tensor(path, tensor: PredictionTensor) -> None:
    """Write a tensor as an ``.alpt`` file: header fields N, E, K, then N*E*K
    float32 in (sample, member, class) order, then N u64 sample ids."""
    with atomic_file(path, binary=True) as fh:
        _ALPT.write(fh, tensor.data.shape, [(tensor.data, "<f4"), (tensor.sample_ids, "<u8")])


class TensorFile:
    """An ``.alpt`` file as a block source, read one row block at a time.

    The constructor checks the frame, the file's size and the sample ids. A
    walk reads each :func:`row_blocks` run into one reused (BLOCK_ROWS, E, K)
    float32 buffer and checks it before any reduction, so it holds
    O(BLOCK_ROWS * E * K) values; rows cut off after the constructor ran are
    refused when the walk reaches them.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            (n, self.n_members, self.n_classes), (self._data, ids) = _ALPT.check(fh, lambda n, e, k: [
                ((n, e, k), "<f4", "truncated prediction tensor data"),
                ((n,), "<u8", "truncated sample id block"),
            ])
            if self.n_members < 1:
                raise ValueError("empty ensemble")
            offset, shape, dtype, message = ids
            ids = np.empty(shape, dtype)
            fh.seek(offset)
            if fh.readinto(ids) != ids.nbytes:
                raise ValueError(message)
        self.sample_ids, self.n_samples = _unique_ids(ids), n

    def blocks(self):
        """Yield ``(rows, groups)`` for each :func:`row_blocks` run of the
        file: the rows, and the :func:`_member_groups` of their checked block,
        read into the one buffer that the next block overwrites."""
        offset, (n, e, k), dtype, message = self._data
        buffer = np.empty((min(n, BLOCK_ROWS), e, k), dtype)
        with open(self.path, "rb") as fh:  # closed however the walk ends
            fh.seek(offset)
            for rows in row_blocks(n):
                block = buffer[: rows.stop - rows.start]
                if fh.readinto(block) != block.nbytes:
                    raise ValueError(message)
                yield rows, _member_groups(_check_rows(block))


def read_prediction_tensor(path) -> PredictionTensor:
    """The whole ``.alpt`` file as a tensor, gathered from a :class:`TensorFile`."""
    return PredictionTensor.gather(TensorFile(path))


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
        # each (sample, member) keeps its row's index into one float32 buffer,
        # not a list of floats per row
        rows: dict[tuple[int, int], int] = {}
        values = array("f")
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
                values.extend([float(v) for v in row[2:]])
                rows[(sid, member)] = len(rows)
            except ValueError as exc:
                raise ValueError("line %d: %s" % (reader.line_num, exc)) from None
    if not rows:
        raise ValueError("empty prediction tensor CSV")
    order = list(dict.fromkeys(sid for sid, _ in rows))  # in order of first appearance
    n_members = max(member for _, member in rows) + 1
    if len(rows) < len(order) * n_members:  # a hole, named before any grid-sized array
        hole = next((sid, e) for sid in order for e in range(n_members) if (sid, e) not in rows)
        raise ValueError("missing row for sample %d member %d" % hole)
    index = np.fromiter((rows[(sid, e)] for sid in order for e in range(n_members)), np.intp, len(rows))
    del rows  # freed before the gather allocates the tensor
    data = np.frombuffer(values, np.float32).reshape(-1, n_classes)[index.reshape(len(order), n_members)]
    return PredictionTensor(data, np.asarray(order, dtype=np.uint64))
