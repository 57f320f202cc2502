"""Synthetic labeled pools with controlled redundancy and label noise.

Pools are Gaussian cluster mixtures: each class owns a few cluster
centers, and samples scatter around them. Two corruption knobs mimic the
pathologies subset search is supposed to exploit: ``redundancy`` replaces
a fraction of the pool with jittered near-copies of other samples, and
``label_noise`` re-labels a fraction with a wrong class.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np

from .learner import LabeledPool
from .state import FieldError, parse_sample_id, refuse_non_finite_fields, write_table_csv

# jitter applied to near-duplicate copies, relative to the cluster spread
_DUPLICATE_JITTER = 0.01


@dataclass
class GeneratorSpec:
    """Recipe for one synthetic pool.

    ``class_ratios`` skews the per-class sample counts; None means
    balanced. ``center_spread`` scales how far cluster centers sit apart
    relative to the within-cluster standard deviation, which controls how
    hard the problem is.

    ``seed`` fixes the cluster centers (the task). ``sample_seed``, when
    set, drives everything downstream of the centers, so two specs
    sharing a ``seed`` but differing in ``sample_seed`` are fresh draws
    of the same classification problem.
    """

    n_classes: int = 4
    clusters_per_class: int = 2
    samples_per_cluster: int = 50
    n_features: int = 6
    redundancy: float = 0.0
    label_noise: float = 0.0
    class_ratios: tuple[float, ...] | None = None
    cluster_std: float = 1.0
    center_spread: float = 4.0
    seed: int = 0
    sample_seed: int | None = None

    def __post_init__(self):
        if self.class_ratios is not None:
            self.class_ratios = tuple(float(r) for r in self.class_ratios)
        refuse_non_finite_fields(self)
        if self.n_classes < 2:
            raise FieldError("n_classes", "need at least two classes")
        if self.clusters_per_class < 1 or self.samples_per_cluster < 1:
            bad = "clusters_per_class" if self.clusters_per_class < 1 else "samples_per_cluster"
            raise FieldError(bad, "cluster layout must be positive")
        if self.n_features < 1:
            raise FieldError("n_features", "need at least one feature")
        if not 0.0 <= self.redundancy < 1.0:
            raise FieldError("redundancy", "redundancy must be in [0, 1)")
        if not 0.0 <= self.label_noise < 1.0:
            raise FieldError("label_noise", "label noise must be in [0, 1)")
        if self.class_ratios is not None and len(self.class_ratios) != self.n_classes:
            raise FieldError("class_ratios", "class_ratios length must equal n_classes")
        if self.class_ratios is not None and min(self.class_ratios) <= 0.0:
            raise FieldError("class_ratios", "class_ratios must be positive")
        if self.cluster_std <= 0.0 or self.center_spread <= 0.0:
            bad = "cluster_std" if self.cluster_std <= 0.0 else "center_spread"
            raise FieldError(bad, "cluster_std and center_spread must be positive")
        if self.seed < 0:
            raise ValueError("pool.seed must be non-negative, got %d" % self.seed)
        if self.sample_seed is not None and self.sample_seed < 0:
            raise ValueError("sample_seed must be non-negative, got %d" % self.sample_seed)


@dataclass
class PoolMetadata:
    """Ground truth about how each sample was produced.

    ``duplicate_of`` holds the source sample id for jittered copies and -1
    for originals; ``noisy`` flags re-labeled samples; ``true_labels``
    keeps the pre-noise class of every sample.
    """

    duplicate_of: np.ndarray
    noisy: np.ndarray
    true_labels: np.ndarray


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Split ``total`` into integer parts proportional to ``weights``.

    Largest-remainder rounding; remainder ties go to the lower index, so
    the outcome is deterministic.
    """
    weights = np.asarray(weights, dtype=np.float64)
    quotas = weights * (total / weights.sum())
    base = np.floor(quotas).astype(np.int64)
    short = total - int(base.sum())
    if short:
        remainders = quotas - base
        order = np.lexsort((np.arange(len(weights)), -remainders))
        base[order[:short]] += 1
    return base


# features that overflow are refused by LabeledPool ("features must be finite")
@np.errstate(over="ignore", invalid="ignore")
def generate_pool_with_metadata(spec: GeneratorSpec) -> tuple[LabeledPool, PoolMetadata]:
    """Build a pool and the bookkeeping of its corruptions.

    Sample ids are 0..N-1 in generation order: originals first (grouped by
    class, then cluster), jittered copies after them. The same spec always
    produces bit-identical arrays.
    """
    center_rng = np.random.default_rng(spec.seed)
    rng = center_rng
    if spec.sample_seed is not None:
        rng = np.random.default_rng(spec.sample_seed)
    k, c, d = spec.n_classes, spec.clusters_per_class, spec.n_features
    ratios = np.asarray(spec.class_ratios if spec.class_ratios else [1.0] * k)

    centers = center_rng.normal(0.0, spec.center_spread * spec.cluster_std, (k, c, d))

    per_class = np.maximum(
        1, np.round(spec.samples_per_cluster * c * ratios).astype(np.int64)
    )
    total = int(per_class.sum())
    n_dup = int(round(spec.redundancy * total))
    n_orig = total - n_dup

    cell_weights = np.repeat(per_class / c, c)
    cell_counts = _apportion(cell_weights, n_orig)

    features = np.empty((total, d))
    labels = np.empty(total, dtype=np.int64)
    pos = 0
    for cls in range(k):
        for cluster in range(c):
            n = int(cell_counts[cls * c + cluster])
            features[pos : pos + n] = centers[cls, cluster] + rng.normal(
                0.0, spec.cluster_std, (n, d)
            )
            labels[pos : pos + n] = cls
            pos += n

    duplicate_of = np.full(total, -1, dtype=np.int64)
    if n_dup:
        sources = rng.integers(0, n_orig, size=n_dup)
        jitter = rng.normal(0.0, _DUPLICATE_JITTER * spec.cluster_std, (n_dup, d))
        features[n_orig:] = features[sources] + jitter
        labels[n_orig:] = labels[sources]
        duplicate_of[n_orig:] = sources

    true_labels = labels.copy()
    noisy = np.zeros(total, dtype=bool)
    n_noisy = int(round(spec.label_noise * total))
    if n_noisy:
        victims = rng.choice(total, size=n_noisy, replace=False)
        # draw from the K-1 wrong classes uniformly
        offsets = rng.integers(1, k, size=n_noisy)
        labels[victims] = (true_labels[victims] + offsets) % k
        noisy[victims] = True

    pool = LabeledPool(features, labels, np.arange(total, dtype=np.uint64), k)
    return pool, PoolMetadata(duplicate_of, noisy, true_labels)


def generate_pool(spec: GeneratorSpec) -> LabeledPool:
    """Like :func:`generate_pool_with_metadata`, dropping the metadata."""
    return generate_pool_with_metadata(spec)[0]


# ---------------------------------------------------------------------------
# Pool files
# ---------------------------------------------------------------------------


def write_pool_csv(path, pool: LabeledPool) -> None:
    """Header sample_id, label, x_0..x_{D-1}; floats written via repr."""
    write_table_csv(
        path,
        ["sample_id", "label"] + ["x_%d" % i for i in range(pool.n_features)],
        [pool.sample_ids, pool.labels],
        pool.features,
    )


def read_pool_csv(path) -> LabeledPool:
    """Read a pool table; the class count is max(label) + 1.

    One ``np.loadtxt`` call parses the rows. When it refuses them or finds a
    negative label, or when :func:`_needs_row_loop` says so,
    :func:`_read_pool_rows` reads the file row by row instead; that loop
    defines which files load and names the first bad line.
    """
    table = None if _needs_row_loop(path) else _parse_pool_rows(path)
    if table is None:
        return _read_pool_rows(path)
    return _pool_from_columns(table["sample_id"], table["label"], table["x"])


def _pool_width(header) -> int:
    """Feature count named by a pool file's header row."""
    if header is None or header[:2] != ["sample_id", "label"]:
        raise ValueError("expected header sample_id, label, x_0..")
    width = len(header) - 2
    if width < 1:
        raise ValueError("pool file has no feature columns")
    return width


def _parse_pool_rows(path):
    """The rows after the header as one structured array, or None.

    None when ``np.loadtxt`` refuses the rows or warns (no rows), or when a
    label is negative. numpy parses floats with ``PyOS_string_to_double``,
    as ``float()`` does; it refuses quoted cells and underscores, which the
    row loop accepts.
    """
    with open(path, newline="") as fh:
        width = _pool_width(next(csv.reader(fh), None))
        dtype = np.dtype([("sample_id", "<u8"), ("label", "<i8"), ("x", "<f8", (width,))])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    return table if table["label"].min() >= 0 else None


def _needs_row_loop(path) -> bool:
    """Whether the file's bytes hold what only the row loop reads right.

    That is any non-ASCII byte (numpy's integer parser takes some non-ASCII
    letters for digits), one of the characters \\x1c-\\x1f (numpy strips
    them around a number as whitespace; ``int()`` and ``float()`` refuse
    them), or a line longer than the ``csv`` module's field limit (a cell
    of it may be too).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return (
        not data.isascii()
        or any(bytes([c]) in data for c in range(0x1C, 0x20))
        or max(map(len, io.BytesIO(data)), default=0) > csv.field_size_limit()
    )


def _read_pool_rows(path) -> LabeledPool:
    """Read a pool table with the ``csv`` module, one row at a time."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = _pool_width(next(reader, None))
        ids, labels, rows = [], [], []
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != width + 2:
                    raise ValueError("expected %d columns, found %d" % (width + 2, len(row)))
                sample_id, label = parse_sample_id(row[0]), int(row[1])
                rows.append([float(v) for v in row[2:]])
                if label < 0:
                    raise ValueError("negative label %d" % label)
                ids.append(sample_id)
                labels.append(label)
            except ValueError as exc:
                raise ValueError("line %d: %s" % (reader.line_num, exc)) from None
    if not ids:
        raise ValueError("empty pool file")
    return _pool_from_columns(ids, labels, rows)


def _pool_from_columns(ids, labels, features) -> LabeledPool:
    labels = np.asarray(labels, dtype=np.int64)
    return LabeledPool(
        np.asarray(features), labels, np.asarray(ids, dtype=np.uint64), int(labels.max()) + 1
    )


def write_metadata_csv(path, pool: LabeledPool, meta: PoolMetadata) -> None:
    write_table_csv(
        path,
        ["sample_id", "duplicate_of", "noisy", "true_label"],
        [pool.sample_ids, meta.duplicate_of, meta.noisy, meta.true_labels],
    )
