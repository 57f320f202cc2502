"""Training-subset bookkeeping shared by the trainer and the search schemes,
the atomic writer every output file goes through, and the binary file frame."""

from __future__ import annotations

import csv
import hashlib
import math
import os
import secrets
import struct
from collections.abc import Mapping, Set
from contextlib import contextmanager, suppress
from functools import cached_property
from types import MappingProxyType

import numpy as np

# rows formatted per write call: bounds the line strings held at once
_WRITE_ROWS = 1024
_FRAME_VERSION = 1


class FieldError(ValueError):
    """A refused value of the dataclass field named ``field``."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def refuse_non_finite_fields(settings) -> None:
    """Refuse a NaN or infinite float field of the dataclass ``settings``, or
    such an entry of a tuple field, with a FieldError naming the field: a
    range check written as a comparison lets NaN through."""
    for name, value in vars(settings).items():
        for number in value if isinstance(value, tuple) else (value,):
            if isinstance(number, (float, np.floating)) and not math.isfinite(number):
                raise FieldError(name, "%s must be finite, got %r" % (name.replace("_", " "), float(number)))


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from integer context parts.

    Mixing goes through numpy's SeedSequence so nearby part tuples give
    unrelated streams.
    """
    cleaned = [int(p) for p in parts]
    return int(np.random.SeedSequence(cleaned).generate_state(1, dtype=np.uint64)[0])


def id_array(ids) -> np.ndarray:
    """Sample ids (a sequence, a set or an array) as a uint64 array; an id
    that is not an integer in [0, 2**64) raises ValueError."""
    if isinstance(ids, Set):
        ids = list(ids)
    values = np.asarray(ids)
    if values.dtype.kind == "u" or values.dtype.kind == "i" and not (values < 0).any():
        return values.astype(np.uint64, copy=False)
    # negative, oversized or fractional ids, which a cast would wrap or truncate
    items = values.tolist() if isinstance(ids, np.ndarray) else ids
    return np.array([parse_sample_id(v) for v in items], dtype=np.uint64)


def parse_sample_id(value) -> int:
    """A sample id cell or number as an int; ValueError unless an integer in
    [0, 2**64)."""
    sid = int(value)
    if sid != value and not isinstance(value, str):
        raise ValueError("sample id %s is not an integer" % value)
    if not 0 <= sid < 2**64:
        raise ValueError("sample id %d outside [0, 2**64)" % sid)
    return sid


def sorted_unique_ids(ids: np.ndarray, message: str) -> np.ndarray:
    """``ids`` sorted ascending; ``ValueError(message)`` when an id repeats."""
    ids = np.sort(ids)
    if np.any(ids[1:] == ids[:-1]):
        raise ValueError(message)
    return ids


class SubsetState:
    """A multiset of pool sample ids, held as two aligned read-only arrays.

    ``ids()`` holds each member id once, ascending (uint64), and ``counts()``
    its repeat count (int64, each >= 1). Plain subsets keep every count at 1;
    duplication-based search increments counts instead of adding new ids.
    """

    def __init__(self, multiplicity: Mapping):
        """Subset from a mapping of sample id to repeat count. An id that is
        not an integer in [0, 2**64), a count below 1 or an id given twice
        raises ValueError."""
        pairs = sorted((parse_sample_id(sid), int(count)) for sid, count in multiplicity.items())
        for sid, count in pairs:
            if count < 1:
                raise ValueError("multiplicity for sample %d must be >= 1" % sid)
        self._hold(*_columns(pairs))
        sorted_unique_ids(self._ids, "duplicate ids in subset initializer")

    def _hold(self, ids: np.ndarray, counts: np.ndarray) -> "SubsetState":
        ids.flags.writeable = counts.flags.writeable = False
        self._ids, self._counts = ids, counts
        return self

    def __getstate__(self):  # the arrays alone: a cached multiplicity view does not pickle
        return {"_ids": self._ids, "_counts": self._counts}

    def __setstate__(self, state):  # unpickled arrays come back writable
        self._hold(state["_ids"], state["_counts"])

    @classmethod
    def from_ids(cls, ids) -> "SubsetState":
        """Subset with multiplicity 1 for each id; a repeated id or one that
        is not an integer in [0, 2**64) raises ValueError."""
        ids = sorted_unique_ids(id_array(ids), "duplicate ids in subset initializer")
        return cls.__new__(cls)._hold(ids, np.ones(len(ids), dtype=np.int64))

    @property
    def unique_count(self) -> int:
        return len(self._ids)

    @property
    def total_count(self) -> int:
        return int(self._counts.sum())

    def ids(self) -> np.ndarray:
        """Unique member ids in ascending order."""
        return self._ids

    def counts(self) -> np.ndarray:
        """Repeat count of each id, aligned with :meth:`ids`."""
        return self._counts

    @cached_property
    def multiplicity(self) -> Mapping:
        """Read-only mapping of sample id to repeat count, for lookups by id."""
        return MappingProxyType(dict(zip(self._ids.tolist(), self._counts.tolist())))

    def as_training_ids(self) -> np.ndarray:
        """Expanded id list with each id repeated by its multiplicity.

        Ordering is ascending by id, so the expansion is deterministic;
        the trainer shuffles per epoch on top of this.
        """
        return np.repeat(self._ids, self._counts)

    def with_new_ids(self, ids) -> "SubsetState":
        """Copy with previously unseen ids added at multiplicity 1."""
        new = id_array(ids)
        grown = self.with_added_copies(new)
        if grown.unique_count != self.unique_count + len(new):
            # the first id, in input order, already present or given before
            repeat = np.ones(len(new), dtype=bool)
            repeat[np.unique(new, return_index=True)[1]] = False
            clash = repeat | np.isin(new, self._ids)
            raise ValueError("sample %d is already in the subset" % new[np.argmax(clash)])
        return grown

    def with_added_copies(self, ids) -> "SubsetState":
        """Copy with one more occurrence of each given id (new ids start at 1)."""
        expansion = np.concatenate([self.as_training_ids(), id_array(ids)])
        return SubsetState.__new__(SubsetState)._hold(*np.unique(expansion, return_counts=True))

    def __eq__(self, other):
        if not isinstance(other, SubsetState):
            return NotImplemented
        return np.array_equal(self._ids, other._ids) and np.array_equal(self._counts, other._counts)

    def __repr__(self) -> str:
        return "SubsetState(ids=%s, counts=%s)" % (self._ids, self._counts)


def _columns(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(id, count) pairs in ascending id order as a uint64 and an int64 array."""
    ids = id_array([sid for sid, _ in pairs])
    return ids, np.asarray([count for _, count in pairs], dtype=np.int64)


@contextmanager
def atomic_file(path, binary: bool = False):
    """Open ``path`` for writing so that it changes only when complete.

    The bytes go to a hidden temporary file in the same directory, which
    ``os.replace`` moves over ``path`` once the block ends without an
    exception; on an exception the temporary file is removed and ``path``
    keeps its old content. Text newlines are written as given.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, ".%s.%s.tmp" % (name, secrets.token_hex(4)))
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class BinaryFrame:
    """The frame of alsift's binary files: a 4-byte magic, a u16 version (1),
    fixed little-endian header fields, then arrays back to back, and no byte
    after them. ``kind`` names the file in each refusal, ``last`` its final
    array in the trailing-byte one."""

    def __init__(self, magic: bytes, fields: str, kind: str, last: str):
        self.magic, self.kind, self.last = magic, kind, last
        self._header = struct.Struct("<4sH" + fields)

    def write(self, fh, fields, arrays) -> None:
        """Write the header holding ``fields``, then each (values, dtype) pair
        of ``arrays`` in C order; contiguous values of ``dtype`` are not copied."""
        fh.write(self._header.pack(self.magic, _FRAME_VERSION, *fields))
        for values, dtype in arrays:
            fh.write(np.ascontiguousarray(values, dtype=dtype))

    def check(self, fh, layout) -> tuple[tuple, list[tuple]]:
        """The header fields of the open file ``fh``, left at the header's end,
        and the (offset, shape, dtype, message) of each array, read from
        nothing but the header and the file's size.

        ``layout(*fields)`` gives each array's (shape, dtype, message), and may
        raise to refuse the header; a file too short for an array raises its
        ``message``, whatever the header claims, and one longer than its arrays
        is refused too.
        """
        raw = fh.read(self._header.size)
        if len(raw) < self._header.size:
            raise ValueError("truncated %s file" % self.kind)
        magic, version, *fields = self._header.unpack(raw)
        if magic != self.magic:
            raise ValueError("not a %s file (bad magic)" % self.kind)
        if version != _FRAME_VERSION:
            raise ValueError("unsupported %s version %d" % (self.kind, version))
        size, offset, arrays = os.fstat(fh.fileno()).st_size, self._header.size, []
        for shape, dtype, message in layout(*fields):
            end = offset + math.prod(shape) * np.dtype(dtype).itemsize
            if end > size:
                raise ValueError(message)
            arrays.append((offset, shape, dtype, message))
            offset = end
        if size > offset:
            raise ValueError("trailing bytes after the %s file's %s" % (self.kind, self.last))
        return tuple(fields), arrays

    def read(self, path, layout) -> tuple[tuple, list[np.ndarray]]:
        """The header fields and arrays of the file at ``path``, which
        :meth:`check` passed before anything is allocated."""
        with open(path, "rb") as fh:
            fields, placed = self.check(fh, layout)
            arrays = []
            for _, shape, dtype, message in placed:
                arrays.append(np.empty(shape, dtype=dtype))
                if fh.readinto(arrays[-1]) != arrays[-1].nbytes:
                    raise ValueError(message)
        return fields, arrays


def write_table_csv(path, header, int_columns, floats=None) -> None:
    """Write integer columns, then optionally an (N, F) float block, atomically.

    Each line holds the integers in decimal, then the floats via ``repr``,
    ending in ``\\r\\n``: byte for byte what ``csv.writer`` writes for these
    cells, none of which needs quoting.
    """
    line = ",".join(["%d"] * len(int_columns) + ["%s"] * (floats is not None)) + "\r\n"
    with atomic_file(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(int_columns[0]), _WRITE_ROWS):
            block = slice(lo, lo + _WRITE_ROWS)
            cells = [np.asarray(column)[block].tolist() for column in int_columns]
            if floats is not None:
                cells.append([",".join(map(repr, row)) for row in floats[block].tolist()])
            fh.writelines([line % row for row in zip(*cells)])


def write_subset_csv(path, state: SubsetState) -> None:
    """Subset table: header ``sample_id,multiplicity``, one row per id, ascending."""
    write_table_csv(path, ["sample_id", "multiplicity"], [state.ids(), state.counts()])


def read_subset_csv(path) -> SubsetState:
    """Read a subset table; a missing or empty multiplicity means 1. A
    header other than ``sample_id[,multiplicity]`` raises ``ValueError``, and
    so does, naming its line, a row longer than the header, a cell that is
    not an integer, a sample id outside [0, 2**64), a multiplicity below 1
    or a repeated id."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if [cell.strip() for cell in header or []] not in (["sample_id"], ["sample_id", "multiplicity"]):
            raise ValueError("expected header sample_id[, multiplicity]")
        pairs, seen = [], set()
        for row in reader:
            if not row:
                continue
            try:
                if len(row) > len(header):
                    raise ValueError(
                        "expected at most %d columns, found %d" % (len(header), len(row))
                    )
                sid = parse_sample_id(row[0])
                mult = int(row[1]) if len(row) > 1 and row[1] else 1
                if mult < 1:
                    raise ValueError("multiplicity for sample %d must be >= 1" % sid)
                if sid in seen:
                    raise ValueError("duplicate sample id %d in subset file" % sid)
            except ValueError as exc:
                raise ValueError("line %d: %s" % (reader.line_num, exc)) from None
            seen.add(sid)
            pairs.append((sid, mult))
    return SubsetState.__new__(SubsetState)._hold(*_columns(sorted(pairs)))


def subset_hash(state: SubsetState) -> str:
    """Stable 16-hex-digit digest of a subset multiset."""
    # "id:count" joined by ";", formatted in one call over interleaved cells
    cells = [0] * (2 * state.unique_count)
    cells[::2], cells[1::2] = state.ids().tolist(), state.counts().tolist()
    payload = ("%d:%d;" * state.unique_count % tuple(cells))[:-1]
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
