"""Training-subset bookkeeping shared by the trainer and the search schemes."""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field

import numpy as np


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from integer context parts.

    Mixing goes through numpy's SeedSequence so nearby part tuples give
    unrelated streams.
    """
    cleaned = [int(p) for p in parts]
    return int(np.random.SeedSequence(cleaned).generate_state(1, dtype=np.uint64)[0])


@dataclass
class SubsetState:
    """A multiset of pool sample ids.

    ``multiplicity`` maps sample id to a positive repeat count. Plain
    subsets keep every count at 1; duplication-based search increments
    counts instead of adding new ids.
    """

    multiplicity: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for sid, count in self.multiplicity.items():
            sid, count = int(sid), int(count)
            if count < 1:
                raise ValueError("multiplicity for sample %d must be >= 1" % sid)
            cleaned[sid] = count
        self.multiplicity = cleaned

    @classmethod
    def from_ids(cls, ids) -> "SubsetState":
        """Subset with multiplicity 1 for each id; duplicates rejected."""
        ids = [int(i) for i in ids]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ids in subset initializer")
        return cls({sid: 1 for sid in ids})

    @property
    def unique_count(self) -> int:
        return len(self.multiplicity)

    @property
    def total_count(self) -> int:
        return sum(self.multiplicity.values())

    def ids(self) -> np.ndarray:
        """Unique member ids in ascending order."""
        return np.asarray(sorted(self.multiplicity), dtype=np.uint64)

    def as_training_ids(self) -> np.ndarray:
        """Expanded id list with each id repeated by its multiplicity.

        Ordering is ascending by id, so the expansion is deterministic;
        the trainer shuffles per epoch on top of this.
        """
        ids = self.ids()
        return np.repeat(ids, [self.multiplicity[sid] for sid in ids.tolist()])

    def with_new_ids(self, ids) -> "SubsetState":
        """Copy with previously unseen ids added at multiplicity 1."""
        merged = dict(self.multiplicity)
        for sid in ids:
            sid = int(sid)
            if sid in merged:
                raise ValueError("sample %d is already in the subset" % sid)
            merged[sid] = 1
        return SubsetState(merged)

    def with_added_copies(self, ids) -> "SubsetState":
        """Copy with one more occurrence of each given id (new ids start at 1)."""
        merged = dict(self.multiplicity)
        for sid in ids:
            sid = int(sid)
            merged[sid] = merged.get(sid, 0) + 1
        return SubsetState(merged)


def write_subset_csv(path, state: SubsetState) -> None:
    """Subset table: header ``sample_id,multiplicity``, one row per id, ascending."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "multiplicity"])
        writer.writerows(sorted(state.multiplicity.items()))


def read_subset_csv(path) -> SubsetState:
    """Read a subset table; a missing or empty multiplicity means 1. A row
    longer than the header, a cell that is not an integer, a multiplicity
    below 1 or a repeated id raises ``ValueError`` naming the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:1] != ["sample_id"]:
            raise ValueError("expected header sample_id[, multiplicity]")
        counts: dict[int, int] = {}
        for row in reader:
            if not row:
                continue
            try:
                if len(row) > len(header):
                    raise ValueError(
                        "expected at most %d columns, found %d" % (len(header), len(row))
                    )
                sid = int(row[0])
                mult = int(row[1]) if len(row) > 1 and row[1] else 1
                if mult < 1:
                    raise ValueError("multiplicity for sample %d must be >= 1" % sid)
                if sid in counts:
                    raise ValueError("duplicate sample id %d in subset file" % sid)
            except ValueError as exc:
                raise ValueError("line %d: %s" % (reader.line_num, exc)) from None
            counts[sid] = mult
    return SubsetState(counts)


def subset_hash(state: SubsetState) -> str:
    """Stable 16-hex-digit digest of a subset multiset."""
    payload = ";".join(
        "%d:%d" % (sid, state.multiplicity[sid]) for sid in sorted(state.multiplicity)
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
