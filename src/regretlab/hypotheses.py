"""Finite hypothesis classes over a finite instance domain.

A hypothesis class is a dense d x n binary table: row i holds hypothesis i's
label on each domain point. Version spaces are bitmasks over hypothesis
indices, which keeps consistency filtering and Littlestone-dimension
recursions exact and cheap even at d = 500.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import IndexOutOfRange, UnknownInstance


@dataclass(frozen=True)
class Sequence:
    """An ordered list of labeled examples (x_t, y_t) presented one per round."""

    examples: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for x, y in self.examples:
            if y not in (0, 1):
                raise ValueError(f"label must be 0 or 1, got {y!r}")

    @property
    def T(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.examples)

    def __len__(self) -> int:
        return len(self.examples)

    def to_csv(self) -> str:
        """Render as CSV with columns t, x, y (t starts at 1)."""
        lines = ["t,x,y"]
        lines += [f"{t},{x},{y}" for t, (x, y) in enumerate(self.examples, start=1)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class VersionSpace:
    """Subset of hypothesis indices surviving consistency filtering.

    Stored as an integer bitmask; bit i set means hypothesis i survives.
    May be empty, which is what triggers the hybrid learners' phase switch.
    """

    mask: int
    d: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.d:
            raise IndexOutOfRange(f"mask {self.mask:#x} not within [0, 2^{self.d})")

    @classmethod
    def full(cls, d: int) -> "VersionSpace":
        return cls((1 << d) - 1, d)

    @classmethod
    def of(cls, indices, d: int) -> "VersionSpace":
        mask = 0
        for i in indices:
            if not 0 <= i < d:
                raise IndexOutOfRange(f"hypothesis index {i} not in [0, {d})")
            mask |= 1 << i
        return cls(mask, d)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.d and bool(self.mask >> i & 1)

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.d) if self.mask >> i & 1)

    def min_index(self) -> int:
        """Lowest surviving hypothesis index."""
        if not self.mask:
            raise IndexOutOfRange("empty version space has no members")
        return (self.mask & -self.mask).bit_length() - 1


def bitmasks(rows: np.ndarray) -> list[int]:
    """Each row of a 2-D 0/1 array as an integer bitmask: bit i is column i."""
    packed = np.packbits(np.asarray(rows, dtype=bool), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


@dataclass(frozen=True, eq=False)
class FiniteHypothesisClass:
    """A d x n binary evaluation table over an explicit finite domain."""

    domain: tuple[int, ...]
    table: np.ndarray
    _col: dict[int, int] = field(init=False, repr=False)
    _ones: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        table = np.ascontiguousarray(np.asarray(self.table, dtype=np.int8))
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise ValueError(f"table must be a non-empty 2-D matrix, got shape {table.shape}")
        if table.shape[1] != len(self.domain):
            raise ValueError("table width must equal the domain size")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("domain points must be distinct")
        if not np.isin(table, (0, 1)).all():
            raise ValueError("table entries must be 0 or 1")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "domain", tuple(int(x) for x in self.domain))
        object.__setattr__(self, "_col", {x: j for j, x in enumerate(self.domain)})
        # per-column bitmask of the hypotheses predicting 1
        object.__setattr__(self, "_ones", tuple(bitmasks(table.T)))

    @property
    def d(self) -> int:
        return int(self.table.shape[0])

    @property
    def n(self) -> int:
        return int(self.table.shape[1])

    def column_index(self, x: int) -> int:
        try:
            return self._col[x]
        except KeyError:
            raise UnknownInstance(f"instance {x} is not in the class domain") from None

    def column(self, x: int) -> np.ndarray:
        """Advice vector: every hypothesis's label on x."""
        return self.table[:, self.column_index(x)]

    def ones_mask(self, j: int) -> int:
        return self._ones[j]

    def evaluate(self, i: int, x: int) -> int:
        """Label of hypothesis i on instance x."""
        if not 0 <= i < self.d:
            raise IndexOutOfRange(f"hypothesis index {i} not in [0, {self.d})")
        return int(self.table[i, self.column_index(x)])

    def full_space(self) -> VersionSpace:
        return VersionSpace.full(self.d)

    def to_json(self) -> str:
        return json.dumps({"domain": list(self.domain), "table": self.table.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "FiniteHypothesisClass":
        doc = json.loads(text)
        return cls(tuple(doc["domain"]), np.array(doc["table"], dtype=np.int8))


def restrict(space: VersionSpace, cls: FiniteHypothesisClass, x: int, y: int) -> VersionSpace:
    """Keep only the hypotheses in `space` that label x with y."""
    j = cls.column_index(x)
    ones = cls.ones_mask(j)
    mask = space.mask & ones if y == 1 else space.mask & ~ones
    return VersionSpace(mask, space.d)


def mistake_profile(cls: FiniteHypothesisClass, seq: Sequence) -> np.ndarray:
    """Per-hypothesis total mistakes over the sequence; order-invariant."""
    if seq.T == 0:
        return np.zeros(cls.d, dtype=np.int64)
    cols = np.array([cls.column_index(x) for x, _ in seq], dtype=np.intp)
    ys = np.array([y for _, y in seq], dtype=np.int8)
    return (cls.table[:, cols] != ys).sum(axis=1).astype(np.int64)


def best_mistakes(profile: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Minimum mistake count and all hypothesis indices attaining it."""
    profile = np.asarray(profile)
    if profile.size == 0:
        raise ValueError("mistake profile is empty")
    m = int(profile.min())
    return m, tuple(int(i) for i in np.flatnonzero(profile == m))
