"""Finite hypothesis classes over a finite instance domain.

A hypothesis class is a dense d x n binary table: row i holds hypothesis i's
label on each domain point. A class owns one table-sized array, the read-only
bool (n, d) `advice_of`, copied once from its input; `table` is its int8
(d, n) view. `VersionSpace`, the Littlestone-dimension recursion and SOA's
comparisons hold a version space as a bitmask over hypothesis indices, which
keeps them exact and cheap even at d = 500; the learners' batched kernel
filters on rows of mistake counts instead. A class builds its per-column
bitmasks on first use, so a class that never reaches SOA never builds them.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import IndexOutOfRange, UnknownInstance


@dataclass(frozen=True)
class Sequence:
    """An ordered list of labeled examples (x_t, y_t) presented one per round, held as ints."""

    examples: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        examples = tuple((_integer(x, "an instance"), _label(y)) for x, y in self.examples)
        object.__setattr__(self, "examples", examples)

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


def _label(y) -> int:
    """A label as the int 0 or 1: True and 1.0 are 1; anything else raises ValueError."""
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    return int(y)


def _integer(value, what: str) -> int:
    """`value` as an int, by operator.index: numpy integers pass, 1.0 and "1" raise ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def bitmasks(rows: np.ndarray) -> list[int]:
    """Each row of a 2-D 0/1 array as an integer bitmask: bit i is column i."""
    packed = np.packbits(np.asarray(rows, dtype=bool), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


@dataclass(frozen=True, eq=False)
class FiniteHypothesisClass:
    """A d x n binary evaluation table over an explicit finite domain.

    The class owns one copy of its table, `advice_of`: a C-contiguous,
    read-only bool (n, d) array whose row j is every hypothesis's label on
    column j. `table` is the read-only int8 (d, n) view of the same memory,
    so editing the array passed in leaves the class unchanged.
    """

    domain: tuple[int, ...]
    table: np.ndarray
    advice_of: np.ndarray = field(init=False, repr=False)
    _col: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        table = np.asarray(self.table)  # checked as given: an int8 cast would wrap 257 to 1
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise ValueError(f"table must be a non-empty 2-D matrix, got shape {table.shape}")
        domain = tuple(_integer(x, "a domain point") for x in self.domain)
        if table.shape[1] != len(domain):
            raise ValueError("table width must equal the domain size")
        if len(set(domain)) != len(domain):  # after conversion: True is the point 1
            raise ValueError("domain points must be distinct")
        if table.dtype != bool and not ((table == 0) | (table == 1)).all():
            raise ValueError("table entries must be 0 or 1")
        advice = np.array(table.T, dtype=bool, order="C")
        advice.flags.writeable = False  # shared by every caller
        object.__setattr__(self, "advice_of", advice)
        object.__setattr__(self, "table", advice.T.view(np.int8))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_col", {x: j for j, x in enumerate(domain)})

    @property
    def d(self) -> int:
        return int(self.table.shape[0])

    @property
    def n(self) -> int:
        return int(self.table.shape[1])

    def column_index(self, x: int) -> int:
        """The column of instance x, read after `operator.index` as `Sequence` reads x: 1.0 raises ValueError."""
        try:
            return self._col[_integer(x, "an instance")]
        except KeyError:
            raise UnknownInstance(f"instance {x} is not in the class domain") from None

    def resolve(self, examples) -> tuple[np.ndarray, np.ndarray]:
        """(column index, label == 1) of each example (x, y), as intp and bool arrays.

        Every label, then every instance, is checked before anything is
        returned: a label other than 0 or 1 raises ValueError, and an
        instance `column_index` refuses raises its error.
        """
        examples = tuple(examples)
        truth = np.array([_label(y) for _, y in examples], dtype=bool)
        cols = np.array([self.column_index(x) for x, _ in examples], dtype=np.intp)
        return cols, truth

    def column(self, x: int) -> np.ndarray:
        """Advice vector: every hypothesis's label on x."""
        return self.table[:, self.column_index(x)]

    @cached_property
    def _ones(self) -> tuple[int, ...]:
        """Per-column bitmask of the hypotheses predicting 1, built on the first `ones_mask` call."""
        return tuple(bitmasks(self.advice_of))

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
        if not isinstance(doc, dict) or set(doc) != {"domain", "table"}:
            raise ValueError('a class document must be an object with exactly the keys "domain" and "table"')
        if not isinstance(doc["domain"], list) or not all(type(x) is int for x in doc["domain"]):
            raise ValueError("domain must be a list of integers")
        return cls(tuple(doc["domain"]), doc["table"])


def restrict(space: VersionSpace, cls: FiniteHypothesisClass, x: int, y: int) -> VersionSpace:
    """Keep only the hypotheses in `space` that label x with y."""
    j = cls.column_index(x)
    ones = cls.ones_mask(j)
    mask = space.mask & ones if y == 1 else space.mask & ~ones
    return VersionSpace(mask, space.d)


def mistake_profile(cls: FiniteHypothesisClass, seq: Sequence) -> np.ndarray:
    """Per-hypothesis total mistakes over the sequence, read through `cls.resolve`; order-invariant.

    A hypothesis errs on each 1-label of a column it labels 0 and each
    0-label of a column it labels 1: every 1-label counts, plus, over the
    columns it labels 1, that column's 0-labels less its 1-labels.
    """
    cols, ones = cls.resolve(seq)
    labels = np.bincount(cols, minlength=cls.n)
    ones_at = np.bincount(cols[ones], minlength=cls.n)
    return ones_at.sum() + np.einsum("j,ji->i", labels - 2 * ones_at, cls.advice_of)


def best_mistakes(profile: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Minimum mistake count and all hypothesis indices attaining it."""
    profile = np.asarray(profile)
    if profile.size == 0:
        raise ValueError("mistake profile is empty")
    m = int(profile.min())
    return m, tuple(int(i) for i in np.flatnonzero(profile == m))
