"""Exact Littlestone dimension over a finite domain, with witness trees.

The dimension of a member set V is computed by the standard recursion:
0 when no domain point splits V into two non-empty parts, otherwise

    max over splitting points x of  1 + min(Ldim(V | x->0), Ldim(V | x->1)).

Member sets are bitmasks. Each class has one record, built on first use,
shared by every reader of the class and dropped with it: the memo of the
values found so far, and the class's splitting columns. Those are the
distinct per-point masks of hypotheses labeling 1, without the empty and the
full mask, which split no member set, each mapped to its lowest column
index. A threshold class over T points has at most d - 1 of them, however
large T is.

For each member set the recursion drops the candidate columns that do not
split it and the ones giving a restriction pair already seen, then tries the
splits most even first, in decreasing order of their smaller side. A query
starts from the class's splitting columns; each child then scans only its
parent's splits, one per distinct restriction pair, because a column that
splits a subset of V also splits V, and two columns that restrict V alike
restrict every subset of V alike. Those candidates keep column order, so
every set tries its splits in the order a full scan would, and the search
and its memo are the same. Since no set of size s admits a shattered tree
deeper than floor(log2 s), a split whose smaller side has s members is worth
at most 1 + floor(log2 s); the search stops when that cannot beat the best
value found, or when the best reaches floor(log2 |V|). Both stops leave every
memo value exact.

The record's third part is a memo by shape, for member sets whose indices
are contiguous, as every version space of a threshold class is. Shifting
such a set down to bit 0 relabels its members in order, so its restricted
class is named by its size and the set of its distinct restriction pairs,
each pair by its numerically smaller side, shifted alike. Equal shapes are
the same class up to complementing columns, which keeps the dimension, so a
range whose shape was solved at another offset takes the stored value after
its candidate scan, without sorting or recursing. Other sets skip it, and so
do sets whose key would hold more than SHAPE_KEY_BITS bits.

The mask memo holds at most LDIM_STATE_CAP values; a query that would store
one more raises LdimCapExceeded, leaving every value already stored exact.

Witness trees walk the same splitting columns in column order, so each node
is the lowest-indexed domain point that supports the remaining depth. They
are stored in heap order: node 1 is the root and the children of node i are
2i (label 0 branch) and 2i+1 (label 1 branch), so the node visited at level t
along labels (y_1, ..., y_{t-1}) has index 2^(t-1) + sum_j y_j 2^(t-1-j).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from weakref import WeakKeyDictionary

from .errors import EmptyVersionSpace, LdimCapExceeded
from .hypotheses import FiniteHypothesisClass, VersionSpace

WITNESS_D_CAP = 20
# values one class's mask memo may hold; over ten times the largest memo a
# paper-scale run or a random p = 0.2, d = 256 class builds
LDIM_STATE_CAP = 1 << 17
# a contiguous set keys the shape memo only if its size times its number of
# restriction pairs is at most this: a key holds that many bits, and a
# threshold class's keys would otherwise grow with the cube of d
SHAPE_KEY_BITS = 1 << 16

# one record per class: (member bitmask -> Ldim, splitting ones-mask -> lowest
# column index, contiguous set's shape -> Ldim); classes hash by identity (eq=False)
_MEMOS: WeakKeyDictionary[FiniteHypothesisClass, tuple[dict, dict, dict]] = WeakKeyDictionary()


def _splitting_columns(cls: FiniteHypothesisClass) -> dict[int, int]:
    """Each distinct ones-mask other than empty and full -> its lowest column, in column order."""
    full = (1 << cls.d) - 1
    splits: dict[int, int] = {}
    for j, ones in enumerate(map(cls.ones_mask, range(cls.n))):
        if 0 < ones < full:
            splits.setdefault(ones, j)
    return splits


@dataclass(frozen=True)
class ShatteredTree:
    """Complete binary instance tree of the given depth, nodes in heap order."""

    depth: int
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("tree depth must be non-negative")
        if len(self.nodes) != (1 << self.depth) - 1:
            raise ValueError(
                f"a depth-{self.depth} tree needs {(1 << self.depth) - 1} nodes, "
                f"got {len(self.nodes)}"
            )


@dataclass(frozen=True)
class LdimResult:
    value: int
    witness: ShatteredTree | None = None


class LdimComputer:
    """Littlestone-dimension evaluator for one hypothesis class.

    A view on the class's one record: every computer of a class reads and
    fills the same memos, keyed on the member bitmask and on the shape of a
    contiguous member set, and walks the same splitting columns; the record
    lives as long as the class does.
    """

    def __init__(self, cls: FiniteHypothesisClass):
        self.cls = cls
        record = _MEMOS.get(cls)
        if record is None:
            record = _MEMOS[cls] = ({}, _splitting_columns(cls), {})
        self._memo, self._splits, self._shapes = record

    def value(self, mask: int) -> int:
        cached = self._memo.get(mask)
        return cached if cached is not None else self._value(mask, self._splits)

    def _value(self, mask: int, candidates) -> int:
        """Ldim of `mask`; `candidates` restrict it as the class's splitting columns do, in column order."""
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        size = mask.bit_count()
        cap = size.bit_length() - 1  # floor(log2 size)
        # one restriction side per distinct split -> size of the smaller side;
        # its keys, in column order, are the candidates of both children
        smaller: dict[int, int] = {}
        for ones in candidates:
            m1 = mask & ones
            if m1 and m1 != mask:
                m0 = mask ^ m1
                ones_count = m1.bit_count()
                # min() of each pair, spelled out: this loop is most of an Ldim query
                smaller[m1 if m1 < m0 else m0] = ones_count if 2 * ones_count <= size else size - ones_count
        shape = best = None
        low = mask & -mask
        if mask & (mask + low) == 0 and size * len(smaller) <= SHAPE_KEY_BITS:  # contiguous members
            shift = low.bit_length() - 1
            shape = (size, frozenset([side >> shift for side in smaller]))
            best = self._shapes.get(shape)
        if best is None:
            best = 0
            for side, small in sorted(smaller.items(), key=itemgetter(1), reverse=True):
                if best >= cap or small.bit_length() <= best:  # 1 + floor(log2 small) <= best
                    break
                best = max(best, 1 + min(self._value(side, smaller), self._value(mask ^ side, smaller)))
            if shape is not None:
                self._shapes[shape] = best
        if len(self._memo) >= LDIM_STATE_CAP:
            raise LdimCapExceeded(f"Ldim search is capped at {LDIM_STATE_CAP} member sets per class")
        self._memo[mask] = best
        return best

    def witness(self, mask: int, depth: int) -> tuple[int, ...]:
        """Nodes of a depth-`depth` tree shattered by the members of `mask`.

        Requires value(mask) >= depth. Each node is the lowest-indexed domain
        point whose two restriction sides both still support the remaining
        depth, which makes the witness deterministic.
        """
        nodes = [0] * ((1 << depth) - 1)
        pending = [(mask, depth, 1)]  # (member set, depth to support, heap index)
        while pending:
            m, k, i = pending.pop()
            if k == 0:
                continue
            for ones, j in self._splits.items():
                m1 = m & ones
                m0 = m ^ m1
                if m1 and m0 and min(self.value(m0), self.value(m1)) >= k - 1:
                    nodes[i - 1] = self.cls.domain[j]
                    pending += [(m0, k - 1, 2 * i), (m1, k - 1, 2 * i + 1)]
                    break
            else:
                raise AssertionError(f"no splitting point supports depth {k}")
        return tuple(nodes)


def ldim(
    cls: FiniteHypothesisClass,
    members: VersionSpace | None = None,
    want_witness: bool = False,
) -> LdimResult:
    """Littlestone dimension of the member set (default: the whole class)."""
    space = members if members is not None else cls.full_space()
    if not space:
        raise EmptyVersionSpace("Ldim of an empty member set is undefined")
    computer = LdimComputer(cls)
    value = computer.value(cls.mask_of(space))
    witness = None
    if want_witness:
        if len(space) > WITNESS_D_CAP:
            raise ValueError(
                f"witness extraction is capped at {WITNESS_D_CAP} members, got {len(space)}"
            )
        witness = ShatteredTree(value, computer.witness(space.mask, value))
    return LdimResult(value, witness)


def ldim_witness_check(
    cls: FiniteHypothesisClass, members: VersionSpace, tree: ShatteredTree
) -> bool:
    """True iff every root-to-leaf labeling of the tree is realized by a member.

    Walks each of the 2^depth labelings through the heap-ordered nodes and
    asks for a surviving hypothesis consistent with the whole path.
    """
    mask = cls.mask_of(members)
    for labels in product((0, 1), repeat=tree.depth):
        alive = mask
        i = 1
        for y in labels:
            j = cls.column_index(tree.nodes[i - 1])
            ones = cls.ones_mask(j)
            alive &= ones if y == 1 else ~ones
            i = 2 * i + y
        if not alive:
            return False
    return True
