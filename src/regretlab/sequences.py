"""Simulation inputs: threshold classes, labeled sequences, permutation streams.

The benchmark domain for horizon T is the T consecutive integers ending at
floor(T/2). Threshold hypothesis i labels x with 0 iff x <= i; indices run
0 .. d-1 so that the all-nonpositive-to-0 labeler is a member of every
generated class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import FactorialCapExceeded
from .hypotheses import FiniteHypothesisClass, Sequence, _integer

EXHAUSTIVE_T_CAP = 9
# orderings held at once: the rows of one block of a stream, which
# `learners.run_batch_many` slices among its learners; bounds memory at
# T = 9 (9! orderings) and for long sampled streams
BATCH_ORDERINGS = 1024

REALIZABLE = "realizable"
UNREALIZABLE = "unrealizable"


@dataclass(frozen=True)
class ExperimentCase:
    """One benchmark configuration: sequence kind, horizon T, class size d."""

    kind: str
    T: int
    d: int

    def __post_init__(self) -> None:
        if self.kind not in (REALIZABLE, UNREALIZABLE):
            raise ValueError(f"kind must be realizable or unrealizable, got {self.kind!r}")
        object.__setattr__(self, "T", _integer(self.T, "T"))
        object.__setattr__(self, "d", _integer(self.d, "d"))
        if self.T < 1:
            raise ValueError("T must be positive")
        if not 1 <= self.d <= self.T:
            raise ValueError(f"d must satisfy 1 <= d <= T, got d={self.d}, T={self.T}")


def make_domain(T: int) -> tuple[int, ...]:
    """The T consecutive integers -T/2 + 1 .. T/2 (floor division for odd T)."""
    if T < 1:
        raise ValueError("T must be positive")
    lo = -T // 2 + 1  # floor semantics: -T // 2 == floor(-T / 2)
    return tuple(range(lo, lo + T))


def make_threshold_class(d: int, domain: tuple[int, ...]) -> FiniteHypothesisClass:
    """Rows h_0 .. h_{d-1} with h_i(x) = 0 iff x <= i."""
    if not 1 <= d <= len(domain):
        raise ValueError(f"d must satisfy 1 <= d <= |domain|, got d={d}, n={len(domain)}")
    advice = np.array(domain)[:, None] > np.arange(d)  # (n, d), the layout the class keeps
    return FiniteHypothesisClass(tuple(domain), advice.T)


def label_sequence(case: ExperimentCase, domain: tuple[int, ...]) -> Sequence:
    """Realizable: labels from the member threshold at 0. Unrealizable: all 1."""
    if case.kind == REALIZABLE:
        examples = tuple((x, 1 if x > 0 else 0) for x in domain)
    else:
        examples = tuple((x, 1) for x in domain)
    return Sequence(examples)


def make_case_inputs(case: ExperimentCase) -> tuple[FiniteHypothesisClass, Sequence]:
    """Build the hypothesis class and base sequence for a benchmark case."""
    domain = make_domain(case.T)
    return make_threshold_class(case.d, domain), label_sequence(case, domain)


@dataclass(frozen=True)
class PermutationStream:
    """A stream of reorderings of one base sequence, read as blocks of positions.

    Exhaustive streams enumerate all T! orderings (lexicographic by original
    position) and are refused above T = EXHAUSTIVE_T_CAP. Sampled streams yield
    `count` independent uniform shuffles: ordering k is the k-th
    `permutation(T)` drawn from `default_rng(seed)`. `seed` is held as a
    non-empty tuple of non-negative ints: an int s becomes (s,), the same stream.
    """

    base: Sequence
    exhaustive: bool = True
    count: int = 0
    seed: int | tuple[int, ...] = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", _integer(self.count, "count"))
        object.__setattr__(self, "seed", _seed(self.seed))
        if not self.exhaustive and self.count < 1:
            raise ValueError("sampled streams need count >= 1")

    def __len__(self) -> int:
        return math.factorial(self.base.T) if self.exhaustive else self.count

    def orders(self) -> Iterator[tuple[int, ...]]:
        """Yield position orderings (indices into the base sequence): the rows of `blocks()`."""
        for block in self.blocks():
            yield from map(tuple, block.tolist())

    def blocks(self) -> Iterator[np.ndarray]:
        """The orderings as (rows, T) intp position arrays, at most BATCH_ORDERINGS rows each.

        A sampled stream fills each row with its next draw. An exhaustive
        stream's rows run in `itertools.permutations(range(T))` order: one
        block per (T - L)-prefix, in lexicographic order, holding that prefix
        followed by every ordering of the remaining positions, read from one
        lexicographic table of the L! orderings of range(L), the largest
        L <= T with L! <= BATCH_ORDERINGS. T above EXHAUSTIVE_T_CAP is refused
        here, when called, before anything is built.
        """
        T = self.base.T
        if not self.exhaustive:
            return _shuffled_blocks(T, self.count, self.seed)
        check_exhaustive(T)
        L = 0
        while L < T and math.factorial(L + 1) <= BATCH_ORDERINGS:
            L += 1
        return _permutation_blocks(T, L)


def _seed(seed) -> tuple[int, ...]:
    """`seed` as a non-empty tuple of non-negative ints; an int s is (s,), from which default_rng draws as from s."""
    ints = tuple(_integer(s, "seed") for s in (seed if isinstance(seed, (tuple, list)) else (seed,)))
    if not ints or min(ints) < 0:
        raise ValueError(f"seed must be a non-negative integer or a non-empty tuple of them, got {seed!r}")
    return ints


def check_exhaustive(T: int) -> None:
    """Refuse an exhaustive stream of T > EXHAUSTIVE_T_CAP rounds, before anything is built."""
    if T > EXHAUSTIVE_T_CAP:
        raise FactorialCapExceeded(f"exhaustive streams need T <= {EXHAUSTIVE_T_CAP}, not {T}; use a sampled stream")


def _shuffled_blocks(T: int, count: int, seed: int | tuple[int, ...]) -> Iterator[np.ndarray]:
    """`count` draws of `permutation(T)` from one `default_rng(seed)`, BATCH_ORDERINGS rows a block."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, BATCH_ORDERINGS):
        rows = min(BATCH_ORDERINGS, count - start)
        # shuffles each row of arange(T) as `permutation(T)` would, in one call
        yield rng.permuted(np.broadcast_to(np.arange(T, dtype=np.intp), (rows, T)), axis=1)


def _permutation_blocks(T: int, L: int) -> Iterator[np.ndarray]:
    """Every ordering of range(T), lexicographically, in blocks of L! sharing a prefix."""
    tails = np.array(list(itertools.permutations(range(L))), dtype=np.intp).reshape(math.factorial(L), L)
    for prefix in itertools.permutations(range(T), T - L):
        block = np.empty((len(tails), T), dtype=np.intp)
        block[:, : T - L] = prefix
        block[:, T - L :] = np.delete(np.arange(T), prefix)[tails]
        yield block
