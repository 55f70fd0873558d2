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
from .hypotheses import FiniteHypothesisClass, Sequence

EXHAUSTIVE_T_CAP = 9

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
    xs = np.array(domain)
    table = np.stack([(xs > i).astype(np.int8) for i in range(d)])
    return FiniteHypothesisClass(tuple(domain), table)


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
    """A stream of reorderings of one base sequence.

    Exhaustive streams enumerate all T! orderings (lexicographic by original
    position) and are refused above the factorial cap. Sampled streams yield
    `count` independent uniform shuffles, reproducible from the seed.
    """

    base: Sequence
    exhaustive: bool = True
    count: int = 0
    seed: int | tuple[int, ...] = 0
    factorial_cap: int = EXHAUSTIVE_T_CAP

    def __post_init__(self) -> None:
        if not self.exhaustive and self.count < 1:
            raise ValueError("sampled streams need count >= 1")

    def __len__(self) -> int:
        return math.factorial(self.base.T) if self.exhaustive else self.count

    def orders(self) -> Iterator[tuple[int, ...]]:
        """Yield position orderings (indices into the base sequence)."""
        T = self.base.T
        if self.exhaustive:
            if T > self.factorial_cap:
                raise FactorialCapExceeded(
                    f"exhaustive enumeration needs T <= {self.factorial_cap}, got T={T}"
                )
            yield from itertools.permutations(range(T))
        else:
            rng = np.random.default_rng(self.seed)
            for _ in range(self.count):
                yield tuple(int(i) for i in rng.permutation(T))

