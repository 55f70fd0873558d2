"""Online learners as one state model and one batched round kernel.

A learner's state is one array: each expert's mistake count. Its version
space (the hypotheses consistent with every example so far) is the experts
with none. Its prediction is a function of that state and the instance:

- consistent: the label of the lowest surviving hypothesis;
- halving: the majority vote of the survivors (ties by `tie_break`);
- soa: the label all survivors give, if they agree; else the label whose
  restriction keeps the larger Littlestone dimension, read from the class's
  one Ldim memo (ties go to 1);
- wm: P(predict 1) = the weight mass on 1, weights exp(-eta * mistakes);
- wm_consistent, wm_halving, wm_soa: the engine while the version space is
  non-empty, then wm on the same mistake counts.

A version-space baseline raises WrongPhase only when it must predict with
an empty space (the sequence is not realizable); a space that empties in
the final round raises nothing. Analytic mode, ANALYTIC (None), accumulates
the exact per-round mistake probability, so expectations over permutation
streams need no Monte Carlo sampling; sampled mode draws the answers from a
seeded generator, one generator per ordering, through one routine,
`sample_mistakes`.

`_batch_p_one` advances many orderings of one sequence together, one round
at a time, for several learners at once. No prediction changes the experts'
mistake counts, so every learner has the same version space each round and
switches in the same round: the counts, the space and each distinct wm rate
are computed once per round and shared. The loop runs the rounds off blank
columns, columns no hypothesis labels 1, plus each ordering's first blank
round labeled 1, which must run because it empties the version space; every
learner predicts 0 on a blank column. Mistake counts are integers,
so the wm weights come from one table of exp(-eta * k) over the integer gaps
k <= t above each row's fewest mistakes, with no exp per round. `run_batch_many`
gives per-ordering totals of each learner over blocks of orderings, (B, T)
position arrays such as `PermutationStream.blocks()` yields. In sampled
mode every learner reads the same draws of each ordering, and shares the
first learner's mistake tally wherever their P(predict 1) agree, as a hybrid
past its switch and wm do; `run` is the one-learner, one-ordering case that
keeps the per-round record.
`run_exhaustive_many` gives each learner's mean and maxima over every ordering
of an exhaustive stream as exact sums over one table of predictions, one per
(prefix type counts, next example type), whose last digit may differ from a
per-ordering average; only sampled mode reads each ordering out of it. Its
maxima walk the table's states in level order (by prefix length), so each
level is one contiguous slice and one max-plus step. All of them predict
through one row rule, `_row_rule`. Every total holds each
ordering's exact expected mistakes beside what the mode gives. A round is
randomized iff 0 < P(predict 1) < 1, and a learner iff some round is.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .errors import WrongPhase
from .hypotheses import FiniteHypothesisClass, Sequence, bitmasks
# Not called here: kept as the attribute perfbench/spans.py wraps as `learners.restrict`.
from .hypotheses import restrict  # noqa: F401
from .ldim import LdimComputer
from . import sequences
from .sequences import PermutationStream

BASELINE_KINDS = ("consistent", "halving", "soa")
HYBRID_KINDS = ("wm_consistent", "wm_halving", "wm_soa")
LEARNER_KINDS = BASELINE_KINDS + ("wm",) + HYBRID_KINDS

ETA_VARIANTS = ("sqrt8", "sqrt2")
TIE_BREAKS = ("one", "zero", "random")


def eta_for(d: int, T: int, variant: str = "sqrt8") -> float:
    """Learning rate for d experts over horizon T.

    sqrt8 is the rate the regret analysis is tuned for; sqrt2 is the
    alternative initialization kept selectable for comparison runs.
    """
    if variant not in ETA_VARIANTS:
        raise ValueError(f"eta variant must be one of {ETA_VARIANTS}, got {variant!r}")
    if d <= 1 or T <= 0:
        return 0.0
    factor = 8.0 if variant == "sqrt8" else 2.0
    return math.sqrt(factor * math.log(d) / T)


@dataclass(frozen=True)
class LearnerConfig:
    """Which learner to run and how its free parameters are set."""

    kind: str
    eta_variant: str = "sqrt8"
    tie_break: str = "one"

    def __post_init__(self) -> None:
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.eta_variant not in ETA_VARIANTS:
            raise ValueError(f"unknown eta variant {self.eta_variant!r}")
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"unknown tie break {self.tie_break!r}")


@dataclass(frozen=True)
class Sampled:
    """Draw predictions from Bernoulli(p_one); `trials` independent passes."""

    seed: int | tuple[int, ...]
    trials: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


# i!, and C(m, c) at m * _FACTORIAL.size + c, for i, m, c <= EXHAUSTIVE_T_CAP: the ordering counts
# `run_exhaustive_many` reads
_FACTORIAL = np.array([math.factorial(i) for i in range(sequences.EXHAUSTIVE_T_CAP + 1)], dtype=np.int64)
_BINOMIAL = np.array([math.comb(m, c) for m in range(_FACTORIAL.size) for c in range(_FACTORIAL.size)], np.int64)

ANALYTIC = None  # the default mode: exact per-round mistake probabilities, no randomness

DRAW_BLOCK = 1 << 16  # uniform draws held in memory at once by `sample_mistakes`


def sample_mistakes(
    seeds: list[int | tuple[int, ...]],
    trials: int,
    p_one: np.ndarray,
    truth: np.ndarray,
    totals: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(most mistakes in one pass, mistake frequency per round) of sampled passes.

    p_one, (L, B, T), is each learner's P(predict 1) per round of B orderings
    with true labels truth, (B, T). Ordering b draws its `trials` passes from
    default_rng(seeds[b]), and every learner reads the same draws. A block of
    at most DRAW_BLOCK draws, filled in place, holds the passes of
    consecutive orderings or part of one ordering's passes (at least one
    pass); the generator fills sequentially, so the result equals one
    (trials, T) draw per ordering. The results are (L, B) and (L, B, T)
    arrays, so memory does not grow with `trials`. With totals=True the
    second is each ordering's sum of its rounds' frequencies, (L, B), and no
    (L, B, T) array is held: the expected mistakes `_totals` reads.

    Each block is compared with learner 0's P(1) once. Another learner
    shares that tally and recounts only the (ordering, round) cells where its
    P(1) differs, all orderings of the block at once: a hybrid differs from
    wm only in its engine's rounds. A learner that differs in over a fifth
    of the cells is compared in full, which is then cheaper. Counts are
    summed as uint16 where they cannot reach 2^16: a pass's mistakes are at
    most T, a round's at most the block's passes.
    """
    L, B, T = p_one.shape
    rows = max(1, DRAW_BLOCK // max(T, 1))  # passes a block holds
    passes = min(rows, trials)
    orderings = max(1, rows // trials)
    draws = np.empty((min(orderings, B), passes, T))
    shared = np.empty(draws.shape, dtype=bool)  # learner 0's mistakes on a block
    pass_sum, round_sum = (np.uint16 if n < 1 << 16 else np.int64 for n in (T, passes))
    most = np.zeros((L, B), dtype=np.int64)
    freq = np.empty((L, B) if totals else (L, B, T))
    if not L:  # no learner reads the draws
        return most, freq

    def tally(block, p_l, ys, out=None):  # (mistake bits, their sums per pass (O, passes) and per round (O, T))
        bits = np.not_equal(np.less(block, p_l[:, None], out=out), ys[:, None], out=out).view(np.uint8)
        return bits, np.add.reduce(bits, axis=2, dtype=pass_sum), np.add.reduce(bits, axis=1, dtype=round_sum)

    for start in range(0, B, orderings):
        stop = min(start + orderings, B)
        p, ys = p_one[:, start:stop], truth[start:stop]
        cells = [np.nonzero(p[l] != p[0]) for l in range(L)]  # (ordering, round) where l's P(1) differs
        counts = np.zeros((L, stop - start, T))  # mistakes per round, integers until the division
        rngs = [np.random.default_rng(seed) for seed in seeds[start:stop]]
        for first in range(0, trials, passes):
            block = draws[: stop - start, : min(first + passes, trials) - first]
            for rng, out in zip(rngs, block):
                rng.random(out=out)
            base, base_pass, base_round = tally(block, p[0], ys, shared[: len(block), : block.shape[1]])
            for l, (o, t) in enumerate(cells):
                per_pass, per_round = base_pass, base_round
                if 5 * len(o) > p[l].size:
                    per_pass, per_round = tally(block, p[l], ys)[1:]
                elif len(o):
                    delta = ((block[o, :, t] < p[l, o, t, None]) != ys[o, t, None]).view(np.int8) - base[o, :, t]
                    owners, firsts = np.unique(o, return_index=True)
                    per_pass = per_pass.astype(np.int64)
                    per_pass[owners] += np.add.reduceat(delta, firsts, axis=0, dtype=np.int64)
                    counts[l, o, t] += delta.sum(axis=1)
                np.maximum(most[l, start:stop], per_pass.max(axis=1), out=most[l, start:stop])
                counts[l] += per_round
        counts /= trials
        freq[:, start:stop] = counts.sum(axis=2) if totals else counts
    return most, freq


@dataclass(frozen=True)
class RoundRecord:
    x: int
    y: int
    p_one: float
    randomized: bool
    mistake_prob: float


@dataclass
class RunTrace:
    """Per-round record of one learner pass plus aggregate totals.

    switch_round is the round in which a hybrid's version space emptied, and
    None for other learners or a space that never empties; max_mistakes_sampled
    is the most mistakes in one sampled pass, and None in analytic mode.
    """

    rounds: list[RoundRecord]
    expected_mistakes: float
    deterministic_mistakes: int
    randomized_rounds: int = 0
    switch_round: int | None = None
    max_mistakes_sampled: int | None = None

    def to_jsonl(self) -> str:
        """One JSON object per round; its keys are RoundRecord's fields."""
        return "".join(json.dumps(asdict(r)) + "\n" for r in self.rounds)


def run(
    config: LearnerConfig,
    cls: FiniteHypothesisClass,
    seq: Sequence | Iterable[tuple[int, int]],
    mode: Sampled | None = ANALYTIC,
    collect_rounds: bool = True,
) -> RunTrace:
    """Drive one learner over one sequence: the one-ordering case of the batched kernel.

    Analytic mode is deterministic: each round contributes its exact mistake
    probability. Sampled mode replays the same per-round prediction
    probabilities through a seeded generator; learner state never depends on
    the learner's own predictions, so the probabilities are shared across
    trials. It gives each round's mistake frequency over the passes and the
    most mistakes in one pass. A round is randomized iff 0 < P(predict 1) < 1;
    the other rounds read the same in both modes. A hybrid whose version
    space empties reports switch_round, the round it emptied in, the last
    its engine predicted.
    """
    cols, truth = cls.resolve(seq)
    p_ones, switch = _batch_p_one((config,), cls, cols[None], truth[None])
    p_ones, switch = p_ones[0, 0], int(switch[0])
    randomized = (0.0 < p_ones) & (p_ones < 1.0)

    analytic_probs = np.where(truth, 1.0 - p_ones, p_ones)
    round_probs, most = analytic_probs, None
    if isinstance(mode, Sampled):
        most, round_probs = sample_mistakes([mode.seed], mode.trials, p_ones[None, None], truth[None])
        most, round_probs = int(most[0, 0]), round_probs[0, 0]

    deterministic = int(analytic_probs[~randomized].sum())
    rounds: list[RoundRecord] = []
    if collect_rounds:
        rounds = [
            RoundRecord(cls.domain[j], int(y), float(p), bool(r), float(mp))
            for j, y, p, r, mp in zip(cols.tolist(), truth, p_ones, randomized, round_probs)
        ]
    return RunTrace(
        rounds=rounds,
        expected_mistakes=float(round_probs.sum()),
        deterministic_mistakes=deterministic,
        randomized_rounds=int(randomized.sum()),
        switch_round=switch if switch and config.kind in HYBRID_KINDS else None,
        max_mistakes_sampled=most,
    )


def run_batch_many(
    configs: tuple[LearnerConfig, ...],
    cls: FiniteHypothesisClass,
    base: Sequence,
    blocks: Iterable[np.ndarray],
    mode: Sampled | None = ANALYTIC,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-ordering totals of each of the distinct `configs`, from one pass over blocks of orderings.

    Each block is a (B, T) int array whose rows are orderings, positions into
    `base`; a block whose rows are not all permutations of range(T) raises
    ValueError before any round of it. Each ordering's totals are what `run`
    gives on the reordered sequence: returns (expected mistakes, exact
    expected mistakes, realized maxima -- empty in analytic mode --), each
    (L, orderings), and whether each learner randomized any prediction, (L,).
    In sampled mode ordering k draws from mode.seed + (k,). A block goes
    through the round kernel in slices of max(1, BATCH_ORDERINGS // L) rows,
    sequences.BATCH_ORDERINGS read per call, so a slice's L (B, T) arrays of
    P(predict 1) are no larger than one learner's slice of BATCH_ORDERINGS.
    The SOA rule depends only on the version space, so every ordering reads
    the class's one Ldim memo.
    """
    cols, truth = cls.resolve(base)
    T = len(cols)
    size = max(1, sequences.BATCH_ORDERINGS // (len(configs) or 1))

    def batches():
        for block in blocks:
            if block.shape[1:] != (T,) or not (np.sort(block, axis=1) == np.arange(T)).all():
                raise ValueError(f"every ordering must be a permutation of range({T})")
            for start in range(0, len(block), size):
                positions = block[start : start + size]
                ys = truth[positions]
                yield _batch_p_one(configs, cls, cols[positions], ys)[0], ys

    return _totals(batches(), mode, len(configs))


def run_exhaustive_many(
    configs: tuple[LearnerConfig, ...],
    cls: FiniteHypothesisClass,
    stream: PermutationStream,
    mode: Sampled | None = ANALYTIC,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Each learner's statistics over every ordering of an exhaustive stream, (L,) each.

    They are the mean and the maximum of the orderings' expected mistakes, the
    maximum of their exact expectations, whether the learner randomized, and
    the most mistakes in one sampled pass (None in analytic mode).

    A learner sees an example only through its type, the pair (advice column,
    label). So its state after a prefix is fixed by how many examples of each
    type the prefix holds: mistakes = counts @ wrong_of_type. The row rule
    runs once, on every pair (counts c <= n, next type k with c_k < n_k), for
    all the learners. Every such pair is the state and next example of some
    ordering, so WrongPhase and the randomized flags read the whole table.
    With q(c, k) the mistake probability, the mean weights q(c, k) by the
    prod_j C(n_j, c_j) |c|! (n_k - c_k) (T - |c| - 1)! <= T! orderings through
    (c, k) and divides once by T!, and the exact maximum is best(n) in both
    modes, from best(c + e_k) = max best(c) + q(c, k) one level |c| at a time:
    exactly the largest left-to-right sum of an ordering's rounds, as rounding
    is monotone. These exact sums may differ in the last digit from a
    per-ordering mean, and from a per-ordering maximum when T >= 8, where
    numpy sums an ordering's rounds pairwise. Only sampled mode reads each
    ordering's rounds from the table, at the mixed-radix ids of its prefix
    counts, for its draws.

    The states are numbered in mixed radix, type k in units of stride[k]. One
    stable argsort ranks them by level |c|, so a level is a contiguous run of
    ranks and its max-plus step one gather, add and max. The mean still sums
    over the rows in state-id order; its counts come from import-time tables.
    """
    T = stream.base.T
    sequences.check_exhaustive(T)  # before any allocation
    cols, truth = cls.resolve(stream.base)
    advice = cls.advice_of.take(cols, axis=0)  # (T, d): each example's advice
    raw, d = advice.tobytes(), cls.d
    types: dict[tuple[bytes, bool], int] = {}
    type_of = [types.setdefault((raw[t * d : t * d + d], y), len(types)) for t, y in enumerate(truth.tolist())]
    K, L = len(types), len(configs)
    first = [type_of.index(k) for k in range(K)]  # each type's first example
    radix = [type_of.count(k) + 1 for k in range(K)]  # type k's count runs 0 .. n_k
    stride = [math.prod(radix[:k]) for k in range(K)]  # exclusive: type k counts in units of stride[k]
    S = math.prod(radix)
    radix, stride, first = (np.array(v, dtype=np.intp) for v in (radix, stride, first))
    n = radix - 1
    counts = np.arange(S)[:, None] // stride % radix  # (states, types)
    gaps = n - counts  # examples of each type still to come
    state, k = np.nonzero(gaps)  # the table's rows: state c, next type k
    ex = first.take(k)  # the first example of each row's type
    wrong = advice.take(first, axis=0) != truth.take(first)[:, None]  # (types, d)
    mistakes = (counts @ wrong).take(state, axis=0)
    p, _ = _row_rule(configs, cls, T)(mistakes, advice.take(ex, axis=0), cols.take(ex))
    q = np.where(truth.take(ex), 1.0 - p, p)  # the mistake probability
    randomized = ((0.0 < p) & (p < 1.0)).any(axis=1)
    level = counts.sum(axis=1)
    # the states in level order: state s at rank[s], level t at ranks ends[t - 1] .. ends[t] - 1
    order = np.argsort(level, kind="stable")
    rank = np.empty(S, dtype=np.intp)
    rank[order] = np.arange(S)
    ends = np.bincount(level).cumsum().tolist()
    into = np.full((S, K, L), -np.inf)  # q of the round entering the state at rank r by type k
    into[rank.take(state + stride.take(k)), k] = q.T
    before = rank.take(order[:, None] - stride)  # wraps below 0 only where `into` is -inf
    best = np.zeros((S, L))
    for lo, hi in zip(ends, ends[1:]):
        np.maximum.reduce(best.take(before[lo:hi], axis=0) + into[lo:hi], axis=1, out=best[lo:hi])
    if not isinstance(mode, Sampled):
        # the orderings through each row; clip guards only the full state, of level T, which has no row
        prefixes = np.multiply.reduce(_BINOMIAL.take(counts + n * _FACTORIAL.size), axis=1) * _FACTORIAL.take(level)
        through = (prefixes * _FACTORIAL.take(T - 1 - level, mode="clip"))[:, None] * gaps
        return (q * through[state, k]).sum(axis=1) / _FACTORIAL[T], best[-1], best[-1], randomized, None

    table = np.zeros((L, counts.size))  # learner l's p at (state s, type k): table[l, s * K + k]
    table[:, state * K + k] = p
    type_of = np.array(type_of, dtype=np.intp)

    def batches():
        for positions in stream.blocks():
            kinds = type_of[positions]
            steps = stride[kinds]
            # take returns C order, so each ordering's rounds are summed in one contiguous run
            p_one = table.take((np.cumsum(steps, axis=1) - steps) * K + kinds, axis=1)
            yield p_one, truth[positions]

    expected, _, realized, _ = _totals(batches(), mode, L, exact_sums=False)
    return ordering_statistics(expected, best[-1:].T, realized, randomized)


def ordering_statistics(expected, exact, realized, randomized) -> tuple:
    """`run_exhaustive_many`'s five statistics, from `run_batch_many`'s per-ordering arrays."""
    maxima = realized.max(axis=1) if realized.size else None
    return expected.mean(axis=1), expected.max(axis=1), exact.max(axis=1), randomized, maxima


def _totals(
    batches, mode: Sampled | None, L: int, exact_sums: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four per-ordering arrays `run_batch_many` returns, summed from batches.

    Each batch is (p_one, (L, B, T), ys, (B, T)); a learner randomized if
    0 < p_one < 1 in some round of some batch. An ordering's exact
    expectation sums its rounds' mistake probabilities, and is its expected
    mistakes in analytic mode, where the realized maxima are empty. In
    sampled mode ordering k overall draws from mode.seed + (k,), once for all
    the learners, and its expected mistakes add each round's mistake count /
    trials over the rounds. Exhaustive streams come here in sampled mode only,
    with exact_sums=False: `run_exhaustive_many` reads their exact maxima and
    randomized flags off its type table, so these come back empty and False.
    """
    expected, exact, realized = [], [], []
    randomized = np.zeros(L, dtype=bool)
    if isinstance(mode, Sampled):
        seed = tuple(mode.seed) if isinstance(mode.seed, (tuple, list)) else (int(mode.seed),)
    index = 0
    for p_one, ys in batches:
        if exact_sums:
            randomized |= ((0.0 < p_one) & (p_one < 1.0)).any(axis=(1, 2))
            # the rounds' mistake probabilities, one learner's (B, T) temporary at a time
            sums = [np.subtract(1.0, p, out=p.copy(), where=ys).sum(axis=1) for p in p_one]
            exact.append(np.array(sums).reshape(p_one.shape[:2]))
        B = p_one.shape[1]
        if isinstance(mode, Sampled):
            seeds = [seed + (index + k,) for k in range(B)]
            maxima, totals = sample_mistakes(seeds, mode.trials, p_one, ys, totals=True)
            expected.append(totals)
            realized.append(maxima)
        index += B
    exact = np.concatenate(exact, axis=1) if exact else np.empty((L, 0))
    return (
        np.concatenate(expected, axis=1) if expected else exact,
        exact,
        np.concatenate(realized, axis=1) if realized else np.empty((L, 0), dtype=np.int64),
        randomized,
    )


def _batch_p_one(
    configs: tuple[LearnerConfig, ...],
    cls: FiniteHypothesisClass,
    cols: np.ndarray,
    truth: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """P(predict 1) of each learner, (L, B, T), for B orderings at once, and their switch rounds, (B,).

    Row b's state is one row of expert mistake counts, shared by every
    learner, and round t's advice is advice_of[cols[:, t]], one (B, d) array;
    the row rule maps both to the round's predictions. A version space never
    grows, and every learner shares it, so switch[b] is the round, counted
    from 1, in which row b's space empties, or 0 if it never does. A learner
    with an engine predicts by it in the first switch[b] rounds of row b, or
    all T if switch[b] is 0, and by wm in the rest.

    The loop runs the rounds off blank columns (columns no hypothesis labels
    1) plus each row's first blank round labeled 1. That round must run: it
    makes every expert err, so it empties the version space. Every learner
    predicts 0.0 on a blank column, so the rows' other blank rounds are
    skipped: no expert's gap above its row's fewest mistakes moves there.
    The rows order one multiset, so each runs the same K rounds. A space
    empties in the update of its last in-space round, if ever; a baseline
    raises WrongPhase if any space is empty before some round.
    """
    B, T = cols.shape
    p_rows = _row_rule(configs, cls, T)
    advice_of = cls.advice_of
    kept = advice_of.any(axis=1)[cols]
    blank_one = truth & ~kept
    if blank_one.any():  # then every row has one; argmax refuses the empty rows of T = 0
        kept[np.arange(B), blank_one.argmax(axis=1)] = True
    K = int(kept[0].sum())
    pos = np.broadcast_to(np.arange(T, dtype=np.int32), (B, T))[kept].reshape(B, K)  # kept rounds
    kept_cols, kept_truth = cols[kept].reshape(B, K), truth[kept].reshape(B, K)
    mistakes = np.zeros((B, cls.d), dtype=np.int32)  # never above T
    space_rounds = np.zeros(B, dtype=np.int64)
    p_one, rows = np.zeros((len(configs), B, T)), np.arange(B)
    for k in range(K):
        advice = advice_of[kept_cols[:, k]]
        p_one[:, rows, pos[:, k]], in_space = p_rows(mistakes, advice, kept_cols[:, k])
        space_rounds += in_space
        mistakes += advice != kept_truth[:, k, None]
    switch = np.zeros(B, dtype=np.int64)
    emptied = mistakes.min(axis=1) > 0
    switch[emptied] = pos[emptied, space_rounds[emptied] - 1] + 1
    if any(c.kind in BASELINE_KINDS for c in configs) and ((0 < switch) & (switch < T)).any():
        raise WrongPhase("version space is empty; the sequence is not realizable")
    return p_one, switch


def _row_rule(configs: tuple[LearnerConfig, ...], cls: FiniteHypothesisClass, T: int):
    """The distinct learners' predictions on rows, for sequences of length T.

    The returned function maps R rows of (expert mistake counts, advice on
    the row's instance, that instance's column) to (P(predict 1) of each
    learner, (L, R); whether the row's version space -- the experts with no
    mistake -- is non-empty, (R,)). A learner with an engine predicts by it on
    the in-space rows and by wm on the rest; wm has no engine and predicts
    every row. The rows and their spaces are shared, so each distinct
    (engine, tie_break) runs once on the in-space rows and wm once per
    distinct eta variant: on every row if plain wm is among the learners,
    else on the out-of-space rows only. A baseline raises WrongPhase on any
    row whose space is empty.

    Mistake counts are integers and a row's gap above its own minimum is at
    most T, so the wm weights exp(-eta * (m - min m)) are read from the table
    decay[k] = exp(-eta * k), k = 0 .. T, built once per variant here. P(1)
    is S1 / (S1 + S0), the weight on 1 over the weights on 1 and on 0. An
    empty side sums to exactly 0, so a column all experts label alike gives
    exactly 0.0 or 1.0, and S1 <= S1 + S0 in floating point, so P(1) <= 1.
    """
    engines: dict[tuple[str, str], list[int]] = {}
    rates: dict[str, list[int]] = {}
    for i, c in enumerate(configs):
        if c.kind != "wm":
            engines.setdefault((c.kind.removeprefix("wm_"), c.tie_break), []).append(i)
        if c.kind not in BASELINE_KINDS:
            rates.setdefault(c.eta_variant, []).append(i)
    every_row = {c.eta_variant for c in configs if c.kind == "wm"}
    baseline = any(c.kind in BASELINE_KINDS for c in configs)
    computer = LdimComputer(cls) if any(e == "soa" for e, _ in engines) else None
    decays = {v: np.exp(-eta_for(cls.d, T, v) * np.arange(T + 1)) for v in rates}
    vote = np.uint16 if cls.d < 1 << 16 else np.intp  # a vote count is at most d

    def p_rows(mistakes: np.ndarray, advice: np.ndarray, cols: np.ndarray):
        low = np.minimum.reduce(mistakes, axis=1, keepdims=True)
        in_space = low[:, 0] == 0
        inside = np.count_nonzero(in_space)
        all_in, any_in = inside == len(in_space), inside > 0
        if baseline and not all_in:
            raise WrongPhase("version space is empty; the sequence is not realizable")
        p = np.empty((len(configs), len(mistakes)))
        for variant, users in rates.items():
            if all_in and variant not in every_row:
                continue
            rows = np.flatnonzero(~in_space) if any_in and variant not in every_row else slice(None)
            w, row_advice = decays[variant].take(_rows(mistakes, rows) - _rows(low, rows)), _rows(advice, rows)
            ones = np.einsum("ij,ij->i", w, row_advice)
            value = ones / (ones + np.einsum("ij,ij->i", w, ~row_advice))
            for i in users:
                p[i, rows] = value
        if any_in and engines:  # overwrites the wm values of a hybrid's in-space rows
            rows = slice(None) if all_in else np.flatnonzero(in_space)
            space, row_advice, row_cols = _rows(mistakes, rows) == 0, _rows(advice, rows), _rows(cols, rows)
            # each row's survivors voting 1 and its space size, read by halving and soa
            votes = tuple(np.add.reduce(v.view(np.uint8), axis=1, dtype=vote) for v in (space & row_advice, space))
            for (engine, tie_break), users in engines.items():
                value = _engine_p_one(engine, tie_break, cls, space, row_advice, row_cols, votes, computer)
                for i in users:
                    p[i, rows] = value
        return p, in_space

    return p_rows


def _rows(a: np.ndarray, rows: slice | np.ndarray) -> np.ndarray:
    """The rows of `a` at the indices `rows`; all of `a`, uncopied, for the slice of every row."""
    return a if isinstance(rows, slice) else a.take(rows, axis=0)


def _engine_p_one(
    engine: str,
    tie_break: str,
    cls: FiniteHypothesisClass,
    space: np.ndarray,
    advice: np.ndarray,
    cols: np.ndarray,
    votes: tuple[np.ndarray, np.ndarray],
    computer: LdimComputer | None,
) -> np.ndarray:
    """P(predict 1) of a version-space rule on rows whose space (a bool row) is non-empty.

    `votes` is each row's (survivors voting 1, space size), for halving and soa.
    """
    if engine == "consistent":  # the lowest surviving index
        first = space.argmax(axis=1)
        return advice[np.arange(len(first)), first].astype(np.float64)
    ones, size = votes
    if engine == "halving":
        zeros = size - ones
        return np.where(ones == zeros, {"one": 1.0, "zero": 0.0, "random": 0.5}[tie_break], ones > zeros)
    # soa: when the survivors agree, the other side is empty and loses (Ldim
    # -1), so the row predicts their label; only a row whose instance splits
    # its space compares the two sides' Ldim, ties going to 1
    p = (ones > 0).astype(np.float64)
    split = np.flatnonzero((ones > 0) & (ones < size))
    for i, mask in zip(split, bitmasks(space[split])):
        m1 = mask & cls.ones_mask(cols[i])
        p[i] = float(computer.value(m1) >= computer.value(mask ^ m1))
    return p
