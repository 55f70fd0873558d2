"""Online learners as one state model and one batched round kernel.

A learner's state is one array: each expert's mistake count. Its version
space (the hypotheses consistent with every example so far) is the experts
with none. Its prediction is a function of that state and the instance:

- consistent: the label of the lowest surviving hypothesis;
- halving: the majority vote of the survivors (ties by `tie_break`);
- soa: the label whose restriction keeps the larger Littlestone dimension,
  read from the class's one Ldim memo (ties go to 1; an empty side loses);
- wm: P(predict 1) = the weight mass on 1, weights exp(-eta * mistakes);
- wm_consistent, wm_halving, wm_soa: the engine while the version space is
  non-empty, then wm on the same mistake counts.

The version-space baselines raise WrongPhase once their space empties (the
sequence is not realizable). Analytic mode accumulates the exact per-round
mistake probability, so expectations over permutation streams need no Monte
Carlo sampling; sampled mode draws the answers from a seeded generator and
cross-checks the analytic numbers.

`_batch_p_one` advances many orderings of one sequence together, one round
at a time, for several learners at once. No prediction changes the experts'
mistake counts, so every learner has the same version space each round and
switches in the same round: the counts, the space and each distinct wm rate
are computed once per round and shared. Mistake counts are integers, so the
wm weights come from one table of exp(-eta * k) over the integer gaps k <= t
above each row's fewest mistakes, with no exp per round. `run_batch_many`
gives per-ordering totals of each learner over many orderings, and in sampled
mode every learner reads the same draws of each ordering; `run_batch` is its
one-learner case, and `run` the one-ordering case that keeps the per-round
record. `run_exhaustive_many` gives the same totals over every ordering of an
exhaustive stream from one table of predictions, one per (prefix type counts,
next example type). All of them predict through one row rule, `_row_rule`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from .errors import WrongPhase
from .hypotheses import FiniteHypothesisClass, Sequence, bitmasks, mistake_profile
# Not called here: kept as the attribute perfbench/spans.py wraps as `learners.restrict`.
from .hypotheses import restrict  # noqa: F401
from .ldim import LdimComputer
from .sequences import BATCH_ORDERINGS, PermutationStream

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


def wm_weights(mistakes: np.ndarray, eta: float) -> np.ndarray:
    """Normalized weights exp(-eta * mistakes) along the last axis; shifted for stability.

    The definition; `_batch_p_one` reads the same shifted weights from a table.
    """
    m = np.asarray(mistakes, dtype=np.float64)
    w = np.exp(-eta * (m - m.min(axis=-1, keepdims=True)))
    return w / w.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class Analytic:
    """Accumulate exact per-round mistake probabilities; no randomness."""


@dataclass(frozen=True)
class Sampled:
    """Draw predictions from Bernoulli(p_one); `trials` independent passes."""

    seed: int | tuple[int, ...]
    trials: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


ANALYTIC = Analytic()

SAMPLE_BLOCK_DRAWS = 1 << 20  # uniform draws held in memory at once per sampled pass set


def sample_mistakes(
    seed: int | tuple[int, ...],
    trials: int,
    p_one: np.ndarray,
    truth: np.ndarray,
    keep_trials: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(most mistakes in one pass, mistake frequency per round, mistakes per pass) of each learner's sampled passes.

    Row l of p_one, (L, T), is learner l's P(predict 1) per round. Round t of
    each of `trials` passes predicts 1 with probability p_one[l, t] against
    the true label truth[t]; every learner reads the same draws. Draws are
    made in blocks of at most SAMPLE_BLOCK_DRAWS numbers (at least one pass);
    the generator fills sequentially, so the result equals a single
    (trials, T) draw. The results are (L,), (L, T) and (L, trials) arrays.
    With keep_trials=False the per-trial mistakes are not kept (None), and
    memory does not grow with `trials`.
    """
    L, T = p_one.shape
    rng = np.random.default_rng(seed)
    rows = max(1, SAMPLE_BLOCK_DRAWS // max(T, 1))
    trial_mistakes = np.empty((L, trials), dtype=np.int64) if keep_trials else None
    most = np.zeros(L, dtype=np.int64)
    wrong_per_round = np.zeros((L, T), dtype=np.int64)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        draws = rng.random((stop - start, T))
        for i, p in enumerate(p_one):
            wrong = (draws < p) != truth
            per_trial = wrong.sum(axis=1)
            most[i] = max(most[i], per_trial.max())
            if keep_trials:
                trial_mistakes[i, start:stop] = per_trial
            wrong_per_round[i] += wrong.sum(axis=0)
    return most, wrong_per_round / trials, trial_mistakes


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

    min_mistakes_at_switch is 1 whenever it is set: the expert that was
    consistent through round switch_round - 1 errs exactly once, at round
    switch_round, and no expert is error-free once the space is empty.
    """

    rounds: list[RoundRecord]
    expected_mistakes: float
    deterministic_mistakes: int
    randomized_rounds: int = 0
    switch_round: int | None = None
    min_mistakes_at_switch: int | None = None
    trial_mistakes: np.ndarray | None = None

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "x": r.x,
                    "y": r.y,
                    "p_one": r.p_one,
                    "randomized": r.randomized,
                    "mistake_prob": r.mistake_prob,
                }
            )
            for r in self.rounds
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def run(
    config: LearnerConfig,
    cls: FiniteHypothesisClass,
    seq: Sequence | Iterable[tuple[int, int]],
    mode: Analytic | Sampled = ANALYTIC,
    collect_rounds: bool = True,
) -> RunTrace:
    """Drive one learner over one sequence: the one-ordering case of the batched kernel.

    Analytic mode is deterministic: each round contributes its exact mistake
    probability. Sampled mode replays the same per-round prediction
    probabilities through a seeded generator; learner state never depends on
    the learner's own predictions, so the probabilities are shared across
    trials. Deterministic learners produce identical traces in both modes.
    A hybrid whose version space empties reports switch_round, the number of
    rounds its engine predicted, and the fewest mistakes any expert made in
    them.
    """
    examples = tuple(seq)
    cols, truth = _rounds(cls, examples)
    p_ones, engine_rounds = _batch_p_one((config,), cls, cols[None], truth[None])
    p_ones, engine_rounds = p_ones[0, 0], engine_rounds[0, 0]
    # every wm-phase round is randomized; an engine predicts a label, 0 or 1,
    # or the fair coin 0.5 of a random halving tie
    randomized = (np.arange(len(examples)) >= engine_rounds) | (p_ones == 0.5)

    analytic_probs = np.where(truth, 1.0 - p_ones, p_ones)
    trial_mistakes = None
    if isinstance(mode, Sampled):
        _, round_probs, trial_mistakes = sample_mistakes(mode.seed, mode.trials, p_ones[None], truth)
        round_probs, trial_mistakes = round_probs[0], trial_mistakes[0]
    else:
        round_probs = analytic_probs

    switch_round = min_mistakes_at_switch = None
    # the final counts are the mistake profile whatever the order; none is 0 iff the space emptied
    if config.kind in HYBRID_KINDS and mistake_profile(cls, Sequence(examples)).min() > 0:
        switch_round = int(engine_rounds)
        prefix = Sequence(examples[:switch_round])
        min_mistakes_at_switch = int(mistake_profile(cls, prefix).min())

    deterministic = int(analytic_probs[~randomized].sum())
    rounds: list[RoundRecord] = []
    if collect_rounds:
        rounds = [
            RoundRecord(x, int(y), float(p), bool(r), float(mp))
            for (x, y), p, r, mp in zip(examples, p_ones, randomized, round_probs)
        ]
    return RunTrace(
        rounds=rounds,
        expected_mistakes=float(round_probs.sum()),
        deterministic_mistakes=deterministic,
        randomized_rounds=int(randomized.sum()),
        switch_round=switch_round,
        min_mistakes_at_switch=min_mistakes_at_switch,
        trial_mistakes=trial_mistakes,
    )


def _rounds(cls: FiniteHypothesisClass, examples) -> tuple[np.ndarray, np.ndarray]:
    """(column index, label == 1) of each example; every example is checked before any round."""
    for _, y in examples:
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")
    cols = np.array([cls.column_index(x) for x, _ in examples], dtype=np.intp)
    truth = np.array([y == 1 for _, y in examples], dtype=bool)
    return cols, truth


def run_batch(
    config: LearnerConfig,
    cls: FiniteHypothesisClass,
    base: Sequence,
    orders: Iterable[Iterable[int]],
    mode: Analytic | Sampled = ANALYTIC,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per-ordering totals of the learner over reorderings of `base`.

    Each ordering lists positions into `base`. For every ordering this gives
    what `run` gives on the reordered sequence: returns (expected mistakes per
    ordering, realized maximum over trials per ordering -- empty in analytic
    mode --, whether any prediction was randomized). The iterable is consumed
    once. Ordering k of it draws, in sampled mode, from the seed
    mode.seed + (k,). The one-learner case of `run_batch_many`.
    """
    expected, realized, randomized = run_batch_many((config,), cls, base, orders, mode)
    return expected[0], realized[0], bool(randomized[0])


def run_batch_many(
    configs: tuple[LearnerConfig, ...],
    cls: FiniteHypothesisClass,
    base: Sequence,
    orders: Iterable[Iterable[int]],
    mode: Analytic | Sampled = ANALYTIC,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`run_batch` of each of the distinct `configs`, from one pass over the orderings.

    Returns (expected mistakes, realized maxima), each (L, orderings), and
    whether each learner randomized any prediction, (L,). The orderings go
    through the round kernel in batches of max(1, BATCH_ORDERINGS // L), so a
    batch's L (B, T) arrays of P(predict 1) are no larger than one learner's
    batch of BATCH_ORDERINGS. The SOA rule depends only on the version space,
    so every ordering reads the class's one Ldim memo.
    """
    examples = tuple(base)
    T = len(examples)
    cols, truth = _rounds(cls, examples)
    size = max(1, BATCH_ORDERINGS // (len(configs) or 1))
    randomized = np.zeros(len(configs), dtype=bool)

    def batches():
        nonlocal randomized
        orders_ = iter(orders)
        while batch := list(islice(orders_, size)):
            positions = np.array(batch, dtype=np.intp).reshape(len(batch), T)
            ys = truth[positions]
            p_one, engine_rounds = _batch_p_one(configs, cls, cols[positions], ys)
            # any wm-phase round or random halving tie, as `run` flags them per round
            randomized = randomized | (engine_rounds < T).any(axis=1) | (p_one == 0.5).any(axis=(1, 2))
            yield p_one, ys

    expected, realized = _totals(batches(), mode, len(configs))
    return expected, realized, randomized


def run_exhaustive(
    config: LearnerConfig,
    cls: FiniteHypothesisClass,
    stream: PermutationStream,
    mode: Analytic | Sampled = ANALYTIC,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """What `run_batch` gives over every ordering of an exhaustive stream: `run_exhaustive_many` of one learner."""
    expected, realized, randomized = run_exhaustive_many((config,), cls, stream, mode)
    return expected[0], realized[0], bool(randomized[0])


def run_exhaustive_many(
    configs: tuple[LearnerConfig, ...],
    cls: FiniteHypothesisClass,
    stream: PermutationStream,
    mode: Analytic | Sampled = ANALYTIC,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What `run_batch_many` gives over every ordering of an exhaustive stream, in stream order.

    A learner sees an example only through its type, the pair (advice column,
    label). So its state after a prefix is fixed by how many examples of each
    type the prefix holds: mistakes = counts @ wrong_of_type. The row rule
    runs once, on every pair (counts c <= n, next type k with c_k < n_k), for
    all the learners, and each ordering reads its rounds from that table at
    the mixed-radix ids of its prefix counts. Every such pair is the state
    and next example of some ordering, so WrongPhase and the randomized flags
    read the whole table, and the per-ordering totals are summed as
    `run_batch_many` sums them.
    """
    blocks = stream.blocks()  # refuses T above the cap before any allocation
    examples = stream.base.examples
    T = len(examples)
    cols, truth = _rounds(cls, examples)
    advice_of = np.ascontiguousarray(cls.table.T, dtype=bool)
    types: dict[tuple[bytes, bool], int] = {}
    type_of = np.array(
        [types.setdefault((advice_of[j].tobytes(), bool(y)), len(types)) for j, y in zip(cols, truth)],
        dtype=np.intp,
    )
    first = np.unique(type_of, return_index=True)[1]  # each type's first example
    type_cols, type_truth = cols[first], truth[first]
    n = np.bincount(type_of, minlength=len(types))
    stride = np.cumprod(n + 1) // (n + 1)  # exclusive: type k counts in units of stride[k]
    counts = np.arange(np.prod(n + 1))[:, None] // stride % (n + 1)  # (states, types)
    wrong = advice_of[type_cols] != type_truth[:, None]  # (types, d)
    state, k = np.nonzero(counts < n)
    p_rows, has_engine = _row_rule(configs, cls, T)
    p, in_space = p_rows(counts[state] @ wrong, advice_of[type_cols[k]], type_cols[k])
    randomized = (~np.outer(has_engine, in_space)).any(axis=1) | (p == 0.5).any(axis=1)
    table = np.zeros((len(configs), counts.size))  # learner l's p at (state s, type k): table[l, s * types + k]
    table[:, state * len(types) + k] = p

    def batches():
        for positions in blocks:
            kinds = type_of[positions]
            steps = stride[kinds]
            # take returns C order, so each ordering's rounds are summed in one contiguous run
            yield table.take((np.cumsum(steps, axis=1) - steps) * len(types) + kinds, axis=1), truth[positions]

    expected, realized = _totals(batches(), mode, len(configs))
    return expected, realized, randomized


def _totals(batches, mode: Analytic | Sampled, L: int) -> tuple[np.ndarray, np.ndarray]:
    """(expected mistakes, realized maximum -- empty in analytic mode), (L, orderings) each, of batches.

    Each batch is (p_one, (L, B, T), ys, (B, T)). Ordering k overall is drawn,
    in sampled mode, from mode.seed + (k,), once for all the learners.
    """
    expected, realized = [], []
    index = 0
    for p_one, ys in batches:
        B = p_one.shape[1]
        if isinstance(mode, Sampled):
            seed = tuple(mode.seed) if isinstance(mode.seed, (tuple, list)) else (int(mode.seed),)
            totals = np.empty((L, B))
            maxima = np.empty((L, B), dtype=np.int64)
            for k in range(B):
                maxima[:, k], round_probs, _ = sample_mistakes(
                    seed + (index + k,), mode.trials, p_one[:, k], ys[k], keep_trials=False
                )
                totals[:, k] = round_probs.sum(axis=1)
            expected.append(totals)
            realized.append(maxima)
        else:
            expected.append(np.where(ys, 1.0 - p_one, p_one).sum(axis=2))
        index += B
    return (
        np.concatenate(expected, axis=1) if expected else np.empty((L, 0)),
        np.concatenate(realized, axis=1) if realized else np.empty((L, 0), dtype=np.int64),
    )


def _batch_p_one(
    configs: tuple[LearnerConfig, ...],
    cls: FiniteHypothesisClass,
    cols: np.ndarray,
    truth: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """P(predict 1) of each learner, (L, B, T), for B orderings at once, and its engine round counts, (L, B).

    Row b's state is one row of expert mistake counts, shared by every
    learner, and round t's advice is advice_of[cols[:, t]], one (B, d) array;
    the row rule maps both to the round's predictions. A version space never
    grows, so a learner with an engine predicts by it in the first
    engine_rounds[l, b] rounds of row b and by wm in the rest.
    """
    B, T = cols.shape
    p_rows, has_engine = _row_rule(configs, cls, T)
    advice_of = np.ascontiguousarray(cls.table.T, dtype=bool)
    mistakes = np.zeros((B, cls.d), dtype=np.int32)  # never above T
    space_rounds = np.zeros(B, dtype=np.int64)
    p_one = np.empty((len(configs), B, T))
    for t in range(T):
        advice = advice_of[cols[:, t]]
        p_one[:, :, t], in_space = p_rows(mistakes, advice, cols[:, t])
        space_rounds += in_space
        mistakes += advice != truth[:, t, None]
    return p_one, np.outer(has_engine, space_rounds)


def _row_rule(configs: tuple[LearnerConfig, ...], cls: FiniteHypothesisClass, T: int):
    """The distinct learners' predictions on rows, for sequences of length T, and which have an engine, (L,).

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
    decay[k] = exp(-eta * k), k = 0 .. T, built once per variant here; P(1)
    is the weight on 1 over the total weight, capped at 1.
    """
    has_engine = np.array([c.kind != "wm" for c in configs], dtype=bool)
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

    def p_rows(mistakes: np.ndarray, advice: np.ndarray, cols: np.ndarray):
        low = mistakes.min(axis=1, keepdims=True)
        in_space = low[:, 0] == 0
        all_in, any_in = bool(in_space.all()), bool(in_space.any())
        if baseline and not all_in:
            raise WrongPhase("version space is empty; the sequence is not realizable")
        p = np.empty((len(configs), len(mistakes)))
        for variant, users in rates.items():
            if all_in and variant not in every_row:
                continue
            rows = ~in_space if any_in and variant not in every_row else slice(None)
            w = decays[variant].take(mistakes[rows] - low[rows])
            value = np.minimum(1.0, np.einsum("ij,ij->i", w, advice[rows]) / w.sum(axis=1))
            for i in users:
                p[i, rows] = value
        if any_in and engines:  # overwrites the wm values of a hybrid's in-space rows
            rows = slice(None) if all_in else in_space
            space, row_advice, row_cols = mistakes[rows] == 0, advice[rows], cols[rows]
            for (engine, tie_break), users in engines.items():
                value = _engine_p_one(engine, tie_break, cls, space, row_advice, row_cols, computer)
                for i in users:
                    p[i, rows] = value
        return p, in_space

    return p_rows, has_engine


def _engine_p_one(
    engine: str,
    tie_break: str,
    cls: FiniteHypothesisClass,
    space: np.ndarray,
    advice: np.ndarray,
    cols: np.ndarray,
    computer: LdimComputer | None,
) -> np.ndarray:
    """P(predict 1) of a version-space rule on rows whose space (a bool row) is non-empty."""
    if engine == "consistent":  # the lowest surviving index
        first = space.argmax(axis=1)
        return advice[np.arange(len(first)), first].astype(np.float64)
    if engine == "halving":
        ones = (space & advice).sum(axis=1)
        zeros = space.sum(axis=1) - ones
        p = (ones > zeros).astype(np.float64)
        p[ones == zeros] = {"one": 1.0, "zero": 0.0, "random": 0.5}[tie_break]
        return p
    # soa: the side keeping the larger Ldim; ties go to 1, and an empty side
    # counts as Ldim -1 so the non-empty side always wins
    p = []
    for mask, j in zip(bitmasks(space), cols):
        m1 = mask & cls.ones_mask(j)
        m0 = mask ^ m1
        p.append(float((computer.value(m1) if m1 else -1) >= (computer.value(m0) if m0 else -1)))
    return np.array(p)
