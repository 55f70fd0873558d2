"""Online learners as one state model and one batched round kernel.

A learner's state is a pair: its version space (the hypotheses consistent
with every example so far) and each expert's mistake count. Its prediction
is a function of that state and the instance:

- consistent: the label of the lowest surviving hypothesis;
- halving: the majority vote of the survivors (ties by `tie_break`);
- soa: the label whose restriction keeps the larger Littlestone dimension;
- wm: P(predict 1) = the weight mass on 1, weights exp(-eta * mistakes);
- wm_consistent, wm_halving, wm_soa: the engine while the version space is
  non-empty, then wm on the same mistake counts.

The version-space baselines raise WrongPhase once their space empties (the
sequence is not realizable). Analytic mode accumulates the exact per-round
mistake probability, so expectations over permutation streams need no Monte
Carlo sampling; sampled mode draws the answers from a seeded generator and
cross-checks the analytic numbers.

`_batch_p_one` advances many orderings of one sequence together, one round
at a time. `run_batch` gives per-ordering totals over many orderings; `run`
is its one-ordering case and keeps the per-round record.
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
    """Normalized weights exp(-eta * mistakes) along the last axis; shifted for stability."""
    m = np.asarray(mistakes, dtype=np.float64)
    w = np.exp(-eta * (m - m.min(axis=-1, keepdims=True)))
    return w / w.sum(axis=-1, keepdims=True)


def soa_label(computer: LdimComputer, mask: int, ones: int) -> int:
    """The label whose restriction of `mask` keeps the larger Ldim; ties go to 1.

    `ones` is the mask of hypotheses labeling the instance 1. An empty
    restriction side counts as Ldim -1 so the non-empty side always wins.
    """
    m1 = mask & ones
    m0 = mask & ~ones
    l1 = computer.value(m1) if m1 else -1
    l0 = computer.value(m0) if m0 else -1
    return 1 if l1 >= l0 else 0


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
) -> tuple[int, np.ndarray, np.ndarray | None]:
    """(most mistakes in one pass, mistake frequency per round, mistakes per pass) of sampled passes.

    Round t of each of `trials` passes predicts 1 with probability p_one[t]
    against the true label truth[t]. Draws are made in blocks of at most
    SAMPLE_BLOCK_DRAWS numbers (at least one pass); the generator fills
    sequentially, so the result equals a single (trials, T) draw. With
    keep_trials=False the per-trial mistakes are not kept (None), and memory
    does not grow with `trials`.
    """
    T = len(p_one)
    rng = np.random.default_rng(seed)
    rows = max(1, SAMPLE_BLOCK_DRAWS // max(T, 1))
    trial_mistakes = np.empty(trials, dtype=np.int64) if keep_trials else None
    most = 0
    wrong_per_round = np.zeros(T, dtype=np.int64)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        wrong = (rng.random((stop - start, T)) < p_one) != truth
        per_trial = wrong.sum(axis=1)
        most = max(most, int(per_trial.max()))
        if keep_trials:
            trial_mistakes[start:stop] = per_trial
        wrong_per_round += wrong.sum(axis=0)
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
    """Per-round record of one learner pass plus aggregate totals."""

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
    computer = LdimComputer(cls) if config.kind.endswith("soa") else None
    p_ones, engine_rounds, alive = _batch_p_one(config, cls, cols[None], truth[None], computer)
    p_ones = p_ones[0]
    # every wm-phase round is randomized; an engine predicts a label, 0 or 1,
    # or the fair coin 0.5 of a random halving tie
    randomized = (np.arange(len(examples)) >= engine_rounds[0]) | (p_ones == 0.5)

    analytic_probs = np.where(truth, 1.0 - p_ones, p_ones)
    trial_mistakes = None
    if isinstance(mode, Sampled):
        _, round_probs, trial_mistakes = sample_mistakes(mode.seed, mode.trials, p_ones, truth)
    else:
        round_probs = analytic_probs

    switch_round = min_mistakes_at_switch = None
    if config.kind in HYBRID_KINDS and not alive.any():
        switch_round = int(engine_rounds[0])
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


BATCH_ORDERINGS = 1024  # orderings advanced together; bounds memory at T = 9 (9! orderings)


def _flatten_seed(seed) -> tuple[int, ...]:
    return tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)


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
    first_index: int = 0,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Per-ordering totals of the learner over reorderings of `base`.

    Each ordering lists positions into `base`. For every ordering this gives
    what `run` gives on the reordered sequence: returns (expected mistakes per
    ordering, realized maximum over trials per ordering -- empty in analytic
    mode --, whether any prediction was randomized). The iterable is consumed
    once, in batches of at most BATCH_ORDERINGS. Ordering k of it has stream
    index first_index + k, and in sampled mode draws from the seed
    mode.seed + (first_index + k,). One Ldim memo serves every ordering, since
    the SOA rule depends only on the version space.
    """
    examples = tuple(base)
    T = len(examples)
    cols, truth = _rounds(cls, examples)
    computer = LdimComputer(cls) if config.kind.endswith("soa") else None

    expected, realized = [], []
    randomized = False
    orders = iter(orders)
    index = first_index
    while batch := list(islice(orders, BATCH_ORDERINGS)):
        positions = np.array(batch, dtype=np.intp).reshape(len(batch), T)
        ys = truth[positions]
        p_one, engine_rounds, _ = _batch_p_one(config, cls, cols[positions], ys, computer)
        # any wm-phase round or random halving tie, as `run` flags them per round
        randomized = randomized or bool((engine_rounds < T).any() or (p_one == 0.5).any())
        if isinstance(mode, Sampled):
            seed = _flatten_seed(mode.seed)
            totals = np.empty(len(batch))
            maxima = np.empty(len(batch), dtype=np.int64)
            for k in range(len(batch)):
                maxima[k], round_probs, _ = sample_mistakes(
                    seed + (index + k,), mode.trials, p_one[k], ys[k], keep_trials=False
                )
                totals[k] = round_probs.sum()
            expected.append(totals)
            realized.append(maxima)
        else:
            expected.append(np.where(ys, 1.0 - p_one, p_one).sum(axis=1))
        index += len(batch)
    return (
        np.concatenate(expected) if expected else np.empty(0),
        np.concatenate(realized) if realized else np.empty(0, dtype=np.int64),
        randomized,
    )


def _batch_p_one(
    config: LearnerConfig,
    cls: FiniteHypothesisClass,
    cols: np.ndarray,
    truth: np.ndarray,
    computer: LdimComputer | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(predict 1), (B, T), for B orderings at once, each row's engine round count, and
    the final version spaces.

    Row b holds ordering b's state: its expert mistake counts (wm and the
    hybrids) and its version space as a bool row (baselines and hybrids).
    Round t's advice is advice_of[cols[:, t]], one (B, d) array. A version
    space never grows, so the engine (soa needs `computer`) predicts in the
    first engine_rounds[b] rounds of row b and wm in the rest.
    """
    B, T = cols.shape
    kind = config.kind
    engine = None if kind == "wm" else kind.removeprefix("wm_")
    advice_of = np.ascontiguousarray(cls.table.T, dtype=bool)
    eta = eta_for(cls.d, T, config.eta_variant)
    mistakes = np.zeros((B, cls.d), dtype=np.int64)
    alive = np.ones((B, cls.d), dtype=bool)
    engine_rounds = np.zeros(B, dtype=np.int64)
    rounds_all_in_space = 0  # counted apart so the common round costs no array update
    p_one = np.empty((B, T))
    for t in range(T):
        advice = advice_of[cols[:, t]]
        in_space = alive.any(axis=1) if engine else np.zeros(B, dtype=bool)
        all_in, any_in = bool(in_space.all()), bool(in_space.any())
        if kind in BASELINE_KINDS and not all_in:
            raise WrongPhase("version space is empty; the sequence is not realizable")
        if any_in:
            if all_in:
                rows = slice(None)
                rounds_all_in_space += 1
            else:
                rows = in_space
                engine_rounds += in_space
            p_one[rows, t] = _engine_p_one(
                engine, config.tie_break, cls, alive[rows], advice[rows], cols[rows, t], computer
            )
        if not all_in:
            rows = ~in_space if any_in else slice(None)
            w = wm_weights(mistakes[rows], eta)
            p_one[rows, t] = np.minimum(1.0, np.where(advice[rows], w, 0.0).sum(axis=1))
        y = truth[:, t, None]
        if engine:
            alive &= advice == y
        if kind not in BASELINE_KINDS:
            mistakes += advice != y
    return p_one, engine_rounds + rounds_all_in_space, alive


def _engine_p_one(
    engine: str,
    tie_break: str,
    cls: FiniteHypothesisClass,
    alive: np.ndarray,
    advice: np.ndarray,
    cols: np.ndarray,
    computer: LdimComputer | None,
) -> np.ndarray:
    """P(predict 1) of a version-space rule on non-empty rows."""
    if engine == "consistent":  # the lowest surviving index
        first = alive.argmax(axis=1)
        return advice[np.arange(len(first)), first].astype(np.float64)
    if engine == "halving":
        ones = (alive & advice).sum(axis=1)
        zeros = alive.sum(axis=1) - ones
        p = (ones > zeros).astype(np.float64)
        p[ones == zeros] = {"one": 1.0, "zero": 0.0, "random": 0.5}[tie_break]
        return p
    labels = [soa_label(computer, mask, cls.ones_mask(j)) for mask, j in zip(bitmasks(alive), cols)]
    return np.array(labels, dtype=np.float64)
