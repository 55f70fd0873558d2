"""Online learners behind one round-based protocol.

Every learner exposes ``predict(x) -> Prediction`` followed by
``observe(x, y)``. Predictions are either a deterministic label or a
probability of answering 1; the analytic run mode accumulates the exact
per-round mistake probability (for the expert-advice learners this equals
the current weight mass on wrong experts), so expectations over permutation
streams need no Monte Carlo sampling. Sampled mode draws the answers from a
seeded generator instead and is used to cross-check the analytic numbers.

Baselines: consistent, halving, soa (version-space learners, realizable
sequences only). wm is the randomized expert-advice learner with weights
exp(-eta * mistakes), normalized. The wm_* hybrids run their version-space
engine until the space empties, then hand the accumulated expert mistake
counts to the expert-advice core for the remaining rounds.

`run` drives one learner object over one sequence and keeps the per-round
record. `run_batch` gives the same per-ordering totals for many orderings of
one sequence at once: it advances every ordering of a batch together, one
round at a time, on arrays of expert mistake counts and version spaces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, WrongPhase
from .hypotheses import FiniteHypothesisClass, Sequence, VersionSpace, bitmasks, restrict
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


@dataclass(frozen=True)
class Prediction:
    """A deterministic label (p_one in {0, 1}) or P(predict 1) = p_one."""

    p_one: float
    randomized: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_one <= 1.0:
            raise ValueError(f"p_one must lie in [0, 1], got {self.p_one}")

    @classmethod
    def label(cls, y: int) -> "Prediction":
        return cls(float(y), randomized=False)

    @classmethod
    def prob(cls, p: float) -> "Prediction":
        return cls(float(p), randomized=True)


def wm_weights(mistakes: np.ndarray, eta: float) -> np.ndarray:
    """Normalized weights exp(-eta * mistakes) along the last axis; shifted for stability."""
    m = np.asarray(mistakes, dtype=np.float64)
    w = np.exp(-eta * (m - m.min(axis=-1, keepdims=True)))
    return w / w.sum(axis=-1, keepdims=True)


class WeightedMajority:
    """Randomized expert-advice core: weights decay with expert mistakes."""

    def __init__(self, d: int, eta: float, mistakes: np.ndarray | None = None):
        self.d = d
        self.eta = eta
        self.mistakes = (
            np.zeros(d, dtype=np.int64) if mistakes is None else np.asarray(mistakes, np.int64)
        )
        if self.mistakes.shape != (d,):
            raise DimensionMismatch(f"mistake vector must have length {d}")

    def _check(self, advice: np.ndarray) -> np.ndarray:
        advice = np.asarray(advice)
        if advice.shape != (self.d,):
            raise DimensionMismatch(f"advice must have length {self.d}, got {advice.shape}")
        return advice

    def weights(self) -> np.ndarray:
        return wm_weights(self.mistakes, self.eta)

    def predict_from_advice(self, advice: np.ndarray) -> Prediction:
        advice = self._check(advice)
        p_hat = float(self.weights()[advice == 1].sum())
        return Prediction.prob(min(1.0, p_hat))

    def update_from_advice(self, advice: np.ndarray, y: int) -> None:
        advice = self._check(advice)
        self.mistakes += advice != y


def consistent_label(cls: FiniteHypothesisClass, space: VersionSpace, x: int) -> int:
    """Prediction of the lowest-indexed surviving hypothesis."""
    return cls.evaluate(space.min_index(), x)


def halving_votes(cls: FiniteHypothesisClass, space: VersionSpace, x: int) -> tuple[int, int]:
    """(votes for 0, votes for 1) among the surviving hypotheses."""
    ones = (space.mask & cls.ones_mask(cls.column_index(x))).bit_count()
    return len(space) - ones, ones


class _ConsistentEngine:
    def __init__(self, cls: FiniteHypothesisClass, config: LearnerConfig):
        self.cls = cls

    def predict(self, space: VersionSpace, x: int) -> Prediction:
        return Prediction.label(consistent_label(self.cls, space, x))


class _HalvingEngine:
    def __init__(self, cls: FiniteHypothesisClass, config: LearnerConfig):
        self.cls = cls
        self.tie_break = config.tie_break

    def predict(self, space: VersionSpace, x: int) -> Prediction:
        zeros, ones = halving_votes(self.cls, space, x)
        if ones != zeros:
            return Prediction.label(1 if ones > zeros else 0)
        if self.tie_break == "random":
            return Prediction.prob(0.5)
        return Prediction.label(1 if self.tie_break == "one" else 0)


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


class _SoaEngine:
    """SOA prediction; the Ldim memo is owned by this engine and so by a single run."""

    def __init__(self, cls: FiniteHypothesisClass, config: LearnerConfig):
        self.cls = cls
        self.computer = LdimComputer(cls)

    def predict(self, space: VersionSpace, x: int) -> Prediction:
        ones = self.cls.ones_mask(self.cls.column_index(x))
        return Prediction.label(soa_label(self.computer, space.mask, ones))


_ENGINES = {"consistent": _ConsistentEngine, "halving": _HalvingEngine, "soa": _SoaEngine}


class VersionSpaceLearner:
    """Pure realizable-phase learner; raises WrongPhase once the space empties."""

    def __init__(self, config: LearnerConfig, cls: FiniteHypothesisClass, T: int):
        self.cls = cls
        self.engine = _ENGINES[config.kind](cls, config)
        self.space = cls.full_space()

    def predict(self, x: int) -> Prediction:
        if not self.space:
            raise WrongPhase("version space is empty; the sequence is not realizable")
        return self.engine.predict(self.space, x)

    def observe(self, x: int, y: int) -> None:
        self.space = restrict(self.space, self.cls, x, y)


class WmLearner:
    """Expert-advice learner bound to a hypothesis class for advice lookup."""

    def __init__(self, config: LearnerConfig, cls: FiniteHypothesisClass, T: int):
        self.cls = cls
        self.core = WeightedMajority(cls.d, eta_for(cls.d, T, config.eta_variant))

    @property
    def mistakes(self) -> np.ndarray:
        return self.core.mistakes

    def predict(self, x: int) -> Prediction:
        return self.core.predict_from_advice(self.cls.column(x))

    def observe(self, x: int, y: int) -> None:
        self.core.update_from_advice(self.cls.column(x), y)


class HybridLearner:
    """Version-space engine until the space empties, expert advice afterwards.

    Expert mistake counts are maintained in both phases, so the expert-advice
    core starts from the state it would have reached had it run from round 1.
    The switch happens exactly once; at that point every hypothesis has been
    wrong at least once (otherwise the space could not be empty).
    """

    def __init__(self, config: LearnerConfig, cls: FiniteHypothesisClass, T: int):
        self.cls = cls
        engine_kind = config.kind.removeprefix("wm_")
        self.engine = _ENGINES[engine_kind](cls, config)
        self.space = cls.full_space()
        self.core = WeightedMajority(cls.d, eta_for(cls.d, T, config.eta_variant))
        self.round = 0
        self.switch_round: int | None = None
        self.min_mistakes_at_switch: int | None = None

    @property
    def mistakes(self) -> np.ndarray:
        return self.core.mistakes

    def predict(self, x: int) -> Prediction:
        if self.space:
            return self.engine.predict(self.space, x)
        return self.core.predict_from_advice(self.cls.column(x))

    def observe(self, x: int, y: int) -> None:
        advice = self.cls.column(x)
        if self.space:
            new_space = restrict(self.space, self.cls, x, y)
            self.core.update_from_advice(advice, y)
            if not new_space and self.switch_round is None:
                self.switch_round = self.round + 1
                self.min_mistakes_at_switch = int(self.core.mistakes.min())
            self.space = new_space
        else:
            self.core.update_from_advice(advice, y)
        self.round += 1


def make_learner(config: LearnerConfig, cls: FiniteHypothesisClass, T: int):
    if config.kind in BASELINE_KINDS:
        return VersionSpaceLearner(config, cls, T)
    if config.kind == "wm":
        return WmLearner(config, cls, T)
    return HybridLearner(config, cls, T)


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
    """Drive one learner over one sequence.

    Analytic mode is deterministic: each round contributes its exact mistake
    probability. Sampled mode replays the same per-round prediction
    probabilities through a seeded generator; learner state never depends on
    the learner's own predictions, so the probabilities are shared across
    trials. Deterministic learners produce identical traces in both modes.
    """
    examples = tuple(seq)
    learner = make_learner(config, cls, len(examples))

    p_ones = np.empty(len(examples))
    randomized = np.empty(len(examples), dtype=bool)
    ys = np.empty(len(examples), dtype=np.int8)
    for t, (x, y) in enumerate(examples):
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")
        pred = learner.predict(x)
        learner.observe(x, y)
        p_ones[t] = pred.p_one
        randomized[t] = pred.randomized
        ys[t] = y

    analytic_probs = np.where(ys == 0, p_ones, 1.0 - p_ones)
    trial_mistakes = None
    if isinstance(mode, Sampled):
        _, round_probs, trial_mistakes = sample_mistakes(mode.seed, mode.trials, p_ones, ys == 1)
    else:
        round_probs = analytic_probs

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
        switch_round=getattr(learner, "switch_round", None),
        min_mistakes_at_switch=getattr(learner, "min_mistakes_at_switch", None),
        trial_mistakes=trial_mistakes,
    )


BATCH_ORDERINGS = 1024  # orderings advanced together; bounds memory at T = 9 (9! orderings)


def _flatten_seed(seed) -> tuple[int, ...]:
    return tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)


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
    for _, y in examples:
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")
    T = len(examples)
    cols = np.array([cls.column_index(x) for x, _ in examples], dtype=np.intp)
    truth = np.array([y == 1 for _, y in examples], dtype=bool)
    advice_of = np.ascontiguousarray(cls.table.T, dtype=bool)
    eta = eta_for(cls.d, T, config.eta_variant)
    computer = LdimComputer(cls) if config.kind.endswith("soa") else None

    expected, realized = [], []
    randomized = False
    orders = iter(orders)
    index = first_index
    while batch := list(islice(orders, BATCH_ORDERINGS)):
        positions = np.array(batch, dtype=np.intp).reshape(len(batch), T)
        ys = truth[positions]
        p_one, rand = _batch_p_one(config, cls, advice_of, cols[positions], ys, eta, computer)
        randomized = randomized or rand
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
    advice_of: np.ndarray,
    cols: np.ndarray,
    truth: np.ndarray,
    eta: float,
    computer: LdimComputer | None,
) -> tuple[np.ndarray, bool]:
    """P(predict 1), (B, T), for B orderings at once, and whether any prediction was randomized.

    Row b holds ordering b's state: its expert mistake counts (wm and the
    hybrids) and its version space as a bool row (baselines and hybrids).
    Round t's advice is advice_of[cols[:, t]], one (B, d) array.
    """
    B, T = cols.shape
    kind = config.kind
    engine = None if kind == "wm" else kind.removeprefix("wm_")
    mistakes = np.zeros((B, cls.d), dtype=np.int64)
    alive = np.ones((B, cls.d), dtype=bool)
    p_one = np.empty((B, T))
    randomized = False
    for t in range(T):
        advice = advice_of[cols[:, t]]
        in_space = alive.any(axis=1) if engine else np.zeros(B, dtype=bool)
        if kind in BASELINE_KINDS and not in_space.all():
            raise WrongPhase("version space is empty; the sequence is not realizable")
        if in_space.any():
            rows = slice(None) if in_space.all() else in_space
            p_one[rows, t], tied = _engine_p_one(
                engine, config.tie_break, cls, alive[rows], advice[rows], cols[rows, t], computer
            )
            randomized = randomized or tied
        if not in_space.all():
            rows = slice(None) if not in_space.any() else ~in_space
            w = wm_weights(mistakes[rows], eta)
            p_one[rows, t] = np.minimum(1.0, np.where(advice[rows], w, 0.0).sum(axis=1))
            randomized = True
        y = truth[:, t, None]
        if engine:
            alive &= advice == y
        if kind not in BASELINE_KINDS:
            mistakes += advice != y
    return p_one, randomized


def _engine_p_one(
    engine: str,
    tie_break: str,
    cls: FiniteHypothesisClass,
    alive: np.ndarray,
    advice: np.ndarray,
    cols: np.ndarray,
    computer: LdimComputer | None,
) -> tuple[np.ndarray, bool]:
    """(P(predict 1), any prediction randomized) of a version-space rule on non-empty rows."""
    if engine == "consistent":  # the lowest surviving index
        first = alive.argmax(axis=1)
        return advice[np.arange(len(first)), first].astype(np.float64), False
    if engine == "halving":
        ones = (alive & advice).sum(axis=1)
        zeros = alive.sum(axis=1) - ones
        tie = ones == zeros
        p = (ones > zeros).astype(np.float64)
        p[tie] = {"one": 1.0, "zero": 0.0, "random": 0.5}[tie_break]
        return p, tie_break == "random" and bool(tie.any())
    labels = [soa_label(computer, mask, cls.ones_mask(j)) for mask, j in zip(bitmasks(alive), cols)]
    return np.array(labels, dtype=np.float64), False
