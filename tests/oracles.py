"""Independent brute-force oracles used to pin expected test values.

The Littlestone-dimension oracle enumerates every complete binary instance
tree of a given depth (node values range over the whole domain) and checks
all 2^depth root-to-leaf labelings directly against the member rows. It
shares no code with the recursive computation it cross-checks.

The learner oracle, `reference_run`, is a plain round-by-round learner
written from the definitions: an integer-mask version space narrowed by
`restrict`, halving by counting votes, SOA through `soa_label` on its own
Ldim memo, and weighted majority with `math.exp` weights over a list of
mistake counts. It shares no code with the batched kernel behind `run` and
`run_batch`; `per_ordering_values` runs it once per ordering to cross-check
`run_batch`.
"""

import math
from itertools import product

import numpy as np

from regretlab import (
    ANALYTIC,
    FiniteHypothesisClass,
    LdimComputer,
    RunTrace,
    Sampled,
    Sequence,
    VersionSpace,
    WrongPhase,
    eta_for,
    restrict,
)
from regretlab.learners import BASELINE_KINDS, HYBRID_KINDS, RoundRecord, soa_label

_TREE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def all_trees(n: int, depth: int) -> np.ndarray:
    """Every assignment of domain indices to the 2^depth - 1 tree slots."""
    key = (n, depth)
    if key not in _TREE_CACHE:
        node_count = (1 << depth) - 1
        trees = np.array(list(product(range(n), repeat=node_count)), dtype=np.int64)
        _TREE_CACHE[key] = trees.reshape(-1, node_count)
    return _TREE_CACHE[key]


def _path_positions(labels: tuple[int, ...]) -> list[int]:
    """Heap-order node positions visited along a labeling path."""
    positions = []
    i = 1
    for y in labels:
        positions.append(i - 1)
        i = 2 * i + y
    return positions


def exists_shattered_tree(
    cls: FiniteHypothesisClass, members: VersionSpace | None, depth: int
) -> bool:
    """True iff some depth-`depth` tree is shattered by the member rows."""
    rows = cls.table if members is None else cls.table[list(members.members())]
    if rows.shape[0] == 0:
        return False
    if depth == 0:
        return True
    trees = all_trees(cls.n, depth)
    alive = np.ones(len(trees), dtype=bool)
    for labels in product((0, 1), repeat=depth):
        positions = _path_positions(labels)
        covered = np.zeros(len(trees), dtype=bool)
        for h in range(rows.shape[0]):
            match = np.ones(len(trees), dtype=bool)
            for pos, y in zip(positions, labels):
                match &= rows[h, trees[:, pos]] == y
            covered |= match
        alive &= covered
        if not alive.any():
            return False
    return bool(alive.any())


def ldim_by_enumeration(cls: FiniteHypothesisClass, members: VersionSpace | None = None) -> int:
    """Largest depth at which some tree is shattered, found by direct search."""
    depth = 0
    while exists_shattered_tree(cls, members, depth + 1):
        depth += 1
    return depth


def _engine_prediction(engine, tie_break, cls, computer, space, x) -> tuple[float, bool]:
    """(P(predict 1), randomized) of a version-space rule on a non-empty space."""
    if engine == "consistent":
        return float(cls.evaluate(space.min_index(), x)), False
    if engine == "halving":
        ones = sum(cls.evaluate(i, x) for i in space.members())
        zeros = len(space) - ones
        if ones != zeros:
            return float(ones > zeros), False
        if tie_break == "random":
            return 0.5, True
        return float(tie_break == "one"), False
    ones_mask = cls.ones_mask(cls.column_index(x))
    return float(soa_label(computer, space.mask, ones_mask)), False


def _wm_prediction(eta: float, mistakes: list[int], advice: list[int]) -> float:
    """Weight mass on 1 with weights exp(-eta * (m - min m)), capped at 1."""
    low = min(mistakes)
    weights = [math.exp(-eta * (m - low)) for m in mistakes]
    return min(1.0, sum(w for w, a in zip(weights, advice) if a == 1) / sum(weights))


def reference_run(config, cls: FiniteHypothesisClass, seq, mode=ANALYTIC) -> RunTrace:
    """What `run` returns, computed one round at a time from the learner definitions."""
    examples = tuple(seq)
    kind = config.kind
    engine = None if kind == "wm" else kind.removeprefix("wm_")
    eta = eta_for(cls.d, len(examples), config.eta_variant)
    computer = LdimComputer(cls)
    space = cls.full_space()
    mistakes = [0] * cls.d
    p_ones, randomized = [], []
    switch_round = min_mistakes_at_switch = None
    for t, (x, y) in enumerate(examples):
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")
        advice = [cls.evaluate(i, x) for i in range(cls.d)]
        if engine is not None and space:
            p, r = _engine_prediction(engine, config.tie_break, cls, computer, space, x)
        elif kind in BASELINE_KINDS:
            raise WrongPhase("version space is empty")
        else:
            p, r = _wm_prediction(eta, mistakes, advice), True
        p_ones.append(p)
        randomized.append(r)
        was_alive = bool(space)
        space = restrict(space, cls, x, y)
        mistakes = [m + (a != y) for m, a in zip(mistakes, advice)]
        if kind in HYBRID_KINDS and was_alive and not space:
            switch_round, min_mistakes_at_switch = t + 1, min(mistakes)

    analytic = [p if y == 0 else 1.0 - p for p, (_, y) in zip(p_ones, examples)]
    trial_mistakes = None
    round_probs = analytic
    if isinstance(mode, Sampled):
        draws = np.random.default_rng(mode.seed).random((mode.trials, len(examples)))
        truth = np.array([y == 1 for _, y in examples], dtype=bool)
        wrong = (draws < np.array(p_ones)) != truth
        trial_mistakes = wrong.sum(axis=1)
        round_probs = wrong.mean(axis=0).tolist()
    return RunTrace(
        rounds=[
            RoundRecord(x, y, p, r, mp)
            for (x, y), p, r, mp in zip(examples, p_ones, randomized, round_probs)
        ],
        expected_mistakes=math.fsum(round_probs),
        deterministic_mistakes=int(sum(a for a, r in zip(analytic, randomized) if not r)),
        randomized_rounds=sum(randomized),
        switch_round=switch_round,
        min_mistakes_at_switch=min_mistakes_at_switch,
        trial_mistakes=trial_mistakes,
    )


def per_ordering_values(config, cls: FiniteHypothesisClass, base: Sequence, orders, mode, first_index=0):
    """(expected mistakes, realized max) per ordering, and whether any round was randomized.

    Ordering k is `base` reordered by orders[k]; in sampled mode its draws are
    seeded with mode.seed + (first_index + k,), the harness seeding rule.
    """
    expected, realized, randomized = [], [], False
    for k, order in enumerate(orders):
        seq = tuple(base.examples[i] for i in order)
        perm_mode = mode
        if isinstance(mode, Sampled):
            seed = tuple(mode.seed) if isinstance(mode.seed, tuple) else (mode.seed,)
            perm_mode = Sampled(seed + (first_index + k,), mode.trials)
        trace = reference_run(config, cls, seq, perm_mode)
        expected.append(trace.expected_mistakes)
        if trace.trial_mistakes is not None:
            realized.append(int(trace.trial_mistakes.max()))
        randomized = randomized or trace.randomized_rounds > 0
    return expected, realized, randomized
