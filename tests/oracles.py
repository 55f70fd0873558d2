"""Independent brute-force oracles used to pin expected test values.

The Littlestone-dimension oracle enumerates every complete binary instance
tree of a given depth (node values range over the whole domain) and checks
all 2^depth root-to-leaf labelings directly against the member rows. It
shares no code with the recursive computation it cross-checks. A second
Littlestone-dimension oracle, `ldim_by_scan`, is the textbook recursion with
no pruning: every domain point, lowest index first, with a memo of its own.
It is fast enough for classes of a dozen members. `witness_by_scan` builds
the lowest-index witness tree from its values the same way, over every
domain point.

The learner oracle, `reference_run`, is a plain round-by-round learner
written from the definitions: an integer-mask version space narrowed by
`restrict`, halving by counting votes, SOA by comparing `ldim_by_scan` on
the two restriction sides (one scan memo per run), and weighted majority
with `math.exp` weights over a list of mistake counts. A round is
randomized iff 0 < p < 1, read from the prediction alone, so a Weighted
Majority round whose experts all agree is not. It shares no Ldim, SOA or
kernel code with `run` and `run_batch_many`; `per_ordering_values`
runs it once per ordering to cross-check `batch_totals`, the one-learner,
one-block call of `run_batch_many`.

The exhaustive-stream oracle, `exhaustive_reference`, is the enumeration the
prediction table of `run_exhaustive_many` replaced: `batch_totals` over
`itertools.permutations`, aggregated as `evaluate` reports it.

The sampler oracle, `sample_mistakes_reference`, is the sampler the shared
tally of `learners.sample_mistakes` replaced: the same generator calls on the
same draw blocks, every learner compared with every draw and counted in int64.

`wm_weights` is Weighted Majority's weight definition over an array of
mistake counts; the wm tests read a prediction's expected P(1) from it.
"""

import math
from itertools import permutations, product

import numpy as np

from regretlab import (
    ANALYTIC,
    FiniteHypothesisClass,
    RunTrace,
    Sampled,
    Sequence,
    VersionSpace,
    WrongPhase,
    eta_for,
    restrict,
    run_batch_many,
)
from regretlab.learners import BASELINE_KINDS, HYBRID_KINDS, RoundRecord

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


def ldim_by_scan(
    cls: FiniteHypothesisClass, mask: int | None = None, memo: dict[int, int] | None = None
) -> int:
    """Ldim of the member bitmask (default: the whole class) by full recursion.

    max over splitting points x of 1 + min(Ldim(V | x->0), Ldim(V | x->1)),
    scanning every domain point of every state; 0 when none splits. `memo`
    (member bitmask -> Ldim) carries values between calls on one class.
    """
    memo = {} if memo is None else memo

    def value(m: int) -> int:
        if m not in memo:
            best = 0
            for j in range(cls.n):
                ones = cls.ones_mask(j)
                m1, m0 = m & ones, m & ~ones
                if m1 and m0:
                    best = max(best, 1 + min(value(m0), value(m1)))
            memo[m] = best
        return memo[m]

    return value(cls.full_space().mask if mask is None else mask)


def witness_by_scan(cls: FiniteHypothesisClass, mask: int | None = None) -> tuple[int, ...]:
    """Heap-ordered nodes of a depth-Ldim tree shattered by the member bitmask.

    Each node is the lowest-indexed domain point whose two restriction sides
    both support the remaining depth, by `ldim_by_scan` values.
    """
    memo: dict[int, int] = {}

    def witness(m: int, depth: int) -> tuple[int, ...]:
        if depth == 0:
            return ()
        for j in range(cls.n):
            ones = cls.ones_mask(j)
            m1, m0 = m & ones, m & ~ones
            if m1 and m0 and min(ldim_by_scan(cls, side, memo) for side in (m0, m1)) >= depth - 1:
                left, right = witness(m0, depth - 1), witness(m1, depth - 1)
                nodes = [cls.domain[j]]
                # level k of the subtrees (k = 0 .. depth-2) becomes level k+1 of the tree
                for level in range(depth - 1):
                    start, width = (1 << level) - 1, 1 << level
                    nodes += left[start : start + width] + right[start : start + width]
                return tuple(nodes)
        raise AssertionError(f"no splitting point supports depth {depth}")

    mask = cls.full_space().mask if mask is None else mask
    return witness(mask, ldim_by_scan(cls, mask, memo))


def _engine_prediction(engine, tie_break, cls, scan_memo, space, x) -> float:
    """P(predict 1) of a version-space rule on a non-empty space."""
    if engine == "consistent":
        return float(cls.evaluate(space.min_index(), x))
    if engine == "halving":
        ones = sum(cls.evaluate(i, x) for i in space.members())
        zeros = len(space) - ones
        if ones != zeros:
            return float(ones > zeros)
        return {"one": 1.0, "zero": 0.0, "random": 0.5}[tie_break]
    # soa: the label whose side keeps the larger Ldim; ties go to 1, an empty side loses
    l0, l1 = (
        ldim_by_scan(cls, side.mask, scan_memo) if side else -1
        for side in (restrict(space, cls, x, 0), restrict(space, cls, x, 1))
    )
    return float(l1 >= l0)


def wm_weights(mistakes: np.ndarray, eta: float) -> np.ndarray:
    """Normalized weights exp(-eta * mistakes) along the last axis; shifted for stability.

    The definition; `learners._batch_p_one` reads the same shifted weights from a table.
    """
    m = np.asarray(mistakes, dtype=np.float64)
    w = np.exp(-eta * (m - m.min(axis=-1, keepdims=True)))
    return w / w.sum(axis=-1, keepdims=True)


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
    scan_memo: dict[int, int] = {}
    space = cls.full_space()
    mistakes = [0] * cls.d
    p_ones = []
    switch_round = None
    for t, (x, y) in enumerate(examples):
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")
        advice = [cls.evaluate(i, x) for i in range(cls.d)]
        if engine is not None and space:
            p = _engine_prediction(engine, config.tie_break, cls, scan_memo, space, x)
        elif kind in BASELINE_KINDS:
            raise WrongPhase("version space is empty")
        else:
            p = _wm_prediction(eta, mistakes, advice)
        p_ones.append(p)
        was_alive = bool(space)
        space = restrict(space, cls, x, y)
        mistakes = [m + (a != y) for m, a in zip(mistakes, advice)]
        if kind in HYBRID_KINDS and was_alive and not space:
            switch_round = t + 1

    randomized = [0.0 < p < 1.0 for p in p_ones]
    analytic = [p if y == 0 else 1.0 - p for p, (_, y) in zip(p_ones, examples)]
    most, round_probs = None, analytic
    if isinstance(mode, Sampled):
        draws = np.random.default_rng(mode.seed).random((mode.trials, len(examples)))
        truth = np.array([y == 1 for _, y in examples], dtype=bool)
        wrong = (draws < np.array(p_ones)) != truth
        most = int(wrong.sum(axis=1).max())
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
        max_mistakes_sampled=most,
    )


def sample_mistakes_reference(seeds, trials, p_one, truth, draw_block=1 << 16):
    """What `learners.sample_mistakes` returns, comparing every learner with every draw."""
    L, B, T = p_one.shape
    rows = max(1, draw_block // max(T, 1))  # passes a block holds
    passes = min(rows, trials)
    orderings = max(1, rows // trials)
    draws = np.empty((min(orderings, B), passes, T))
    most = np.zeros((L, B), dtype=np.int64)
    wrong_per_round = np.zeros((L, B, T))  # integer counts until the division
    for start in range(0, B, orderings):
        stop = min(start + orderings, B)
        rngs = [np.random.default_rng(seed) for seed in seeds[start:stop]]
        for first in range(0, trials, passes):
            block = draws[: stop - start, : min(first + passes, trials) - first]
            for rng, out in zip(rngs, block):
                rng.random(out=out)
            wrong = (block < p_one[:, start:stop, None]) != truth[start:stop, None]  # (L, orderings, passes, T)
            np.maximum(most[:, start:stop], wrong.sum(axis=3).max(axis=2), out=most[:, start:stop])
            wrong_per_round[:, start:stop] += wrong.sum(axis=2)
    wrong_per_round /= trials
    return most, wrong_per_round


def batch_totals(config, cls: FiniteHypothesisClass, base, orders, mode=ANALYTIC):
    """(expected mistakes, realized maxima, whether any prediction was randomized) of one learner per ordering.

    `run_batch_many` of the one learner over one block of the orderings,
    positions into `base`; in sampled mode ordering k draws from mode.seed + (k,).
    """
    examples, orders = tuple(base), orders if isinstance(orders, np.ndarray) else list(orders)
    block = np.array(orders, dtype=np.intp).reshape(len(orders), len(examples))
    expected, _, realized, randomized = run_batch_many((config,), cls, examples, [block], mode)
    return expected[0], realized[0], bool(randomized[0])


def per_ordering_values(config, cls: FiniteHypothesisClass, base: Sequence, orders, mode):
    """(expected mistakes, realized max) per ordering, and whether any round was randomized.

    Ordering k is `base` reordered by orders[k]; in sampled mode its draws are
    seeded with mode.seed + (k,), the harness seeding rule.
    """
    expected, realized, randomized = [], [], False
    for k, order in enumerate(orders):
        seq = tuple(base.examples[i] for i in order)
        perm_mode = mode
        if isinstance(mode, Sampled):
            seed = tuple(mode.seed) if isinstance(mode.seed, tuple) else (mode.seed,)
            perm_mode = Sampled(seed + (k,), mode.trials)
        trace = reference_run(config, cls, seq, perm_mode)
        expected.append(trace.expected_mistakes)
        if trace.max_mistakes_sampled is not None:
            realized.append(trace.max_mistakes_sampled)
        randomized = randomized or trace.randomized_rounds > 0
    return expected, realized, randomized


_ORDERINGS_CACHE: dict[int, np.ndarray] = {}


def all_orderings(T: int) -> np.ndarray:
    """Every ordering of range(T) in `itertools.permutations` order, one (T!, T) array per T."""
    if T not in _ORDERINGS_CACHE:
        orders = np.array(list(permutations(range(T))), dtype=np.intp)
        _ORDERINGS_CACHE[T] = orders.reshape(math.factorial(T), T)
    return _ORDERINGS_CACHE[T]


def exhaustive_reference(config, cls: FiniteHypothesisClass, base: Sequence, mode=ANALYTIC):
    """(mean and max expected mistakes, max sampled mistakes, max exact expected mistakes) over every ordering.

    Runs `batch_totals` on all T! orderings of `base` in `itertools.permutations`
    order. The sampled maximum is the realized one in sampled mode, else the
    analytic maximum for a deterministic learner and None for a randomized one.
    The exact maximum is the analytic run's maximum, in either mode.
    """
    orders = all_orderings(base.T)
    expected, realized, randomized = batch_totals(config, cls, base, orders, mode)
    if realized.size:
        sampled = float(realized.max())
    else:
        sampled = None if randomized else float(expected.max())
    exact = batch_totals(config, cls, base, orders)[0] if realized.size else expected
    return float(expected.mean()), float(expected.max()), sampled, float(exact.max())
