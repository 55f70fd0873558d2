"""Independent brute-force oracles used to pin expected test values.

The Littlestone-dimension oracle enumerates every complete binary instance
tree of a given depth (node values range over the whole domain) and checks
all 2^depth root-to-leaf labelings directly against the member rows. It
shares no code with the recursive computation it cross-checks.

The per-ordering oracle runs one fresh learner object per ordering through
`run`, the single-sequence reference, to cross-check the batched kernel.
"""

from itertools import product

import numpy as np

from regretlab import FiniteHypothesisClass, Sampled, Sequence, VersionSpace, run

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
        trace = run(config, cls, seq, perm_mode, collect_rounds=False)
        expected.append(trace.expected_mistakes)
        if trace.trial_mistakes is not None:
            realized.append(int(trace.trial_mistakes.max()))
        randomized = randomized or trace.randomized_rounds > 0
    return expected, realized, randomized
