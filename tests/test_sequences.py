import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab import (
    ExperimentCase,
    FactorialCapExceeded,
    PermutationStream,
    label_sequence,
    make_case_inputs,
    make_domain,
    make_threshold_class,
    mistake_profile,
)
from regretlab import sequences
from regretlab.sequences import BATCH_ORDERINGS, EXHAUSTIVE_T_CAP

TABLE_ROWS_8 = [
    (-3, 0),
    (-2, 0),
    (-1, 0),
    (0, 0),
    (1, 1),
    (2, 1),
    (3, 1),
    (4, 1),
]


def test_domain_even():
    assert make_domain(8) == (-3, -2, -1, 0, 1, 2, 3, 4)
    assert make_domain(2) == (0, 1)


def test_domain_degenerate():
    assert make_domain(1) == (0,)


def test_domain_odd_keeps_size():
    for T in (3, 5, 7, 9):
        domain = make_domain(T)
        assert len(domain) == T
        assert domain[-1] == T // 2


def test_domain_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_domain(0)


def test_threshold_class_matches_reference_columns(threshold8):
    cls = make_threshold_class(5, make_domain(8))
    assert (cls.table == threshold8.table).all()


@pytest.mark.parametrize("T, d", [(1, 1), (7, 4), (8, 5), (1000, 500)])
def test_threshold_table_bytes_match_row_definition(T, d):
    domain = make_domain(T)
    rows = np.stack([(np.array(domain) > i).astype(np.int8) for i in range(d)])
    table = make_threshold_class(d, domain).table
    assert table.dtype == np.int8 and table.tobytes() == rows.tobytes()


def test_threshold_splits_at_origin():
    cls = make_threshold_class(1, make_domain(8))
    assert cls.evaluate(0, 0) == 0
    assert cls.evaluate(0, 1) == 1


def test_threshold_all_agree_on_minimum():
    cls = make_threshold_class(5, make_domain(8))
    assert set(cls.column(-3).tolist()) == {0}


def test_threshold_rows_distinct_up_to_nonnegative_count():
    domain = make_domain(8)  # five points >= 0
    cls = make_threshold_class(5, domain)
    rows = {tuple(row) for row in cls.table.tolist()}
    assert len(rows) == 5


def test_threshold_duplicate_rows_allowed():
    cls = make_threshold_class(8, make_domain(8))
    rows = [tuple(row) for row in cls.table.tolist()]
    assert len(set(rows)) < len(rows)  # indices past the max point repeat
    assert cls.d == 8  # and still count toward |H|


def test_threshold_size_validation():
    with pytest.raises(ValueError):
        make_threshold_class(9, make_domain(8))


def test_realizable_sequence_matches_reference():
    case = ExperimentCase("realizable", 8, 4)
    seq = label_sequence(case, make_domain(8))
    assert seq.examples == tuple(TABLE_ROWS_8)


def test_unrealizable_sequence_all_ones():
    case = ExperimentCase("unrealizable", 8, 4)
    seq = label_sequence(case, make_domain(8))
    assert all(y == 1 for _, y in seq)


def test_case_inputs_at_the_size_cap_hold_at_most_two_tables():
    # the CLI's largest case: the threshold builder's bool array and the class's one copy
    tracemalloc.start()
    try:
        cls, _ = make_case_inputs(ExperimentCase("unrealizable", 10_000, 5_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * cls.table.nbytes


def test_realizable_best_is_zero_unrealizable_counts_nonpositives():
    for T, d in ((8, 4), (20, 10)):
        domain = make_domain(T)
        cls = make_threshold_class(d, domain)
        real = label_sequence(ExperimentCase("realizable", T, d), domain)
        agn = label_sequence(ExperimentCase("unrealizable", T, d), domain)
        assert mistake_profile(cls, real).min() == 0
        assert mistake_profile(cls, agn).min() == sum(1 for x in domain if x <= 0)


def test_case_validation():
    with pytest.raises(ValueError):
        ExperimentCase("realizable", 4, 8)
    with pytest.raises(ValueError):
        ExperimentCase("sometimes", 8, 4)
    with pytest.raises(ValueError):
        ExperimentCase("realizable", 0, 0)


@pytest.mark.parametrize(
    "T, d, message",
    [(2.5, 1, "T must be an integer, got 2.5"), (4, 2.0, "d must be an integer, got 2.0")],
    ids=["float-T", "float-d"],
)
def test_case_refuses_a_size_that_is_not_an_integer(T, d, message):
    with pytest.raises(ValueError) as info:
        ExperimentCase("realizable", T, d)
    assert str(info.value) == message


def test_exhaustive_count():
    case = ExperimentCase("realizable", 8, 4)
    seq = label_sequence(case, make_domain(8))
    stream = PermutationStream(seq)
    assert len(stream) == math.factorial(8) == 40320
    seen = sum(1 for _ in stream.orders())
    assert seen == 40320


def test_exhaustive_orders_unique_and_lexicographic():
    seq = label_sequence(ExperimentCase("realizable", 4, 2), make_domain(4))
    orders = list(PermutationStream(seq).orders())
    assert len(set(orders)) == 24
    assert orders == sorted(orders)


def test_single_point_stream():
    seq = label_sequence(ExperimentCase("realizable", 1, 1), make_domain(1))
    orders = PermutationStream(seq).orders()
    assert [tuple(seq.examples[i] for i in order) for order in orders] == [seq.examples]


@pytest.mark.parametrize("T", range(1, EXHAUSTIVE_T_CAP + 1))
def test_exhaustive_blocks_follow_itertools_order(T):
    stream = PermutationStream(label_sequence(ExperimentCase("realizable", T, 1), make_domain(T)))
    want = itertools.permutations(range(T))
    for block in stream.blocks():
        assert 1 <= len(block) <= BATCH_ORDERINGS
        assert block.tolist() == [list(order) for order in itertools.islice(want, len(block))]
    assert next(want, None) is None


@pytest.mark.parametrize("exhaustive", [True, False])
@pytest.mark.parametrize("max_rows", [1, 5, 7, 120])
def test_orders_are_the_rows_of_the_blocks(monkeypatch, max_rows, exhaustive):
    # 13 sampled orderings cross every block boundary but the largest
    monkeypatch.setattr(sequences, "BATCH_ORDERINGS", max_rows)
    seq = label_sequence(ExperimentCase("realizable", 5, 1), make_domain(5))
    stream = PermutationStream(seq, exhaustive=exhaustive, count=13, seed=9)
    blocks = list(stream.blocks())
    assert max(len(block) for block in blocks) <= max_rows
    assert all(block.dtype == np.intp and block.shape[1] == 5 for block in blocks)
    rows = [tuple(row) for block in blocks for row in block.tolist()]
    if exhaustive:
        want = list(itertools.permutations(range(5)))
    else:
        rng = np.random.default_rng(9)
        want = [tuple(rng.permutation(5).tolist()) for _ in range(13)]
    assert rows == list(stream.orders()) == want


def test_factorial_cap():
    seq = label_sequence(ExperimentCase("realizable", 10, 4), make_domain(10))
    stream = PermutationStream(seq)
    with pytest.raises(FactorialCapExceeded):
        next(stream.orders())
    with pytest.raises(FactorialCapExceeded):
        stream.blocks()  # when called, not when first read


def test_sampled_stream_reproducible():
    seq = label_sequence(ExperimentCase("realizable", 12, 4), make_domain(12))
    a = list(PermutationStream(seq, exhaustive=False, count=30, seed=9).orders())
    b = list(PermutationStream(seq, exhaustive=False, count=30, seed=9).orders())
    c = list(PermutationStream(seq, exhaustive=False, count=30, seed=10).orders())
    assert a == b
    assert a != c
    assert len(a) == 30


@pytest.mark.parametrize(("max_rows", "lengths"), [(1, [1] * 4), (3, [3, 1]), (BATCH_ORDERINGS, [4])])
@pytest.mark.parametrize("seed", [9, (7, 0)])
def test_sampled_orders_follow_the_seeding_contract(monkeypatch, seed, max_rows, lengths):
    # ordering k is the k-th permutation drawn from default_rng(seed), as Python ints,
    # wherever the block boundaries fall
    monkeypatch.setattr(sequences, "BATCH_ORDERINGS", max_rows)
    T, count = 50, 4
    seq = label_sequence(ExperimentCase("realizable", T, 4), make_domain(T))
    rng = np.random.default_rng(seed)
    want = [tuple(int(i) for i in rng.permutation(T)) for _ in range(count)]
    stream = PermutationStream(seq, exhaustive=False, count=count, seed=seed)
    got = list(stream.orders())
    assert got == want
    assert all(type(i) is int for order in got for i in order)
    assert [len(block) for block in stream.blocks()] == lengths


@pytest.mark.parametrize("T", [1, 2, 8, 1000])
@pytest.mark.parametrize("count", [1, 5, BATCH_ORDERINGS + 6])
@pytest.mark.parametrize("seed", [0, 123, (7, 0)])
def test_sampled_blocks_are_per_row_permutation_draws(monkeypatch, T, count, seed):
    # one shuffle per block draws what one permutation(T) per row draws, and
    # leaves the generator where those calls leave it
    default_rng, made = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(default_rng(s)) or made[-1])
    blocks = list(sequences._shuffled_blocks(T, count, seed))
    want = default_rng(seed)
    rows = np.array([want.permutation(T) for _ in range(count)], dtype=np.intp)
    assert all(block.dtype == np.intp for block in blocks)
    assert np.array_equal(np.concatenate(blocks), rows)
    assert len(made) == 1 and made[0].random() == want.random()


def test_sampled_stream_count_validation():
    seq = label_sequence(ExperimentCase("realizable", 4, 2), make_domain(4))
    with pytest.raises(ValueError):
        PermutationStream(seq, exhaustive=False, count=0)


@pytest.mark.parametrize(
    "count, seed, message",
    [
        (2.5, 0, "count must be an integer, got 2.5"),
        (2, -1, "seed must be a non-negative integer or a non-empty tuple of them, got -1"),
        (2, (7, -1), "seed must be a non-negative integer or a non-empty tuple of them, got (7, -1)"),
        (2, (), "seed must be a non-negative integer or a non-empty tuple of them, got ()"),
        (2, 1.5, "seed must be an integer, got 1.5"),
    ],
    ids=["float-count", "negative-seed", "negative-seed-entry", "empty-seed", "float-seed"],
)
def test_sampled_stream_refuses_a_bad_count_or_seed_when_built(count, seed, message):
    seq = label_sequence(ExperimentCase("realizable", 4, 2), make_domain(4))
    with pytest.raises(ValueError) as info:
        PermutationStream(seq, exhaustive=False, count=count, seed=seed)
    assert str(info.value) == message


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_permutations_preserve_multiset(T, seed):
    seq = label_sequence(ExperimentCase("realizable", T, 1), make_domain(T))
    stream = PermutationStream(seq, exhaustive=False, count=3, seed=seed)
    base_counts = Counter(seq.examples)
    for order in stream.orders():
        assert Counter(seq.examples[i] for i in order) == base_counts
