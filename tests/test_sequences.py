import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab import (
    ExperimentCase,
    FactorialCapExceeded,
    PermutationStream,
    label_sequence,
    make_domain,
    make_threshold_class,
    mistake_profile,
)

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


def test_factorial_cap():
    seq = label_sequence(ExperimentCase("realizable", 10, 4), make_domain(10))
    stream = PermutationStream(seq)
    with pytest.raises(FactorialCapExceeded):
        next(stream.orders())


def test_sampled_stream_reproducible():
    seq = label_sequence(ExperimentCase("realizable", 12, 4), make_domain(12))
    a = list(PermutationStream(seq, exhaustive=False, count=30, seed=9).orders())
    b = list(PermutationStream(seq, exhaustive=False, count=30, seed=9).orders())
    c = list(PermutationStream(seq, exhaustive=False, count=30, seed=10).orders())
    assert a == b
    assert a != c
    assert len(a) == 30


def test_sampled_stream_count_validation():
    seq = label_sequence(ExperimentCase("realizable", 4, 2), make_domain(4))
    with pytest.raises(ValueError):
        PermutationStream(seq, exhaustive=False, count=0)


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_permutations_preserve_multiset(T, seed):
    seq = label_sequence(ExperimentCase("realizable", T, 1), make_domain(T))
    stream = PermutationStream(seq, exhaustive=False, count=3, seed=seed)
    base_counts = Counter(seq.examples)
    for order in stream.orders():
        assert Counter(seq.examples[i] for i in order) == base_counts
