import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regretlab import (
    FiniteHypothesisClass,
    IndexOutOfRange,
    Sequence,
    UnknownInstance,
    VersionSpace,
    best_mistakes,
    mistake_profile,
    restrict,
)

from .conftest import make_class, seq_of


def test_evaluate_threshold_entries(threshold8):
    assert threshold8.evaluate(0, 1) == 1
    assert threshold8.evaluate(4, 4) == 0
    # determinism: repeated queries agree
    assert threshold8.evaluate(2, 3) == threshold8.evaluate(2, 3)


def test_evaluate_errors(threshold8):
    with pytest.raises(UnknownInstance):
        threshold8.evaluate(0, 99)
    with pytest.raises(IndexOutOfRange):
        threshold8.evaluate(5, 1)


def test_table_matches_threshold_definition(threshold8):
    expected = np.array(
        [
            [0, 0, 0, 0, 1, 1, 1, 1],
            [0, 0, 0, 0, 0, 1, 1, 1],
            [0, 0, 0, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, 0, 0],
        ]
    )
    assert (threshold8.table == expected).all()


def test_restrict_positive_point_keeps_only_h0(threshold8):
    space = restrict(threshold8.full_space(), threshold8, 1, 1)
    assert space.members() == (0,)


def test_restrict_drops_only_disagreeing_member(threshold8):
    space = restrict(threshold8.full_space(), threshold8, 4, 1)
    assert space.members() == (0, 1, 2, 3)


def test_restrict_noop_when_all_agree(threshold8):
    space = restrict(threshold8.full_space(), threshold8, -3, 0)
    assert space == threshold8.full_space()


def test_mistake_profile_realizable(threshold8, realizable8):
    assert mistake_profile(threshold8, realizable8).tolist() == [0, 1, 2, 3, 4]


def test_mistake_profile_empty_sequence(threshold8):
    assert mistake_profile(threshold8, Sequence(())).tolist() == [0] * 5


def test_mistake_profile_all_ones_d4():
    from regretlab import ExperimentCase, make_case_inputs

    cls, seq = make_case_inputs(ExperimentCase("unrealizable", 8, 4))
    profile = mistake_profile(cls, seq)
    assert profile.min() == 4
    assert profile.tolist() == [4, 5, 6, 7]


def test_mistake_profile_large_unrealizable():
    from regretlab import ExperimentCase, make_case_inputs

    cls, seq = make_case_inputs(ExperimentCase("unrealizable", 1000, 500))
    count, argmins = best_mistakes(mistake_profile(cls, seq))
    assert count == 500
    assert argmins == (0,)


def test_best_mistakes_single_winner(threshold8, realizable8):
    count, argmins = best_mistakes(mistake_profile(threshold8, realizable8))
    assert (count, argmins) == (0, (0,))


def test_best_mistakes_all_tied():
    count, argmins = best_mistakes(np.array([3, 3, 3]))
    assert count == 3
    assert argmins == (0, 1, 2)


def test_version_space_helpers():
    space = VersionSpace.of([1, 3], 5)
    assert len(space) == 2
    assert 3 in space and 0 not in space
    assert space.min_index() == 1
    assert space.members() == (1, 3)
    assert not VersionSpace(0, 5)
    with pytest.raises(IndexOutOfRange):
        VersionSpace.of([5], 5)


def test_class_validation():
    with pytest.raises(ValueError):
        make_class([[0, 2]])
    with pytest.raises(ValueError):
        FiniteHypothesisClass((0, 0), np.zeros((1, 2), dtype=np.int8))
    with pytest.raises(ValueError):
        FiniteHypothesisClass((), np.zeros((1, 0), dtype=np.int8))


def test_json_round_trip(threshold8):
    doc = json.loads(threshold8.to_json())
    assert set(doc) == {"domain", "table"}
    again = FiniteHypothesisClass.from_json(threshold8.to_json())
    assert again.domain == threshold8.domain
    assert (again.table == threshold8.table).all()


def test_sequence_csv(realizable8):
    lines = realizable8.to_csv().strip().splitlines()
    assert lines[0] == "t,x,y"
    assert lines[1] == "1,-3,0"
    assert lines[-1] == "8,4,1"


def test_sequence_rejects_bad_labels():
    with pytest.raises(ValueError):
        Sequence(((0, 2),))


small_tables = st.integers(1, 5).flatmap(
    lambda d: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.integers(0, 1), min_size=d * n, max_size=d * n
        ).map(lambda bits: np.array(bits).reshape(d, n))
    )
)


@st.composite
def class_and_examples(draw, max_len=8):
    table = draw(small_tables)
    cls = make_class(table)
    length = draw(st.integers(0, max_len))
    pairs = [
        (draw(st.integers(0, cls.n - 1)), draw(st.integers(0, 1))) for _ in range(length)
    ]
    return cls, pairs


@given(class_and_examples())
def test_restrict_idempotent(case):
    cls, pairs = case
    space = cls.full_space()
    for x, y in pairs:
        once = restrict(space, cls, x, y)
        assert restrict(once, cls, x, y) == once
        space = once


@given(class_and_examples())
def test_restrict_order_invariant(case):
    cls, pairs = case
    forward = backward = cls.full_space()
    for x, y in pairs:
        forward = restrict(forward, cls, x, y)
    for x, y in reversed(pairs):
        backward = restrict(backward, cls, x, y)
    assert forward == backward


@given(class_and_examples(), st.randoms())
def test_profile_permutation_invariant(case, rnd):
    cls, pairs = case
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    a = mistake_profile(cls, seq_of(pairs))
    b = mistake_profile(cls, seq_of(shuffled))
    assert (a == b).all()


@given(small_tables, st.integers(0, 10))
def test_profile_zero_for_generating_row(table, length):
    cls = make_class(table)
    target = length % cls.d
    pairs = [(x % cls.n, int(cls.table[target, x % cls.n])) for x in range(length)]
    assert mistake_profile(cls, seq_of(pairs))[target] == 0


@given(class_and_examples())
def test_per_round_errors_complement_votes(case):
    cls, pairs = case
    for x, y in pairs:
        advice = cls.column(x)
        errors = int((advice != y).sum())
        agreeing = int((advice == y).sum())
        assert errors == cls.d - agreeing


@given(
    st.integers(1, 20).flatmap(
        lambda d: st.integers(1, 6).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=d * n, max_size=d * n).map(
                lambda bits: np.array(bits).reshape(d, n)
            )
        )
    )
)
def test_ones_masks_match_bit_loop(table):
    # d runs past 8 and 16, so the packed masks span partial bytes
    cls = make_class(table)
    for j in range(cls.n):
        want = sum(1 << i for i in range(cls.d) if table[i, j])
        assert cls.ones_mask(j) == want
