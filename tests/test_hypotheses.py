import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regretlab import (
    ExperimentCase,
    FiniteHypothesisClass,
    IndexOutOfRange,
    LearnerConfig,
    Sequence,
    UnknownInstance,
    VersionSpace,
    best_mistakes,
    make_case_inputs,
    mistake_profile,
    restrict,
    run,
)
from regretlab import hypotheses

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
    profile = mistake_profile(threshold8, Sequence(()))
    assert profile.dtype == np.int64 and profile.tolist() == [0] * 5


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


def test_domain_points_are_ints_and_distinct_after_conversion():
    table = np.zeros((1, 2), dtype=np.int8)
    cls = FiniteHypothesisClass((np.int64(-1), True), table)
    assert cls.domain == (-1, 1) and all(type(x) is int for x in cls.domain)
    assert cls.column_index(1) == 1
    for domain in [(1.0, 1.5), (0, 1.0), (0, "1"), (0, None)]:
        with pytest.raises(ValueError, match="must be an integer") as refused:
            FiniteHypothesisClass(domain, table)
        assert "\n" not in str(refused.value)
    with pytest.raises(ValueError, match="distinct"):  # True is the point 1
        FiniteHypothesisClass((1, True), table)


@pytest.mark.parametrize("entry", [257, 256, -255, 2, -1, 0.5, "a", None, float("nan")])
def test_class_checks_entries_before_the_int8_cast(entry):
    """257 and 256 would wrap to 1 and 0 in int8; from_json would hit numpy's OverflowError."""
    with pytest.raises(ValueError, match="0 or 1"):
        FiniteHypothesisClass((0, 1), np.array([[entry, 0]]))
    with pytest.raises(ValueError, match="0 or 1"):
        FiniteHypothesisClass.from_json(json.dumps({"domain": [0, 1], "table": [[entry, 0]]}))


@pytest.mark.parametrize(
    "doc",
    [
        [[0, 1]],  # not an object
        "0 1",
        None,
        {"table": [[0, 1]]},  # no domain
        {"domain": [0, 1]},  # no table
        {"domain": [0, 1], "table": [[0, 1]], "d": 1},  # an unknown key
        {"domain": "01", "table": [[0, 1]]},  # a domain that is not a list
        {"domain": {"0": 0, "1": 1}, "table": [[0, 1]]},
        {"domain": 2, "table": [[0, 1]]},
        {"domain": [0, 1.5], "table": [[0, 1]]},  # points that are not integers
        {"domain": [0, True], "table": [[0, 1]]},
        {"domain": [0, "1"], "table": [[0, 1]]},
        {"domain": [0, None], "table": [[0, 1]]},
    ],
)
def test_class_document_is_refused_with_one_line(doc):
    with pytest.raises(ValueError) as refused:
        FiniteHypothesisClass.from_json(json.dumps(doc))
    assert str(refused.value) and "\n" not in str(refused.value)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, bool])
def test_class_owns_one_read_only_table_that_input_edits_do_not_reach(dtype):
    table = np.array([[0, 1], [1, 1]], dtype=dtype)
    cls, twin = make_class(table), make_class(table.copy())
    assert np.shares_memory(cls.table, cls.advice_of) and not np.shares_memory(cls.table, table)
    assert not cls.table.flags.writeable and not cls.advice_of.flags.writeable
    assert cls.table.dtype == np.int8 and cls.table.shape == (2, 2) and cls.advice_of.flags.c_contiguous
    table[0, 0] = 1  # the caller edits its array after construction
    assert cls.table.tolist() == [[0, 1], [1, 1]] and cls.advice_of.T.tolist() == [[0, 1], [1, 1]]
    assert [cls.ones_mask(j) for j in range(2)] == [0b10, 0b11]
    seq = seq_of([(0, 0), (1, 1), (0, 0)])  # labeled by row 0 as given
    assert mistake_profile(cls, seq).tolist() == [0, 2]
    for kind in ("wm", "wm_halving", "soa"):
        assert run(LearnerConfig(kind), cls, seq) == run(LearnerConfig(kind), twin, seq)


@pytest.mark.parametrize("entry", [True, 1.0])
def test_class_accepts_entries_equal_to_one(entry):
    cls = FiniteHypothesisClass((0, 1), np.array([[entry, 0]]))
    assert cls.table.dtype == np.int8 and cls.table.tolist() == [[1, 0]]


def test_class_at_the_size_cap_validates_in_table_sized_memory():
    # the CLI's largest class, d = 5,000 hypotheses over T = 10,000 points
    table = np.random.default_rng(0).integers(0, 2, (5_000, 10_000), dtype=np.int8)
    tracemalloc.start()
    try:
        FiniteHypothesisClass(tuple(range(table.shape[1])), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table.nbytes


def test_mistake_profile_at_the_size_cap_makes_no_table_sized_temporary():
    cls, seq = make_case_inputs(ExperimentCase("unrealizable", 10_000, 5_000))
    tracemalloc.start()
    try:
        profile = mistake_profile(cls, seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * cls.table.nbytes
    # all labels are 1, so h_i errs on the i + 5,000 points x <= i of -4,999 .. 5,000
    assert (profile == np.arange(5_000) + 5_000).all()


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


@pytest.mark.parametrize("label", [2, -1, 0.5, "1", None])
def test_sequence_rejects_bad_labels(label):
    with pytest.raises(ValueError, match="0 or 1") as refused:
        Sequence(((0, label),))
    assert "\n" not in str(refused.value)


def test_sequence_stores_instances_and_labels_as_ints():
    seq = Sequence(((0, True), (True, 1.0), (np.int64(2), np.int64(0))))
    assert seq.examples == ((0, 1), (1, 1), (2, 0)) and all(type(v) is int for pair in seq for v in pair)
    assert seq.to_csv() == "t,x,y\n1,0,1\n2,1,1\n3,2,0\n"
    for x in (1.0, 1.5, "1", None):
        with pytest.raises(ValueError, match="must be an integer"):
            Sequence(((x, 1),))


def test_mistake_profile_checks_every_example_first(threshold8):
    with pytest.raises(ValueError, match="0 or 1"):  # not read as a 1
        mistake_profile(threshold8, [(1, 2), (0, 0)])
    with pytest.raises(UnknownInstance):
        mistake_profile(threshold8, [(1, 1), (99, 0)])
    cols, truth = threshold8.resolve([(1, 1), (-3, 0)])
    assert cols.tolist() == [4, 0] and truth.tolist() == [True, False]


def test_resolve_converts_instances_as_sequence_does(threshold8):
    # 1.0 hashes like the point 1, so a plain dict lookup would take it for that point
    for refuse in (lambda: threshold8.resolve([(1.0, 1), (True, 0)]), lambda: threshold8.column_index(1.0)):
        with pytest.raises(ValueError, match="an instance must be an integer") as refused:
            refuse()
        assert "\n" not in str(refused.value)
    examples = [(np.int64(1), 1), (True, 0)]
    cols, _ = threshold8.resolve(examples)
    assert cols.tolist() == threshold8.resolve(Sequence(tuple(examples)))[0].tolist() == [4, 4]


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


def test_class_builds_its_masks_on_first_use(monkeypatch):
    calls, bitmasks = [], hypotheses.bitmasks

    def spy(rows):
        calls.append(len(rows))
        return bitmasks(rows)

    monkeypatch.setattr(hypotheses, "bitmasks", spy)
    table = np.random.default_rng(1).integers(0, 2, (20, 9))
    cls = make_class(table)
    assert calls == []
    # the wm and halving paths read the transposed table, never the masks
    seq = seq_of((x, (x * 5) % 3 == 0) for x in range(9))
    for kind in ("wm", "wm_halving"):
        run(LearnerConfig(kind), cls, seq)
    assert calls == []
    assert cls.advice_of is cls.advice_of and not cls.advice_of.flags.writeable
    assert (cls.advice_of == table.T.astype(bool)).all()
    for j in range(cls.n):
        assert cls.ones_mask(j) == sum(1 << i for i in range(cls.d) if table[i, j])
    assert calls == [cls.n]  # every column's mask, built once
