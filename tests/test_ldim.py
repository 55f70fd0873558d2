import gc
import importlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab import (
    EmptyVersionSpace,
    ExperimentCase,
    IndexOutOfRange,
    LdimCapExceeded,
    LdimComputer,
    ShatteredTree,
    VersionSpace,
    ldim,
    ldim_witness_check,
    make_case_inputs,
)
from regretlab.sequences import make_domain, make_threshold_class

from .conftest import make_class
from .oracles import exists_shattered_tree, ldim_by_enumeration, ldim_by_scan, witness_by_scan

# the module; the package attribute `regretlab.ldim` is the function
ldim_module = importlib.import_module("regretlab.ldim")


def test_quad_class_has_dimension_two(quad_class):
    result = ldim(quad_class, want_witness=True)
    assert result.value == 2
    assert result.witness.depth == 2
    assert ldim_witness_check(quad_class, quad_class.full_space(), result.witness)


def test_quad_class_known_tree_is_shattered(quad_class):
    tree = ShatteredTree(2, (0, 1, 2))
    assert ldim_witness_check(quad_class, quad_class.full_space(), tree)


def test_quad_class_no_depth_three_tree(quad_class):
    assert not exists_shattered_tree(quad_class, None, 3)


def test_singleton_class_dimension_zero():
    cls = make_class([[0, 1, 0]])
    assert ldim(cls).value == 0


def test_empty_member_set_rejected(quad_class):
    with pytest.raises(EmptyVersionSpace):
        ldim(quad_class, VersionSpace(0, 4))


@pytest.mark.parametrize("space", [VersionSpace.of([0, 1, 2, 3, 6], 7), VersionSpace.full(3)], ids=["wider", "narrower"])
def test_space_sized_for_another_class_refused(space):
    cls, _ = make_case_inputs(ExperimentCase("realizable", 8, 4))
    message = f"version space over {space.d} hypotheses given for a class of 4"
    with pytest.raises(IndexOutOfRange, match=message):
        ldim(cls, space)
    with pytest.raises(IndexOutOfRange, match=message):
        ldim_witness_check(cls, space, ShatteredTree(0, ()))


def test_depth_zero_tree_accepted(quad_class):
    assert ldim_witness_check(quad_class, quad_class.full_space(), ShatteredTree(0, ()))


def test_threshold_class_dimension_verified_by_enumeration(threshold8):
    value = ldim(threshold8).value
    assert value == ldim_by_enumeration(threshold8)
    assert exists_shattered_tree(threshold8, None, value)
    assert not exists_shattered_tree(threshold8, None, value + 1)


def test_threshold_witness_is_pinned(threshold8):
    result = ldim(threshold8, want_witness=True)
    assert result.witness == ShatteredTree(2, (2, 3, 1))


def test_random_class_witness_is_pinned():
    cls = make_class(
        [
            [0, 1, 0, 0, 0, 0],
            [1, 1, 1, 1, 0, 0],
            [1, 0, 0, 0, 1, 0],
            [0, 0, 0, 1, 1, 1],
            [1, 0, 0, 1, 1, 0],
            [0, 0, 0, 1, 1, 1],
            [1, 1, 0, 0, 0, 0],
            [1, 0, 1, 0, 1, 1],
            [1, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 0, 0],
        ]
    )
    result = ldim(cls, want_witness=True)
    assert result.witness == ShatteredTree(3, (4, 0, 3, 1, 2, 2, 0))
    assert ldim_witness_check(cls, cls.full_space(), result.witness)


def test_paper_scale_threshold_class():
    """T=1000, d=500: Ldim is floor(log2 500), found in a memo of at most 29 states."""
    cls, _ = make_case_inputs(ExperimentCase("realizable", 1000, 500))
    assert ldim(cls).value == 8
    assert len(LdimComputer(cls)._memo) <= 29


def test_witness_tree_shape_rule():
    with pytest.raises(ValueError):
        ShatteredTree(2, (0, 1))


def test_witness_cap():
    table = np.zeros((25, 2), dtype=np.int8)
    table[:, 0] = np.arange(25) % 2
    cls = make_class(table)
    with pytest.raises(ValueError):
        ldim(cls, want_witness=True)
    assert ldim(cls).value >= 1  # value computation itself is not capped


def test_memo_is_per_class(quad_class, threshold8):
    a, b = LdimComputer(quad_class), LdimComputer(threshold8)
    assert a.value(quad_class.full_space().mask) == 2
    assert b.value(threshold8.full_space().mask) == 2
    assert a._memo is not b._memo
    again = LdimComputer(quad_class)
    assert again._memo is a._memo
    assert quad_class.full_space().mask in again._memo


def test_memo_is_dropped_with_its_class():
    gc.collect()
    cls = make_class([[0, 1, 1], [0, 0, 1], [1, 1, 1]])
    assert ldim(cls).value == 1
    record = ldim_module._MEMOS[cls]
    memo, shapes = record[0], record[2]
    assert memo and LdimComputer(cls)._memo is memo
    assert shapes and LdimComputer(cls)._shapes is shapes
    alive = weakref.ref(cls)
    del cls
    gc.collect()
    assert alive() is None
    assert all(r[0] is not memo and r[2] is not shapes for r in ldim_module._MEMOS.values())


@pytest.mark.parametrize("key_bits", [ldim_module.SHAPE_KEY_BITS, 30])
def test_every_threshold_range_matches_full_scan_with_one_shape_per_size(key_bits, monkeypatch):
    """On a threshold class, ranges of one length share one shape, whatever their offset."""
    monkeypatch.setattr(ldim_module, "SHAPE_KEY_BITS", key_bits)
    d = 16
    cls = make_threshold_class(d, make_domain(2 * d))
    computer = LdimComputer(cls)
    scan_memo: dict[int, int] = {}
    for lo in range(d):
        for hi in range(lo, d):
            mask = ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1)
            assert computer.value(mask) == ldim_by_scan(cls, mask, scan_memo), (lo, hi)
    assert len(computer._shapes) <= d
    assert all(size * len(sides) <= key_bits for size, sides in computer._shapes)


def test_state_cap_raises_and_keeps_stored_values_exact(monkeypatch):
    monkeypatch.setattr(ldim_module, "LDIM_STATE_CAP", 5)
    cls = make_threshold_class(64, make_domain(128))
    computer = LdimComputer(cls)
    with pytest.raises(LdimCapExceeded, match="capped at 5"):
        computer.value(cls.full_space().mask)
    assert len(computer._memo) == 5
    scan_memo: dict[int, int] = {}
    for mask, value in computer._memo.items():
        assert value == ldim_by_scan(cls, mask, scan_memo), mask


small_tables = st.integers(1, 6).flatmap(
    lambda d: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.integers(0, 1), min_size=d * n, max_size=d * n
        ).map(lambda bits: np.array(bits).reshape(d, n))
    )
)


@given(small_tables)
@settings(max_examples=60, deadline=None)
def test_recursion_matches_enumeration(table):
    cls = make_class(table)
    assert ldim(cls).value == ldim_by_enumeration(cls)


@given(small_tables)
@settings(max_examples=100, deadline=None)
def test_log2_ceiling(table):
    cls = make_class(table)
    assert ldim(cls).value <= cls.d.bit_length() - 1


@given(small_tables, st.integers(0, 2**6 - 1))
@settings(max_examples=100, deadline=None)
def test_monotone_in_members(table, raw_mask):
    cls = make_class(table)
    mask = raw_mask & ((1 << cls.d) - 1)
    if mask == 0:
        return
    subset = VersionSpace(mask, cls.d)
    assert ldim(cls, subset).value <= ldim(cls).value
    assert ldim(cls, subset).value == ldim_by_enumeration(cls, subset)


@given(small_tables)
@settings(max_examples=40, deadline=None)
def test_witness_always_verifies(table):
    cls = make_class(table)
    result = ldim(cls, want_witness=True)
    assert result.witness.depth == result.value
    assert ldim_witness_check(cls, cls.full_space(), result.witness)


@given(small_tables, st.data())
@settings(max_examples=100, deadline=None)
def test_a_copy_at_another_offset_reads_its_shape(table, data):
    """Two copies of one table, apart in one class: the second copy's query hits the first's shape."""
    d, n = table.shape
    padding = data.draw(
        st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=3, unique=True)
    )
    stacked = np.vstack([table, np.array(padding).reshape(-1, n), table])
    cls = make_class(stacked)
    computer = LdimComputer(cls)
    first = (1 << d) - 1
    second = first << (d + len(padding))
    assert computer.value(first) == ldim_by_scan(cls, first)
    shapes, states = len(computer._shapes), len(computer._memo)
    assert computer.value(second) == ldim_by_scan(cls, second)
    assert len(computer._shapes) == shapes
    assert len(computer._memo) == states + 1  # the second copy alone: no recursion


def test_ranges_of_one_size_and_pair_count_keep_their_own_shapes():
    """Ldim 2 on rows 0-3 and Ldim 1 on rows 5-8, each range split by two pairs."""
    cls = make_class([[0, 0], [0, 1], [1, 0], [1, 1], [1, 1], [1, 0], [0, 1], [0, 0], [0, 0]])
    computer = LdimComputer(cls)
    assert computer.value(0b1111) == ldim_by_scan(cls, 0b1111) == 2
    assert computer.value(0b1111 << 5) == ldim_by_scan(cls, 0b1111 << 5) == 1


@st.composite
def scan_classes(draw):
    """Classes with d <= 13 and n <= 8, with constant and repeated columns mixed in."""
    d = draw(st.integers(1, 13))
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("random", "zeros", "ones", "repeat")))
        if kind == "zeros":
            columns.append([0] * d)
        elif kind == "ones":
            columns.append([1] * d)
        elif kind == "repeat" and columns:
            columns.append(draw(st.sampled_from(columns)))
        else:
            columns.append(draw(st.lists(st.integers(0, 1), min_size=d, max_size=d)))
    return make_class(np.array(columns).T)


@given(scan_classes(), st.lists(st.integers(1, 2**13 - 1), max_size=5))
@settings(max_examples=150, deadline=None)
def test_value_matches_full_scan(cls, raw_masks):
    full = cls.full_space().mask
    for mask in {m & full for m in raw_masks} - {0}:
        fresh = make_class(cls.table)  # an empty memo, so the mask is computed, not read
        assert LdimComputer(fresh).value(mask) == ldim_by_scan(cls, mask)
    assert LdimComputer(cls).value(full) == ldim_by_scan(cls)


@given(scan_classes(), st.integers(1, 2**13 - 1))
@settings(max_examples=150, deadline=None)
def test_every_memo_entry_matches_full_scan(cls, raw_mask):
    """The sets computed from their parents' narrowed candidates are exact, not only the answer."""
    mask = raw_mask & cls.full_space().mask or cls.full_space().mask
    fresh = make_class(cls.table)  # an empty memo, so every entry comes from this query
    computer = LdimComputer(fresh)
    computer.value(mask)
    scan_memo: dict[int, int] = {}
    assert mask in computer._memo
    for key, value in computer._memo.items():
        assert value == ldim_by_scan(cls, key, scan_memo), key


@given(scan_classes())
@settings(max_examples=150, deadline=None)
def test_witness_matches_full_scan(cls):
    """The splitting-column witness is the lowest-index witness over all domain points."""
    result = ldim(cls, want_witness=True)
    assert result.witness.nodes == witness_by_scan(cls)
    assert ldim_witness_check(cls, cls.full_space(), result.witness)
