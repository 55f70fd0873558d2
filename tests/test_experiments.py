import dataclasses
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab import experiments, learners, sequences
from regretlab import (
    ANALYTIC,
    ExperimentCase,
    FactorialCapExceeded,
    LdimComputer,
    LearnerConfig,
    PermutationStream,
    Sampled,
    UnknownInstance,
    UnsupportedFormat,
    WrongPhase,
    check_bounds,
    emit_report,
    evaluate,
    evaluate_many,
    ldim,
    make_case_inputs,
    run,
    with_bounds,
)
from regretlab.learners import BASELINE_KINDS, ETA_VARIANTS, LEARNER_KINDS, TIE_BREAKS
from regretlab.sequences import EXHAUSTIVE_T_CAP

from . import oracles
from .conftest import make_class, seq_of


def small_stream(kind="realizable", T=8, d=4, **stream_kwargs):
    case = ExperimentCase(kind, T, d)
    cls, base = make_case_inputs(case)
    return case, cls, PermutationStream(base, **stream_kwargs)


@pytest.fixture(scope="module")
def desk_realizable_wm():
    case, cls, stream = small_stream()
    return evaluate(LearnerConfig("wm", eta_variant="sqrt2"), case, stream), cls


@pytest.fixture(scope="module")
def desk_realizable_wmh():
    case, cls, stream = small_stream()
    return evaluate(LearnerConfig("wm_halving", eta_variant="sqrt2"), case, stream), cls


# Exhaustive means over all 40,320 orderings, frozen from the analytic harness.
WM_SQRT2_EXPECTED = 1.3228259343895654
WM_SQRT2_MAX = 1.3381501307829669
WMH_UNREALIZABLE_REGRET = 1.2014528935016768
WMH_RANDOM_TIE_EXPECTED = 11 / 12
WMH_RANDOM_TIE_UNREALIZABLE_REGRET = 1.2895481315969155


def test_exhaustive_wm_expected_and_max(desk_realizable_wm):
    report, _ = desk_realizable_wm
    assert report.permutation_count == 40320
    assert report.best_mistakes == 0
    assert report.expected_mistakes == pytest.approx(WM_SQRT2_EXPECTED, abs=1e-9)
    assert report.max_mistakes == pytest.approx(WM_SQRT2_MAX, abs=1e-9)
    assert report.max_mistakes_sampled is None  # randomized learner, analytic mode


def test_exhaustive_halving_hybrid_with_tie_to_one(desk_realizable_wmh):
    # the deterministic tie rule admits at most one mistake on this case:
    # after any informative positive point the space collapses onto the target
    report, _ = desk_realizable_wmh
    assert report.expected_mistakes == pytest.approx(0.5, abs=1e-12)
    assert report.max_mistakes == pytest.approx(1.0, abs=1e-12)
    assert report.max_mistakes_sampled == pytest.approx(1.0)  # deterministic: no blank


def test_exhaustive_unrealizable_regrets():
    case, cls, stream = small_stream("unrealizable")
    wm = evaluate(LearnerConfig("wm", eta_variant="sqrt2"), case, stream)
    wmh = evaluate(LearnerConfig("wm_halving", eta_variant="sqrt2"), case, stream)
    assert wm.best_mistakes == wmh.best_mistakes == 4
    assert wm.expected_regret == pytest.approx(WM_SQRT2_EXPECTED, abs=1e-9)
    assert wmh.expected_regret == pytest.approx(WMH_UNREALIZABLE_REGRET, abs=1e-9)


def test_randomized_tie_reproduces_published_small_row():
    # fair-coin tie-breaking is the configuration that matches the published
    # 0.91 / max-2 row for the halving hybrid on this case
    case, cls, stream = small_stream()
    config = LearnerConfig("wm_halving", eta_variant="sqrt2", tie_break="random")
    analytic = evaluate(config, case, stream)
    assert analytic.expected_mistakes == pytest.approx(WMH_RANDOM_TIE_EXPECTED, abs=1e-9)
    sampled = evaluate(config, case, stream, mode=Sampled((7, 1), trials=1))
    assert sampled.max_mistakes_sampled == 2.0

    case_u, _, stream_u = small_stream("unrealizable")
    agn = evaluate(config, case_u, stream_u)
    assert agn.expected_regret == pytest.approx(WMH_RANDOM_TIE_UNREALIZABLE_REGRET, abs=1e-9)


def test_mean_matches_per_permutation_resummation():
    case, cls, stream = small_stream(T=5, d=3)
    base = stream.base.examples
    for kind in ("halving", "wm"):
        config = LearnerConfig(kind, eta_variant="sqrt2")
        report = evaluate(config, case, stream)
        values = [
            run(config, cls, [base[i] for i in order], collect_rounds=False).expected_mistakes
            for order in stream.orders()
        ]
        assert report.expected_mistakes == pytest.approx(np.mean(values), abs=1e-12)
        assert report.max_mistakes == max(values)
        assert report.permutation_count == len(values) == 120


def test_regret_identity(desk_realizable_wm):
    report, _ = desk_realizable_wm
    assert report.expected_regret + report.best_mistakes == report.expected_mistakes


def test_evaluate_is_deterministic():
    case, cls, stream = small_stream(T=6, d=3)
    a = evaluate(LearnerConfig("wm"), case, stream)
    b = evaluate(LearnerConfig("wm"), case, stream)
    assert a.expected_mistakes == b.expected_mistakes
    assert a.max_mistakes == b.max_mistakes


def test_oversize_exhaustive_stream_refused_before_allocation():
    case, cls, stream = small_stream(T=EXHAUSTIVE_T_CAP + 1, d=4)
    for kind in ("wm", "wm_soa"):
        for mode in (ANALYTIC, Sampled(1, 2)):
            tracemalloc.start()
            try:
                with pytest.raises(FactorialCapExceeded):
                    evaluate(LearnerConfig(kind), case, stream, mode=mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


@st.composite
def repetitive_class_and_sequence(draw):
    """A random class whose domain repeats columns, and a sequence (T <= 7) over few points.

    Labels come from one member (realizable) or at random, so examples repeat
    and the same advice column meets both labels. The domain always holds a
    column no expert labels 1 and one every expert does.
    """
    d = draw(st.integers(1, 5))
    distinct = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d), min_size=1, max_size=3))
    distinct += [[0] * d, [1] * d]
    n = draw(st.integers(len(distinct), 5))
    picks = list(range(len(distinct))) + draw(
        st.lists(st.integers(0, len(distinct) - 1), min_size=n - len(distinct), max_size=n - len(distinct))
    )
    cls = make_class(np.array(distinct).T[:, picks])
    xs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=7))
    if draw(st.booleans()):
        target = draw(st.integers(0, d - 1))
        ys = [int(cls.table[target, x]) for x in xs]
    else:
        ys = draw(st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs)))
    return cls, seq_of(zip(xs, ys))


def summary(config, cls, stream, mode):
    """The four per-ordering statistics of the learner's report, as `oracles.exhaustive_reference` gives them."""
    report = evaluate_many((config,), cls, stream, mode)[0]
    return (
        report.expected_mistakes,
        report.max_mistakes,
        report.max_mistakes_sampled,
        report.max_exact_mistakes,
    )


@pytest.mark.parametrize("kind", LEARNER_KINDS)
@given(
    inputs=repetitive_class_and_sequence(),
    tie_break=st.sampled_from(TIE_BREAKS),
    eta_variant=st.sampled_from(ETA_VARIANTS),
    mode=st.one_of(
        st.just(ANALYTIC),
        st.builds(Sampled, seed=st.integers(0, 99), trials=st.integers(1, 3)),
    ),
    block_rows=st.sampled_from((2, 7, sequences.BATCH_ORDERINGS)),
)
@settings(max_examples=60, deadline=None)
def test_exhaustive_summary_matches_enumeration(kind, inputs, tie_break, eta_variant, mode, block_rows):
    # exactly what evaluate reports of an exhaustive stream, against the kernel over all T! orderings
    cls, base = inputs
    config = LearnerConfig(kind, eta_variant=eta_variant, tie_break=tie_break)
    stream = PermutationStream(base)
    try:
        want = oracles.exhaustive_reference(config, cls, base, mode)
    except WrongPhase:
        with pytest.raises(WrongPhase):
            evaluate_many((config,), cls, stream, mode)
        return
    with mock.patch.object(sequences, "BATCH_ORDERINGS", block_rows):  # orderings cross blocks
        got = summary(config, cls, stream, mode)
    if isinstance(mode, Sampled):
        assert got == want
    else:  # the analytic mean is a sum over the type table, which rounds apart from a per-ordering mean
        assert got[1:] == want[1:]
        assert got[0] == pytest.approx(want[0], rel=0, abs=1e-12)


def test_analytic_exhaustive_statistics_enumerate_no_ordering(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("orderings enumerated")

    monkeypatch.setattr(sequences, "_permutation_blocks", no_enumeration)
    case, cls, stream = small_stream(T=EXHAUSTIVE_T_CAP)
    configs = [LearnerConfig(kind) for kind in ("wm", "wm_halving", "soa")]
    reports = evaluate_many(configs, cls, stream)
    assert [r.permutation_count for r in reports] == [math.factorial(EXHAUSTIVE_T_CAP)] * 3
    # the means and maxima of the 362,880 orderings, frozen from their enumeration
    got = [(r.expected_mistakes, r.max_mistakes, r.max_mistakes_sampled) for r in reports]
    assert got[1:] == [(0.5, 1.0, 1.0)] * 2
    assert got[0][:2] == pytest.approx((1.193299350148777, 1.2391648186200404), abs=1e-12)
    assert got[0][2] is None
    with pytest.raises(AssertionError, match="orderings enumerated"):  # sampled mode still enumerates
        evaluate_many(configs, cls, stream, Sampled(1))
    _, cls, oversize = small_stream(T=EXHAUSTIVE_T_CAP + 1)
    with pytest.raises(FactorialCapExceeded):
        evaluate_many(configs, cls, oversize)


def test_exhaustive_sampled_draws_follow_the_stream_index_across_blocks():
    # T=7 spans 7 blocks; ordering k draws from seed + (k,) whichever block holds it
    case, cls, stream = small_stream(T=7, d=4)
    config = LearnerConfig("wm_halving", tie_break="random")
    mode = Sampled((3, 1), trials=2)
    assert len(list(stream.blocks())) == 7
    want = oracles.exhaustive_reference(config, cls, stream.base, mode)
    assert summary(config, cls, stream, mode) == want


def test_sampled_permutations_reproducible():
    case, cls, stream = small_stream(T=12, d=6, exhaustive=False, count=25, seed=3)
    a = evaluate(LearnerConfig("wm"), case, stream)
    b = evaluate(LearnerConfig("wm"), case, stream)
    assert a.expected_mistakes == b.expected_mistakes


def test_stream_must_match_case():
    case, cls, stream = small_stream()
    other = ExperimentCase("unrealizable", 8, 4)
    with pytest.raises(ValueError):
        evaluate(LearnerConfig("wm"), other, stream)


@pytest.mark.parametrize("exhaustive", [True, False], ids=["exhaustive", "sampled"])
def test_instance_outside_the_domain_raises_before_any_learner_runs(exhaustive):
    cls, base = make_case_inputs(ExperimentCase("realizable", 6, 3))
    stream = PermutationStream(seq_of([*base.examples[:-1], (99, 1)]), exhaustive=exhaustive, count=4)

    def no_learner(*args):
        raise AssertionError("a learner ran")

    configs = (LearnerConfig("wm"), LearnerConfig("wm_soa"))
    # evaluate_many, and each kernel called alone: every one resolves the sequence before any row
    calls = [
        lambda: evaluate_many(configs, cls, stream),
        lambda: learners.run_exhaustive_many(configs, cls, stream),
        lambda: learners.run_batch_many(configs, cls, stream.base, stream.blocks()),
        lambda: run(configs[0], cls, stream.base),
    ]
    for call in calls:
        with mock.patch("regretlab.learners._row_rule", no_learner), pytest.raises(UnknownInstance):
            call()


@st.composite
def class_and_labeled_sequence(draw):
    """A random class (no threshold structure), a sequence over its domain, and whether a member labels it."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    cls = make_class(np.array(draw(st.lists(st.integers(0, 1), min_size=d * n, max_size=d * n))).reshape(d, n))
    xs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    by_member = draw(st.booleans())
    if by_member:
        target = draw(st.integers(0, d - 1))
        ys = [int(cls.table[target, x]) for x in xs]
    else:
        ys = draw(st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs)))
    return cls, seq_of(zip(xs, ys)), by_member


@given(inputs=class_and_labeled_sequence(), mode=st.sampled_from((ANALYTIC, Sampled(4, 2))))
@settings(max_examples=80, deadline=None)
def test_verdict_kind_follows_the_best_hypothesis(inputs, mode):
    # realizable iff some member makes no mistake on the sequence, counted here by hand
    cls, base, by_member = inputs
    best = min(sum(int(cls.table[i, x]) != y for x, y in base) for i in range(cls.d))
    stream = PermutationStream(base, exhaustive=base.T <= 4, count=3, seed=(1, 0))
    for report in evaluate_many([LearnerConfig("wm"), LearnerConfig("wm_halving")], cls, stream, mode):
        assert (report.T, report.d, report.best_mistakes) == (base.T, cls.d, best)
        assert report.realizable == (best == 0)
        if by_member:
            assert report.realizable
        (verdict,) = check_bounds(report, cls)
        if report.realizable:
            assert "mistakes <=" in verdict.name and "regret" not in verdict.name
            assert verdict.observed == report.max_exact_mistakes
        else:
            assert verdict.name.startswith("expected regret <=")
            assert verdict.observed == report.expected_regret


def test_threshold_cases_are_realizable_as_their_kind_says():
    # every d for short horizons, then its ends and middle, up to T = 120
    wm = LearnerConfig("wm")
    for T in range(1, 121):
        for d in range(1, T + 1) if T <= 16 else (1, 2, T // 2, T - 1, T):
            for kind in ("realizable", "unrealizable"):
                cls, base = make_case_inputs(ExperimentCase(kind, T, d))
                (report,) = evaluate_many([wm], cls, PermutationStream(base, exhaustive=False, count=1))
                assert report.realizable == (kind == "realizable"), (kind, T, d)


# --- one pass for many learners ----------------------------------------------------


@st.composite
def class_with_constant_and_repeated_columns(draw, max_len):
    """A random class holding both constant columns and repeated ones, and a sequence over it.

    Labels come from one member (realizable) or at random (usually not).
    """
    d = draw(st.integers(1, 5))
    columns = [[0] * d, [1] * d] + draw(
        st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d), min_size=1, max_size=3)
    )
    picks = [0, 1] + draw(st.lists(st.integers(0, len(columns) - 1), min_size=1, max_size=5))
    cls = make_class(np.array(columns).T[:, picks])
    xs = draw(st.lists(st.integers(0, cls.n - 1), min_size=1, max_size=max_len))
    if draw(st.booleans()):
        target = draw(st.integers(0, d - 1))
        ys = [int(cls.table[target, x]) for x in xs]
    else:
        ys = draw(st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs)))
    return cls, seq_of(zip(xs, ys))


learner_lists = st.lists(
    st.builds(
        LearnerConfig,
        kind=st.sampled_from(LEARNER_KINDS),
        eta_variant=st.sampled_from(ETA_VARIANTS),
        tie_break=st.sampled_from(TIE_BREAKS),
    ),
    min_size=1,
    max_size=8,
)


def assert_many_matches_each(configs, cls, stream, mode):
    """evaluate_many equals its one-learner call of each config, field by field with ==, or both raise WrongPhase."""
    try:
        want = [evaluate_many((config,), cls, stream, mode)[0] for config in configs]
    except WrongPhase:
        with pytest.raises(WrongPhase):
            evaluate_many(configs, cls, stream, mode)
        return
    assert evaluate_many(configs, cls, stream, mode) == want


@given(
    inputs=st.one_of(
        class_with_constant_and_repeated_columns(max_len=6).map(lambda cs: (*cs, None)),
        st.tuples(class_with_constant_and_repeated_columns(max_len=12), st.integers(1, 12)).map(
            lambda inputs: (*inputs[0], inputs[1])
        ),
    ),
    configs=learner_lists,
    mode=st.one_of(
        st.just(ANALYTIC),
        st.builds(Sampled, seed=st.integers(0, 99), trials=st.integers(1, 3)),
    ),
    block_rows=st.sampled_from((1, 2, 7, sequences.BATCH_ORDERINGS)),
)
@settings(max_examples=200, deadline=None)
def test_evaluate_many_equals_evaluate_of_each(inputs, configs, mode, block_rows):
    # a count of None is an exhaustive stream (T <= 6), else that many sampled orderings
    cls, base, count = inputs
    # without the baselines too, which would raise WrongPhase on most unrealizable sequences
    online = [config for config in configs if config.kind not in BASELINE_KINDS]
    stream = PermutationStream(base, exhaustive=count is None, count=count or 0, seed=(3, 0))
    # the stream's blocks, exhaustive or sampled, and the kernel's slices of them per learner
    with mock.patch.object(sequences, "BATCH_ORDERINGS", block_rows):
        assert_many_matches_each(configs, cls, stream, mode)
        if online and online != configs:
            assert_many_matches_each(online, cls, stream, mode)


@pytest.mark.parametrize("kind", ["realizable", "unrealizable"])
def test_evaluate_many_equals_evaluate_of_each_at_paper_small_scale(kind):
    # T=8: each ordering's 8 rounds are summed pairwise, so any change of layout would show
    case, cls, stream = small_stream(kind)
    kinds = LEARNER_KINDS if kind == "realizable" else ("wm", "wm_consistent", "wm_halving", "wm_soa")
    configs = [LearnerConfig(k, eta_variant="sqrt2", tie_break="random") for k in kinds]
    assert_many_matches_each(configs, cls, stream, ANALYTIC)
    _, sampled_cls, sampled = small_stream(kind, T=40, d=12, exhaustive=False, count=30, seed=(5, 0))
    assert_many_matches_each(configs, sampled_cls, sampled, Sampled((5, 1), trials=3))


@pytest.mark.parametrize("exhaustive", [True, False])
def test_baseline_among_hybrids_raises_when_its_space_empties(exhaustive):
    case, cls, stream = small_stream("unrealizable", T=6, d=3, exhaustive=exhaustive, count=5)
    configs = [LearnerConfig("wm_halving"), LearnerConfig("halving"), LearnerConfig("wm")]
    with pytest.raises(WrongPhase):
        evaluate_many(configs, cls, stream)


def test_repeated_learner_is_computed_once_and_reported_twice():
    case, cls, stream = small_stream(T=6, d=3, exhaustive=False, count=5, seed=1)
    wm, seen = LearnerConfig("wm"), []
    run_batch_many = experiments.run_batch_many

    def spy(configs, *args):
        seen.append(configs)
        return run_batch_many(configs, *args)

    with mock.patch.object(experiments, "run_batch_many", spy):
        first, second = evaluate_many([wm, wm], cls, stream)
    assert seen == [(wm,)]
    assert first == second
    assert evaluate_many([], cls, stream) == []


# --- bound verdicts -----------------------------------------------------------


def test_realizable_halving_bound_large_class():
    case = ExperimentCase("realizable", 1000, 500)
    cls, base = make_case_inputs(case)
    stream = PermutationStream(base, exhaustive=False, count=10, seed=(7, 0))
    report = evaluate(LearnerConfig("wm_halving"), case, stream)
    (verdict,) = check_bounds(report, cls)
    assert verdict.bound_value == 8.0  # floor(log2 500)
    assert verdict.observed <= 6.0
    assert verdict.passed


def test_agnostic_wm_bound_large_class():
    case = ExperimentCase("unrealizable", 1000, 500)
    cls, base = make_case_inputs(case)
    stream = PermutationStream(base, exhaustive=False, count=10, seed=(7, 0))
    report = evaluate(LearnerConfig("wm", eta_variant="sqrt2"), case, stream)
    (verdict,) = check_bounds(report, cls)
    assert verdict.bound_value == pytest.approx(math.sqrt(0.5 * math.log(500) * 1000))
    assert verdict.observed == pytest.approx(report.expected_regret)
    assert verdict.passed


def test_soa_bound_check_reads_the_class_memo(monkeypatch):
    case, cls, stream = small_stream(T=6, d=3)
    report = evaluate(LearnerConfig("soa"), case, stream)
    assert ldim(cls).value == 1
    calls = []
    value = LdimComputer.value

    def counted(self, mask):
        calls.append(mask)
        return value(self, mask)

    monkeypatch.setattr(LdimComputer, "value", counted)
    (verdict,) = check_bounds(report, cls)
    assert verdict.bound_value == 1.0
    assert calls == [cls.full_space().mask]  # one memo hit, no recursion


def test_degenerate_case_bounds_pass():
    case = ExperimentCase("realizable", 1, 1)
    cls, base = make_case_inputs(case)
    stream = PermutationStream(base)
    for kind in ("consistent", "halving", "soa", "wm", "wm_halving"):
        report = evaluate(LearnerConfig(kind), case, stream)
        for verdict in check_bounds(report, cls):
            assert verdict.observed == 0.0
            assert verdict.passed


def test_baselines_have_no_agnostic_bound():
    case, cls, stream = small_stream("unrealizable", T=4, d=2)
    report = evaluate(LearnerConfig("wm_halving"), case, stream)
    report.learner = LearnerConfig("halving")  # forged report kind
    assert check_bounds(report, cls) == []


@pytest.mark.parametrize("mode", [ANALYTIC, Sampled((2, 1), trials=1)], ids=["analytic", "sampled"])
def test_agnostic_bound_holds_for_worst_ordering(mode):
    # the regret bound holds for every sequence, so for the worst ordering's exact
    # expectation; a sampled mean of one pass may exceed it
    case, cls, stream = small_stream("unrealizable", T=6, d=3)
    for kind in ("wm", "wm_halving", "wm_soa"):
        report = evaluate(LearnerConfig(kind), case, stream, mode)
        (verdict,) = check_bounds(report, cls)
        assert report.max_regret == report.max_exact_mistakes - report.best_mistakes
        if mode == ANALYTIC:
            assert report.max_regret == report.max_mistakes - report.best_mistakes
        assert report.max_regret <= verdict.bound_value + 1e-9


# (kind, case, |H|, bound name, bound value) on the T=8 threshold cases; no
# bound for a baseline on an unrealizable run
BOUND_TABLE = [
    ("consistent", "realizable", 1, "mistakes <= |H| - 1", 0.0),
    ("consistent", "realizable", 4, "mistakes <= |H| - 1", 3.0),
    ("consistent", "unrealizable", 1, None, None),
    ("consistent", "unrealizable", 4, None, None),
    ("halving", "realizable", 1, "mistakes <= floor(log2 |H|)", 0.0),
    ("halving", "realizable", 4, "mistakes <= floor(log2 |H|)", 2.0),
    ("halving", "unrealizable", 1, None, None),
    ("halving", "unrealizable", 4, None, None),
    ("soa", "realizable", 1, "mistakes <= Ldim(H)", 0.0),
    ("soa", "realizable", 4, "mistakes <= Ldim(H)", 2.0),
    ("soa", "unrealizable", 1, None, None),
    ("soa", "unrealizable", 4, None, None),
    ("wm", "realizable", 1, "expected mistakes <= sqrt(0.5 ln|H| T)", 0.0),
    ("wm", "realizable", 4, "expected mistakes <= sqrt(0.5 ln|H| T)", 2.3548200450309493),
    ("wm", "unrealizable", 1, "expected regret <= sqrt(0.5 ln|H| T)", 0.0),
    ("wm", "unrealizable", 4, "expected regret <= sqrt(0.5 ln|H| T)", 2.3548200450309493),
    ("wm_consistent", "realizable", 1, "mistakes <= |H| - 1", 0.0),
    ("wm_consistent", "realizable", 4, "mistakes <= |H| - 1", 3.0),
    ("wm_consistent", "unrealizable", 1, "expected regret <= |H| - 1 + sqrt(0.5 ln|H| (T - (|H| - 1)))", 0.0),
    ("wm_consistent", "unrealizable", 4, "expected regret <= |H| - 1 + sqrt(0.5 ln|H| (T - (|H| - 1)))", 4.861648705529517),
    ("wm_halving", "realizable", 1, "mistakes <= floor(log2 |H|)", 0.0),
    ("wm_halving", "realizable", 4, "mistakes <= floor(log2 |H|)", 2.0),
    ("wm_halving", "unrealizable", 1, "expected regret <= floor(log2 |H|) + sqrt(0.5 ln|H| (T - floor(log2 |H|)))", 0.0),
    ("wm_halving", "unrealizable", 4, "expected regret <= floor(log2 |H|) + sqrt(0.5 ln|H| (T - floor(log2 |H|)))", 4.039333980337618),
    ("wm_soa", "realizable", 1, "mistakes <= Ldim(H)", 0.0),
    ("wm_soa", "realizable", 4, "mistakes <= Ldim(H)", 2.0),
    ("wm_soa", "unrealizable", 1, "expected regret <= Ldim(H) + sqrt(0.5 ln|H| (T - Ldim(H)))", 0.0),
    ("wm_soa", "unrealizable", 4, "expected regret <= Ldim(H) + sqrt(0.5 ln|H| (T - Ldim(H)))", 4.039333980337618),
]


@pytest.fixture(scope="module")
def t8_reports():
    """Each learner's analytic report over every ordering of the T=8 cases, by (kind, case, |H|), with its class."""
    reports = {}
    for case in ("realizable", "unrealizable"):
        kinds = [k for k in LEARNER_KINDS if case == "realizable" or k not in BASELINE_KINDS]
        for d in (1, 4):
            _, cls, stream = small_stream(case, T=8, d=d)
            for kind, report in zip(kinds, evaluate_many([LearnerConfig(k) for k in kinds], cls, stream)):
                reports[kind, case, d] = report, cls
    return reports


@pytest.mark.parametrize("kind, case, d, name, value", BOUND_TABLE, ids=[f"{k}-{c}-{d}" for k, c, d, *_ in BOUND_TABLE])
def test_bound_verdicts(monkeypatch, t8_reports, kind, case, d, name, value):
    if name is None:
        report, cls = t8_reports["wm_" + kind, case, d]
        forged = dataclasses.replace(report, learner=LearnerConfig(kind))
        monkeypatch.setattr(experiments, "ldim", lambda cls: pytest.fail("Ldim computed for no bound"))
        assert check_bounds(forged, cls) == []
        return
    report, cls = t8_reports[kind, case, d]
    (verdict,) = check_bounds(report, cls)
    assert (verdict.name, verdict.bound_value) == (name, value)
    assert verdict.observed == (report.max_exact_mistakes if report.realizable else report.expected_regret)
    assert verdict.passed


# --- report emission ------------------------------------------------------------


@pytest.fixture(scope="module")
def two_reports(desk_realizable_wm, desk_realizable_wmh):
    wm, cls = desk_realizable_wm
    wmh, _ = desk_realizable_wmh
    return [with_bounds(wm, cls), with_bounds(wmh, cls)]


def test_csv_layout(two_reports):
    text = emit_report(two_reports, "csv")
    lines = text.strip().splitlines()
    assert lines[0].startswith("learner,T,permutations,|H|,M(h*),expected_mistakes,max_mistakes")
    assert len(lines) == 3
    first, second = lines[1].split(","), lines[2].split(",")
    assert first[0] == "wm" and second[0] == "wm_halving"
    assert first[1] == "8" and first[2] == "40320" and first[3] == "4" and first[4] == "0"


def test_csv_diff_column(two_reports):
    text = emit_report(two_reports, "csv")
    header = text.strip().splitlines()[0].split(",")
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    diff_at = header.index("diff")
    assert rows[0][diff_at] == ""  # reference row
    expected = two_reports[0].max_mistakes - two_reports[1].max_mistakes
    assert float(rows[1][diff_at]) == pytest.approx(expected)


def test_csv_no_blank_cells_for_deterministic_learner(two_reports):
    header = emit_report(two_reports, "csv").strip().splitlines()[0].split(",")
    row = emit_report(two_reports, "csv").strip().splitlines()[2].split(",")
    sampled_at = header.index("max_mistakes_sampled")
    assert row[sampled_at] != ""


def test_diff_is_found_by_position():
    # one report object at two positions: only the first row is the reference row
    _, cls, stream = small_stream(T=6, d=3)
    r, h = evaluate_many([LearnerConfig("wm"), LearnerConfig("wm_halving")], cls, stream)
    assert r.realizable and h.realizable
    last = r.max_mistakes - h.max_mistakes
    lines = emit_report([r, r, h], "csv").splitlines()
    diff_at = lines[0].split(",").index("diff")
    assert [line.split(",")[diff_at] for line in lines[1:]] == ["", "0.0", repr(last)]
    rows = json.loads(emit_report([r, r, h], "json"))["reports"]
    assert [row["diff"] for row in rows] == [None, 0.0, last]


def test_json_round_trip(two_reports):
    doc = json.loads(emit_report(two_reports, "json"))
    assert doc["schema"] == 1
    rows = doc["reports"]
    assert rows[0]["expected_mistakes"] == two_reports[0].expected_mistakes
    assert rows[1]["max_mistakes"] == two_reports[1].max_mistakes
    assert rows[0]["bound_pass"] is True


def test_markdown_layout(two_reports):
    text = emit_report(two_reports, "markdown")
    assert "| T | Permutations | |H| | M(h*) |" in text
    assert "wm expected mistakes" in text
    assert "Diff" in text
    assert "pass" in text


def test_markdown_has_one_table_per_run_and_reads_regret_when_unrealizable(two_reports):
    _, cls, stream = small_stream("unrealizable")
    configs = [LearnerConfig(k, eta_variant="sqrt2") for k in ("wm", "wm_halving")]
    unrealizable = [with_bounds(r, cls) for r in evaluate_many(configs, cls, stream)]
    text = emit_report([*two_reports, *unrealizable], "markdown")
    tables = [line for line in text.splitlines() if line.startswith("| T |")]
    assert tables == [
        "| T | Permutations | |H| | M(h*) | wm expected mistakes | wm max mistakes"
        " | wm_halving expected mistakes | wm_halving max mistakes | Diff |",
        "| T | Permutations | |H| | M(h*) | wm expected regret | wm_halving expected regret | Diff |",
    ]
    wm, wmh = unrealizable
    row = f"| 8 | 40320 | 4 | 4 | {wm.expected_regret:.2f} | {wmh.expected_regret:.2f} | "
    assert row + f"{wm.expected_regret - wmh.expected_regret:.2f} |" in text


MARKDOWN_GOLDEN = Path(__file__).parent / "golden" / "markdown"
# each golden report's runs, in order: (case kind, T, |H|, learners), every learner
# at sqrt2 over the exhaustive stream, analytic, bounds checked
MARKDOWN_RUNS = {
    "realizable_T7_d4_three_learners.md": [("realizable", 7, 4, ("wm", "wm_halving", "wm_soa"))],
    "unrealizable_T8_d4_two_learners.md": [("unrealizable", 8, 4, ("wm", "wm_halving"))],
    "two_runs.md": [("realizable", 6, 3, ("wm", "wm_consistent")), ("unrealizable", 6, 3, ("wm", "wm_soa"))],
}


def test_markdown_goldens_are_the_listed_runs():
    assert sorted(p.name for p in MARKDOWN_GOLDEN.iterdir()) == sorted(MARKDOWN_RUNS)


@pytest.mark.parametrize("name", sorted(MARKDOWN_RUNS))
def test_markdown_matches_golden_bytes(name):
    reports = []
    for kind, T, d, kinds in MARKDOWN_RUNS[name]:
        cls, base = make_case_inputs(ExperimentCase(kind, T, d))
        configs = [LearnerConfig(k, eta_variant="sqrt2") for k in kinds]
        reports += [with_bounds(r, cls) for r in evaluate_many(configs, cls, PermutationStream(base))]
    assert emit_report(reports, "markdown").encode() == (MARKDOWN_GOLDEN / name).read_bytes()


def test_unknown_format(two_reports):
    with pytest.raises(UnsupportedFormat):
        emit_report(two_reports, "yaml")


def test_emit_requires_reports():
    with pytest.raises(ValueError):
        emit_report([], "csv")
