import json
import math
import tracemalloc
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
    """A random class whose domain repeats columns, and a sequence (T <= 6) over few points.

    Labels come from one member (realizable) or at random, so examples repeat
    and the same advice column meets both labels.
    """
    d = draw(st.integers(1, 4))
    distinct = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d), min_size=1, max_size=3))
    n = draw(st.integers(len(distinct), 5))
    picks = list(range(len(distinct))) + draw(
        st.lists(st.integers(0, len(distinct) - 1), min_size=n - len(distinct), max_size=n - len(distinct))
    )
    cls = make_class(np.array(distinct).T[:, picks])
    xs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    if draw(st.booleans()):
        target = draw(st.integers(0, d - 1))
        ys = [int(cls.table[target, x]) for x in xs]
    else:
        ys = draw(st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs)))
    return cls, seq_of(zip(xs, ys))


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
    # exactly what evaluate reports of an exhaustive stream, against run_batch over all T! orderings
    cls, base = inputs
    config = LearnerConfig(kind, eta_variant=eta_variant, tie_break=tie_break)
    stream = PermutationStream(base)
    try:
        want = oracles.exhaustive_reference(config, cls, base, mode)
    except WrongPhase:
        with pytest.raises(WrongPhase):
            experiments._stream_summaries((config,), cls, stream, mode)[0]
        return
    with mock.patch.object(sequences, "BATCH_ORDERINGS", block_rows):  # orderings cross blocks
        assert experiments._stream_summaries((config,), cls, stream, mode)[0] == want


def test_exhaustive_sampled_draws_follow_the_stream_index_across_blocks():
    # T=7 spans 7 blocks; ordering k draws from seed + (k,) whichever block holds it
    case, cls, stream = small_stream(T=7, d=4)
    config = LearnerConfig("wm_halving", tie_break="random")
    mode = Sampled((3, 1), trials=2)
    assert len(list(stream.blocks())) == 7
    want = oracles.exhaustive_reference(config, cls, stream.base, mode)
    assert experiments._stream_summaries((config,), cls, stream, mode)[0] == want


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


def assert_many_matches_each(configs, case, stream, mode):
    """evaluate_many equals evaluate of each config, field by field with ==, or both raise WrongPhase."""
    try:
        want = [evaluate(config, case, stream, mode) for config in configs]
    except WrongPhase:
        with pytest.raises(WrongPhase):
            evaluate_many(configs, case, stream, mode)
        return
    assert evaluate_many(configs, case, stream, mode) == want


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
    case = ExperimentCase("realizable", max(base.T, cls.d), cls.d)  # carried into the reports only
    with (
        mock.patch.object(experiments, "make_case_inputs", lambda _: (cls, base)),
        mock.patch.object(sequences, "BATCH_ORDERINGS", block_rows),  # exhaustive blocks
        mock.patch.object(learners, "BATCH_ORDERINGS", block_rows),  # sampled batches, shrunk per learner
    ):
        assert_many_matches_each(configs, case, stream, mode)
        if online and online != configs:
            assert_many_matches_each(online, case, stream, mode)


@pytest.mark.parametrize("kind", ["realizable", "unrealizable"])
def test_evaluate_many_equals_evaluate_of_each_at_paper_small_scale(kind):
    # T=8: each ordering's 8 rounds are summed pairwise, so any change of layout would show
    case, cls, stream = small_stream(kind)
    kinds = LEARNER_KINDS if kind == "realizable" else ("wm", "wm_consistent", "wm_halving", "wm_soa")
    configs = [LearnerConfig(k, eta_variant="sqrt2", tie_break="random") for k in kinds]
    assert_many_matches_each(configs, case, stream, ANALYTIC)
    sampled_case, _, sampled = small_stream(kind, T=40, d=12, exhaustive=False, count=30, seed=(5, 0))
    assert_many_matches_each(configs, sampled_case, sampled, Sampled((5, 1), trials=3))


@pytest.mark.parametrize("exhaustive", [True, False])
def test_baseline_among_hybrids_raises_when_its_space_empties(exhaustive):
    case, cls, stream = small_stream("unrealizable", T=6, d=3, exhaustive=exhaustive, count=5)
    configs = [LearnerConfig("wm_halving"), LearnerConfig("halving"), LearnerConfig("wm")]
    with pytest.raises(WrongPhase):
        evaluate_many(configs, case, stream)


def test_repeated_learner_is_computed_once_and_reported_twice():
    case, cls, stream = small_stream(T=6, d=3, exhaustive=False, count=5, seed=1)
    wm, seen = LearnerConfig("wm"), []
    run_batch_many = experiments.run_batch_many

    def spy(configs, *args):
        seen.append(configs)
        return run_batch_many(configs, *args)

    with mock.patch.object(experiments, "run_batch_many", spy):
        first, second = evaluate_many([wm, wm], case, stream)
    assert seen == [(wm,)]
    assert first == second and first is not second
    assert evaluate_many([], case, stream) == []


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


def test_agnostic_bound_holds_for_worst_ordering():
    case, cls, stream = small_stream("unrealizable", T=6, d=3)
    for kind in ("wm", "wm_halving", "wm_soa"):
        report = evaluate(LearnerConfig(kind), case, stream)
        (verdict,) = check_bounds(report, cls)
        assert report.max_regret <= verdict.bound_value + 1e-9


def test_hybrid_agnostic_bound_formula():
    case, cls, stream = small_stream("unrealizable")
    report = with_bounds(evaluate(LearnerConfig("wm_halving", eta_variant="sqrt2"), case, stream), cls)
    (verdict,) = report.bounds
    expected = 2 + math.sqrt(0.5 * math.log(4) * (8 - 2))
    assert verdict.bound_value == pytest.approx(expected)
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


def test_unknown_format(two_reports):
    with pytest.raises(UnsupportedFormat):
        emit_report(two_reports, "yaml")


def test_emit_requires_reports():
    with pytest.raises(ValueError):
        emit_report([], "csv")
