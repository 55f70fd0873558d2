import json
import math

import numpy as np
import pytest

from regretlab import experiments
from regretlab import (
    ExperimentCase,
    LearnerConfig,
    PermutationStream,
    Sampled,
    UnsupportedFormat,
    check_bounds,
    emit_report,
    evaluate,
    make_case_inputs,
    run,
    with_bounds,
)


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


def test_jobs_do_not_change_results():
    case, cls, stream = small_stream(T=6, d=3)
    serial = evaluate(LearnerConfig("wm"), case, stream, jobs=1)
    parallel = evaluate(LearnerConfig("wm"), case, stream, jobs=2)
    assert serial.expected_mistakes == parallel.expected_mistakes
    assert serial.max_mistakes == parallel.max_mistakes


def test_jobs_capped_at_cpu_count(monkeypatch):
    recorded = []

    class SerialPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    case, cls, stream = small_stream(T=5, d=3)
    capped = evaluate(LearnerConfig("wm_halving"), case, stream, mode=Sampled(4, 2), jobs=1000)
    assert recorded == [3]
    serial = evaluate(LearnerConfig("wm_halving"), case, stream, mode=Sampled(4, 2), jobs=1)
    assert recorded == [3]
    assert capped == serial


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
