"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: python3 -m pytest -q perfbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calib  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from regretlab import ExperimentCase, LdimComputer, LearnerConfig, PermutationStream, make_case_inputs  # noqa: E402
import regretlab.experiments as experiments  # noqa: E402
import regretlab.learners as learners  # noqa: E402


def scripted_tracer(*ticks):
    clock = iter(ticks)
    return spans.Tracer(clock=lambda: next(clock))


def test_self_time_is_duration_minus_child_coverage():
    tracer = scripted_tracer(0.0, 1.0, 3.0, 4.0, 7.0, 10.0)
    child = tracer.wrap("child", lambda: None)
    parent = tracer.wrap("parent", lambda: (child(), child()))
    parent()
    p, c = tracer.spans["parent"], tracer.spans["child"]
    assert (p.count, p.total, p.self_time) == (1, 10.0, 5.0)
    assert (c.count, c.total, c.self_time) == (2, 5.0, 5.0)


def test_self_times_of_nested_spans_sum_to_the_outermost_duration():
    # outer [0, 20] > middle [2, 12] > inner [5, 9]; inner's time is not subtracted twice
    tracer = scripted_tracer(0.0, 2.0, 5.0, 9.0, 12.0, 20.0)
    inner = tracer.wrap("inner", lambda: None)
    middle = tracer.wrap("middle", inner)
    tracer.wrap("outer", middle)()
    self_times = {name: s.self_time for name, s in tracer.spans.items()}
    assert self_times == {"inner": 4.0, "middle": 6.0, "outer": 10.0}
    assert sum(self_times.values()) == tracer.spans["outer"].total


def test_span_closes_when_the_call_raises():
    tracer = scripted_tracer(0.0, 2.0)

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans["boom"].total == 2.0 and not tracer._open


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 99) == 99
    assert spans.percentile([3.0], 99) == 3.0
    assert spans.percentile([], 50) == 0.0


def test_install_counts_layer_calls_and_uninstall_restores():
    case = ExperimentCase("realizable", 4, 2)
    cls, base = make_case_inputs(case)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        experiments.with_bounds(
            experiments.evaluate(LearnerConfig("wm_soa"), case, PermutationStream(base)), cls
        )
    finally:
        uninstall()
    assert experiments.run is learners.run
    assert LdimComputer.value.__qualname__ == "LdimComputer.value"
    m = spans.layer_metrics(tracer, report_s=1.0)
    assert m["learners.run_calls"] == 24  # 4! orderings
    assert m["learners.rounds"] == 96
    assert m["sequences.orders"] == 24
    assert m["ldim.computers"] == 25  # one per ordering plus the bound check
    assert m["ldim.states"] <= m["ldim.calls"]
    assert m["learners.run_self_s.wm_soa"] == m["learners.run_self_s"]


def test_scaled_seconds_divides_each_pass_by_the_calibrations_either_side():
    # ratios 2 / 0.5 = 4, 3 / 0.5 = 6 and 4 / 0.8 = 5: the median is 5
    got = calib.scaled_seconds([2.0, 3.0, 4.0], [0.4, 0.6, 0.4, 1.2])
    assert got == pytest.approx(5 * calib.REFERENCE_S)
    with pytest.raises(ValueError):
        calib.scaled_seconds([2.0], [0.4])


def test_pinned_rows_pass_their_own_check():
    pins = oracle.pinned_rows("exhaustive_small", 7)
    keys = workloads.WORKLOADS["exhaustive_small"].row_keys
    assert oracle.check_rows(pins, keys, [pins]) == []


@pytest.mark.parametrize("column", ["expected_mistakes", "max_mistakes", "expected_regret", "bound_value"])
def test_row_perturbed_by_1e_6_fails(column):
    pins = oracle.pinned_rows("exhaustive_small", 7)
    keys = workloads.WORKLOADS["exhaustive_small"].row_keys
    got = copy.deepcopy(pins)
    got["unrealizable"]["wm"][column] += 1e-6
    failures = oracle.check_rows(got, keys, [pins])
    assert len(failures) == 1 and failures[0].startswith("unrealizable/wm:")


def test_missing_row_and_failed_bound_count_as_failed():
    pins = oracle.pinned_rows("exhaustive_small", 7)
    keys = workloads.WORKLOADS["exhaustive_small"].row_keys
    got = copy.deepcopy(pins)
    del got["realizable"]["wm"]
    got["unrealizable"]["wm_halving"]["bound_pass"] = False
    assert len(oracle.check_rows(got, keys, [got])) == 2


def test_known_discrepancy_row_is_pinned_as_the_library_produces_it():
    row = oracle.pinned_rows("exhaustive_small", 7)["realizable"]["wm_halving"]
    assert (row["expected_mistakes"], row["max_mistakes"]) == (0.5, 1.0)
    assert "0.91 / 2" in row["note"]  # README's published T=8 row, not reproduced


@pytest.mark.parametrize(
    "workload,seed",
    [
        (name, int(seed) if seed != "any" else 0)
        for name, by_seed in json.loads(oracle.PINS_PATH.read_text()).items()
        for seed in by_seed
    ],
)
def test_reference_reproduces_the_pins(workload, seed):
    pins = oracle.pinned_rows(workload, seed)
    for group in workloads.WORKLOADS[workload].groups:
        c = group.case
        reference = oracle.reference_group(
            c.kind, c.T, c.d, group.learners, group.permutations, group.mode, seed
        )
        for learner in group.learners:
            assert oracle.row_errors(pins[c.kind][learner], reference[learner]) == []


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 11])
def test_interval_ldim_matches_the_library_on_every_interval(d):
    cls, _ = make_case_inputs(ExperimentCase("realizable", 2 * d, d))
    computer = LdimComputer(cls)
    for lo in range(d):
        for hi in range(lo, d):
            mask = ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1)
            assert computer.value(mask) == oracle.interval_ldim(hi - lo + 1)
