"""perfbench/spans.py wraps library names from the outside; every name it patches must exist."""

import importlib.util
from pathlib import Path

from regretlab import ExperimentCase, LearnerConfig, PermutationStream, cli, experiments, learners, sequences
from regretlab.ldim import LdimComputer

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# (owner, name) of every attribute `spans.install` replaces
EXPERIMENTS_NAMES = ("run", "evaluate", "emit_report", "make_case_inputs", "mistake_profile", "check_bounds")
PATCHED = [
    *((experiments, name) for name in EXPERIMENTS_NAMES),
    *((cli, name) for name in ("evaluate", "emit_report", "make_case_inputs", "run_cli")),
    (learners, "restrict"),
    (sequences.PermutationStream, "orders"),
    (LdimComputer, "__init__"),
    (LdimComputer, "value"),
]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_install_wraps_a_run_and_uninstall_restores(tmp_path):
    spans = load_spans()
    originals = [owner.__dict__[name] for owner, name in PATCHED]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert all(owner.__dict__[name] is not f for (owner, name), f in zip(PATCHED, originals))
        case = ExperimentCase("realizable", 5, 3)
        cls, base = experiments.make_case_inputs(case)
        report = experiments.evaluate(LearnerConfig("wm_soa"), case, PermutationStream(base))
        experiments.with_bounds(report, cls)
        argv = ["run", "--T", "5", "--d", "3", "--learners", "wm,wm_soa", "--out", str(tmp_path / "r.csv")]
        assert cli.run_cli(argv) == 0
    finally:
        uninstall()
    assert all(owner.__dict__[name] is f for (owner, name), f in zip(PATCHED, originals))
    counts = {name: stats.count for name, stats in tracer.spans.items()}
    assert counts["cli.run_cli"] == counts["experiments.evaluate"] == 1
    assert counts["experiments.check_bounds"] == 3
    assert (tmp_path / "r.csv").read_text().startswith("learner,T,")
