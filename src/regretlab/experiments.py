"""Permutation harness: drive learners over reorderings, aggregate, check bounds.

The orderings of a stream run as batches through `learners.run_batch`, which
advances every ordering of a batch together, round by round, from a fresh
learner state; there is no learner object per ordering. Expectations are
means of per-ordering analytic expected mistakes, so exhaustive runs are
exactly reproducible. Sampled-realized maxima are reported alongside the
analytic maxima because the two readings of a "max mistakes" column differ
for randomized learners. With jobs > 1 the stream is split into contiguous
index ranges, one per worker process.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import UnsupportedFormat
from .hypotheses import FiniteHypothesisClass, best_mistakes, mistake_profile
from .learners import ANALYTIC, HYBRID_KINDS, Analytic, LearnerConfig, Sampled, run_batch
# Not called here: kept as the attribute perfbench/spans.py wraps until its spans wrap run_batch.
from .learners import run  # noqa: F401
from .ldim import LdimComputer
from .sequences import (
    REALIZABLE,
    ExperimentCase,
    PermutationStream,
    make_case_inputs,
)

BOUND_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BoundVerdict:
    """One theoretical bound compared against an observed statistic."""

    name: str
    bound_value: float
    observed: float

    @property
    def passed(self) -> bool:
        return self.observed <= self.bound_value + BOUND_TOLERANCE


@dataclass
class PermutationReport:
    """Aggregates for one learner over one permutation stream."""

    learner: LearnerConfig
    case: ExperimentCase
    permutation_count: int
    best_mistakes: int
    expected_mistakes: float
    max_mistakes: float
    expected_regret: float
    max_mistakes_sampled: float | None = None
    bounds: tuple[BoundVerdict, ...] = ()

    @property
    def max_regret(self) -> float:
        """Worst per-permutation regret; used for per-run bound checks."""
        return self.max_mistakes - self.best_mistakes


def evaluate(
    config: LearnerConfig,
    case: ExperimentCase,
    stream: PermutationStream,
    mode: Analytic | Sampled = ANALYTIC,
    jobs: int = 1,
) -> PermutationReport:
    """Run the learner from a fresh state on every ordering in the stream and aggregate.

    Worker processes are capped at the ordering count and the CPU count.
    """
    cls, base = make_case_inputs(case)
    if stream.base.examples != base.examples:
        raise ValueError("stream base sequence does not match the case")

    total = len(stream)
    jobs = max(1, min(jobs, total, os.cpu_count() or 1))
    if jobs == 1:
        chunks = [run_batch(config, cls, base, stream.orders(), mode)]
    else:
        bounds_ = np.linspace(0, total, jobs + 1, dtype=int)
        args = [
            (config, case, stream, mode, int(a), int(b))
            for a, b in zip(bounds_[:-1], bounds_[1:])
            if b > a
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_chunk_values, args))

    expected = np.concatenate([c[0] for c in chunks])
    realized = np.concatenate([c[1] for c in chunks])
    randomized = any(c[2] for c in chunks)

    profile = mistake_profile(cls, base)
    best, _ = best_mistakes(profile)
    mean = float(expected.mean())
    max_analytic = float(expected.max())
    if realized.size:
        max_sampled: float | None = float(realized.max())
    else:
        max_sampled = None if randomized else max_analytic
    return PermutationReport(
        learner=config,
        case=case,
        permutation_count=total,
        best_mistakes=best,
        expected_mistakes=mean,
        max_mistakes=max_analytic,
        expected_regret=mean - best,
        max_mistakes_sampled=max_sampled,
    )


def _chunk_values(args) -> tuple[np.ndarray, np.ndarray, bool]:
    """Worker: `run_batch` over orderings start..stop of the stream."""
    config, case, stream, mode, start, stop = args
    cls, base = make_case_inputs(case)
    return run_batch(config, cls, base, islice(stream.orders(), start, stop), mode, start)


# Version-space mistake bound of each engine: (label, value for the class). It is the
# realizable bound of the baseline and the head of its hybrid's agnostic bound.
_BOUND_HEADS = {
    "consistent": ("|H| - 1", lambda cls: cls.d - 1),
    "halving": ("floor(log2 |H|)", lambda cls: cls.d.bit_length() - 1),
    "soa": ("Ldim(H)", lambda cls: LdimComputer(cls).value(cls.full_space().mask)),
}


def _realizable_bound(kind: str, cls: FiniteHypothesisClass, T: int) -> tuple[str, float]:
    d = cls.d
    if kind == "wm":
        # expected-mistake bound; with a perfect hypothesis it equals the regret bound
        value = math.sqrt(0.5 * math.log(d) * T) if d > 1 else 0.0
        return "expected mistakes <= sqrt(0.5 ln|H| T)", value
    label, head_of = _BOUND_HEADS[kind.removeprefix("wm_")]
    return f"mistakes <= {label}", float(head_of(cls))


def _agnostic_bound(kind: str, cls: FiniteHypothesisClass, T: int) -> tuple[str, float] | None:
    d = cls.d
    log_term = math.log(d) if d > 1 else 0.0
    if kind == "wm":
        return "expected regret <= sqrt(0.5 ln|H| T)", math.sqrt(0.5 * log_term * T)
    if kind not in HYBRID_KINDS:
        return None  # version-space baselines have no agnostic guarantee
    label, head_of = _BOUND_HEADS[kind.removeprefix("wm_")]
    head = head_of(cls)
    rest = max(T - head, 0)
    return (
        f"expected regret <= {label} + sqrt(0.5 ln|H| (T - {label}))",
        head + math.sqrt(0.5 * log_term * rest),
    )


def check_bounds(report: PermutationReport, cls: FiniteHypothesisClass) -> list[BoundVerdict]:
    """Verdicts for the bound matching the report's case kind and learner."""
    kind = report.learner.kind
    T = report.case.T
    if report.case.kind == REALIZABLE:
        name, value = _realizable_bound(kind, cls, T)
        # worst ordering must satisfy a realizable mistake bound, not just the mean
        return [BoundVerdict(name, value, report.max_mistakes)]
    spec = _agnostic_bound(kind, cls, T)
    if spec is None:
        return []
    name, value = spec
    return [BoundVerdict(name, value, report.expected_regret)]


def with_bounds(report: PermutationReport, cls: FiniteHypothesisClass) -> PermutationReport:
    report.bounds = tuple(check_bounds(report, cls))
    return report


CSV_COLUMNS = (
    "learner",
    "T",
    "permutations",
    "|H|",
    "M(h*)",
    "expected_mistakes",
    "max_mistakes",
    "max_mistakes_sampled",
    "expected_regret",
    "diff",
    "bound_name",
    "bound_value",
    "bound_observed",
    "bound_pass",
)


def _diff_metric(report: PermutationReport) -> float:
    if report.case.kind == REALIZABLE:
        return report.max_mistakes
    return report.expected_regret


def _report_row(report: PermutationReport, first: PermutationReport | None) -> dict:
    diff = None
    if first is not None and first is not report:
        diff = _diff_metric(first) - _diff_metric(report)
    verdict = report.bounds[0] if report.bounds else None
    return {
        "learner": report.learner.kind,
        "T": report.case.T,
        "permutations": report.permutation_count,
        "|H|": report.case.d,
        "M(h*)": report.best_mistakes,
        "expected_mistakes": report.expected_mistakes,
        "max_mistakes": report.max_mistakes,
        "max_mistakes_sampled": report.max_mistakes_sampled,
        "expected_regret": report.expected_regret,
        "diff": diff,
        "bound_name": verdict.name if verdict else None,
        "bound_value": verdict.bound_value if verdict else None,
        "bound_observed": verdict.observed if verdict else None,
        "bound_pass": verdict.passed if verdict else None,
    }


def _rows(reports: list[PermutationReport]) -> list[dict]:
    first = reports[0] if reports else None
    return [_report_row(r, first) for r in reports]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(reports: list[PermutationReport], fmt: str = "csv") -> str:
    """Render reports as csv, json, or markdown."""
    if not reports:
        raise ValueError("no reports to emit")
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in _rows(reports):
            lines.append(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json

        payload = {"schema": 1, "reports": _rows(reports)}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "markdown":
        return _markdown(reports)
    raise UnsupportedFormat(f"unknown report format {fmt!r}")


def _markdown(reports: list[PermutationReport]) -> str:
    """Wide per-case table mirroring the benchmark table layout."""
    by_case: dict[ExperimentCase, list[PermutationReport]] = {}
    for r in reports:
        by_case.setdefault(r.case, []).append(r)

    out: list[str] = []
    for case, group in by_case.items():
        realizable = case.kind == REALIZABLE
        header = ["T", "Permutations", "|H|", "M(h*)"]
        for r in group:
            if realizable:
                header += [f"{r.learner.kind} expected mistakes", f"{r.learner.kind} max mistakes"]
            else:
                header += [f"{r.learner.kind} expected regret"]
        if len(group) == 2:
            header.append("Diff")
        row = [str(case.T), str(group[0].permutation_count), str(case.d), str(group[0].best_mistakes)]
        for r in group:
            if realizable:
                row += [f"{r.expected_mistakes:.2f}", f"{r.max_mistakes:.2f}"]
            else:
                row += [f"{r.expected_regret:.2f}"]
        if len(group) == 2:
            row.append(f"{_diff_metric(group[0]) - _diff_metric(group[1]):.2f}")
        out.append("| " + " | ".join(header) + " |")
        out.append("|" + "|".join(["---"] * len(header)) + "|")
        out.append("| " + " | ".join(row) + " |")
        out.append("")
        for r in group:
            for v in r.bounds:
                status = "pass" if v.passed else "FAIL"
                out.append(
                    f"- {r.learner.kind}: {v.name}: bound {v.bound_value:.4f}, "
                    f"observed {v.observed:.4f} ({status})"
                )
        out.append("")
    return "\n".join(out).rstrip() + "\n"
