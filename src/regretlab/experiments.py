"""Permutation harness: drive learners over reorderings, aggregate, check bounds.

`evaluate_many` gives one report per learner from one pass over the stream
for all of them: the class is built once, and every learner shares each
ordering's mistake counts, version space and switch round, its wm rows and,
in sampled mode, its draws. `evaluate` is its one-learner case. The
orderings of a sampled stream run as batches through
`learners.run_batch_many`, which advances every ordering of a batch
together, round by round, from a fresh learner state; there is no learner
object per ordering. An exhaustive stream runs through
`learners.run_exhaustive_many`, which predicts once per (prefix type counts,
next example type) and reads every ordering's rounds from that table, with
the same per-ordering values. Expectations are means of per-ordering
analytic expected mistakes, so exhaustive runs are exactly reproducible.
Sampled-realized maxima are reported alongside the analytic maxima because
the two readings of a "max mistakes" column differ for randomized learners.
Every stream runs in this process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import UnsupportedFormat
from .hypotheses import FiniteHypothesisClass, best_mistakes, mistake_profile
from .learners import (
    ANALYTIC,
    HYBRID_KINDS,
    Analytic,
    LearnerConfig,
    Sampled,
    run_batch_many,
    run_exhaustive_many,
)
# Not called here: kept as the attribute perfbench/spans.py wraps until its spans wrap run_batch_many.
from .learners import run  # noqa: F401
from .ldim import ldim
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
) -> PermutationReport:
    """Run the learner from a fresh state on every ordering in the stream and aggregate.

    The one-learner case of `evaluate_many`.
    """
    return evaluate_many((config,), case, stream, mode)[0]


def evaluate_many(
    configs: Iterable[LearnerConfig],
    case: ExperimentCase,
    stream: PermutationStream,
    mode: Analytic | Sampled = ANALYTIC,
) -> list[PermutationReport]:
    """`evaluate` of each learner, in order, from one pass over the stream for all of them.

    Each report equals the learner's own `evaluate` report: no prediction
    changes the experts' mistake counts, so the learners share every
    ordering's version space and switch round, and ordering k draws from
    mode.seed + (k,) whoever reads it. A repeated config is computed once and
    reported again. A baseline raises WrongPhase when its space empties, as
    it does alone.
    """
    configs = tuple(configs)
    cls, base = make_case_inputs(case)
    if stream.base.examples != base.examples:
        raise ValueError("stream base sequence does not match the case")
    distinct = tuple(dict.fromkeys(configs))
    summaries = dict(zip(distinct, _stream_summaries(distinct, cls, stream, mode)))
    best, _ = best_mistakes(mistake_profile(cls, base))
    reports = []
    for config in configs:
        mean, max_analytic, max_sampled = summaries[config]
        reports.append(
            PermutationReport(
                learner=config,
                case=case,
                permutation_count=len(stream),
                best_mistakes=best,
                expected_mistakes=mean,
                max_mistakes=max_analytic,
                expected_regret=mean - best,
                max_mistakes_sampled=max_sampled,
            )
        )
    return reports


def _stream_summaries(
    configs: tuple[LearnerConfig, ...],
    cls: FiniteHypothesisClass,
    stream: PermutationStream,
    mode: Analytic | Sampled = ANALYTIC,
) -> list[tuple[float, float, float | None]]:
    """(mean, max) of each distinct learner's per-ordering expected mistakes and its sampled maximum.

    The sampled maximum is the realized one in sampled mode; in analytic mode
    it is the analytic maximum for a deterministic learner and None for a
    randomized one.
    """
    if stream.exhaustive:
        expected, realized, randomized = run_exhaustive_many(configs, cls, stream, mode)
    else:
        expected, realized, randomized = run_batch_many(configs, cls, stream.base, stream.orders(), mode)

    summaries = []
    for per_ordering, maxima, was_randomized in zip(expected, realized, randomized):
        max_analytic = float(per_ordering.max())
        if maxima.size:
            max_sampled: float | None = float(maxima.max())
        else:
            max_sampled = None if was_randomized else max_analytic
        summaries.append((float(per_ordering.mean()), max_analytic, max_sampled))
    return summaries


# Version-space mistake bound of each engine: (label, value for the class). It is the
# realizable bound of the baseline and the head of its hybrid's agnostic bound.
_BOUND_HEADS = {
    "consistent": ("|H| - 1", lambda cls: cls.d - 1),
    "halving": ("floor(log2 |H|)", lambda cls: cls.d.bit_length() - 1),
    "soa": ("Ldim(H)", lambda cls: ldim(cls).value),
}


def _realizable_bound(kind: str, cls: FiniteHypothesisClass, T: int) -> tuple[str, float]:
    if kind == "wm":
        # expected-mistake bound; with a perfect hypothesis it equals the regret bound
        value = math.sqrt(0.5 * math.log(cls.d) * T) if cls.d > 1 else 0.0
        return "expected mistakes <= sqrt(0.5 ln|H| T)", value
    label, head_of = _BOUND_HEADS[kind.removeprefix("wm_")]
    return f"mistakes <= {label}", float(head_of(cls))


def _agnostic_bound(kind: str, cls: FiniteHypothesisClass, T: int) -> tuple[str, float] | None:
    log_term = math.log(cls.d) if cls.d > 1 else 0.0
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
