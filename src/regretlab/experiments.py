"""Permutation harness: drive learners over reorderings, aggregate, check bounds.

A run is a hypothesis class and a stream of reorderings of one base
sequence. `evaluate_many` gives one report per learner from one pass over
the stream for all of them: the learners share each ordering's mistake
counts, version space, switch round, wm rows and, in sampled mode, draws. A
sampled stream's blocks run through `learners.run_batch_many`, every
ordering of a block together, round by round, from a fresh learner state; an
exhaustive stream runs through `learners.run_exhaustive_many`, which
predicts once per (prefix type counts, next example type) and sums that
table, reading no ordering out in analytic mode (the last digit may differ
from a per-ordering average). An ordering's expected mistakes are exact in
analytic mode and the mean over its sampled passes in sampled mode; a report
gives their mean and maximum over the orderings, the most mistakes in one
sampled pass (the two readings of "max mistakes" differ for randomized
learners), and the largest exact per-ordering expectation in both modes. A
report is realizable when some hypothesis answers the whole base sequence,
M(h*) = 0: its worst exact expectation is checked against the learner's
mistake bound, any other report's expected regret against its regret bound.
`evaluate` is the one-learner call for a benchmark case, whose class it
builds. Every stream runs in this process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import UnsupportedFormat
from .hypotheses import FiniteHypothesisClass, best_mistakes, mistake_profile
from .learners import (
    ANALYTIC,
    BASELINE_KINDS,
    LearnerConfig,
    Sampled,
    ordering_statistics,
    run_batch_many,
    run_exhaustive_many,
)
# Not called here: kept as the attribute perfbench/spans.py wraps until its spans wrap run_batch_many.
from .learners import run  # noqa: F401
from .ldim import ldim
from .sequences import ExperimentCase, PermutationStream, make_case_inputs

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
    T: int
    d: int
    permutation_count: int
    best_mistakes: int
    expected_mistakes: float
    max_mistakes: float
    expected_regret: float
    # the largest exact per-ordering expected mistakes; max_mistakes in analytic mode
    max_exact_mistakes: float
    max_mistakes_sampled: float | None = None
    bounds: tuple[BoundVerdict, ...] = ()

    @property
    def realizable(self) -> bool:
        """Whether some hypothesis answers the whole sequence, M(h*) = 0."""
        return self.best_mistakes == 0

    @property
    def max_regret(self) -> float:
        """The worst ordering's exact expected regret, in either mode."""
        return self.max_exact_mistakes - self.best_mistakes


def evaluate(
    config: LearnerConfig,
    case: ExperimentCase,
    stream: PermutationStream,
    mode: Sampled | None = ANALYTIC,
) -> PermutationReport:
    """Run the learner on every ordering of a benchmark case's stream and aggregate.

    Builds the case's class once; a stream over another base sequence raises
    ValueError. The one-learner case of `evaluate_many`.
    """
    cls, base = make_case_inputs(case)
    if stream.base.examples != base.examples:
        raise ValueError("stream base sequence does not match the case")
    return evaluate_many((config,), cls, stream, mode)[0]


def evaluate_many(
    configs: Iterable[LearnerConfig],
    cls: FiniteHypothesisClass,
    stream: PermutationStream,
    mode: Sampled | None = ANALYTIC,
) -> list[PermutationReport]:
    """One report per learner, in order, from one pass over the stream for all of them.

    Each report equals the learner's own report: no prediction changes the
    experts' mistake counts, so the learners share every ordering's version
    space and switch round, and ordering k draws from mode.seed + (k,)
    whoever reads it. A repeated config is computed once; its report stands at each position.
    A baseline raises WrongPhase only when it must predict with an empty
    space, as it does alone.
    An instance of the base sequence outside the class's domain raises
    UnknownInstance before any learner runs.
    """
    configs = tuple(configs)
    best, _ = best_mistakes(mistake_profile(cls, stream.base))
    distinct = tuple(dict.fromkeys(configs))
    if stream.exhaustive:
        statistics = run_exhaustive_many(distinct, cls, stream, mode)
    else:
        statistics = ordering_statistics(*run_batch_many(distinct, cls, stream.base, stream.blocks(), mode))
    means, tops, exact_tops, randomized, maxima = statistics
    reports = {}
    for i, config in enumerate(distinct):
        mean, max_mistakes = float(means[i]), float(tops[i])
        if maxima is not None:
            max_sampled: float | None = float(maxima[i])
        else:  # analytic: a deterministic learner's maximum is realized, a randomized one's is not
            max_sampled = None if randomized[i] else max_mistakes
        reports[config] = PermutationReport(
            learner=config,
            T=stream.base.T,
            d=cls.d,
            permutation_count=len(stream),
            best_mistakes=best,
            expected_mistakes=mean,
            max_mistakes=max_mistakes,
            expected_regret=mean - best,
            max_exact_mistakes=float(exact_tops[i]),
            max_mistakes_sampled=max_sampled,
        )
    return [reports[config] for config in configs]


# Version-space mistake bound of each engine: (label, value for the class). It is the
# realizable bound of the baseline and the head of its hybrid's agnostic bound.
_BOUND_HEADS = {
    "consistent": ("|H| - 1", lambda cls: cls.d - 1),
    "halving": ("floor(log2 |H|)", lambda cls: cls.d.bit_length() - 1),
    "soa": ("Ldim(H)", lambda cls: ldim(cls).value),
}


def _bound(kind: str, cls: FiniteHypothesisClass, T: int, realizable: bool) -> tuple[str, float] | None:
    """(name, value) of the learner's mistake bound if realizable, else of its regret bound.

    None for a version-space baseline on an unrealizable run: it has no
    agnostic guarantee.
    """
    if not realizable and kind in BASELINE_KINDS:
        return None
    log_term = math.log(cls.d) if cls.d > 1 else 0.0
    if kind == "wm":
        # with a perfect hypothesis the regret bound is an expected-mistake bound
        statistic = "expected mistakes" if realizable else "expected regret"
        return f"{statistic} <= sqrt(0.5 ln|H| T)", math.sqrt(0.5 * log_term * T)
    label, head_of = _BOUND_HEADS[kind.removeprefix("wm_")]
    head = head_of(cls)
    if realizable:
        return f"mistakes <= {label}", float(head)
    subtracted = f"({label})" if " - " in label else label
    return (
        f"expected regret <= {label} + sqrt(0.5 ln|H| (T - {subtracted}))",
        head + math.sqrt(0.5 * log_term * max(T - head, 0)),
    )


def check_bounds(report: PermutationReport, cls: FiniteHypothesisClass) -> list[BoundVerdict]:
    """Verdicts for the learner's mistake bound if the report is realizable, else its regret bound."""
    bound = _bound(report.learner.kind, cls, report.T, report.realizable)
    if bound is None:
        return []
    # the worst ordering's exact expectation must satisfy a realizable mistake
    # bound, not just the mean, and not a sampled mean of a few passes
    observed = report.max_exact_mistakes if report.realizable else report.expected_regret
    return [BoundVerdict(*bound, observed)]


def with_bounds(report: PermutationReport, cls: FiniteHypothesisClass) -> PermutationReport:
    report.bounds = tuple(check_bounds(report, cls))
    return report


def _report_row(report: PermutationReport, diff: float | None) -> dict:
    """A report's row; its keys in order are every format's columns. `diff` is None on row 0."""
    verdict = report.bounds[0] if report.bounds else None
    return {
        "learner": report.learner.kind,
        "T": report.T,
        "permutations": report.permutation_count,
        "|H|": report.d,
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
    """The reports' rows. A later row's diff is row 0's metric less its own, the
    metric being a report's max mistakes if realizable, else its expected regret."""
    metric = [r.max_mistakes if r.realizable else r.expected_regret for r in reports]
    return [_report_row(r, metric[0] - metric[i] if i else None) for i, r in enumerate(reports)]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


FORMATS = ("csv", "json", "markdown")


def emit_report(reports: list[PermutationReport], fmt: str = "csv") -> str:
    """Render reports in one of FORMATS."""
    if not reports:
        raise ValueError("no reports to emit")
    if fmt == "csv":
        rows = _rows(reports)
        lines = [",".join(rows[0])] + [",".join(map(_csv_cell, row.values())) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json

        payload = {"schema": 1, "reports": _rows(reports)}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "markdown":
        return _markdown(reports)
    raise UnsupportedFormat(f"unknown report format {fmt!r}")


def _markdown(reports: list[PermutationReport]) -> str:
    """One wide table per (T, |H|, realizable) run, mirroring the benchmark table layout, read off its `_rows`."""
    by_run: dict[tuple[int, int, bool], list[PermutationReport]] = {}
    for r in reports:
        by_run.setdefault((r.T, r.d, r.realizable), []).append(r)

    out: list[str] = []
    for group in by_run.values():
        rows = _rows(group)
        first = rows[0]
        columns = ("expected_mistakes", "max_mistakes") if first["M(h*)"] == 0 else ("expected_regret",)
        header = ["T", "Permutations", "|H|", "M(h*)"]
        header += [f"{row['learner']} {key.replace('_', ' ')}" for row in rows for key in columns]
        cells = [str(first[key]) for key in ("T", "permutations", "|H|", "M(h*)")]
        cells += [f"{row[key]:.2f}" for row in rows for key in columns]
        if len(rows) == 2:
            header.append("Diff")
            cells.append(f"{rows[1]['diff']:.2f}")
        out.append("| " + " | ".join(header) + " |")
        out.append("|" + "|".join(["---"] * len(header)) + "|")
        out.append("| " + " | ".join(cells) + " |")
        out.append("")
        for row in rows:
            if row["bound_name"] is not None:
                status = "pass" if row["bound_pass"] else "FAIL"
                out.append(
                    f"- {row['learner']}: {row['bound_name']}: bound {row['bound_value']:.4f}, "
                    f"observed {row['bound_observed']:.4f} ({status})"
                )
        out.append("")
    return "\n".join(out).rstrip() + "\n"
