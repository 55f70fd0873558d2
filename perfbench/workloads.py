"""The benchmark's three workloads.

Each workload has a `setup(seed)` that builds the class, base sequence and
stream of every case, and a `run_pass(state, out)` that produces the reports
and writes one CSV per case into `out`. Passes run single-process (`jobs=1`)
and call the library through module attributes, so that the spans installed
by `spans.install` see every call.

Each pass takes a few seconds, and a run holds several of them, so that the
median pass is not one slowed by a brief burst of other load on the machine.

* exhaustive_small: the small rows of scripts/reproduce_tables.py at T=7
  (all 5,040 orderings) instead of T=8. Almost all of the time is the
  learners' per-round overhead on length-4 arrays; Ldim is never reached.
  Takes no seed.
* sampled_large: the large rows, through the CLI in-process, at 50 orderings
  instead of 100. Few long runs on d=500 vectors and 500-bit masks, class
  construction at scale and 20M sampled prediction draws; never reaches Ldim
  or exhaustive enumeration.
* soa_ldim: the SOA learners on a d=64 threshold class. Almost all of the
  time is Ldim, rebuilt by every ordering's learner and every bound check.
  The cost of one ordering varies threefold between orderings, so the
  workload runs 96 small orderings rather than a few large ones: the pass
  time then depends little on the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import regretlab.cli as cli
import regretlab.experiments as experiments
from regretlab import ExperimentCase, LearnerConfig, PermutationStream, make_case_inputs

import spans

REALIZABLE, UNREALIZABLE = "realizable", "unrealizable"
ETA_VARIANT = "sqrt2"  # the rate the published tables correspond to


@dataclass(frozen=True)
class Group:
    """One report: a case, its permutation stream and the learners it runs."""

    case: ExperimentCase
    learners: tuple[str, ...]
    permutations: str  # "exhaustive" or "sampled:N"
    mode: str = "analytic"  # "analytic" or "sampled:N"


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, ...]
    via_cli: bool

    @property
    def row_keys(self) -> list[tuple[str, str]]:
        return [(g.case.kind, k) for g in self.groups for k in g.learners]


def _sampled(n: int) -> str:
    return f"sampled:{n}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exhaustive_small",
            tuple(
                Group(ExperimentCase(kind, 7, 4), ("wm", "wm_halving"), "exhaustive")
                for kind in (REALIZABLE, UNREALIZABLE)
            ),
            via_cli=False,
        ),
        Workload(
            "sampled_large",
            (
                Group(ExperimentCase(REALIZABLE, 1000, 500), ("wm", "wm_halving"), _sampled(50)),
                Group(
                    ExperimentCase(UNREALIZABLE, 1000, 500),
                    ("wm", "wm_halving"),
                    _sampled(50),
                    mode=_sampled(200),
                ),
            ),
            via_cli=True,
        ),
        Workload(
            "soa_ldim",
            (
                Group(ExperimentCase(REALIZABLE, 128, 64), ("wm_soa", "soa"), _sampled(96)),
                Group(ExperimentCase(UNREALIZABLE, 128, 64), ("wm_soa",), _sampled(96)),
            ),
            via_cli=False,
        ),
    )
}


def _count(spec: str) -> int:
    return int(spec.split(":", 1)[1])


def setup(workload: Workload, seed: int) -> list[tuple]:
    """Class, base sequence and stream of every group of the workload."""
    state = []
    for group in workload.groups:
        cls, base = make_case_inputs(group.case)
        exhaustive = group.permutations == "exhaustive"
        stream = PermutationStream(
            base,
            exhaustive=exhaustive,
            count=0 if exhaustive else _count(group.permutations),
            seed=(seed, 0),
        )
        state.append((group, cls, stream))
    return state


def cli_argv(group: Group, seed: int, out: Path) -> list[str]:
    return [
        "--case", group.case.kind,
        "--T", str(group.case.T),
        "--d", str(group.case.d),
        "--learners", ",".join(group.learners),
        "--perm", group.permutations,
        "--mode", group.mode,
        "--seed", str(seed),
        "--eta-variant", ETA_VARIANT,
        "--format", "csv",
        "--out", str(out),
    ]  # fmt: skip


def report_path(out: Path, group: Group) -> Path:
    return out / f"{group.case.kind}.csv"


def run_pass(workload: Workload, state: list[tuple], seed: int, out: Path) -> list[str]:
    """Write one report per group into `out`; returns one error line per failed group."""
    errors = []
    for group, cls, stream in state:
        path = report_path(out, group)
        path.unlink(missing_ok=True)
        if workload.via_cli:
            code = cli.run_cli(cli_argv(group, seed, path))
            if code != 0:
                errors.append(f"{group.case.kind}: regretlab exited with {code}")
            continue
        try:
            reports = [
                experiments.with_bounds(
                    experiments.evaluate(LearnerConfig(kind, eta_variant=ETA_VARIANT), group.case, stream),
                    cls,
                )
                for kind in group.learners
            ]
            path.write_text(experiments.emit_report(reports, "csv"))
        except Exception as exc:  # the group's rows count as failed; the pass goes on
            errors.append(f"{group.case.kind}: {type(exc).__name__}: {exc}")
    return errors


def timed_pass(workload: Workload, state, seed: int, out: Path, tracer=None):
    """(seconds, group errors, {case kind: report text or None}) of one pass.

    With a tracer, the pass runs with spans installed and uninstalled around it.
    """
    uninstall = spans.install(tracer) if tracer is not None else None
    try:
        start = time.perf_counter()
        errors = run_pass(workload, state, seed, out)
        seconds = time.perf_counter() - start
    finally:
        if uninstall is not None:
            uninstall()
    texts = {}
    for group in workload.groups:
        path = report_path(out, group)
        texts[group.case.kind] = path.read_text() if path.is_file() else None
    return seconds, errors, texts
