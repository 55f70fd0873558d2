#!/usr/bin/env python3
"""Reproduce the benchmark tables at both scales and write the reports.

Runs the wm, wm_halving and wm_soa learners over:
  * exhaustive permutations of the T=8, d=4 case (realizable and unrealizable)
  * 100 sampled permutations of the T=1000, d=500 case (both kinds)

Each case's class is built once. Its three learners come from one
`evaluate_many` call on that class, one pass over its stream, and the same
class checks their bounds; wm is compared with each hybrid in turn. Writes
one CSV per case and comparison, NAME.csv for (wm, wm_halving) and
NAME_wm_soa.csv for (wm, wm_soa), plus a combined markdown summary with one
two-learner table, Diff column included, per CSV. The sqrt2 learning rate is
used because that is the configuration the published reference numbers
correspond to; pass --eta-variant sqrt8 to compare against the rate the
regret analysis is tuned for. wm_halving runs with the default ties-to-1
rule, so its small realizable row reads 0.50 / 1.00 rather than the published
0.91 / 2, which fair-coin ties reproduce (see README, "Known discrepancy in the
acceptance suite"). Every case runs in this process.
"""

import argparse
import sys
import time
from pathlib import Path

from regretlab import (
    ExperimentCase,
    LearnerConfig,
    PermutationStream,
    emit_report,
    evaluate_many,
    make_case_inputs,
    with_bounds,
)
from regretlab.cli import _natural
from regretlab.learners import ETA_VARIANTS

RUNS = [
    ("small_realizable", ExperimentCase("realizable", 8, 4), True, 0),
    ("small_unrealizable", ExperimentCase("unrealizable", 8, 4), True, 0),
    ("large_realizable", ExperimentCase("realizable", 1000, 500), False, 100),
    ("large_unrealizable", ExperimentCase("unrealizable", 1000, 500), False, 100),
]
LEARNERS = ("wm", "wm_halving", "wm_soa")
# (CSV name suffix, hybrid compared with wm); the wm_halving files keep their old names
PAIRS = (("", "wm_halving"), ("_wm_soa", "wm_soa"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--seed", type=_natural, default=7)
    parser.add_argument("--eta-variant", choices=ETA_VARIANTS, default="sqrt2")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    markdown_parts = []
    all_pass = True
    for name, case, exhaustive, count in RUNS:
        cls, base = make_case_inputs(case)
        stream = PermutationStream(
            base, exhaustive=exhaustive, count=count, seed=(args.seed, 0)
        )
        configs = [LearnerConfig(kind, eta_variant=args.eta_variant) for kind in LEARNERS]
        t0 = time.perf_counter()
        reports = dict(zip(LEARNERS, (with_bounds(r, cls) for r in evaluate_many(configs, cls, stream))))
        seconds = time.perf_counter() - t0

        for suffix, hybrid in PAIRS:
            label = name + suffix
            pair = [reports["wm"], reports[hybrid]]
            csv_path = out_dir / f"{label}.csv"
            csv_path.write_text(emit_report(pair, "csv"))
            markdown_parts.append(f"## {label} ({len(stream)} permutations, case {seconds:.1f}s)\n")
            markdown_parts.append(emit_report(pair, "markdown"))
            bound_ok = all(v.passed for r in pair for v in r.bounds)
            all_pass = all_pass and bound_ok
            print(f"{label}: wrote {csv_path} (case {seconds:.1f}s, bounds {'ok' if bound_ok else 'FAILED'})")

    summary = out_dir / "summary.md"
    summary.write_text("\n".join(markdown_parts))
    print(f"summary: {summary}")
    return 0 if all_pass else 2


if __name__ == "__main__":
    sys.exit(main())
