#!/usr/bin/env python3
"""Reproduction benchmark: time verified regretlab tables, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload exhaustive_small --seed 7 --seconds 40 --trace 0

With --trace 0 the set-up probes and the workload's untraced passes together
take about --seconds seconds (at least one pass), and the end-to-end metrics
are printed: report_s (median pass time scaled to the machine's speed, see
calib.py), setup_s (median of fresh-interpreter set-ups, see probe.py) and
peak_rss_mb. With --trace 1 three untraced passes alternate with three passes
with spans installed (spans.py), and the per-layer metrics are printed.

Every pass's rows are checked against the pins and the independent reference
(oracle.py). The run also checks itself: every pass writes identical report
bytes, traced or not, and every count repeats exactly across traced passes.
The last line of standard output is the JSON result; metric names and units
come from BENCHMARK.json. A record with machine information, per-pass times
and the aggregated spans is written to perfbench/out/.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, so the load fits a 2-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 9
TRACED_PASSES = 3
PROBE_TIMEOUT_S = 60
TIME_UNITS = {"s", "ms", "us"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds to import regretlab and build the workload's inputs in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "regretlab" / "__init__.py").is_file():
        print(f"perfbench: no regretlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed

    started = time.perf_counter()
    setup_samples = []
    if not args.trace:
        setup_samples = [probe_setup(workload.name, seed) for _ in range(SETUP_PROBES)]
    state = workloads.setup(workload, seed)

    OUT_DIR.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    untraced, traced = [], []  # (seconds, errors, texts[, tracer])
    calib_s = []  # calibration before the first untraced pass and after each
    try:
        if not args.trace:
            calib.calibrate()  # warm-up
            calib_s.append(calib.calibrate())
        while not args.trace:
            untraced.append(workloads.timed_pass(workload, state, seed, out))
            calib_s.append(calib.calibrate())
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(p[0] for p in untraced) + calib_s[-1] > args.seconds:
                break
        for _ in range(TRACED_PASSES if args.trace else 0):  # interleaved, so drift hits both
            untraced.append(workloads.timed_pass(workload, state, seed, out))
            tracer = spans.Tracer()
            traced.append(workloads.timed_pass(workload, state, seed, out, tracer) + (tracer,))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(out, ignore_errors=True)

    # Correctness: every pass's rows against the pins and the reference.
    references = [
        {
            g.case.kind: oracle.reference_group(
                g.case.kind, g.case.T, g.case.d, g.learners, g.permutations, g.mode, seed
            )
            for g in workload.groups
        }
    ]
    pinned = oracle.pinned_rows(workload.name, seed)
    if pinned is not None:
        references.append(pinned)
    attempted = failed = 0
    problems = []
    for number, (_, errors, texts, *_) in enumerate(untraced + traced, start=1):
        got = {kind: oracle.parse_report(text) for kind, text in texts.items() if text is not None}
        failures = oracle.check_rows(got, workload.row_keys, references)
        attempted += len(workload.row_keys)
        failed += len(failures)
        problems += [f"pass {number}: {line}" for line in errors + failures]
        if texts != untraced[0][2]:
            problems.append(f"pass {number}: report bytes differ from pass 1")

    # Metrics.
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        per_pass = [spans.layer_metrics(tracer, seconds) for seconds, _, _, tracer in traced]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values["trace.overhead_frac"] = min(p[0] for p in traced) / min(p[0] for p in untraced) - 1.0
        for name, unit in units.items():
            if unit not in TIME_UNITS and not name.startswith("trace."):
                if len({p[name] for p in per_pass}) != 1:
                    problems.append(f"count {name} differs between traced passes")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "report_s": calib.scaled_seconds([p[0] for p in untraced], calib_s),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}

    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "machine": machine_info(),
        "pass_s": [p[0] for p in untraced],
        "traced_pass_s": [p[0] for p in traced],
        "calib_s": calib_s,
        "setup_samples_s": setup_samples,
    }
    record = dict(info, metrics=metrics, problems=problems, spans=[p[3].write() for p in traced])
    (OUT_DIR / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(info))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
