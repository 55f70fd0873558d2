"""Time one benchmark set-up in a fresh interpreter.

Imports regretlab and builds the class, base sequence and stream of every
case of a workload, then prints the seconds that took.

Usage: python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports regretlab)

workloads.setup(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(time.perf_counter() - start)
