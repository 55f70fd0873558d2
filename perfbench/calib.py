"""A fixed calibration loop that measures how fast the machine runs right now.

On a shared host the same pass can take 1.2-1.8 times as long from one minute
to the next, while the interpreter is never descheduled (process time equals
wall time). The slowdown is the machine's, so it also slows a fixed piece of
work that does not depend on regretlab. The benchmark times this loop
between its passes and divides each pass by it: the ratio cancels the
machine's speed and still moves with any change to regretlab.

The loop mixes the three kinds of work the workloads do: interpreter-bound
integer and dict work with big-int masks (like the Ldim memo), per-round
numpy calls on length-4 arrays (like the learners on d=4), and numpy on
length-500 vectors plus random draws (like the learners on d=500).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ROUNDS = 500
# Seconds calibrate() takes on a quiet 2-core x86-64 VM: the speed that
# report_s is scaled to.
REFERENCE_S = 0.25


def _masks(rounds: int) -> int:
    memo: dict[int, int] = {}
    full = (1 << 200) - 1
    total = 0
    for i in range(rounds * 200):
        mask = (full >> (i % 97)) & ~(1 << (i % 173))
        cached = memo.get(mask)
        if cached is None:
            cached = memo[mask] = mask.bit_count() & 7
        total += cached
    return total


def _small(rounds: int) -> float:
    advice = np.array([0, 1, 1, 0], dtype=np.int8)
    mistakes = np.zeros(4, dtype=np.int64)
    total = 0.0
    for i in range(rounds * 20):
        w = np.exp(-0.5 * (mistakes - mistakes.min()))
        p = float(w[advice == 1].sum() / w.sum())
        mistakes += advice != (i & 1)
        total += p
    return total


def _large(rounds: int) -> float:
    rng = np.random.default_rng(0)
    mistakes = np.zeros(500, dtype=np.int64)
    advice = (np.arange(500) % 3 == 0).astype(np.int8)
    total = 0.0
    for i in range(rounds * 8):
        w = np.exp(-0.1 * (mistakes - mistakes.min()))
        p = float(w[advice == 1].sum() / w.sum())
        mistakes += advice != (i & 1)
        total += float((rng.random(200) < p).sum())
    return total


def calibrate(rounds: int = ROUNDS) -> float:
    """Seconds the fixed calibration work takes now."""
    start = time.perf_counter()
    _masks(rounds)
    _small(rounds)
    _large(rounds)
    return time.perf_counter() - start


def scaled_seconds(pass_s: list[float], calib_s: list[float]) -> float:
    """Median pass time at the reference speed.

    `calib_s` holds one calibration before the first pass and one after each
    pass; each pass is divided by the mean of the two either side of it.
    """
    if len(calib_s) != len(pass_s) + 1:
        raise ValueError("need one calibration before the first pass and one after each")
    ratios = [p * 2 / (a + b) for p, a, b in zip(pass_s, calib_s, calib_s[1:])]
    return statistics.median(ratios) * REFERENCE_S
