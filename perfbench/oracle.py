"""Correctness check for the benchmark's reports.

Every report row is compared with two references, to a tolerance of 1e-9:

* pins.json: the rows this library produced when the benchmark was defined,
  for the seeds listed there (the seed-free exhaustive workload has one set);
* `reference_group`: an independent batched re-implementation of the learners
  and bounds on threshold classes, which covers every seed.

A row fails if it is missing (its group raised or exited non-zero), if any
field differs from either reference, or if its bound verdict does not pass.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9
BOUND_TOLERANCE = 1e-9
PINS_PATH = Path(__file__).with_name("pins.json")

# (column, kind) pairs compared for every row; kinds: int, float, str, bool
CHECKED = (
    ("M(h*)", int),
    ("expected_mistakes", float),
    ("max_mistakes", float),
    ("max_mistakes_sampled", float),
    ("expected_regret", float),
    ("diff", float),
    ("bound_name", str),
    ("bound_value", float),
    ("bound_observed", float),
    ("bound_pass", bool),
)


def parse_report(text: str) -> dict[str, dict]:
    """CSV report text -> {learner: row} with typed cells (None for empty)."""
    rows = {}
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for column, kind in CHECKED:
            cell = raw[column]
            if cell == "":
                row[column] = None
            elif kind is bool:
                row[column] = cell == "true"
            else:
                row[column] = kind(cell)
        rows[raw["learner"]] = row
    return rows


def row_errors(got: dict, want: dict) -> list[str]:
    """Fields of `got` that differ from `want` beyond the tolerance."""
    errors = []
    for column, kind in CHECKED:
        a, b = got.get(column), want.get(column)
        if a is None or b is None:
            same = a is None and b is None
        elif kind is float:
            same = abs(a - b) <= TOLERANCE
        else:
            same = a == b
        if not same:
            errors.append(f"{column}: got {a!r}, want {b!r}")
    return errors


def pinned_rows(workload: str, seed: int) -> dict | None:
    """{case kind: {learner: row}} pinned for this seed, or None if unpinned."""
    pins = json.loads(PINS_PATH.read_text())[workload]
    return pins.get("any") or pins.get(str(seed))


# --- reference implementation -------------------------------------------------


def threshold_case(kind: str, T: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(table (d, T) bool, labels (T,) bool) of the benchmark threshold case.

    Domain: the T integers ending at floor(T/2); hypothesis i labels x with 1
    iff x > i. Realizable labels come from threshold 0, unrealizable are all 1.
    """
    xs = np.arange(-T // 2 + 1, -T // 2 + 1 + T)
    if d - 1 > xs[-1]:
        raise ValueError("interval_ldim needs a domain point between adjacent thresholds")
    table = xs[None, :] > np.arange(d)[:, None]
    labels = xs > 0 if kind == "realizable" else np.ones(T, dtype=bool)
    return table, labels


def interval_ldim(size: np.ndarray) -> np.ndarray:
    """Ldim of `size` consecutive thresholds, floor(log2 size); -1 when empty.

    Holds because a domain point separates every adjacent pair of thresholds,
    so binary search over the interval is a shattered tree and log2 |H| caps it.
    """
    _, exponent = np.frexp(size)
    return np.where(size > 0, exponent - 1, -1)


def mistake_probs(kind: str, table, labels, orders, eta: float):
    """P(predict 1) and randomized flags, (P, T) each, for P orderings at once."""
    P, T = orders.shape
    d = table.shape[0]
    engine = None if kind == "wm" else kind.removeprefix("wm_")
    mistakes = np.zeros((P, d))
    alive = np.ones((P, d), dtype=bool)
    p_one = np.empty((P, T))
    randomized = np.ones((P, T), dtype=bool)
    for t in range(T):
        advice = table[:, orders[:, t]].T
        y = labels[orders[:, t]][:, None]
        w = np.exp(-eta * (mistakes - mistakes.min(axis=1, keepdims=True)))
        w /= w.sum(axis=1, keepdims=True)
        p = np.minimum(1.0, (w * advice).sum(axis=1))
        if engine is not None:
            ones = (alive & advice).sum(axis=1)
            size = alive.sum(axis=1)
            if engine == "halving":
                label = ones >= size - ones  # ties go to 1
            else:  # soa: the side of larger Ldim, ties to 1; version spaces stay intervals
                first, last = alive.argmax(axis=1), d - alive[:, ::-1].argmax(axis=1)
                if np.any((size > 0) & (last - first != size)):
                    raise ValueError("version space is not an interval of thresholds")
                label = interval_ldim(ones) >= interval_ldim(size - ones)
            in_space = size > 0
            p = np.where(in_space, label.astype(float), p)
            randomized[:, t] = ~in_space
        p_one[:, t] = p
        mistakes += advice != y
        alive &= advice == y
    return p_one, randomized


def _bound(case_kind: str, kind: str, d: int, T: int) -> tuple[str, float]:
    log_d = math.log(d) if d > 1 else 0.0
    head = d.bit_length() - 1  # floor(log2 d); also Ldim of the threshold class
    if case_kind == "realizable":
        if kind == "wm":
            return "expected mistakes <= sqrt(0.5 ln|H| T)", math.sqrt(0.5 * log_d * T)
        if kind in ("halving", "wm_halving"):
            return "mistakes <= floor(log2 |H|)", float(head)
        return "mistakes <= Ldim(H)", float(head)
    if kind == "wm":
        return "expected regret <= sqrt(0.5 ln|H| T)", math.sqrt(0.5 * log_d * T)
    label = "floor(log2 |H|)" if kind == "wm_halving" else "Ldim(H)"
    return (
        f"expected regret <= {label} + sqrt(0.5 ln|H| (T - {label}))",
        head + math.sqrt(0.5 * log_d * max(T - head, 0)),
    )


def reference_group(
    case_kind: str,
    T: int,
    d: int,
    learners: tuple[str, ...],
    permutations: str,
    mode: str,
    seed: int,
) -> dict[str, dict]:
    """{learner: row} for one report, computed without the library."""
    table, labels = threshold_case(case_kind, T, d)
    if permutations == "exhaustive":
        orders = np.array(list(itertools.permutations(range(T))), dtype=np.intp)
    else:
        rng = np.random.default_rng((seed, 0))
        orders = np.array([rng.permutation(T) for _ in range(int(permutations.split(":")[1]))])
    trials = int(mode.split(":")[1]) if mode != "analytic" else 0
    best = int((table != labels).sum(axis=1).min())
    eta = math.sqrt(2.0 * math.log(d) / T) if d > 1 else 0.0  # the sqrt2 variant

    rows = {}
    first = None
    for kind in learners:
        p_one, randomized = mistake_probs(kind, table, labels, orders, eta)
        ys = labels[orders]
        if trials:
            expected, realized = [], []
            for i in range(len(orders)):
                draws = np.random.default_rng((seed, 1, i)).random((trials, T))
                wrong = (draws < p_one[i]) != ys[i]
                expected.append(float(wrong.mean(axis=0).sum()))
                realized.append(int(wrong.sum(axis=1).max()))
            expected = np.array(expected)
            max_sampled = float(max(realized))
        else:
            expected = np.where(ys, 1.0 - p_one, p_one).sum(axis=1)
            max_sampled = None if randomized.any() else float(expected.max())
        mean, top = float(expected.mean()), float(expected.max())
        observed = top if case_kind == "realizable" else mean - best
        name, value = _bound(case_kind, kind, d, T)
        row = {
            "M(h*)": best,
            "expected_mistakes": mean,
            "max_mistakes": top,
            "max_mistakes_sampled": max_sampled,
            "expected_regret": mean - best,
            "bound_name": name,
            "bound_value": value,
            "bound_observed": observed,
            "bound_pass": observed <= value + BOUND_TOLERANCE,
        }
        diff_key = "max_mistakes" if case_kind == "realizable" else "expected_regret"
        row["diff"] = None if first is None else first[diff_key] - row[diff_key]
        first = first or row
        rows[kind] = row
    return rows


def check_rows(
    got: dict[str, dict[str, dict]],
    expected_keys: list[tuple[str, str]],
    references: list[dict[str, dict[str, dict]]],
) -> list[str]:
    """One line per failed row; `got` and each reference are {case: {learner: row}}."""
    failures = []
    for case_kind, learner in expected_keys:
        row = got.get(case_kind, {}).get(learner)
        if row is None:
            failures.append(f"{case_kind}/{learner}: row missing")
            continue
        errors = []
        for reference in references:
            errors += row_errors(row, reference[case_kind][learner])
        if row["bound_pass"] is not True:
            errors.append("bound verdict did not pass")
        if errors:
            failures.append(f"{case_kind}/{learner}: " + "; ".join(errors))
    return failures
