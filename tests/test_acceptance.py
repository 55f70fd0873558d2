"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Criteria 1-3 are reproduction runs of the published benchmark tables. They use
the configuration the published numbers correspond to: the sqrt2 learning-rate
variant and, for the halving hybrid, fair-coin tie-breaking. The library's
default tie rule stays ties-to-1, under which the exhaustive T=8 realizable
wm_halving row is exactly 0.5 expected / 1.0 max; that is pinned by
test_experiments.test_exhaustive_halving_hybrid_with_tie_to_one. The published
"max" of a randomized learner counts realized mistakes, so criterion 1 reads it
as the realized maximum of one sampled pass per ordering, seeded by the CLI
seeding contract (ordering i draws from (seed, 1, i)), not as the maximum of the
per-ordering analytic expectations. Criterion 4 pins sqrt8, the rate the regret
analysis is tuned for.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from regretlab import (
    ExperimentCase,
    FiniteHypothesisClass,
    LearnerConfig,
    PermutationStream,
    Sampled,
    Sequence,
    evaluate,
    ldim,
    ldim_witness_check,
    make_case_inputs,
    mistake_profile,
    run,
)
from regretlab.ldim import LdimComputer

from .oracles import ldim_by_enumeration

SEED = 7
REPRO_ETA = "sqrt2"
REPRO_TIE = "random"


def _verdict(number: int, title: str, checks: dict[str, bool], detail: str = "") -> None:
    ok = all(checks.values())
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} ({title}): {status}"
    if detail:
        line += f" | {detail}"
    if not ok:
        failed = [name for name, good in checks.items() if not good]
        line += f" | failed: {failed}"
    print(line, flush=True)
    assert ok, f"criterion {number} sub-checks failed: {failed}"


def _desk_reports(kind: str) -> tuple[dict, float]:
    case = ExperimentCase(kind, 8, 4)
    _, base = make_case_inputs(case)
    stream = PermutationStream(base)
    configs = {
        "wm": LearnerConfig("wm", eta_variant=REPRO_ETA),
        "wm_halving": LearnerConfig("wm_halving", eta_variant=REPRO_ETA, tie_break=REPRO_TIE),
    }
    t0 = time.perf_counter()
    reports = {k: evaluate(config, case, stream) for k, config in configs.items()}
    if kind == "realizable":
        # the published max column counts realized mistakes: one sampled pass
        # per ordering, ordering i seeded (SEED, 1, i) as the CLI does
        reports["wm_halving_sampled"] = evaluate(
            configs["wm_halving"], case, stream, mode=Sampled((SEED, 1), trials=1)
        )
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_realizable():
    return _desk_reports("realizable")


@pytest.fixture(scope="module")
def desk_unrealizable():
    return _desk_reports("unrealizable")


@pytest.fixture(scope="module")
def large_scale():
    out = {}
    t0 = time.perf_counter()
    for kind in ("realizable", "unrealizable"):
        case = ExperimentCase(kind, 1000, 500)
        _, base = make_case_inputs(case)
        stream = PermutationStream(base, exhaustive=False, count=100, seed=(SEED, 0))
        out[kind] = {
            k: evaluate(LearnerConfig(k, eta_variant=REPRO_ETA), case, stream)
            for k in ("wm", "wm_halving")
        }
    return out, time.perf_counter() - t0


def test_criterion_1_small_scale_realizable_table(desk_realizable):
    reports, elapsed = desk_realizable
    wm, wmh = reports["wm"], reports["wm_halving"]
    wmh_max = reports["wm_halving_sampled"].max_mistakes_sampled
    checks = {
        "wm expected = 1.31 +- 0.15": abs(wm.expected_mistakes - 1.31) <= 0.15,
        "wm max <= 3": wm.max_mistakes <= 3.0 + 1e-9,
        "wm_halving expected = 0.91 +- 0.15": abs(wmh.expected_mistakes - 0.91) <= 0.15,
        "wm_halving max == 2": wmh_max == 2.0,
        "runtime < 30 s": elapsed < 30.0,
    }
    _verdict(
        1,
        "small-scale realizable reproduction",
        checks,
        f"wm {wm.expected_mistakes:.4f}/{wm.max_mistakes:.4f}, "
        f"wm_halving {wmh.expected_mistakes:.4f}/{wmh_max:.4f} realized, {elapsed:.1f}s",
    )


def test_criterion_2_small_scale_unrealizable_table(desk_unrealizable):
    reports, _ = desk_unrealizable
    wm, wmh = reports["wm"], reports["wm_halving"]
    diff = wm.expected_regret - wmh.expected_regret
    checks = {
        "best mistakes == 4": wm.best_mistakes == 4 and wmh.best_mistakes == 4,
        "wm regret = 1.31 +- 0.15": abs(wm.expected_regret - 1.31) <= 0.15,
        "wm_halving regret = 1.28 +- 0.15": abs(wmh.expected_regret - 1.28) <= 0.15,
        "diff >= -0.05": diff >= -0.05,
    }
    _verdict(
        2,
        "small-scale unrealizable reproduction",
        checks,
        f"wm {wm.expected_regret:.4f}, wm_halving {wmh.expected_regret:.4f}, diff {diff:.4f}",
    )


def test_criterion_3_large_scale_tables(large_scale):
    reports, elapsed = large_scale
    real_wm = reports["realizable"]["wm"]
    real_wmh = reports["realizable"]["wm_halving"]
    agn_wm = reports["unrealizable"]["wm"]
    checks = {
        "realizable wm_halving max <= 8": real_wmh.max_mistakes <= 8.0 + 1e-9,
        "realizable wm expected in [30, 45]": 30.0 <= real_wm.expected_mistakes <= 45.0,
        "unrealizable best mistakes == 500": agn_wm.best_mistakes == 500,
        "unrealizable wm regret in [30, 45]": 30.0 <= agn_wm.expected_regret <= 45.0,
        "runtime < 5 min": elapsed < 300.0,
    }
    _verdict(
        3,
        "large-scale sampled reproduction",
        checks,
        f"wm expected {real_wm.expected_mistakes:.2f}, wm_halving max {real_wmh.max_mistakes:.0f}, "
        f"wm regret {agn_wm.expected_regret:.2f}, {elapsed:.1f}s",
    )


# --- property suite shared by criteria 4 and 6 ---------------------------------

REALIZABLE_LEARNERS = ("consistent", "halving", "soa", "wm_consistent", "wm_halving", "wm_soa")
AGNOSTIC_LEARNERS = ("wm", "wm_consistent", "wm_halving", "wm_soa")


def _random_class(rng: np.random.Generator) -> FiniteHypothesisClass:
    d = int(rng.integers(1, 33))
    n = int(rng.integers(1, 17))
    table = rng.integers(0, 2, size=(d, n), dtype=np.int8)
    return FiniteHypothesisClass(tuple(range(n)), table)


def _realizable_bound_value(kind: str, cls, ldim_value: int) -> float:
    if kind in ("consistent", "wm_consistent"):
        return cls.d - 1
    if kind in ("halving", "wm_halving"):
        return cls.d.bit_length() - 1
    return ldim_value


@pytest.fixture(scope="module")
def property_suite():
    rng = np.random.default_rng(20260810)
    violations: list[str] = []
    switches: list[int] = []
    cases = 0
    for _ in range(260):
        cls = _random_class(rng)
        T = int(rng.integers(cls.d, 65)) if cls.d < 65 else 64
        eta = "sqrt8"
        ldim_value = LdimComputer(cls).value(cls.full_space().mask)
        log_d = math.log(cls.d) if cls.d > 1 else 0.0

        # realizable instance: labels drawn from one member hypothesis
        target = int(rng.integers(cls.d))
        xs = rng.integers(0, cls.n, size=T)
        seq_r = Sequence(tuple((int(x), int(cls.table[target, x])) for x in xs))
        cases += 1
        for kind in REALIZABLE_LEARNERS:
            trace = run(LearnerConfig(kind, eta_variant=eta), cls, seq_r, collect_rounds=False)
            bound = _realizable_bound_value(kind, cls, ldim_value)
            if trace.expected_mistakes > bound + 1e-9:
                violations.append(
                    f"realizable {kind} d={cls.d} T={T}: {trace.expected_mistakes} > {bound}"
                )

        # agnostic instance: labels adversarial to the class (random)
        xs = rng.integers(0, cls.n, size=T)
        ys = rng.integers(0, 2, size=T)
        seq_a = Sequence(tuple((int(x), int(y)) for x, y in zip(xs, ys)))
        best = int(mistake_profile(cls, seq_a).min())
        cases += 1
        for kind in AGNOSTIC_LEARNERS:
            trace = run(LearnerConfig(kind, eta_variant=eta), cls, seq_a, collect_rounds=False)
            regret = trace.expected_mistakes - best
            if kind == "wm":
                bound = math.sqrt(0.5 * log_d * T)
            else:
                head = _realizable_bound_value(kind, cls, ldim_value)
                bound = head + math.sqrt(0.5 * log_d * max(T - head, 0))
            if regret > bound + 1e-9:
                violations.append(
                    f"agnostic {kind} d={cls.d} T={T}: regret {regret:.4f} > {bound:.4f}"
                )
            if trace.switch_round is not None:
                prefix = Sequence(seq_a.examples[: trace.switch_round])
                switches.append(int(mistake_profile(cls, prefix).min()))
    return cases, violations, switches


def test_criterion_4_bound_suite(property_suite):
    cases, violations, _ = property_suite
    checks = {
        ">= 500 cases": cases >= 500,
        "zero bound violations": not violations,
    }
    _verdict(4, "theoretical bound suite", checks, f"{cases} cases, {len(violations)} violations")
    assert violations == []


def test_criterion_6_hybrid_switch_property(property_suite):
    _, _, switches = property_suite
    checks = {
        "switches observed": len(switches) > 0,
        "min expert mistakes >= 1 at every switch": all(m >= 1 for m in switches),
    }
    _verdict(6, "hybrid switch property", checks, f"{len(switches)} switch events")


def test_criterion_5_ldim_oracle_equivalence(quad_class):
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(200):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        table = rng.integers(0, 2, size=(d, n), dtype=np.int8)
        cls = FiniteHypothesisClass(tuple(range(n)), table)
        if ldim(cls).value != ldim_by_enumeration(cls):
            mismatches += 1
    reference = ldim(quad_class, want_witness=True)
    checks = {
        "recursion == enumeration on 200 random classes": mismatches == 0,
        "reference class value == 2": reference.value == 2,
        "witness depth == 2": reference.witness.depth == 2,
        "witness verifies": ldim_witness_check(
            quad_class, quad_class.full_space(), reference.witness
        ),
    }
    _verdict(5, "Ldim oracle equivalence", checks, f"{mismatches} mismatches")


def test_criterion_7_analytic_sampled_agreement():
    rng = np.random.default_rng(77)
    worst = 0.0
    agreements = []
    for i in range(20):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        T = int(rng.integers(4, 33))
        table = rng.integers(0, 2, size=(d, n), dtype=np.int8)
        cls = FiniteHypothesisClass(tuple(range(n)), table)
        seq = Sequence(
            tuple((int(x), int(y)) for x, y in zip(rng.integers(0, n, T), rng.integers(0, 2, T)))
        )
        config = LearnerConfig("wm", eta_variant="sqrt8" if i % 2 else "sqrt2")
        analytic = run(config, cls, seq)
        sampled = run(config, cls, seq, Sampled(seed=(SEED, 1, i), trials=10_000), collect_rounds=False)
        # the rounds are independent Bernoulli draws, so a pass's variance is sum q (1 - q)
        se = math.sqrt(sum(r.mistake_prob * (1 - r.mistake_prob) for r in analytic.rounds) / 10_000)
        gap = abs(sampled.expected_mistakes - analytic.expected_mistakes)
        agreements.append(gap <= 3 * se + 1e-9)
        if se > 0:
            worst = max(worst, gap / se)
    checks = {"all 20 configurations within 3 standard errors": all(agreements)}
    _verdict(7, "analytic/sampled agreement", checks, f"worst gap {worst:.2f} standard errors")


CRITERION_3_ARGV = [
    "--case", "unrealizable", "--T", "1000", "--d", "500",
    "--learners", "wm,wm_halving", "--perm", "sampled:100",
    "--seed", str(SEED), "--eta-variant", REPRO_ETA, "--format", "csv",
]


def test_criterion_8_cli_determinism(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "regretlab", *CRITERION_3_ARGV, "--out", str(path)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    checks = {"byte-identical CSV output": outputs[0] == outputs[1]}
    _verdict(8, "CLI determinism", checks, f"{len(outputs[0])} bytes")
