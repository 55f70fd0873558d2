import argparse
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regretlab import cli, sequences
from regretlab.cli import MAX_CONFIG_BYTES, MAX_COUNT, MAX_T, build_parser, run_cli
from regretlab.learners import LEARNER_KINDS

TABLE_CSV_REALIZABLE = (
    "t,x,y\n"
    "1,-3,0\n2,-2,0\n3,-1,0\n4,0,0\n5,1,1\n6,2,1\n7,3,1\n8,4,1\n"
)
TABLE_CSV_UNREALIZABLE = (
    "t,x,y\n"
    "1,-3,1\n2,-2,1\n3,-1,1\n4,0,1\n5,1,1\n6,2,1\n7,3,1\n8,4,1\n"
)


def run_argv(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_small_benchmark(capsys, tmp_path):
    out = tmp_path / "report.csv"
    code, _, err = run_argv(
        [
            "--case", "realizable", "--T", "6", "--d", "3",
            "--learners", "wm,wm_halving", "--perm", "exhaustive",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0, err
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("wm,6,720,3,0,")
    assert lines[2].startswith("wm_halving,6,720,3,0,")


def test_run_reference_pair_end_to_end(capsys):
    code, out, err = run_argv(
        [
            "--case", "realizable", "--T", "8", "--d", "4",
            "--learners", "wm,wm_halving", "--perm", "exhaustive",
            "--eta-variant", "sqrt2",
        ],
        capsys,
    )
    assert code == 0, err
    header, wm_row, wmh_row = [line.split(",") for line in out.strip().splitlines()]
    at = {name: i for i, name in enumerate(header)}
    assert wm_row[at["learner"]] == "wm" and wmh_row[at["learner"]] == "wm_halving"
    assert wm_row[at["permutations"]] == "40320"
    assert float(wm_row[at["expected_mistakes"]]) == pytest.approx(1.3228259343895654)
    assert float(wmh_row[at["expected_mistakes"]]) == pytest.approx(0.5)
    assert wm_row[at["bound_pass"]] == wmh_row[at["bound_pass"]] == "true"


def test_run_writes_stdout_by_default(capsys):
    code, out, _ = run_argv(
        ["--case", "realizable", "--T", "4", "--d", "2", "--learners", "halving"],
        capsys,
    )
    assert code == 0
    assert out.startswith("learner,T,")


def test_usage_error_d_exceeds_T(capsys):
    code, _, err = run_argv(["--T", "4", "--d", "8", "--learners", "wm"], capsys)
    assert code == 1
    assert err.strip().count("\n") == 0  # one-line diagnostic
    assert "1 <= d <= T" in err


def test_usage_error_unknown_learner(capsys):
    code, _, err = run_argv(["--T", "4", "--d", "2", "--learners", "winnow"], capsys)
    assert code == 1
    assert "unknown learner" in err


def test_usage_error_baseline_on_unrealizable(capsys):
    code, _, err = run_argv(
        ["--case", "unrealizable", "--T", "4", "--d", "2", "--learners", "soa"],
        capsys,
    )
    assert code == 1
    assert "realizable" in err


def test_ldim_state_cap_exits_1_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(importlib.import_module("regretlab.ldim"), "LDIM_STATE_CAP", 3)
    argv = "--case realizable --T 32 --d 16 --learners soa --perm sampled:4".split()
    code, _, err = run_argv(argv, capsys)
    assert code == 1
    assert err.strip().count("\n") == 0  # one-line diagnostic
    assert "Ldim search is capped at 3" in err


def test_usage_error_exhaustive_cap(capsys):
    code, _, err = run_argv(["--T", "12", "--d", "4", "--learners", "wm"], capsys)
    assert code == 1
    assert "sampled" in err


def test_usage_error_bad_perm(capsys):
    code, _, err = run_argv(
        ["--T", "4", "--d", "2", "--learners", "wm", "--perm", "sampled:zero"],
        capsys,
    )
    assert code == 1


def test_usage_error_missing_command(capsys):
    code, _, err = run_argv(["bogus"], capsys)
    assert code == 1


def test_sampled_run_deterministic(capsys, tmp_path):
    argv = [
        "--case", "unrealizable", "--T", "12", "--d", "5",
        "--learners", "wm,wm_halving", "--perm", "sampled:20", "--seed", "7",
    ]
    code1, out1, _ = run_argv(argv, capsys)
    code2, out2, _ = run_argv(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_env_fallback(capsys, monkeypatch):
    argv = [
        "--case", "unrealizable", "--T", "10", "--d", "4",
        "--learners", "wm", "--perm", "sampled:5",
    ]
    monkeypatch.setenv("REGRETLAB_SEED", "21")
    _, out_env, _ = run_argv(argv, capsys)
    monkeypatch.delenv("REGRETLAB_SEED")
    _, out_default, _ = run_argv(argv, capsys)
    _, out_flag, _ = run_argv(argv + ["--seed", "21"], capsys)
    assert out_env == out_flag
    assert out_env != out_default


def test_invalid_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("REGRETLAB_SEED", "lots")
    code, _, err = run_argv(["--T", "4", "--d", "2", "--learners", "wm"], capsys)
    assert code == 1
    assert "REGRETLAB_SEED" in err


def test_bound_failure_exit_code(capsys, monkeypatch):
    import regretlab.cli as cli
    from regretlab.experiments import BoundVerdict

    def forced_failure(report, cls):
        report.bounds = (BoundVerdict("forced", 0.0, 1.0),)
        return report

    monkeypatch.setattr(cli, "with_bounds", forced_failure)
    code, _, _ = run_argv(["--T", "4", "--d", "2", "--learners", "wm"], capsys)
    assert code == 2


def test_no_check_bounds_skips_exit_code(capsys, monkeypatch):
    import regretlab.cli as cli
    from regretlab.experiments import BoundVerdict

    def forced_failure(report, cls):  # pragma: no cover - must not be called
        raise AssertionError("bounds checked despite --no-check-bounds")

    monkeypatch.setattr(cli, "with_bounds", forced_failure)
    code, out, _ = run_argv(
        ["--T", "4", "--d", "2", "--learners", "wm", "--no-check-bounds"], capsys
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    row = out.splitlines()[1].split(",")
    assert row[header.index("bound_name")] == ""


def test_sampled_prediction_mode(capsys):
    code, out, _ = run_argv(
        [
            "--case", "unrealizable", "--T", "6", "--d", "3",
            "--learners", "wm", "--mode", "sampled:5", "--seed", "2",
        ],
        capsys,
    )
    assert code == 0
    header, row = [line.split(",") for line in out.strip().splitlines()]
    sampled = row[header.index("max_mistakes_sampled")]
    assert sampled != "" and float(sampled) == int(float(sampled))  # realized integer max

    # a realizable verdict reads the worst ordering's exact expectation in either mode,
    # not the largest mean of a few sampled passes (2.67 here, above the bound 2.20)
    argv = "--case realizable --T 7 --d 4 --learners wm --perm exhaustive --seed 5 --format json".split()
    observed = []
    for mode in ([], ["--mode", "sampled:3"]):
        code, out, err = run_argv([*argv, *mode], capsys)
        assert code == 0, err
        (row,) = json.loads(out)["reports"]
        observed.append(row["bound_observed"])
    assert observed[1] == observed[0] < row["max_mistakes"]


def test_certain_predictions_fill_max_mistakes_sampled_in_analytic_mode(capsys):
    # one expert: eta = 0 and every P(predict 1) is 0 or 1, so neither learner
    # randomizes and the realized maximum is the analytic one
    code, out, err = run_argv(
        "run --T 8 --d 1 --learners wm,wm_halving --case unrealizable".split(), capsys
    )
    assert code == 0, err
    header, *rows = [line.split(",") for line in out.strip().splitlines()]
    at = header.index("max_mistakes_sampled")
    assert [row[at] for row in rows] == ["4.0", "4.0"]


def test_json_format(capsys):
    code, out, _ = run_argv(
        ["--T", "4", "--d", "2", "--learners", "wm", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, argv",
    [
        (
            "realizable_T7_d4.json",
            "--case realizable --T 7 --d 4"
            " --learners consistent,halving,soa,wm,wm_consistent,wm_halving,wm_soa",
        ),
        ("unrealizable_T8_d4.json", "--case unrealizable --T 8 --d 4 --learners wm,wm_halving,wm_soa"),
        (
            "realizable_T32_d16_soa.json",
            "--case realizable --T 32 --d 16 --learners soa,wm_soa --perm sampled:24 --seed 5",
        ),
        (
            "unrealizable_T32_d16_wm_soa.json",
            "--case unrealizable --T 32 --d 16 --learners wm_soa --perm sampled:24"
            " --mode sampled:3 --seed 5",
        ),
        # the paper's scale: half the domain (x <= 0) is instances no hypothesis labels 1
        (
            "realizable_T1000_d500_wm.json",
            "--case realizable --T 1000 --d 500 --learners wm,wm_halving --eta-variant sqrt2"
            " --perm sampled:8 --seed 7",
        ),
        (
            "unrealizable_T1000_d500_wm.json",
            "--case unrealizable --T 1000 --d 500 --learners wm,wm_halving --eta-variant sqrt2"
            " --perm sampled:8 --mode sampled:5 --seed 7",
        ),
        # 3 learners over one 1,024-row stream block: the kernel slices it 341 rows at a time
        (
            "unrealizable_T64_d32_sampled1100.json",
            "--case unrealizable --T 64 --d 32 --learners wm,wm_halving,wm_soa --perm sampled:1100"
            " --mode sampled:2 --seed 4 --eta-variant sqrt2",
        ),
    ],
)
def test_json_report_matches_golden_bytes(capsys, monkeypatch, golden, argv):
    monkeypatch.delenv("REGRETLAB_SEED", raising=False)
    code, out, err = run_argv(["run", *argv.split(), "--format", "json"], capsys)
    assert code == 0, err
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_markdown_format(capsys):
    code, out, _ = run_argv(
        ["--T", "4", "--d", "2", "--learners", "wm,wm_soa", "--format", "markdown"],
        capsys,
    )
    assert code == 0
    assert out.startswith("| T | Permutations |")


def test_dump_config_keys_are_the_config_file_keys(capsys, tmp_path):
    argv = ["--T", "4", "--d", "2", "--learners", "wm", "--dump-config"]
    code, out, _ = run_argv(argv, capsys)
    assert code == 0
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    # every destination the run parser has, plus the subcommand's and a stranger
    keys = {action.dest for action in commands.choices["run"]._actions} | {"command", "bogus"}
    accepted = set()
    config_path = tmp_path / "exp.json"
    for key in sorted(keys):
        config_path.write_text(json.dumps({key: None}))  # a null value is skipped, so only the key decides
        code, _, err = run_argv(["--config", str(config_path), *argv], capsys)
        if code == 0:
            accepted.add(key)
        else:
            assert err == f"regretlab: error: unknown config keys: {[key]}\n"
    assert accepted == set(json.loads(out))


def test_dump_config_round_trip(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("REGRETLAB_SEED", raising=False)
    argv = [
        "--case", "unrealizable", "--T", "10", "--d", "4",
        "--learners", "wm,wm_soa", "--perm", "sampled:50", "--seed", "13",
        "--eta-variant", "sqrt2", "--format", "json",
        "--dump-config",
    ]
    code, out, _ = run_argv(argv, capsys)
    assert code == 0
    assert out == (
        "{\n"
        '  "case": "unrealizable",\n'
        '  "T": 10,\n'
        '  "d": 4,\n'
        '  "learners": [\n'
        '    "wm",\n'
        '    "wm_soa"\n'
        "  ],\n"
        '  "perm": "sampled:50",\n'
        '  "seed": 13,\n'
        '  "eta_variant": "sqrt2",\n'
        '  "mode": "analytic",\n'
        '  "format": "json",\n'
        '  "out": null,\n'
        '  "check_bounds": true\n'
        "}\n"
    )
    config_path = tmp_path / "dumped.json"
    config_path.write_text(out)
    code, again, err = run_argv(["--config", str(config_path), "--dump-config"], capsys)
    assert code == 0, err
    assert again.encode() == out.encode()


def test_config_round_trip_keeps_out_and_no_check_bounds(capsys, tmp_path):
    argv = ["--T", "4", "--d", "2", "--learners", "wm", "--out", str(tmp_path / "r.csv")]
    code, out, _ = run_argv([*argv, "--no-check-bounds", "--dump-config"], capsys)
    assert code == 0
    assert json.loads(out)["check_bounds"] is False
    config_path = tmp_path / "dumped.json"
    config_path.write_text(out)
    code, again, _ = run_argv(["--config", str(config_path), "--dump-config"], capsys)
    assert code == 0
    assert again == out


def test_config_file_with_flag_override(capsys, tmp_path):
    config_path = tmp_path / "exp.json"
    config_path.write_text(
        json.dumps(
            {
                "case": "realizable",
                "T": 5,
                "d": 2,
                "learners": ["wm"],
                "perm": "exhaustive",
                "seed": 3,
            }
        )
    )
    code, out, _ = run_argv(
        ["--config", str(config_path), "--learners", "halving", "--dump-config"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["learners"] == ["halving"]  # flag wins
    assert doc["T"] == 5 and doc["seed"] == 3  # file values survive


VALID_FILE = {"T": 5, "d": 2, "learners": ["wm"]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(VALID_FILE, perm=3), "--perm must be"),
        ([VALID_FILE], "must hold a JSON object"),
        (dict(VALID_FILE, case="bogus"), "argument --case: invalid choice"),
        (dict(VALID_FILE, eta_variant="bogus"), "argument --eta-variant: invalid choice"),
        (dict(VALID_FILE, check_bounds="no"), "--check-bounds"),
        (dict(VALID_FILE, seed="x"), "argument --seed"),
        (dict(VALID_FILE, T="five"), "argument --T: must be a non-negative integer"),
        (dict(VALID_FILE, jobs=[2]), "unknown config keys: ['jobs']"),
        ({"T": "5"}, "got d=0, T=5"),
        (dict(VALID_FILE, config="other.json"), "unknown config keys"),
    ],
    ids=["perm-int", "array", "case", "eta-variant", "check-bounds-str", "seed-str",
         "T-word", "jobs-list", "T-str-alone", "config-key"],
)
def test_hostile_config_file_fails_with_one_line(capsys, tmp_path, doc, message):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(doc))
    code, out, err = run_argv(["--config", str(config_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("regretlab: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("size, code", [(MAX_CONFIG_BYTES, 0), (MAX_CONFIG_BYTES + 1, 1)], ids=["at-cap", "over-cap"])
def test_config_file_read_stops_at_the_cap(capsys, tmp_path, size, code):
    # valid JSON padded with whitespace: only its size decides
    config_path = tmp_path / "exp.json"
    config_path.write_text('{"seed": 1}'.ljust(size))
    argv = ["--config", str(config_path), "--T", "4", "--d", "2", "--learners", "wm", "--dump-config"]
    got, out, err = run_argv(argv, capsys)
    assert got == code
    if code:
        assert out == "" and err == f"regretlab: error: config file {config_path} is over {MAX_CONFIG_BYTES} bytes\n"
    else:
        assert json.loads(out)["seed"] == 1


def test_deeply_nested_config_file_fails_with_one_line(capsys, tmp_path):
    config_path = tmp_path / "exp.json"
    config_path.write_text("[" * 50_000)  # json.loads recurses once per level
    code, out, err = run_argv(["--config", str(config_path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("regretlab: error: cannot read config file") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, flags",
    [
        (dict(VALID_FILE, T="5"), ["--T", "5"]),
        (dict(VALID_FILE, learners="wm"), ["--learners", "wm"]),
        (dict(VALID_FILE, seed="3"), ["--seed", "3"]),
        (dict(VALID_FILE, check_bounds=False, seed=None), ["--no-check-bounds"]),
    ],
    ids=["T-str", "learners-str", "seed-str", "check-bounds-false"],
)
def test_config_value_reads_as_its_flag(capsys, monkeypatch, tmp_path, doc, flags):
    monkeypatch.delenv("REGRETLAB_SEED", raising=False)
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(doc))
    code_file, out_file, err = run_argv(["--config", str(config_path)], capsys)
    assert code_file == 0, err
    code_flag, out_flag, _ = run_argv(["--T", "5", "--d", "2", "--learners", "wm", *flags], capsys)
    assert code_flag == 0
    assert out_file == out_flag


def test_config_file_overrides_seed_env(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REGRETLAB_SEED", "21")
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(dict(VALID_FILE, seed=3)))
    code, out, _ = run_argv(["--config", str(config_path), "--dump-config"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 3


# int() reads all of these; a seed or count is ASCII decimal digits only
LOOSE_NUMBERS = ["+3", "3_0", " 3", "\u0663"]
LOOSE_IDS = ["sign", "underscore", "space", "non_ascii_digit"]


@pytest.mark.parametrize("seed", ["-1", *LOOSE_NUMBERS], ids=["negative", *LOOSE_IDS])
@pytest.mark.parametrize("source", ["flag", "file", "env"])
def test_malformed_seed_refused(capsys, monkeypatch, tmp_path, source, seed):
    monkeypatch.delenv("REGRETLAB_SEED", raising=False)
    argv = ["--T", "5", "--d", "2", "--learners", "wm", "--perm", "sampled:2"]
    if source == "flag":
        argv += [f"--seed={seed}"]
    elif source == "file":
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"seed": seed}))
        argv += ["--config", str(config_path)]
    else:
        monkeypatch.setenv("REGRETLAB_SEED", seed)
    code, out, err = run_argv(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("regretlab: error: ") and err.count("\n") == 1
    assert "non-negative" in err
    if source == "env":
        assert "REGRETLAB_SEED" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--T", "4", "--d", "2", "--learners", "wm", "--out"],
        ["gen", "--T", "4", "--out"],
    ],
    ids=["run", "gen"],
)
def test_unwritable_out_fails_with_one_line(capsys, tmp_path, argv):
    code, out, err = run_argv([*argv, str(tmp_path / "missing" / "report")], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("regretlab: error: ") and err.count("\n") == 1
    assert "missing" in err


def test_unwritable_out_fails_before_any_work(capsys, monkeypatch, tmp_path):
    def no_work(*args, **kwargs):  # pragma: no cover - must not be called
        raise AssertionError("work done before --out was checked")

    monkeypatch.setattr(cli, "make_case_inputs", no_work)
    monkeypatch.setattr(cli, "evaluate", no_work)
    monkeypatch.setattr(cli, "evaluate_many", no_work)
    argv = ["run", "--T", "1000", "--d", "500", "--learners", "wm", "--perm", "sampled:100"]
    code, out, err = run_argv([*argv, "--out", str(tmp_path / "missing" / "x.csv")], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("regretlab: error: ") and err.count("\n") == 1
    assert "missing" in err


def test_config_file_unknown_key(capsys, tmp_path):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({"T": 5, "d": 2, "learners": ["wm"], "mystery": 1}))
    code, _, err = run_argv(["--config", str(config_path)], capsys)
    assert code == 1
    assert "mystery" in err


def test_jobs_flag_refused_with_one_line(capsys):
    # every run is in-process; no flag chooses a worker count
    argv = ["run", "--T", "4", "--d", "2", "--learners", "wm", "--jobs", "2"]
    code, out, err = run_argv(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("regretlab: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert "--jobs" in err


def test_gen_stdout_matches_reference_sequences(capsys):
    code, out, _ = run_argv(["gen", "--T", "8", "--case", "realizable"], capsys)
    assert code == 0
    assert out == TABLE_CSV_REALIZABLE
    code, out, _ = run_argv(["gen", "--T", "8", "--case", "unrealizable"], capsys)
    assert code == 0
    assert out == TABLE_CSV_UNREALIZABLE


def test_gen_writes_files(capsys, tmp_path):
    prefix = tmp_path / "dump"
    code, _, _ = run_argv(["gen", "--T", "2", "--d", "1", "--out", str(prefix)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "dump.class.json").read_text())
    assert len(doc["table"]) == 1
    assert doc["domain"] == [0, 1]
    csv_text = (tmp_path / "dump.sequence.csv").read_text()
    assert csv_text.splitlines()[0] == "t,x,y"
    code, _, _ = run_argv(["gen", "--T", "8", "--d", "4", "--out", str(prefix)], capsys)
    assert code == 0
    assert (tmp_path / "dump.class.json").read_text() == (
        '{"domain": [-3, -2, -1, 0, 1, 2, 3, 4], "table": [[0, 0, 0, 0, 1, 1, 1, 1], '
        '[0, 0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 0, 0, 1]]}\n'
    )


def test_gen_validation(capsys):
    code, _, err = run_argv(["gen", "--T", "4", "--d", "9"], capsys)
    assert code == 1
    assert "1 <= d <= T" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--T", "1000000000", "--d", "1", "--learners", "wm"],
        ["run", "--T", "0", "--d", "1", "--learners", "wm"],
        ["gen", "--T", "1000000000"],
        ["run", "--T", str(MAX_T + 1), "--d", "1", "--learners", "wm", "--dump-config"],
    ],
)
def test_horizon_out_of_range_refused_before_building(capsys, monkeypatch, argv):
    def no_build(case):  # pragma: no cover - must not be called
        raise AssertionError("class built for a refused horizon")

    monkeypatch.setattr(cli, "make_case_inputs", no_build)
    code, out, err = run_argv(argv, capsys)
    assert code == 1
    assert out == ""
    assert f"1 <= T <= {MAX_T}" in err


# refusals that come from the library object owning the rule: ExperimentCase,
# LearnerConfig and sequences.check_exhaustive; gen takes no learners and no stream
LIBRARY_REFUSALS = {
    "d-over-T": (["--T", "4", "--d", "8", "--learners", "wm"], "d must satisfy 1 <= d <= T, got d=8, T=4"),
    "unknown-learner": (
        ["--T", "4", "--d", "2", "--learners", "winnow"],
        f"unknown learner kind 'winnow'; choose from {', '.join(LEARNER_KINDS)}",
    ),
    "exhaustive-cap": (
        ["--T", "12", "--d", "4", "--learners", "wm", "--perm", "exhaustive"],
        f"exhaustive streams need T <= {sequences.EXHAUSTIVE_T_CAP}, not 12; use a sampled stream",
    ),
}


@pytest.mark.parametrize(
    "source, refusal",
    [(source, refusal) for source in ("dump_config", "file") for refusal in LIBRARY_REFUSALS] + [("gen", "d-over-T")],
)
def test_library_refusal_exits_1_before_building(capsys, monkeypatch, tmp_path, source, refusal):
    def no_build(case):  # pragma: no cover - must not be called
        raise AssertionError("class built for a refused setting")

    monkeypatch.setattr(cli, "make_case_inputs", no_build)
    flags, message = LIBRARY_REFUSALS[refusal]
    if source == "file":
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({flag[2:]: value for flag, value in zip(flags[::2], flags[1::2])}))
        argv = ["run", "--config", str(config_path)]
    else:
        argv = ["run", *flags, "--dump-config"] if source == "dump_config" else ["gen", *flags[:4]]
    code, out, err = run_argv(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"regretlab: error: {message}\n"


@pytest.mark.parametrize("value", ["-1", *LOOSE_NUMBERS], ids=["negative", *LOOSE_IDS])
@pytest.mark.parametrize("flag", ["--T", "--d"])
@pytest.mark.parametrize("source", ["run", "run_file", "gen"])
def test_malformed_size_refused_before_building(capsys, monkeypatch, tmp_path, source, flag, value):
    def no_build(case):  # pragma: no cover - must not be called
        raise AssertionError("class built for a refused size")

    monkeypatch.setattr(cli, "make_case_inputs", no_build)
    sizes = {"--T": "8", "--d": "4", flag: value}
    if source == "run_file":
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"T": sizes["--T"], "d": sizes["--d"], "learners": ["wm"]}))
        argv = ["run", "--config", str(config_path)]
    else:
        argv = [source, "--T", sizes["--T"], "--d", sizes["--d"]]
        argv += ["--learners", "wm"] if source == "run" else []
    code, out, err = run_argv(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("regretlab: error: ") and err.count("\n") == 1
    assert f"argument {flag}: must be a non-negative integer" in err


def test_horizon_at_cap_accepted(capsys):
    argv = ["--T", str(MAX_T), "--d", "1", "--learners", "wm", "--perm", "sampled:1", "--dump-config"]
    code, out, _ = run_argv(argv, capsys)
    assert code == 0
    assert json.loads(out)["T"] == MAX_T


@pytest.mark.parametrize("count", ["100000000000000000000", *LOOSE_NUMBERS], ids=["huge", *LOOSE_IDS])
@pytest.mark.parametrize("flag", ["--perm", "--mode"])
def test_malformed_sampled_count_refused_before_building(capsys, monkeypatch, flag, count):
    def no_build(case):  # pragma: no cover - must not be called
        raise AssertionError("class built for a refused count")

    monkeypatch.setattr(cli, "make_case_inputs", no_build)
    argv = ["run", "--T", "8", "--d", "4", "--learners", "wm", f"{flag}=sampled:{count}"]
    code, out, err = run_argv(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("regretlab: error: ") and err.count("\n") == 1
    assert f"1 <= N <= {MAX_COUNT}" in err


@pytest.mark.parametrize("flag", ["--perm", "--mode"])
def test_sampled_count_at_cap_accepted(capsys, flag):
    argv = ["--T", "8", "--d", "4", "--learners", "wm", flag, f"sampled:{MAX_COUNT}", "--dump-config"]
    code, out, _ = run_argv(argv, capsys)
    assert code == 0
    assert json.loads(out)[flag[2:]] == f"sampled:{MAX_COUNT}"


def test_cli_module_runs_like_package():
    env = {k: v for k, v in os.environ.items() if k != "REGRETLAB_SEED"}
    argv = ["run", "--T", "4", "--d", "2", "--learners", "wm"]
    procs = [
        subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=60
        )
        for module in ("regretlab", "regretlab.cli")
    ]
    assert procs[0].returncode == procs[1].returncode == 0, procs[1].stderr
    assert procs[0].stdout.startswith("learner,T,")
    assert procs[1].stdout == procs[0].stdout
    assert procs[1].stderr == procs[0].stderr


def test_sampled_run_imports_no_process_pool(tmp_path):
    # a fresh interpreter, so that no module another test imported is counted
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "REGRETLAB_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [
        "run", "--T", "40", "--d", "20", "--learners", "wm,wm_halving",
        "--perm", "sampled:30", "--mode", "sampled:5", "--out", str(tmp_path / "r.csv"),
    ]  # fmt: skip
    script = (
        "import sys\n"
        "from regretlab import cli\n"
        f"code = cli.run_cli({argv!r})\n"
        "print(code, sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"
    assert (tmp_path / "r.csv").read_text().startswith("learner,T,")


@pytest.fixture
def class_builds(monkeypatch):
    """The d of every threshold class built while the test runs."""
    builds = []
    build = sequences.make_threshold_class

    def counted(d, domain):
        builds.append(d)
        return build(d, domain)

    monkeypatch.setattr(sequences, "make_threshold_class", counted)
    return builds


@pytest.mark.parametrize("perm", ["exhaustive", "sampled:5"])
def test_run_builds_one_class(capsys, class_builds, perm):
    # the same class runs the learners and checks their bounds
    argv = ["run", "--T", "7", "--d", "4", "--learners", "wm,wm_halving,wm_soa,soa", "--perm", perm]
    code, out, _ = run_argv(argv, capsys)
    assert code == 0 and out.startswith("learner,T,")
    assert class_builds == [4]


def run_reproduce_tables(monkeypatch, *args):
    """Load scripts/reproduce_tables.py and run its main() with args; returns (exit code, module)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"
    spec = importlib.util.spec_from_file_location("reproduce_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    return script.main(), script


def test_reproduce_tables_builds_one_class_per_case(capsys, class_builds, monkeypatch, tmp_path):
    code, script = run_reproduce_tables(monkeypatch, "--out", str(tmp_path))
    assert code == 0
    assert class_builds == [case.d for _, case, _, _ in script.RUNS] == [4, 4, 500, 500]
    assert len(list(tmp_path.glob("*.csv"))) == 8


@pytest.mark.parametrize("seed", ["-1", "+3"])
def test_reproduce_tables_refuses_malformed_seed_before_writing(capsys, monkeypatch, tmp_path, seed):
    with pytest.raises(SystemExit) as exc:
        run_reproduce_tables(monkeypatch, "--out", str(tmp_path / "reports"), "--seed", seed)
    assert exc.value.code != 0
    assert "non-negative" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_reproduce_tables_matches_golden_bytes(capsys, monkeypatch, tmp_path):
    # summary.md prints each case's wall-clock seconds, so only the CSVs are pinned
    code, _ = run_reproduce_tables(monkeypatch, "--out", str(tmp_path), "--seed", "7")
    assert code == 0
    golden = sorted(p.name for p in (GOLDEN / "reproduce").glob("*.csv"))
    assert golden == sorted(p.name for p in tmp_path.glob("*.csv")) and len(golden) == 8
    for name in golden:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "reproduce" / name).read_bytes(), name
