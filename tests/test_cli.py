import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from regretlab import cli
from regretlab.cli import MAX_COUNT, MAX_T, ExperimentConfig, build_parser, run_cli

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


def test_every_config_field_is_a_run_flag():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {flag for action in commands.choices["run"]._actions for flag in action.option_strings}
    assert {"--" + f.name.replace("_", "-") for f in fields(ExperimentConfig)} <= flags


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
    assert out == ExperimentConfig(
        case="unrealizable",
        T=10,
        d=4,
        learners=("wm", "wm_soa"),
        perm="sampled:50",
        seed=13,
        eta_variant="sqrt2",
        mode="analytic",
        format="json",
        out=None,
        check_bounds=True,
    ).to_json()
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
        (dict(VALID_FILE, T="five"), "argument --T: invalid int value"),
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


@pytest.mark.parametrize("source", ["flag", "file", "env"])
def test_negative_seed_refused(capsys, monkeypatch, tmp_path, source):
    monkeypatch.delenv("REGRETLAB_SEED", raising=False)
    argv = ["--T", "5", "--d", "2", "--learners", "wm", "--perm", "sampled:2"]
    if source == "flag":
        argv += ["--seed", "-1"]
    elif source == "file":
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(config_path)]
    else:
        monkeypatch.setenv("REGRETLAB_SEED", "-2")
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


def test_horizon_at_cap_accepted(capsys):
    argv = ["--T", str(MAX_T), "--d", "1", "--learners", "wm", "--perm", "sampled:1", "--dump-config"]
    code, out, _ = run_argv(argv, capsys)
    assert code == 0
    assert json.loads(out)["T"] == MAX_T


@pytest.mark.parametrize("flag", ["--perm", "--mode"])
def test_huge_sampled_count_refused_before_building(capsys, monkeypatch, flag):
    def no_build(case):  # pragma: no cover - must not be called
        raise AssertionError("class built for a refused count")

    monkeypatch.setattr(cli, "make_case_inputs", no_build)
    argv = ["run", "--T", "8", "--d", "4", "--learners", "wm", flag, "sampled:100000000000000000000"]
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
