"""Command-line front end for the permutation harness.

Two commands:

  regretlab run  --case ... --T ... --d ... --learners ...   (default command)
  regretlab gen  --case ... --T ... [--d ...] [--out PREFIX]

`run` evaluates the requested learners over a permutation stream, prints or
writes the report, and exits 0 on success, 2 if any bound check fails, 1 on
usage, configuration or output errors. `run --config FILE` reads a JSON
object of flags (key `eta_variant` is `--eta-variant`) and parses them ahead of
the command line, so each value is checked as its flag is and flags win. `gen`
dumps the generated hypothesis class (JSON) and labeled sequence (CSV).

A setting is refused by the object owning its rule, built before any class:
ExperimentCase (1 <= d <= T), LearnerConfig (the kinds), check_exhaustive (the
exhaustive T cap). The CLI keeps MAX_T, MAX_COUNT, the `sampled:N` syntax, a
non-empty --learners and no baseline on an unrealizable case.

All randomness flows from one non-negative master seed (--seed, falling back to
the REGRETLAB_SEED environment variable, then 0). Sub-streams are derived by a
fixed rule: the permutation sampler is seeded with (seed, 0) and the
prediction sampler for permutation index i with (seed, 1, i).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .errors import RegretlabError
from .experiments import FORMATS, emit_report, evaluate_many, with_bounds
# Not called here: kept as the attribute perfbench/spans.py wraps as `cli.evaluate`.
from .experiments import evaluate  # noqa: F401
from .learners import ANALYTIC, BASELINE_KINDS, ETA_VARIANTS, LearnerConfig, Sampled
from .sequences import (
    REALIZABLE, UNREALIZABLE, ExperimentCase, PermutationStream, check_exhaustive, make_case_inputs
)

SEED_ENV_VAR = "REGRETLAB_SEED"
MAX_T = 10_000  # ten times the paper's horizon; keeps a d x T table under 10^8 cells
MAX_COUNT = 10**6  # sampled orderings or trials; ten thousand times the paper's 100 orderings
# a config holds at most one value per `run` setting, a few hundred bytes;
# the cap bounds what one --config read takes from a huge file or /dev/zero
MAX_CONFIG_BYTES = 1 << 16


class ConfigError(RegretlabError):
    """Invalid flag or config-file combination."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we want 1
        raise ConfigError(message)


def _digits(text: str) -> int:
    """The value of ASCII decimal digits, else -1; int() alone also reads signs, `_`, spaces, other digits."""
    try:
        return int(text) if text.isascii() and text.isdigit() else -1
    except ValueError:  # more digits than int() converts
        return -1


def _natural(text: str) -> int:
    """--T, --d or a master seed in ASCII decimal digits; numpy's seed sequences take no negatives."""
    value = _digits(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _learner_list(text: str) -> tuple[str, ...]:
    return tuple(k.strip() for k in text.split(",") if k.strip())


def _parse_count(value: str, flag: str, bare: str) -> int:
    """Parse `bare` into 0 and 'sampled:N' into N, 1 <= N <= MAX_COUNT."""
    if value == bare:
        return 0
    if value.startswith("sampled:"):
        count = _digits(value.split(":", 1)[1])
        if 1 <= count <= MAX_COUNT:
            return count
    raise ConfigError(
        f"{flag} must be {bare!r} or 'sampled:N' with 1 <= N <= {MAX_COUNT}, got {value!r}"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="regretlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="evaluate learners over a permutation stream")
    run_p.add_argument("--config", help="JSON config file; flags override its values")
    # the `run` settings, in the order --dump-config prints them
    run_p.add_argument("--case", choices=(REALIZABLE, UNREALIZABLE), default=REALIZABLE)
    run_p.add_argument("--T", type=_natural, default=0)
    run_p.add_argument("--d", type=_natural, default=0)
    run_p.add_argument("--learners", type=_learner_list, default=(), help="comma-separated learner kinds")
    run_p.add_argument("--perm", default="exhaustive", help="exhaustive or sampled:N")
    run_p.add_argument("--seed", type=_natural)  # None: _run_command reads REGRETLAB_SEED, else 0
    run_p.add_argument("--eta-variant", choices=ETA_VARIANTS, default="sqrt8")
    run_p.add_argument("--mode", default="analytic", help="analytic or sampled:N")
    run_p.add_argument("--format", choices=FORMATS, default="csv")
    run_p.add_argument("--out", help="output path (default: stdout)")
    run_p.add_argument("--check-bounds", action=argparse.BooleanOptionalAction, default=True)
    run_p.add_argument(
        "--dump-config",
        action="store_true",
        help="print the resolved config as JSON and exit",
    )

    gen_p = sub.add_parser("gen", help="dump the generated class and sequence")
    gen_p.add_argument("--case", choices=(REALIZABLE, UNREALIZABLE), default=REALIZABLE)
    gen_p.add_argument("--T", type=_natural, required=True)
    gen_p.add_argument("--d", type=_natural)
    gen_p.add_argument(
        "--out",
        help="prefix: writes PREFIX.sequence.csv and PREFIX.class.json "
        "(default: sequence CSV to stdout)",
    )
    return parser


def _settings(args: argparse.Namespace) -> dict:
    """The `run` settings a parse produced: every value but the command, --config and --dump-config."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "config", "dump_config")}


def _config_tokens(path: str, settings: dict) -> list[str]:
    """The `run` flags a JSON config file stands for: key `a_b`, one of `settings`, is `--a-b=value`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"config file {path} is over {MAX_CONFIG_BYTES} bytes")
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deep
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(settings)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if key == "learners" and isinstance(value, list):
            value = ",".join(map(str, value))
        if key == "check_bounds" and isinstance(value, bool):
            tokens.append(flag if value else "--no-check-bounds")
        elif value is not None:
            tokens.append(f"{flag}={value}")
    return tokens


def _built(build, *args, **kwargs):
    """Build a library object; the ValueError with which it refuses a setting becomes a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _case(kind: str, T: int, d: int) -> ExperimentCase:
    """The case of a `run` or `gen`: a T outside 1 .. MAX_T is refused here, a bad d by ExperimentCase."""
    if not 1 <= T <= MAX_T:
        raise ConfigError(f"--T must satisfy 1 <= T <= {MAX_T}, got {T}")
    return _built(ExperimentCase, kind, T, d)


def _validate(config: argparse.Namespace) -> tuple[ExperimentCase, list[LearnerConfig], int, Sampled | None]:
    """The case, learners, orderings (0: exhaustive) and mode the `run` settings describe, each checked as built."""
    case = _case(config.case, config.T, config.d)
    if not config.learners:
        raise ConfigError("--learners must name at least one learner")
    learners = []
    for kind in config.learners:
        learners.append(_built(LearnerConfig, kind, eta_variant=config.eta_variant))
        if kind in BASELINE_KINDS and case.kind == UNREALIZABLE:
            raise ConfigError(
                f"learner {kind!r} requires a realizable sequence; use its wm_ hybrid for unrealizable cases"
            )
    orderings = _parse_count(config.perm, "--perm", "exhaustive")
    if not orderings:
        check_exhaustive(case.T)
    trials = _parse_count(config.mode, "--mode", "analytic")
    return case, learners, orderings, Sampled((config.seed, 1), trials) if trials else ANALYTIC


def _run_command(config: argparse.Namespace) -> int:
    if config.seed is None:
        try:
            config.seed = _natural(os.environ.get(SEED_ENV_VAR, "0"))
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} {exc}") from None
    case, learners, orderings, mode = _validate(config)
    if config.dump_config:
        sys.stdout.write(json.dumps(_settings(config), indent=2) + "\n")
        return 0

    # an unwritable --out fails here, before any class is built or learner run
    out = open(config.out, "w", newline="") if config.out else nullcontext(sys.stdout)
    with out as fh:
        cls, base = make_case_inputs(case)
        stream = PermutationStream(base, exhaustive=not orderings, count=orderings, seed=(config.seed, 0))
        reports = evaluate_many(learners, cls, stream, mode=mode)
        if config.check_bounds:
            for report in reports:
                with_bounds(report, cls)
        fh.write(emit_report(reports, config.format))

    if config.check_bounds and any(not v.passed for r in reports for v in r.bounds):
        return 2
    return 0


def _gen_command(args: argparse.Namespace) -> int:
    d = args.d if args.d is not None else max(1, args.T // 2)
    cls, base = make_case_inputs(_case(args.case, args.T, d))
    if args.out:
        with open(f"{args.out}.sequence.csv", "w", newline="") as fh:
            fh.write(base.to_csv())
        with open(f"{args.out}.class.json", "w", newline="") as fh:
            fh.write(cls.to_json() + "\n")
    else:
        sys.stdout.write(base.to_csv())
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("-"):
        argv = ["run", *argv]  # bare flags imply the run command
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run" and args.config:
            args = parser.parse_args(["run", *_config_tokens(args.config, _settings(args)), *argv[1:]])
        if args.command == "gen":
            return _gen_command(args)
        if args.command == "run":
            return _run_command(args)
        raise ConfigError("missing command: use 'run' or 'gen'")
    except (RegretlabError, OSError) as exc:
        print(f"regretlab: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
