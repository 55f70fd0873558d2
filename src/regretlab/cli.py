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
from dataclasses import asdict, dataclass, fields

from .errors import RegretlabError
from .experiments import emit_report, evaluate_many, with_bounds
# Not called here: kept as the attribute perfbench/spans.py wraps as `cli.evaluate`.
from .experiments import evaluate  # noqa: F401
from .learners import (
    ANALYTIC,
    BASELINE_KINDS,
    ETA_VARIANTS,
    LEARNER_KINDS,
    LearnerConfig,
    Sampled,
)
from .sequences import (
    EXHAUSTIVE_T_CAP,
    REALIZABLE,
    UNREALIZABLE,
    ExperimentCase,
    PermutationStream,
    make_case_inputs,
)

SEED_ENV_VAR = "REGRETLAB_SEED"
FORMATS = ("csv", "json", "markdown")
MAX_T = 10_000  # ten times the paper's horizon; keeps a d x T table under 10^8 cells
MAX_COUNT = 10**6  # sampled orderings or trials; ten thousand times the paper's 100 orderings


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one `run` invocation; JSON round-trippable."""

    case: str = REALIZABLE
    T: int = 0
    d: int = 0
    learners: tuple[str, ...] = ()
    perm: str = "exhaustive"  # "exhaustive" or "sampled:N"
    seed: int = 0
    eta_variant: str = "sqrt8"
    mode: str = "analytic"  # "analytic" or "sampled:N"
    format: str = "csv"
    out: str | None = None
    check_bounds: bool = True

    def to_json(self) -> str:
        doc = asdict(self)
        doc["learners"] = list(self.learners)
        return json.dumps(doc, indent=2) + "\n"


class ConfigError(RegretlabError):
    """Invalid flag or config-file combination."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we want 1
        raise ConfigError(message)


def _seed(text: str) -> int:
    """A master seed; numpy's seed sequences take non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _learner_list(text: str) -> tuple[str, ...]:
    return tuple(k.strip() for k in text.split(",") if k.strip())


def _parse_count(value: str, flag: str, bare: str) -> int:
    """Parse `bare` into 0 and 'sampled:N' into N, 1 <= N <= MAX_COUNT."""
    if value == bare:
        return 0
    if value.startswith("sampled:"):
        try:
            count = int(value.split(":", 1)[1])
        except ValueError:
            count = 0
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
    run_p.add_argument("--case", choices=(REALIZABLE, UNREALIZABLE))
    run_p.add_argument("--T", type=int)
    run_p.add_argument("--d", type=int)
    run_p.add_argument("--learners", type=_learner_list, help="comma-separated learner kinds")
    run_p.add_argument("--perm", help="exhaustive or sampled:N")
    run_p.add_argument("--seed", type=_seed)
    run_p.add_argument("--eta-variant", choices=ETA_VARIANTS)
    run_p.add_argument("--mode", help="analytic or sampled:N")
    run_p.add_argument("--format", choices=FORMATS)
    run_p.add_argument("--out", help="output path (default: stdout)")
    run_p.add_argument("--check-bounds", action=argparse.BooleanOptionalAction)
    run_p.add_argument(
        "--dump-config",
        action="store_true",
        help="print the resolved config as JSON and exit",
    )

    gen_p = sub.add_parser("gen", help="dump the generated class and sequence")
    gen_p.add_argument("--case", choices=(REALIZABLE, UNREALIZABLE), default=REALIZABLE)
    gen_p.add_argument("--T", type=int, required=True)
    gen_p.add_argument("--d", type=int)
    gen_p.add_argument(
        "--out",
        help="prefix: writes PREFIX.sequence.csv and PREFIX.class.json "
        "(default: sequence CSV to stdout)",
    )
    return parser


def _config_tokens(path: str) -> list[str]:
    """The `run` flags a JSON config file stands for: key `a_b` is `--a-b=value`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
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


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    values = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    if values["seed"] is None and SEED_ENV_VAR in os.environ:
        try:
            values["seed"] = _seed(os.environ[SEED_ENV_VAR])
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} {exc}") from None
    return ExperimentConfig(**{k: v for k, v in values.items() if v is not None})


def _check_size(T: int, d: int) -> None:
    """Refuse a horizon or class size before any domain or class is built."""
    if not 1 <= T <= MAX_T:
        raise ConfigError(f"--T must satisfy 1 <= T <= {MAX_T}, got {T}")
    if not 1 <= d <= T:
        raise ConfigError(f"--d must satisfy 1 <= d <= T, got d={d}, T={T}")


def _validate(config: ExperimentConfig) -> tuple[int, int]:
    """Check the config; returns (orderings, trials), 0 meaning exhaustive / analytic."""
    _check_size(config.T, config.d)
    if not config.learners:
        raise ConfigError("--learners must name at least one learner")
    for kind in config.learners:
        if kind not in LEARNER_KINDS:
            raise ConfigError(f"unknown learner {kind!r}; choose from {', '.join(LEARNER_KINDS)}")
        if kind in BASELINE_KINDS and config.case == UNREALIZABLE:
            raise ConfigError(
                f"learner {kind!r} requires a realizable sequence; "
                "use its wm_ hybrid for unrealizable cases"
            )
    orderings = _parse_count(config.perm, "--perm", "exhaustive")
    if not orderings and config.T > EXHAUSTIVE_T_CAP:
        raise ConfigError(
            f"exhaustive permutations need T <= {EXHAUSTIVE_T_CAP}; use --perm sampled:N"
        )
    trials = _parse_count(config.mode, "--mode", "analytic")
    return orderings, trials


def _run_command(args: argparse.Namespace) -> int:
    config = _build_config(args)
    orderings, trials = _validate(config)
    if args.dump_config:
        sys.stdout.write(config.to_json())
        return 0

    # an unwritable --out fails here, before any class is built or learner run
    out = open(config.out, "w", newline="") if config.out else nullcontext(sys.stdout)
    with out as fh:
        case = ExperimentCase(config.case, config.T, config.d)
        cls, base = make_case_inputs(case)
        stream = PermutationStream(
            base, exhaustive=not orderings, count=orderings, seed=(config.seed, 0)
        )
        mode = Sampled((config.seed, 1), trials) if trials else ANALYTIC

        learners = [LearnerConfig(kind, eta_variant=config.eta_variant) for kind in config.learners]
        reports = evaluate_many(learners, case, stream, mode=mode)
        if config.check_bounds:
            for report in reports:
                with_bounds(report, cls)
        fh.write(emit_report(reports, config.format))

    if config.check_bounds and any(not v.passed for r in reports for v in r.bounds):
        return 2
    return 0


def _gen_command(args: argparse.Namespace) -> int:
    d = args.d if args.d is not None else max(1, args.T // 2)
    _check_size(args.T, d)
    case = ExperimentCase(args.case, args.T, d)
    cls, base = make_case_inputs(case)
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
            args = parser.parse_args(["run", *_config_tokens(args.config), *argv[1:]])
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
