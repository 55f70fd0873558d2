"""Command-line front end for the permutation harness.

Two commands:

  regretlab run  --case ... --T ... --d ... --learners ...   (default command)
  regretlab gen  --case ... --T ... [--d ...] [--out PREFIX]

`run` evaluates the requested learners over a permutation stream, prints or
writes the report, and exits 0 on success, 2 if any bound check fails, 1 on
usage or configuration errors. `gen` dumps the generated hypothesis class
(JSON) and labeled sequence (CSV) for inspection.

All randomness flows from one master seed (--seed, falling back to the
REGRETLAB_SEED environment variable, then 0). Sub-streams are derived by a
fixed rule: the permutation sampler is seeded with (seed, 0) and the
prediction sampler for permutation index i with (seed, 1, i).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

from .errors import RegretlabError
from .experiments import emit_report, evaluate, with_bounds
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
    jobs: int = 1
    check_bounds: bool = True

    def to_json(self) -> str:
        doc = asdict(self)
        doc["learners"] = list(self.learners)
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "learners" in doc:
            doc = dict(doc, learners=tuple(doc["learners"]))
        return cls(**doc)


class ConfigError(RegretlabError):
    """Invalid flag or config-file combination."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we want 1
        raise ConfigError(message)


def _parse_count_mode(value: str, flag: str, bare: str) -> tuple[str, int]:
    """Parse 'analytic'/'exhaustive' or '<bare>:N' into (mode, count)."""
    if value == bare:
        return value, 0
    if value.startswith("sampled:"):
        try:
            count = int(value.split(":", 1)[1])
        except ValueError:
            count = 0
        if count >= 1:
            return "sampled", count
    raise ConfigError(f"{flag} must be {bare!r} or 'sampled:N' with N >= 1, got {value!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="regretlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="evaluate learners over a permutation stream")
    run_p.add_argument("--config", help="JSON config file; flags override its values")
    run_p.add_argument("--case", choices=(REALIZABLE, UNREALIZABLE))
    run_p.add_argument("--T", type=int, dest="T")
    run_p.add_argument("--d", type=int, dest="d")
    run_p.add_argument("--learners", help="comma-separated learner kinds")
    run_p.add_argument("--perm", help="exhaustive or sampled:N")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--eta-variant", choices=ETA_VARIANTS, dest="eta_variant")
    run_p.add_argument("--mode", help="analytic or sampled:N")
    run_p.add_argument("--format", choices=FORMATS)
    run_p.add_argument("--out", help="output path (default: stdout)")
    run_p.add_argument("--jobs", type=int)
    run_p.add_argument(
        "--check-bounds",
        action=argparse.BooleanOptionalAction,
        dest="check_bounds",
        default=None,
    )
    run_p.add_argument(
        "--dump-config",
        action="store_true",
        help="print the resolved config as JSON and exit",
    )

    gen_p = sub.add_parser("gen", help="dump the generated class and sequence")
    gen_p.add_argument("--case", choices=(REALIZABLE, UNREALIZABLE), default=REALIZABLE)
    gen_p.add_argument("--T", type=int, dest="T", required=True)
    gen_p.add_argument("--d", type=int, dest="d")
    gen_p.add_argument(
        "--out",
        help="prefix: writes PREFIX.sequence.csv and PREFIX.class.json "
        "(default: sequence CSV to stdout)",
    )
    return parser


def _resolve_seed(flag_seed: int | None, file_seed: int | None) -> int:
    if flag_seed is not None:
        return flag_seed
    if file_seed is not None:
        return file_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return 0


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig()
    file_seed = None
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        file_seed = doc.pop("seed", None)
        config = ExperimentConfig.from_dict(doc)

    overrides = {}
    for name in ("case", "T", "d", "perm", "eta_variant", "mode", "format", "out", "jobs", "check_bounds"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.learners is not None:
        overrides["learners"] = tuple(k.strip() for k in args.learners.split(",") if k.strip())
    overrides["seed"] = _resolve_seed(args.seed, file_seed)
    return replace(config, **overrides)


def _check_size(T: int, d: int) -> None:
    """Refuse a horizon or class size before any domain or class is built."""
    if not 1 <= T <= MAX_T:
        raise ConfigError(f"--T must satisfy 1 <= T <= {MAX_T}, got {T}")
    if not 1 <= d <= T:
        raise ConfigError(f"--d must satisfy 1 <= d <= T, got d={d}, T={T}")


def _validate(config: ExperimentConfig) -> None:
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
    perm_mode, _ = _parse_count_mode(config.perm, "--perm", "exhaustive")
    if perm_mode == "exhaustive" and config.T > EXHAUSTIVE_T_CAP:
        raise ConfigError(
            f"exhaustive permutations need T <= {EXHAUSTIVE_T_CAP}; use --perm sampled:N"
        )
    _parse_count_mode(config.mode, "--mode", "analytic")
    if config.format not in FORMATS:
        raise ConfigError(f"--format must be one of {FORMATS}")
    if config.jobs < 1:
        raise ConfigError("--jobs must be >= 1")


def _run_command(args: argparse.Namespace) -> int:
    config = _build_config(args)
    _validate(config)
    if args.dump_config:
        sys.stdout.write(config.to_json())
        return 0

    case = ExperimentCase(config.case, config.T, config.d)
    cls, base = make_case_inputs(case)
    perm_mode, perm_count = _parse_count_mode(config.perm, "--perm", "exhaustive")
    stream = PermutationStream(
        base,
        exhaustive=perm_mode == "exhaustive",
        count=perm_count,
        seed=(config.seed, 0),
    )
    run_mode_name, trials = _parse_count_mode(config.mode, "--mode", "analytic")

    reports = []
    for kind in config.learners:
        learner = LearnerConfig(kind, eta_variant=config.eta_variant)
        mode = ANALYTIC if run_mode_name == "analytic" else Sampled((config.seed, 1), trials)
        report = evaluate(learner, case, stream, mode=mode, jobs=config.jobs)
        if config.check_bounds:
            with_bounds(report, cls)
        reports.append(report)

    text = emit_report(reports, config.format)
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

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
        if args.command == "gen":
            return _gen_command(args)
        if args.command == "run":
            return _run_command(args)
        raise ConfigError("missing command: use 'run' or 'gen'")
    except RegretlabError as exc:
        print(f"regretlab: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
