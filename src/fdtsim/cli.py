"""Command-line entry point: one-shot scenarios, evolution runs, sweeps."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments
from .beliefs import AllZeroPosteriorError
from .evolve import NonPositiveScoreError
from .experiments import PRESETS, ExperimentConfig, SweepSpec
from .games import NoFixedPointError
from .graphs import THEORIES, decide
from .scenarios import SCENARIO_IDS, ScenarioError, build

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2

# Flags that override one ExperimentConfig field each, with their value types.
RUN_FLAGS = dict(seed=int, generations=int, population=int, rounds=int,
                 birth_rate=float, mutation_rate=float, snapshot_every=int)

# Errors a valid config can still meet while it runs, from the game it plays.
RUN_ERRORS = (NonPositiveScoreError, AllZeroPosteriorError, NoFixedPointError)

# Sweep presets: (kind, base experiment, default sweep settings).
SWEEP_PRESETS: dict[str, tuple[str, ExperimentConfig, SweepSpec]] = {
    "pd-payoff-sweep": (
        "pd-payoffs",
        replace(PRESETS["pd-baseline"], generations=750),
        SweepSpec(runs=10),
    ),
    "pd-signal-sweep": (
        "pd-signal",
        replace(PRESETS["pd-baseline"], generations=2_000),
        SweepSpec(runs=0),
    ),
    "newcomb-sweep": (
        "newcomb",
        replace(PRESETS["newcomb-baseline"], generations=500),
        SweepSpec(runs=10),
    ),
}


def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--preset", help="named built-in configuration")
    parser.add_argument("--out", help="output CSV path (sweeps: path template)")
    for name, kind in RUN_FLAGS.items():
        parser.add_argument("--" + name.replace("_", "-"), type=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdtsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scn = sub.add_parser("scenario", help="evaluate a one-shot decision problem")
    p_scn.add_argument("scenario", choices=sorted(SCENARIO_IDS))
    p_scn.add_argument("--theory", choices=sorted(THEORIES), default="fdt")

    p_evo = sub.add_parser("evolve", help="run one evolutionary experiment")
    _add_common_run_flags(p_evo)

    p_swp = sub.add_parser("sweep", help="run a batch of experiments")
    _add_common_run_flags(p_swp)
    p_swp.add_argument("--runs", type=int, help="number of sweep runs")
    return parser


def _error(message, code: int = EXIT_USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _scenario_overrides(extras: list[str]) -> dict[str, float]:
    """Map ``--name value`` pairs to scenario parameter overrides."""
    overrides: dict[str, float] = {}
    i = 0
    while i < len(extras):
        flag = extras[i]
        if not flag.startswith("--") or i + 1 >= len(extras):
            raise ScenarioError(f"unrecognized argument {flag!r}")
        overrides[flag[2:].replace("-", "_")] = float(extras[i + 1])
        i += 2
    return overrides


def _cmd_scenario(args: argparse.Namespace, extras: list[str]) -> int:
    try:
        overrides = _scenario_overrides(extras)
        problem = build(args.scenario, **overrides)
        report = decide(problem, args.theory)
    except (ScenarioError, ValueError) as exc:
        return _error(exc)
    print(f"scenario: {args.scenario}")
    print(f"theory: {args.theory}")
    for action, eu in report.expected_utility.items():
        print(f"  EU[{action}] = {eu:.6g}")
    print(f"chosen: {report.chosen}")
    return EXIT_OK


def _load_config(args: argparse.Namespace, presets: dict) -> ExperimentConfig:
    if args.config and args.preset:
        raise ValueError("pass either --config or --preset, not both")
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise OSError(f"cannot read config: {exc}") from exc
        config = ExperimentConfig.from_dict(data)
    elif args.preset:
        if args.preset not in presets:
            raise ValueError(
                f"unknown preset {args.preset!r}; available: {sorted(presets)}"
            )
        config = presets[args.preset]
    else:
        raise ValueError("one of --config or --preset is required")
    return _apply_run_flags(config, args)


def _apply_run_flags(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates = {name: getattr(args, name) for name in RUN_FLAGS if getattr(args, name) is not None}
    return replace(config, **updates) if updates else config


def _summarize(label: str, config: ExperimentConfig, trajectory) -> None:
    parts = ", ".join(
        f"{name}={share:.4f}" for name, share in trajectory.final_shares().items()
    )
    print(f"{label}: gen {config.generations}, final shares: {parts}")


def _cmd_evolve(args: argparse.Namespace) -> int:
    try:
        config = _load_config(args, PRESETS)
    except ValueError as exc:
        return _error(exc)
    except OSError as exc:
        return _error(exc, EXIT_IO)
    try:
        trajectory = experiments.run(config)
    except RUN_ERRORS as exc:
        return _error(exc)
    if args.out:
        try:
            experiments.write_trajectory(args.out, trajectory, config)
        except OSError as exc:
            return _error(f"cannot write {args.out}: {exc}", EXIT_IO)
        print(f"wrote {args.out}")
    _summarize(config.game, config, trajectory)
    return EXIT_OK


def _sweep_out_path(template: str, index: int) -> Path:
    path = Path(template)
    if "{i}" in template:
        return Path(template.format(i=index))
    return path.with_name(f"{path.stem}-{index:03d}{path.suffix or '.csv'}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not args.preset or args.preset not in SWEEP_PRESETS:
        return _error(f"sweep requires --preset, one of {sorted(SWEEP_PRESETS)}")
    kind, base, spec = SWEEP_PRESETS[args.preset]
    try:
        # The base seed is checked here; each run's seed is drawn from the spec's.
        base = _apply_run_flags(base, args)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        if args.runs is not None:
            spec = replace(spec, runs=args.runs)
        configs = experiments.sweep_configs(kind, base, spec)
    except ValueError as exc:
        return _error(exc)
    print(f"sweep {args.preset}: {len(configs)} runs")
    for i, (config, info) in enumerate(configs):
        try:
            trajectory = experiments.run(config)
        except RUN_ERRORS as exc:
            return _error(f"run {i}: {exc}")
        if args.out:
            path = _sweep_out_path(args.out, i)
            try:
                experiments.write_trajectory(path, trajectory, config)
            except OSError as exc:
                return _error(f"cannot write {path}: {exc}", EXIT_IO)
        drawn = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in info.items())
        _summarize(f"run {i} [{drawn}]", config, trajectory)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras and args.command != "scenario":
        return _error(f"unrecognized arguments: {' '.join(extras)}")
    if args.command == "scenario":
        return _cmd_scenario(args, extras)
    if args.command == "evolve":
        return _cmd_evolve(args)
    return _cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
