"""Command-line entry point: one-shot scenarios, evolution runs, sweeps."""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments
from .experiments import PRESETS, SWEEPS, ExperimentConfig
from .graphs import THEORIES, decide
from .scenarios import SCENARIO_IDS, build, scenario_defaults

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2

# Flags that override one ExperimentConfig field each, with their value types.
RUN_FLAGS = dict(seed=int, generations=int, population=int, rounds=int,
                 birth_rate=float, mutation_rate=float, snapshot_every=int)


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 through ``main``, like any other
        raise ValueError(message)

    def _parse_optional(self, arg_string):
        # argparse alone reads only -5 and -.5 as numbers: -1e5 or -inf after a space would be a flag.
        return None if _is_float(arg_string) else super()._parse_optional(arg_string)


class _StoreOnce(argparse.Action):
    """Store a flag's value; a second one is an error, not a silent last-value-wins."""

    def __call__(self, parser, namespace, values, option_string=None):
        if self.dest in vars(namespace).setdefault("_given", set()):
            raise ValueError(f"flag {self.option_strings[0]} given more than once")
        namespace._given.add(self.dest)
        setattr(namespace, self.dest, values)


def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", action=_StoreOnce, help="named built-in configuration")
    parser.add_argument("--out", action=_StoreOnce, help="output CSV path (sweeps: path template)")
    for name, kind in RUN_FLAGS.items():
        parser.add_argument("--" + name.replace("_", "-"), action=_StoreOnce, type=kind)


@functools.cache  # built once per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fdtsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scn = sub.add_parser("scenario", help="evaluate a one-shot decision problem")
    by_id = p_scn.add_subparsers(dest="scenario", required=True)
    for scenario in sorted(SCENARIO_IDS):
        p_one = by_id.add_parser(scenario)
        p_one.add_argument("--theory", action=_StoreOnce, choices=sorted(THEORIES), default="fdt")
        for name, value in scenario_defaults(scenario).items():
            p_one.add_argument("--" + name.replace("_", "-"), action=_StoreOnce, type=float,
                               default=value, help="default: %(default)s")

    p_evo = sub.add_parser("evolve", help="run one evolutionary experiment")
    p_evo.add_argument("--config", action=_StoreOnce, help="path to a JSON experiment config")
    _add_common_run_flags(p_evo)

    p_swp = sub.add_parser("sweep", help="run a batch of experiments")
    _add_common_run_flags(p_swp)
    p_swp.add_argument("--runs", action=_StoreOnce, type=int, help="number of sweep runs")
    return parser


def _cmd_scenario(args: argparse.Namespace) -> None:
    parameters = {name: getattr(args, name) for name in scenario_defaults(args.scenario)}
    report = decide(build(args.scenario, **parameters), args.theory)
    print(f"scenario: {args.scenario}")
    print(f"theory: {args.theory}")
    for action, eu in report.expected_utility.items():
        print(f"  EU[{action}] = {eu:.6g}")
    print(f"chosen: {report.chosen}")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config and args.preset:
        raise ValueError("pass either --config or --preset, not both")
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise OSError(f"cannot read config: {exc}") from exc
        config = ExperimentConfig.from_dict(data)
    elif args.preset:
        if args.preset not in PRESETS:
            raise ValueError(f"unknown preset {args.preset!r}; available: {sorted(PRESETS)}")
        config = PRESETS[args.preset]
    else:
        raise ValueError("one of --config or --preset is required")
    return _apply_run_flags(config, args)


def _apply_run_flags(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates = {name: getattr(args, name) for name in RUN_FLAGS if getattr(args, name) is not None}
    return replace(config, **updates) if updates else config


def _run_one(config: ExperimentConfig, out: str | Path | None, label: str,
             say_wrote: bool = False) -> None:
    """Run ``config``, write its CSV to ``out`` if given, and print its summary line as ``label``."""
    trajectory = experiments.run(config)
    if out:
        try:
            Path(out).write_text(experiments.trajectory_csv(trajectory, config))
        except OSError as exc:
            raise OSError(f"cannot write {out}: {exc}") from exc
        if say_wrote:
            print(f"wrote {out}")
    parts = ", ".join(f"{name}={share:.4f}" for name, share in trajectory.final_shares().items())
    print(f"{label}: gen {config.generations}, final shares: {parts}")


def _check_out_dirs(paths) -> None:
    """Raise ``OSError`` for the first path (``None``: no output) whose directory does not exist."""
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise OSError(f"cannot write {path}: {Path(path).parent} is not a directory")


def _cmd_evolve(args: argparse.Namespace) -> None:
    config = _load_config(args)
    _check_out_dirs([args.out])
    _run_one(config, args.out, config.game, say_wrote=True)


def _sweep_out_path(template: str, index: int) -> Path:
    """Run ``index``'s CSV path: ``{i}`` in ``template`` replaced by the index, else a ``-NNN`` suffix."""
    if "{i}" in template:
        return Path(template.replace("{i}", str(index)))
    path = Path(template)
    return path.with_name(f"{path.stem}-{index:03d}{path.suffix or '.csv'}")


def _cmd_sweep(args: argparse.Namespace) -> None:
    if args.preset not in SWEEPS:
        raise ValueError(f"sweep requires --preset, one of {sorted(SWEEPS)}")
    base, runs, _ = SWEEPS[args.preset]
    base = _apply_run_flags(base, args)  # --seed sets the base seed, off which each run's is drawn
    runs = runs if args.runs is None else args.runs
    configs = experiments.sweep_configs(args.preset, base, runs)
    outs = [_sweep_out_path(args.out, i) if args.out else None for i in range(len(configs))]
    _check_out_dirs(outs)
    print(f"sweep {args.preset}: {len(configs)} runs")
    for i, ((config, drawn), out) in enumerate(zip(configs, outs)):
        info = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in drawn.items())
        try:
            _run_one(config, out, f"run {i} [{info}]")
        except (ValueError, MemoryError) as exc:
            raise ValueError(f"run {i}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    """Run one command; every fdtsim error exits 1 (``ValueError``) or 2 (``OSError``) with one line.

    A ``MemoryError``, from a population or round count too large to allocate, exits 1 too.
    """
    try:
        args = build_parser().parse_args(argv)
        {"scenario": _cmd_scenario, "evolve": _cmd_evolve, "sweep": _cmd_sweep}[args.command](args)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
