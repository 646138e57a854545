"""Experiment configuration, presets, sweeps, and CSV output."""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .evolve import Trajectory, run_experiment
from .games import BeautyConfig, BeautyGame, NewcombConfig, NewcombGame, PdConfig, PdGame
from .games import _is_finite_number

# Game id -> (adapter class, parameter config class).
GAMES = {
    "pd": (PdGame, PdConfig),
    "newcomb": (NewcombGame, NewcombConfig),
    "beauty": (BeautyGame, BeautyConfig),
}

# Integer fields and their least allowed value.
_INT_FIELDS = (("population", 1), ("generations", 1), ("rounds", 0), ("seed", 0), ("snapshot_every", 1))


def _plain(value):
    """A numpy number as the equal Python number, which JSON can write; else ``value``."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class ExperimentConfig:
    """One evolutionary run: the game, its parameters, and the loop settings.

    Every field is checked on construction, so a config that exists can be run.
    Numbers are kept as given (numpy ones as their Python value), so the CSV header echoes it.
    """

    game: str
    population: int
    generations: int
    rounds: int
    initial_shares: tuple[float, ...]
    birth_rate: float = 0.01
    mutation_rate: float = 0.001
    seed: int = 0
    game_params: dict = field(default_factory=dict)
    snapshot_every: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _plain(getattr(self, f.name)))
        if not isinstance(self.game, str) or self.game not in GAMES:
            raise ValueError(f"unknown game {self.game!r}; expected one of {tuple(GAMES)}")
        for name, least in _INT_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, int) and _is_finite_number(value) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("birth_rate", "mutation_rate"):
            value = getattr(self, name)
            if not (_is_finite_number(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        if self.birth_rate > 0.0 and round(self.population * self.birth_rate) < 1:
            raise ValueError("birth_rate is positive but rounds to zero replacements per generation")
        if self.birth_rate > 0.0 and self.rounds < 1:
            # With no round played every agent scores 0, which reproduction cannot weight.
            raise ValueError("rounds must be >= 1 when birth_rate is positive")
        if not isinstance(self.game_params, dict):
            raise ValueError(f"game_params must be an object, got {self.game_params!r}")
        object.__setattr__(self, "game_params", {k: _plain(v) for k, v in self.game_params.items()})
        self._game_config()
        shares, types = self.initial_shares, len(GAMES[self.game][0].type_names)
        if not (
            isinstance(shares, (list, tuple))
            and len(shares) == types
            and all(_is_finite_number(s) and s >= 0.0 for s in shares)
            and abs(sum(shares) - 1.0) <= 1e-9
        ):
            raise ValueError(
                f"initial_shares must be {types} finite, nonnegative numbers that sum to 1, "
                f"got {shares!r}"
            )
        object.__setattr__(self, "initial_shares", tuple(_plain(s) for s in shares))

    def _game_config(self):
        try:
            return GAMES[self.game][1](**self.game_params)
        except TypeError as exc:  # a key the game's config does not have
            raise ValueError(f"invalid game_params for {self.game!r}: {exc}") from None

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return dict(data, initial_shares=list(self.initial_shares), game_params=dict(self.game_params))

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        """Build a config from a JSON object, rejecting unknown and missing keys."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(str(key) for key in data if key not in known)
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; valid keys: {list(known)}")
        missing = [
            name for name, f in known.items()
            if name not in data and f.default is MISSING and f.default_factory is MISSING
        ]
        if missing:
            raise ValueError(f"missing config keys {missing}")
        return cls(**data)

    def make_game(self):
        return GAMES[self.game][0](self._game_config())


def run(config: ExperimentConfig) -> Trajectory:
    return run_experiment(config, config.make_game())


THIRD = 1.0 / 3.0

PRESETS: dict[str, ExperimentConfig] = {
    "pd-baseline": ExperimentConfig(
        game="pd",
        population=10_000,
        generations=750,
        rounds=100,
        initial_shares=(THIRD, THIRD, THIRD),
        game_params={"cc": 7.0, "cd": 1.0, "dc": 10.0, "dd": 4.0, "signal_accuracy": 0.9},
    ),
    "pd-invasion": ExperimentConfig(
        game="pd",
        population=10_000,
        generations=1_500,
        rounds=100,
        initial_shares=(0.9, 0.0, 0.1),
        game_params={"cc": 7.0, "cd": 1.0, "dc": 10.0, "dd": 4.0, "signal_accuracy": 0.9},
    ),
    "newcomb-baseline": ExperimentConfig(
        game="newcomb",
        population=3_000,
        generations=100,
        rounds=100,
        initial_shares=(0.5, 0.5),
        game_params={"high": 10_000.0, "low": 1_000.0, "accuracy": 0.99},
    ),
    "beauty-baseline": ExperimentConfig(
        game="beauty",
        population=10_000,
        generations=750,
        rounds=100,
        initial_shares=(THIRD, THIRD, THIRD),
        game_params={},
    ),
    "beauty-cdt-heavy": ExperimentConfig(
        game="beauty",
        population=10_000,
        generations=750,
        rounds=100,
        initial_shares=(0.1, 0.8, 0.1),
        game_params={},
    ),
}

SIGNAL_SWEEP_ACCURACIES = (0.5, 0.6, 0.65, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class SweepSpec:
    """Randomized (or gridded) multi-run sweep settings."""

    runs: int
    payoff_low: int = 1
    payoff_high: int = 1000
    accuracy_low: float = 0.5
    accuracy_high: float = 1.0
    reward_low: float = 1.0
    reward_high: float = 1_000_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.runs < 0:
            raise ValueError("runs must be nonnegative")
        if self.payoff_high < self.payoff_low or self.accuracy_high < self.accuracy_low:
            raise ValueError("sweep ranges must be nonempty")


def _run_seed(spec: SweepSpec, index: int) -> int:
    return int(np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,)).generate_state(1)[0])


def draw_pd_payoffs(rng, low: int = 1, high: int = 1000) -> dict[str, float]:
    """Rejection-sample integer payoffs with the dilemma ordering DC>CC>DD>CD."""
    while True:
        dc, cc, dd, cd = (int(v) for v in rng.integers(low, high + 1, size=4))
        if dc > cc > dd > cd:
            return {"cc": float(cc), "cd": float(cd), "dc": float(dc), "dd": float(dd)}


def sweep_configs(kind: str, base: ExperimentConfig, spec: SweepSpec) -> list[tuple[ExperimentConfig, dict]]:
    """Per-run configs and the drawn parameters for a sweep of ``kind``.

    Kinds: ``pd-payoffs`` (random integer payoffs, dilemma ordering kept),
    ``pd-signal`` (fixed grid of signal accuracies), ``newcomb`` (random
    rewards with high > low and random predictor accuracy).
    """
    out: list[tuple[ExperimentConfig, dict]] = []
    if kind == "pd-signal":
        accuracies = SIGNAL_SWEEP_ACCURACIES[: spec.runs] if spec.runs else SIGNAL_SWEEP_ACCURACIES
        for i, accuracy in enumerate(accuracies):
            params = dict(base.game_params, signal_accuracy=accuracy)
            cfg = replace(base, game_params=params, seed=_run_seed(spec, i))
            out.append((cfg, {"signal_accuracy": accuracy}))
        return out
    for i in range(spec.runs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(i, 1)))
        if kind == "pd-payoffs":
            payoffs = draw_pd_payoffs(rng, spec.payoff_low, spec.payoff_high)
            params = dict(base.game_params, **payoffs)
            info = dict(payoffs)
        elif kind == "newcomb":
            low = rng.uniform(spec.reward_low, spec.reward_high)
            high = rng.uniform(spec.reward_low, spec.reward_high)
            while not high > low:
                low = rng.uniform(spec.reward_low, spec.reward_high)
                high = rng.uniform(spec.reward_low, spec.reward_high)
            accuracy = rng.uniform(spec.accuracy_low, spec.accuracy_high)
            params = dict(base.game_params, high=high, low=low, accuracy=accuracy)
            info = {"high": high, "low": low, "accuracy": accuracy}
        else:
            raise ValueError(f"unknown sweep kind {kind!r}")
        out.append((replace(base, game_params=params, seed=_run_seed(spec, i)), info))
    return out


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def trajectory_csv(trajectory: Trajectory, config: ExperimentConfig) -> str:
    """Render a trajectory as CSV with config metadata in comment lines.

    One row per snapshot: every ``snapshot_every`` generations plus the
    final generation. Output is byte-stable for a given config and seed.
    """
    lines = [
        "# config: " + json.dumps(config.to_dict(), sort_keys=True),
        f"# seed: {config.seed}",
        f"# fdtsim-version: {__version__}",
    ]
    names = trajectory.type_names
    header = ["generation"]
    for name in names:
        header += [f"{name}_count", f"{name}_share", f"{name}_mean_score"]
    lines.append(",".join(header))
    last = config.generations
    for record in trajectory.records:
        if record.generation % config.snapshot_every and record.generation != last:
            continue
        cells = [str(record.generation)]
        for count, share, mean in zip(record.counts, record.shares, record.mean_scores):
            cells += [str(count), _fmt(share), _fmt(mean)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_trajectory(path, trajectory: Trajectory, config: ExperimentConfig) -> None:
    Path(path).write_text(trajectory_csv(trajectory, config))
