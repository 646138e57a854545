"""Experiment configuration, presets, sweeps, and CSV output."""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from . import __version__
from .beliefs import _check_shares
from .evolve import Trajectory, run_experiment
from .games import BeautyConfig, BeautyGame, NewcombConfig, NewcombGame, PdConfig, PdGame
from .graphs import _is_finite_number

# Game id -> (adapter class, parameter config class).
GAMES = {
    "pd": (PdGame, PdConfig),
    "newcomb": (NewcombGame, NewcombConfig),
    "beauty": (BeautyGame, BeautyConfig),
}

# Integer fields and their least allowed value.
_INT_FIELDS = (("population", 1), ("generations", 1), ("rounds", 0), ("seed", 0), ("snapshot_every", 1))
# The most agents or rounds: Population.from_shares counts agents in float64, exact up to 2**53.
_MAX_COUNT = 2**53


def _plain(value, name: str):
    """A numpy number as the equal Python number, which JSON can write; else ``value``."""
    plain = value.item() if isinstance(value, np.generic) else value
    if isinstance(plain, np.generic):  # np.longdouble: no Python number holds it
        raise ValueError(f"{name} must be a Python or float64 number, got a {type(plain).__name__}")
    return plain


@dataclass(frozen=True)
class ExperimentConfig:
    """One evolutionary run: the game, its parameters, and the loop settings.

    Every field is checked on construction, so a config that exists can be run: it keeps the game's
    config that it checked as ``_game``, which ``run`` plays. Numbers are kept as given (numpy ones
    as their Python value), so the CSV header echoes it. ``game_params`` is a read-only view, and a
    config pickles as its ``to_dict``.
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
            object.__setattr__(self, f.name, _plain(getattr(self, f.name), f.name))
        if not isinstance(self.game, str) or self.game not in GAMES:
            raise ValueError(f"unknown game {self.game!r}; expected one of {tuple(GAMES)}")
        for name, least in _INT_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, int) and _is_finite_number(value) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("population", "rounds"):
            if getattr(self, name) > _MAX_COUNT:
                raise ValueError(f"{name} must be at most 2**53 = {_MAX_COUNT}, got {getattr(self, name)}")
        for name in ("birth_rate", "mutation_rate"):
            value = getattr(self, name)
            if not (_is_finite_number(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        if self.birth_rate > 0.0 and round(self.population * self.birth_rate) < 1:
            raise ValueError("birth_rate is positive but rounds to zero replacements per generation")
        if self.birth_rate > 0.0 and self.rounds < 1:
            # With no round played every agent scores 0, which reproduction cannot weight.
            raise ValueError("rounds must be >= 1 when birth_rate is positive")
        if not isinstance(self.game_params, (dict, MappingProxyType)):  # a view: what ``replace`` passes back
            raise ValueError(f"game_params must be an object, got {self.game_params!r}")
        params = {k: _plain(v, f"game_params[{k!r}]") for k, v in self.game_params.items()}
        object.__setattr__(self, "game_params", MappingProxyType(params))
        try:  # a TypeError is a key the game's config does not have
            object.__setattr__(self, "_game", GAMES[self.game][1](**params))
        except TypeError as exc:
            raise ValueError(f"invalid game_params for {self.game!r}: {exc}") from None
        shares, types = self.initial_shares, len(GAMES[self.game][0].type_names)
        _check_shares(shares, types, "initial_shares")
        object.__setattr__(self, "initial_shares", tuple(_plain(s, "initial_shares") for s in shares))

    def __reduce__(self):
        return type(self).from_dict, (self.to_dict(),)

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


def run(config: ExperimentConfig) -> Trajectory:
    return run_experiment(config, GAMES[config.game][0](config._game))


THIRD = 1.0 / 3.0

_PD_BASELINE = ExperimentConfig(
    game="pd",
    population=10_000,
    generations=750,
    rounds=100,
    initial_shares=(THIRD, THIRD, THIRD),
    game_params={"cc": 7.0, "cd": 1.0, "dc": 10.0, "dd": 4.0, "signal_accuracy": 0.9},
)
_BEAUTY_BASELINE = ExperimentConfig(
    game="beauty",
    population=10_000,
    generations=750,
    rounds=100,
    initial_shares=(THIRD, THIRD, THIRD),
    game_params={},
)
PRESETS: dict[str, ExperimentConfig] = {
    "pd-baseline": _PD_BASELINE,
    "pd-invasion": replace(_PD_BASELINE, generations=1_500, initial_shares=(0.9, 0.0, 0.1)),
    "newcomb-baseline": ExperimentConfig(
        game="newcomb",
        population=3_000,
        generations=100,
        rounds=100,
        initial_shares=(0.5, 0.5),
        game_params={"high": 10_000.0, "low": 1_000.0, "accuracy": 0.99},
    ),
    "beauty-baseline": _BEAUTY_BASELINE,
    "beauty-cdt-heavy": replace(_BEAUTY_BASELINE, initial_shares=(0.1, 0.8, 0.1)),
}

# Bounds of the sweeps' draws: integer PD payoffs, and Newcomb rewards and predictor accuracy.
PAYOFF_LOW, PAYOFF_HIGH = 1, 1000
REWARD_LOW, REWARD_HIGH = 1.0, 1_000_000.0
ACCURACY_LOW, ACCURACY_HIGH = 0.5, 1.0
SIGNAL_SWEEP_ACCURACIES = (0.5, 0.6, 0.65, 0.7, 0.8, 0.9)


def draw_pd_payoffs(rng) -> dict[str, float]:
    """Rejection-sample integer payoffs with the dilemma ordering DC>CC>DD>CD."""
    while True:
        dc, cc, dd, cd = (int(v) for v in rng.integers(PAYOFF_LOW, PAYOFF_HIGH + 1, size=4))
        if dc > cc > dd > cd:
            return {"cc": float(cc), "cd": float(cd), "dc": float(dc), "dd": float(dd)}


def _draw_signal_accuracy(rng, i: int) -> dict[str, float]:
    if i >= len(SIGNAL_SWEEP_ACCURACIES):
        raise ValueError(f"runs must be <= {len(SIGNAL_SWEEP_ACCURACIES)}, the length of the accuracy grid")
    return {"signal_accuracy": SIGNAL_SWEEP_ACCURACIES[i]}


def _draw_newcomb(rng, i: int) -> dict[str, float]:
    """Random rewards with high > low, and a random predictor accuracy."""
    low, high = rng.uniform(REWARD_LOW, REWARD_HIGH), rng.uniform(REWARD_LOW, REWARD_HIGH)
    while not high > low:
        low, high = rng.uniform(REWARD_LOW, REWARD_HIGH), rng.uniform(REWARD_LOW, REWARD_HIGH)
    return {"high": high, "low": low, "accuracy": rng.uniform(ACCURACY_LOW, ACCURACY_HIGH)}


# Sweep id -> (base experiment, default run count, draw(rng, i) of run i's game_params overrides).
SWEEPS = {
    "pd-payoff-sweep": (
        PRESETS["pd-baseline"],
        10,
        lambda rng, i: draw_pd_payoffs(rng),
    ),
    "pd-signal-sweep": (
        replace(PRESETS["pd-baseline"], generations=2_000),
        len(SIGNAL_SWEEP_ACCURACIES),
        _draw_signal_accuracy,
    ),
    "newcomb-sweep": (
        replace(PRESETS["newcomb-baseline"], generations=500),
        10,
        _draw_newcomb,
    ),
}


def sweep_configs(sweep: str, base: ExperimentConfig, runs: int) -> list[tuple[ExperimentConfig, dict]]:
    """Per-run configs of ``sweep`` over ``base``, each with its drawn ``game_params`` overrides.

    Run i's seed and its draws come from two streams spawned off ``base.seed``,
    so a run does not depend on how many runs come before or after it.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    draw = SWEEPS[sweep][2]
    out: list[tuple[ExperimentConfig, dict]] = []
    for i in range(runs):
        run_seed = int(np.random.SeedSequence(entropy=base.seed, spawn_key=(i,)).generate_state(1)[0])
        drawn = draw(np.random.default_rng(np.random.SeedSequence(entropy=base.seed, spawn_key=(i, 1))), i)
        out.append((replace(base, game_params=dict(base.game_params, **drawn), seed=run_seed), drawn))
    return out


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
    columns = ("count", "share", "mean_score")
    lines.append(",".join(["generation"] + [f"{name}_{c}" for name in trajectory.type_names for c in columns]))
    for record in trajectory.records:
        if record.generation % config.snapshot_every and record.generation != config.generations:
            continue
        cells = [str(record.generation)]
        for count, share, mean in zip(record.counts, record.shares, record.mean_scores):
            cells += [str(count), str(share), str(mean)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"

