"""The start allocation and the generation loop.

Each generation: the game decides from the current shares (``decide``), plays
the configured number of rounds with that decision, then the loop replaces a
fixed fraction of the population (births weighted by score, deaths inversely
weighted by score, both sampled from the pre-update snapshot) and mutates a
smaller fraction to uniformly random types. All randomness flows from a
master seed through per-generation streams, so a run is reproducible
bit-for-bit regardless of how rounds are scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

if TYPE_CHECKING:
    from .experiments import ExperimentConfig


class NonPositiveScoreError(ValueError):
    """Scores no draw can weight: one negative, a total that overflows, or too few above 0."""


class GameAdapter(Protocol):
    type_names: tuple[str, ...]

    def decide(self, shares: tuple[float, ...]): ...

    def play_generation(self, types: np.ndarray, decision, rounds: int, rng) -> np.ndarray: ...


class Population:
    """A run's start allocation: the type of each agent."""

    def __init__(self, type_names: Sequence[str], types: np.ndarray):
        self.type_names = tuple(type_names)
        self.types = np.asarray(types, dtype=np.int64)

    @classmethod
    def from_shares(cls, type_names: Sequence[str], shares: Sequence[float], size: int):
        """Deterministic largest-remainder allocation of ``size`` agents."""
        shares = np.asarray(shares, dtype=float)
        if shares.shape != (len(type_names),):
            raise ValueError(f"expected {len(type_names)} shares, got {shares.shape}")
        # Written so that NaN fails: every comparison with NaN is False.
        if not (np.all(shares >= 0.0) and abs(shares.sum() - 1.0) <= 1e-9):
            raise ValueError(f"shares must be nonnegative and sum to 1, got {shares.tolist()}")
        exact = shares * size
        counts = np.floor(exact).astype(np.int64)
        remainder = exact - counts
        for i in np.argsort(-remainder, kind="stable")[: size - counts.sum()]:
            counts[i] += 1
        types = np.repeat(np.arange(len(type_names)), counts)
        return cls(type_names, types)

    def counts(self) -> np.ndarray:
        return np.bincount(self.types, minlength=len(self.type_names))


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    counts: tuple[int, ...]
    shares: tuple[float, ...]
    mean_scores: tuple[float, ...]


@dataclass
class Trajectory:
    """Per-generation experiment record.

    ``counts``/``shares`` describe the population after that generation's
    reproduction step; ``mean_scores`` are per-type means from the rounds
    just played.
    """

    type_names: tuple[str, ...]
    records: list[GenerationRecord] = field(default_factory=list)

    def final_shares(self) -> dict[str, float]:
        last = self.records[-1]
        return dict(zip(self.type_names, last.shares))


def _choice(rng, p: np.ndarray, size: int, replace: bool) -> np.ndarray:
    """``rng.choice(p.size, size, replace, p=p)`` by numpy's own algorithm, draw for draw.

    Without ``choice``'s checks: the caller makes sure that ``p`` is finite and
    that, without replacement, at least ``size`` entries are positive.
    """
    p, found = p.copy(), []
    while True:
        cdf = p.cumsum()
        cdf /= cdf[-1]
        new = cdf.searchsorted(rng.random(size - len(found)), side="right")
        if replace:
            return new
        found.extend(dict.fromkeys(new.tolist()))  # each new index once, in order of appearance
        if len(found) == size:
            return np.array(found, dtype=np.int64)
        p[found] = 0.0


def repopulate(types: np.ndarray, scores: np.ndarray, config: ExperimentConfig, k: int, rng) -> np.ndarray:
    """Score-weighted births, inverse-score-weighted deaths, then mutation to one of ``k`` types.

    Births and deaths are both sampled from the pre-update snapshot and
    applied simultaneously, so a newborn cannot die in the generation it is
    born. An agent that scored 0 played no round (it sat out) and has no
    fitness information: it neither reproduces nor dies. Returns new types; reads the inputs only.
    """
    n = types.size
    new = types.copy()
    replacements = round(n * config.birth_rate)
    if replacements:
        scored = scores > 0.0
        if (scorers := np.count_nonzero(scored)) < n:
            bad = np.flatnonzero(scores < 0.0)
            if bad.size:
                raise NonPositiveScoreError(f"agent {bad[0]} has negative score {scores[bad[0]]}")
            if scorers < replacements:
                raise NonPositiveScoreError(
                    f"{scorers} agents scored above 0, fewer than the {replacements} replacements"
                )
        # 1 / inf is 0: an agent that sat out is never a victim.
        inverse = 1.0 / (scores if scorers == n else np.where(scored, scores, np.inf))
        total, inverse_total = scores.sum(), inverse.sum()
        if not (math.isfinite(total) and math.isfinite(inverse_total)):
            raise NonPositiveScoreError(f"scores sum to {total}, inverses to {inverse_total}: not finite")
        deaths = inverse / inverse_total
        if (mortal := np.count_nonzero(deaths)) < replacements:
            raise NonPositiveScoreError(f"{mortal} death weights above 0, fewer than {replacements} deaths")
        parents = _choice(rng, scores / total, replacements, replace=True)
        victims = _choice(rng, deaths, replacements, replace=False)
        new[victims] = types[parents]
    mutants = round(n * config.mutation_rate)
    if mutants:
        chosen = rng.choice(n, size=mutants, replace=False)
        new[chosen] = rng.integers(0, k, size=mutants)
    return new


def _stream(seed: int, generation: int, phase: int):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(generation, phase))
    )


def run_experiment(config: ExperimentConfig, game: GameAdapter) -> Trajectory:
    """Run the full generation loop; deterministic given the master seed."""
    start = Population.from_shares(game.type_names, config.initial_shares, config.population)
    trajectory = Trajectory(type_names=tuple(game.type_names))
    types, k, n, counts = start.types, len(start.type_names), start.types.size, start.counts().tolist()
    shares = tuple(count / n for count in counts)
    with np.errstate(over="ignore"):  # no warning: a score sum that overflows raises instead
        for generation in range(1, config.generations + 1):
            decision = game.decide(shares)
            scores = game.play_generation(types, decision, config.rounds, _stream(config.seed, generation, 0))
            scores = np.asarray(scores, dtype=float)
            sums = np.bincount(types, weights=scores, minlength=k).tolist()
            for name, total in zip(game.type_names, sums):  # repopulate checks them only with births
                if not math.isfinite(total):
                    raise NonPositiveScoreError(f"{name} scores sum to {total}: not finite")
            mean_scores = tuple(total / count if count else 0.0 for total, count in zip(sums, counts))
            types = repopulate(types, scores, config, k, _stream(config.seed, generation, 1))
            counts = tuple(np.bincount(types, minlength=k).tolist())
            shares = tuple(count / n for count in counts)
            trajectory.records.append(GenerationRecord(generation, counts, shares, mean_scores))
    return trajectory
