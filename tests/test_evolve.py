import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdtsim.evolve import (
    Population,
    repopulate,
    run_experiment,
)
from fdtsim.experiments import ExperimentConfig


class ConstantGame:
    """Scores each agent by a fixed per-type value; handy for oracles.

    The configs below name a game with as many types only to satisfy the
    config's checks; ``run_experiment`` plays the game it is given.
    """

    type_names = ("a", "b", "c")

    def __init__(self, values=(1.0, 2.0, 3.0)):
        self.values = np.asarray(values, dtype=float)

    def decide(self, shares):
        return None

    def play_generation(self, types, decision, rounds, rng):
        return self.values[types] * rounds


class RecordingGame(ConstantGame):
    """A ``ConstantGame`` that logs every call; each decision is a new object, for ``is`` checks."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def decide(self, shares):
        decision = object()
        self.calls.append(("decide", shares, decision))
        return decision

    def play_generation(self, types, decision, rounds, rng):
        self.calls.append(("play", types.copy(), decision))
        return super().play_generation(types, decision, rounds, rng)


def config(**kwargs):
    defaults = dict(
        game="pd",
        population=30,
        generations=5,
        rounds=2,
        birth_rate=0.1,
        mutation_rate=0.0,
        initial_shares=(1 / 3, 1 / 3, 1 / 3),
        seed=0,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_from_shares_largest_remainder():
    pop = Population.from_shares(("a", "b", "c"), (1 / 3, 1 / 3, 1 / 3), 10)
    assert pop.counts().tolist() == [4, 3, 3]
    pop = Population.from_shares(("a", "b"), (0.55, 0.45), 10)
    assert pop.counts().tolist() == [6, 4]  # 5.5 rounds up before 4.5
    pop = Population.from_shares(("a", "b", "c"), (0.9, 0.0, 0.1), 10_000)
    assert pop.counts().tolist() == [9000, 0, 1000]


def test_identity_when_rates_zero():
    cfg = config(birth_rate=0.0, mutation_rate=0.0, generations=8)
    traj = run_experiment(cfg, ConstantGame())
    first = traj.records[0].counts
    for record in traj.records:
        assert record.counts == first


def test_population_size_conserved():
    cfg = config(population=101, birth_rate=0.05, mutation_rate=0.01, generations=10)
    traj = run_experiment(cfg, ConstantGame())
    for record in traj.records:
        assert sum(record.counts) == 101
        assert sum(record.shares) == pytest.approx(1.0, abs=1e-12)


@given(
    n=st.integers(4, 120),
    b=st.floats(0.0, 0.5),
    m=st.floats(0.0, 1.0),
    seed=st.integers(0, 500),
)
@settings(max_examples=40, deadline=None)
def test_population_size_conserved_property(n, b, m, seed):
    if 0 < b and round(n * b) < 1:
        b = 0.0
    cfg = config(population=n, birth_rate=b, mutation_rate=m, generations=3, seed=seed)
    traj = run_experiment(cfg, ConstantGame())
    assert all(sum(r.counts) == n for r in traj.records)


def test_extreme_scores_drive_births_and_deaths():
    # One agent vastly outscores the other: it must parent the birth while
    # the weak agent dies.
    types, scores = np.array([0, 1]), np.array([1e12, 1e-12])
    cfg = ExperimentConfig(
        game="newcomb",
        population=2,
        generations=1,
        rounds=1,
        birth_rate=0.5,
        mutation_rate=0.0,
        initial_shares=(0.5, 0.5),
        seed=0,
    )
    for seed in range(20):
        assert repopulate(types, scores, cfg, 2, np.random.default_rng(seed)).tolist() == [0, 0]


def test_zero_score_agent_is_neither_parent_nor_victim():
    # Agent 0 sat out every round; two of the three others are replaced.
    types, scores = np.array([0, 1, 1, 1]), np.array([0.0, 1.0, 2.0, 3.0])
    cfg = config(population=4, birth_rate=0.5)
    for seed in range(50):
        new = repopulate(types, scores, cfg, 2, np.random.default_rng(seed))
        assert new.tolist() == [0, 1, 1, 1]


def test_every_scorer_dies_when_replacements_equal_scorers():
    types, scores = np.array([0, 0, 1, 1]), np.array([0.0, 0.0, 3.0, 5.0])
    for seed in range(20):
        new = repopulate(types, scores, config(population=4, birth_rate=0.5), 2, np.random.default_rng(seed))
        assert new[:2].tolist() == [0, 0]  # the two sit-outs survive


def test_repopulate_noop_when_rates_zero():
    types, scores = np.array([0, 1, 1]), np.array([0.0, 0.0, 0.0])
    cfg = config(population=3, birth_rate=0.0, mutation_rate=0.0)
    # Zero scores are fine when no replacement happens.
    new = repopulate(types, scores, cfg, 2, np.random.default_rng(0))
    assert new.tolist() == [0, 1, 1]


def test_repopulate_returns_new_types_and_leaves_its_inputs_as_they_were():
    # Births, deaths and mutations all happen, yet only the returned array holds them.
    types, scores = np.array([0, 0, 1, 1, 2, 2]), np.array([1.0, 2.0, 0.0, 4.0, 5.0, 6.0])
    before = types.tobytes(), scores.tobytes()
    cfg = config(population=6, birth_rate=0.5, mutation_rate=0.5)
    changed = 0
    for seed in range(20):
        new = repopulate(types, scores, cfg, 3, np.random.default_rng(seed))
        assert not np.shares_memory(new, types) and new.dtype == np.int64 and new.shape == types.shape
        assert (types.tobytes(), scores.tobytes()) == before
        changed += bool((new != types).any())
    assert changed  # the draws did move some agent


def test_mutation_touches_expected_count():
    # With m = 1 every agent is redrawn uniformly; types change with high
    # probability somewhere in the population.
    cfg = config(population=60, birth_rate=0.0, mutation_rate=1.0, generations=1, seed=3)
    start = Population.from_shares(("a", "b", "c"), (1.0, 0.0, 0.0), 60)
    new = repopulate(start.types, np.ones(60), cfg, 3, np.random.default_rng(3))
    counts = np.bincount(new, minlength=3)
    assert counts.sum() == 60
    assert counts[0] < 60  # some mutated away with overwhelming probability


def test_mutants_are_drawn_over_all_k_types():
    # Every agent is redrawn uniformly over k = 3 types: each count is Binomial(3000, 1/3).
    n, k = 3000, 3
    cfg = config(population=n, birth_rate=0.0, mutation_rate=1.0, generations=1)
    new = repopulate(np.zeros(n, dtype=np.int64), np.ones(n), cfg, k, np.random.default_rng(11))
    sd = (n * (1 / k) * (1 - 1 / k)) ** 0.5
    assert all(abs(count - n / k) <= 6 * sd for count in np.bincount(new, minlength=k).tolist())


def test_trajectory_shape_and_determinism():
    cfg = config(generations=7, mutation_rate=0.05, seed=42)
    t1 = run_experiment(cfg, ConstantGame())
    t2 = run_experiment(cfg, ConstantGame())
    assert len(t1.records) == 7
    assert [r.generation for r in t1.records] == list(range(1, 8))
    for r1, r2 in zip(t1.records, t2.records):
        assert r1 == r2


def test_different_seed_differs():
    cfg1 = config(generations=6, mutation_rate=0.2, seed=1)
    cfg2 = config(generations=6, mutation_rate=0.2, seed=2)
    t1 = run_experiment(cfg1, ConstantGame())
    t2 = run_experiment(cfg2, ConstantGame())
    assert any(
        r1.counts != r2.counts
        for r1, r2 in zip(t1.records, t2.records)
    )


def test_mean_scores_reflect_play():
    cfg = config(birth_rate=0.0, generations=1, rounds=5)
    traj = run_experiment(cfg, ConstantGame((1.0, 2.0, 3.0)))
    record = traj.records[0]
    assert list(record.mean_scores) == pytest.approx([5.0, 10.0, 15.0])


def test_mean_scores_divide_by_the_counts_that_played_under_births_and_mutation():
    # Counts change every generation: each mean is over the agents that played it,
    # so a type that played reads rounds * value exactly and one that did not reads 0.0.
    values, rounds = (1.0, 2.0, 5.0), 7
    cfg = config(population=40, generations=12, rounds=rounds, birth_rate=0.2, mutation_rate=0.1,
                 initial_shares=(0.5, 0.5, 0.0), seed=4)
    traj = run_experiment(cfg, ConstantGame(values))
    played = Population.from_shares(ConstantGame.type_names, cfg.initial_shares, cfg.population).counts().tolist()
    absent = moved = 0
    for record in traj.records:
        assert record.mean_scores == tuple(rounds * v if count else 0.0 for v, count in zip(values, played))
        absent += 0 in played
        moved += tuple(played) != record.counts
        played = record.counts
    assert absent and moved  # both cases were exercised


def test_loop_decides_once_per_generation_on_the_shares_of_the_types_it_plays():
    cfg = config(population=31, generations=10, birth_rate=0.2, mutation_rate=0.1,
                 initial_shares=(0.5, 0.3, 0.2), seed=6)
    game = RecordingGame()
    traj = run_experiment(cfg, game)
    assert [call[0] for call in game.calls] == ["decide", "play"] * cfg.generations
    start = Population.from_shares(game.type_names, cfg.initial_shares, cfg.population).types
    for generation, ((_, shares, decision), (_, types, played)) in enumerate(
        zip(game.calls[::2], game.calls[1::2]), start=1
    ):
        assert played is decision
        assert all(type(share) is float for share in shares)
        assert np.array(shares).tobytes() == (np.bincount(types, minlength=3) / cfg.population).tobytes()
        if generation == 1:
            assert types.tobytes() == start.tobytes()
        else:
            assert np.array(shares).tobytes() == np.array(traj.records[generation - 2].shares).tobytes()
    assert len({shares for _, shares, _ in game.calls[::2]}) > 1  # the population did move


def test_selection_favors_high_scores():
    # Type c scores 3x type a; with births each generation, c's share
    # should rise over a few hundred generations.
    cfg = config(population=90, generations=300, birth_rate=0.05, seed=9)
    traj = run_experiment(cfg, ConstantGame((1.0, 2.0, 3.0)))
    assert traj.final_shares()["c"] > 0.8
