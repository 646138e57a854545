"""The game adapters, the policy solver and the component EUs against ``oracles``.

The library kernels only reorganise the work around the random draws, so
each must return the same bytes and leave the generator in the same state
as its reference version, for every population, round count and
parameter set, including odd populations, extinct types, a single Random
agent and perfect or useless signals.
"""
import itertools
from functools import partial

import numpy as np
from hypothesis import example, given, settings, strategies as st

import oracles
from fdtsim.beliefs import AllZeroPosteriorError
from fdtsim.games import (
    NEWCOMB_TYPES,
    BeautyConfig,
    BeautyGame,
    NewcombConfig,
    NewcombGame,
    NoFixedPointError,
    PdConfig,
    PdGame,
    newcomb_play_many,
    pd_component_eu,
    solve_fdt_pd_policy,
)

SOLVER_ERRORS = (NoFixedPointError, AllZeroPosteriorError)

seeds = st.integers(0, 2**32 - 1)
rounds = st.integers(0, 12)
accuracies = st.sampled_from([0.0, 1.0, 1 / 3]) | st.floats(0.0, 1.0)


def populations(type_count):
    return st.lists(st.integers(0, type_count - 1), min_size=1, max_size=60)


@st.composite
def pd_configs(draw):
    dc, cc, dd, cd = sorted(
        draw(st.lists(st.floats(0.1, 100.0), min_size=4, max_size=4, unique=True)),
        reverse=True,
    )
    return PdConfig(cc=cc, cd=cd, dc=dc, dd=dd, signal_accuracy=draw(accuracies))


@st.composite
def beauty_configs(draw):
    low = draw(st.floats(-100.0, 100.0))
    return BeautyConfig(
        fraction=draw(st.floats(0.01, 0.99)),
        low=low,
        high=low + draw(st.floats(0.1, 200.0)),
        cap=draw(st.floats(0.5, 1e6)),
    )


@st.composite
def newcomb_configs(draw):
    low = draw(st.floats(0.1, 1e4))
    return NewcombConfig(high=low + draw(st.floats(0.1, 1e4)), low=low, accuracy=draw(accuracies))


def outcome(play, types, rounds, seed):
    """Score bytes (or the solver's exception type) and the final generator state."""
    rng = np.random.default_rng(seed)
    try:
        scores = play(np.array(types, dtype=np.int64), rounds, rng)
    except SOLVER_ERRORS as exc:
        return type(exc), rng.bit_generator.state
    return scores.dtype, scores.tobytes(), rng.bit_generator.state


@given(pd_configs(), populations(3), rounds, seeds)
@settings(max_examples=200)
@example(PdConfig(signal_accuracy=1.0), [0, 1, 2, 2, 1], 7, 0)
@example(PdConfig(signal_accuracy=0.0), [2] * 9, 12, 1)
@example(PdConfig(cc=7.3, cd=1.1, dc=10.7, dd=4.2), [2, 0, 2, 1, 2, 2, 0], 5, 2)
def test_pd_generation_matches_oracle(config, types, rounds, seed):
    oracle = partial(oracles.pd_play_generation, config)
    assert outcome(PdGame(config).play_generation, types, rounds, seed) == outcome(
        oracle, types, rounds, seed
    )


@given(newcomb_configs(), populations(2), rounds, seeds)
@settings(max_examples=200)
@example(NewcombConfig(accuracy=0.0), [0, 1, 1], 3, 0)
@example(NewcombConfig(accuracy=1.0), [1], 12, 1)
def test_newcomb_generation_matches_oracle(config, types, rounds, seed):
    oracle = partial(oracles.newcomb_play_generation, config)
    assert outcome(NewcombGame(config).play_generation, types, rounds, seed) == outcome(
        oracle, types, rounds, seed
    )


@given(beauty_configs(), populations(3), rounds, seeds)
@settings(max_examples=200)
@example(BeautyConfig(), [1, 0, 2, 1, 2, 1], 12, 0)  # exactly one Random agent
@example(BeautyConfig(), [0], 12, 1)
@example(BeautyConfig(), [1, 1, 1], 4, 2)  # Random and FDT extinct
def test_beauty_generation_matches_oracle(config, types, rounds, seed):
    oracle = partial(oracles.beauty_play_generation, config)
    assert outcome(BeautyGame(config).play_generation, types, rounds, seed) == outcome(
        oracle, types, rounds, seed
    )


@given(newcomb_configs(), populations(2), seeds)
def test_newcomb_play_many_matches_scalar_rounds(config, types, seed):
    # One double per encounter, in order, so the scalar loop sees the same draws.
    rng_many, rng_scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    many = newcomb_play_many(np.array(types), config, rng_many)
    scalar = [oracles.newcomb_play_round(NEWCOMB_TYPES[t], config, rng_scalar) for t in types]
    assert many.tobytes() == np.array(scalar, dtype=float).tobytes()
    assert rng_many.bit_generator.state == rng_scalar.bit_generator.state


def solver_outcome(solve, *args):
    """The result, or the type of the solver error raised."""
    try:
        return solve(*args)
    except SOLVER_ERRORS as exc:
        return type(exc)


share_weights = st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=3, max_size=3)


def normalized(weights):
    total = sum(weights)
    return [w / total for w in weights] if total > 0 else [1.0, 0.0, 0.0]


@given(pd_configs(), share_weights)
@settings(max_examples=300)
@example(PdConfig(signal_accuracy=1.0), [0.5, 0.5, 0.0])
@example(PdConfig(signal_accuracy=0.0), [0.0, 0.0, 1.0])
@example(PdConfig(signal_accuracy=0.0), [1.0, 0.0, 0.0])
# Uninformative signals: policies with equally many C's have equal FDT EUs in
# exact arithmetic, so these pin the choice that rounding makes.
@example(PdConfig(signal_accuracy=1 / 3), [1.0, 1.0, 1.0])
@example(PdConfig(signal_accuracy=1 / 3), [0.2, 0.3, 0.5])
@example(PdConfig(signal_accuracy=1 / 3), [0.0, 0.4, 0.6])
def test_solver_matches_oracle(config, weights):
    shares = normalized(weights)
    assert solver_outcome(solve_fdt_pd_policy, config, shares) == solver_outcome(
        oracles.solve_fdt_pd_policy, config, shares
    )


@given(pd_configs(), share_weights)
@settings(max_examples=200)
@example(PdConfig(signal_accuracy=1 / 3), [1.0, 1.0, 1.0])
@example(PdConfig(signal_accuracy=1.0), [0.5, 0.5, 0.0])  # signal 2 is unreachable
@example(PdConfig(signal_accuracy=0.0), [0.0, 0.0, 1.0])  # signal 2 is unreachable
def test_component_eu_matches_oracle(config, weights):
    shares = normalized(weights)
    for policy in itertools.product("DC", repeat=3):
        for signal in range(3):
            for action in "DC":
                args = (config, shares, policy, signal, action)
                got = solver_outcome(pd_component_eu, *args)
                want = solver_outcome(oracles.pd_component_eu, *args)
                if isinstance(want, type):
                    assert got is want
                else:
                    assert abs(got - want) <= 1e-12
