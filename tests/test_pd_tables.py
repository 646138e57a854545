"""The signal PD's per-config tables carry no state between generations or configs.

``fdtsim.games`` builds what depends on the config alone once per config and
reuses it every generation. Here one ``PdGame`` per config plays many
populations, and the configs follow one another, some changing only the
signal accuracy. Every generation's policy, type EUs, score bytes and
generator state must match ``oracles``, which rebuilds everything on each call.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fdtsim.games import PdGame, pd_expected_utilities, solve_fdt_pd_policy
from test_oracles import accuracies, pd_configs, populations, rounds, seeds, solver_outcome


@st.composite
def config_sequences(draw):
    """PD configs played one after another; some differ from the last only in accuracy."""
    configs = [draw(pd_configs())]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            configs.append(replace(configs[-1], signal_accuracy=draw(accuracies)))
        else:
            configs.append(draw(pd_configs()))
    return configs


@given(config_sequences(), st.lists(populations(3), min_size=1, max_size=5), rounds, seeds)
@settings(max_examples=100, deadline=None)
def test_reused_game_matches_oracle_every_generation(configs, type_lists, rounds, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for config in configs:
        game = PdGame(config)
        for types in type_lists:
            types = np.array(types, dtype=np.int64)
            shares = np.bincount(types, minlength=3) / types.size
            policy = solver_outcome(solve_fdt_pd_policy, config, shares)
            assert policy == solver_outcome(oracles.solve_fdt_pd_policy, config, shares)
            if isinstance(policy, type):  # no policy: the generation raises before any draw
                continue
            assert pd_expected_utilities(config, shares, policy) == pytest.approx(
                oracles.pd_expected_utilities(config, shares, policy), rel=1e-12, abs=1e-12
            )
            scores = game.play_generation(types, rounds, rng)
            expected = oracles.pd_play_generation(config, types, rounds, oracle_rng)
            assert scores.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
