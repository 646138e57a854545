"""The signal PD's per-config tables carry no state between generations or configs.

``fdtsim.games`` builds what depends on the config alone once per config and
reuses it every generation. Here one ``PdGame`` per config plays many
populations, and the configs follow one another, some changing only the
signal accuracy. Every generation's solved policy, and the type EUs, score
bytes and generator state under a policy drawn from all eight, must match
``oracles``, which rebuilds everything on each call.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fdtsim.games import PdGame, pd_expected_utilities
from test_oracles import accuracies, pd_configs, pd_policies, populations, rounds, seeds, solver_outcome


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


populations_and_policies = st.lists(st.tuples(populations(3), pd_policies), min_size=1, max_size=5)


@given(config_sequences(), populations_and_policies, rounds, seeds)
@settings(max_examples=100, deadline=None)
def test_reused_game_matches_oracle_every_generation(configs, generations, rounds, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for config in configs:
        game = PdGame(config)
        for types, policy in generations:
            types = np.array(types, dtype=np.int64)
            shares = np.bincount(types, minlength=3) / types.size
            solved = solver_outcome(game.decide, shares)
            assert solved == solver_outcome(oracles.solve_fdt_pd_policy, config, shares)
            assert pd_expected_utilities(config, shares, policy) == pytest.approx(
                oracles.pd_expected_utilities(config, shares, policy), rel=1e-12, abs=1e-12
            )
            scores = game.play_generation(types, policy, rounds, rng)
            expected = oracles.pd_play_generation(config, types, policy, rounds, oracle_rng)
            assert scores.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
