"""The run-config boundary: ``ExperimentConfig`` and its strict ``from_dict``.

Every field is checked when the config is built, so bad input fails there
with a ``ValueError`` and never later, inside a run.
"""
import json
import math
from dataclasses import fields

import numpy as np
from hypothesis import example, given, settings, strategies as st

from fdtsim.experiments import GAMES, PRESETS, ExperimentConfig

VALID = {
    "pd": {
        "game": "pd", "population": 40, "generations": 2, "rounds": 3,
        "initial_shares": [0.2, 0.3, 0.5], "birth_rate": 0.05, "mutation_rate": 0.01,
        "seed": 1, "snapshot_every": 1,
        "game_params": {"cc": 7.0, "cd": 1.0, "dc": 10.0, "dd": 4.0, "signal_accuracy": 0.9},
    },
    "newcomb": {
        "game": "newcomb", "population": 100, "generations": 3, "rounds": 2,
        "initial_shares": [0.5, 0.5], "game_params": {"high": 10.0, "low": 1, "accuracy": 0.9},
    },
    "beauty": {
        "game": "beauty", "population": 100, "generations": 1, "rounds": 1,
        "initial_shares": [1, 0, 0], "birth_rate": 0.0, "mutation_rate": 0,
        "game_params": {"fraction": 0.5, "cap": 100},
    },
}


def pd_dict(**changes):
    return dict(VALID["pd"], **changes)


def test_valid_configs_round_trip_through_json():
    for data in VALID.values():
        config = ExperimentConfig.from_dict(data)
        assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_to_dict_keeps_keys_and_values_as_given():
    config = ExperimentConfig.from_dict(VALID["beauty"])
    data = config.to_dict()
    assert list(data) == [
        "game", "population", "generations", "rounds", "initial_shares", "birth_rate",
        "mutation_rate", "seed", "game_params", "snapshot_every",
    ]
    assert json.dumps(data["initial_shares"]) == "[1, 0, 0]"  # no coercion to float
    assert data["mutation_rate"] == 0 and isinstance(data["mutation_rate"], int)


def test_presets_keep_their_order_and_settings():
    # Each preset's CSV header, byte for byte. The golden runs replace N, generations and rounds.
    loop = {"population": 10_000, "generations": 750, "rounds": 100, "birth_rate": 0.01,
            "mutation_rate": 0.001, "seed": 0, "snapshot_every": 1}
    pd_params = {"cc": 7.0, "cd": 1.0, "dc": 10.0, "dd": 4.0, "signal_accuracy": 0.9}
    thirds = [1 / 3, 1 / 3, 1 / 3]
    expected = {
        "pd-baseline": dict(loop, game="pd", initial_shares=thirds, game_params=pd_params),
        "pd-invasion": dict(
            loop, game="pd", generations=1_500, initial_shares=[0.9, 0.0, 0.1], game_params=pd_params
        ),
        "newcomb-baseline": dict(
            loop, game="newcomb", population=3_000, generations=100, initial_shares=[0.5, 0.5],
            game_params={"high": 10_000.0, "low": 1_000.0, "accuracy": 0.99},
        ),
        "beauty-baseline": dict(loop, game="beauty", initial_shares=thirds, game_params={}),
        "beauty-cdt-heavy": dict(loop, game="beauty", initial_shares=[0.1, 0.8, 0.1], game_params={}),
    }
    assert list(PRESETS) == list(expected)
    for name, config in PRESETS.items():
        assert json.dumps(config.to_dict(), sort_keys=True) == json.dumps(expected[name], sort_keys=True)


def test_from_dict_takes_defaults_from_the_dataclass():
    names = ("game", "population", "generations", "rounds", "initial_shares")
    required = {name: VALID["newcomb"][name] for name in names}
    config = ExperimentConfig.from_dict(required)
    assert (config.birth_rate, config.mutation_rate, config.seed) == (0.01, 0.001, 0)
    assert (config.game_params, config.snapshot_every) == ({}, 1)


# --- Hypothesis fuzz of the boundary ---------------------------------------

WRONG = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
    st.sampled_from([np.int64(7), np.float32(0.1), np.float32("inf")]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.integers(-3, 3),
    st.floats(-1.0, 2.0),
)


@st.composite
def game_params(draw, game):
    names = list(vars(GAMES[game][1]()))
    keys = draw(st.lists(st.sampled_from(names + ["signal_acuracy", "bogus", ""]), max_size=4))
    return {key: draw(st.one_of(st.floats(0.0, 20.0), WRONG)) for key in keys}


@st.composite
def config_dicts(draw):
    game = draw(st.sampled_from(sorted(VALID)))
    data = dict(VALID[game])
    for key in draw(st.sets(st.sampled_from(sorted(data)), max_size=3)):
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(WRONG)
    if draw(st.integers(0, 2)) == 0:
        data["game_params"] = draw(game_params(game))
    if draw(st.integers(0, 2)) == 0:
        shares = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]), WRONG)
        data["initial_shares"] = draw(st.lists(shares, max_size=4))
    if draw(st.integers(0, 4)) == 0:
        data[draw(st.sampled_from(["birthrate", "population_size", "engine", "x"]))] = draw(WRONG)
    return data


@st.composite
def one_wrong_value(draw):
    """A valid config with exactly one field, or one ``game_params`` key, set to a ``WRONG`` value.

    Every other value stays valid, so a value that passes the checks reaches
    the JSON round trip instead of failing on another field first.
    """
    game = draw(st.sampled_from(sorted(VALID)))
    data = dict(VALID[game])
    if draw(st.booleans()):
        data[draw(st.sampled_from([f.name for f in fields(ExperimentConfig)]))] = draw(WRONG)
    else:
        name = draw(st.sampled_from(list(vars(GAMES[game][1]()))))
        data["game_params"] = dict(data.get("game_params", {}), **{name: draw(WRONG)})
    return data


def assert_rejected_or_round_trips(data):
    try:
        config = ExperimentConfig.from_dict(data)
    except ValueError:
        return
    again = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert again == config
    assert again.to_dict() == config.to_dict()


@given(data=st.one_of(config_dicts(), WRONG))
@example(data=VALID["pd"])
@example(data=pd_dict(initial_shares=[1, 0, 0], game_params={"signal_accuracy": 1}))
@example(data=pd_dict(
    mutation_rate=np.float32(0.1),
    initial_shares=[np.float32(0.5), 0.25, 0.25],
    game_params=dict(VALID["pd"]["game_params"], cc=np.int64(7)),
))
@settings(max_examples=400, deadline=None)
def test_from_dict_raises_value_error_or_round_trips(data):
    assert_rejected_or_round_trips(data)


@given(data=one_wrong_value())
@settings(max_examples=300, deadline=None)
def test_one_wrong_value_raises_value_error_or_round_trips(data):
    assert_rejected_or_round_trips(data)
