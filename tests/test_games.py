import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdtsim.games import (
    BEAUTY_TYPES,
    NEWCOMB_TYPES,
    PD_COOPERATOR,
    PD_DEFECTOR,
    PD_FDT,
    PD_TYPES,
    BeautyConfig,
    BeautyGame,
    NewcombConfig,
    NewcombGame,
    PdConfig,
    PdGame,
    beauty_guesses,
    pd_expected_utilities,
    pd_play_many,
    solve_fdt_pd_policy,
)

import oracles
from oracles import library_component_eu, newcomb_choice, payoff, pd_play_round, signal_dist

BASELINE = PdConfig()
THIRDS = (1 / 3, 1 / 3, 1 / 3)


def test_pd_config_validates_dilemma_ordering():
    with pytest.raises(ValueError):
        PdConfig(cc=10, cd=1, dc=7, dd=4)  # DC must exceed CC
    with pytest.raises(ValueError):
        PdConfig(signal_accuracy=1.5)
    with pytest.raises(ValueError):
        PdConfig(cd=0)  # utilities must stay positive


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), np.float32("inf"), "7", True, None]
)
@pytest.mark.parametrize(
    "config, name",
    [(PdConfig, f) for f in ("cc", "cd", "dc", "dd", "signal_accuracy")]
    + [(NewcombConfig, f) for f in ("high", "low", "accuracy")]
    + [(BeautyConfig, f) for f in ("fraction", "low", "high", "cap")],
)
def test_game_configs_reject_non_finite_and_non_numeric_fields(config, name, value):
    with pytest.raises(ValueError, match=name):
        config(**{name: value})


def test_game_configs_accept_numpy_numbers():
    assert PdConfig(cc=np.int64(7), signal_accuracy=np.float64(0.9)).cc == 7
    assert PdConfig(signal_accuracy=np.float32(0.5)).signal_accuracy == 0.5


def test_baseline_policy_defects_except_on_fdt_signal():
    assert solve_fdt_pd_policy(BASELINE, THIRDS) == ("D", "D", "C")


def test_uninformative_signal_policy_is_all_defect():
    config = PdConfig(signal_accuracy=1 / 3)
    assert solve_fdt_pd_policy(config, THIRDS) == ("D", "D", "D")


def test_baseline_type_eus():
    eus = pd_expected_utilities(BASELINE, THIRDS, ("D", "D", "C"))
    assert eus[PD_DEFECTOR] == pytest.approx(6.1, abs=1e-12)
    assert eus[PD_COOPERATOR] == pytest.approx(3.1, abs=1e-12)
    assert eus[PD_FDT] == pytest.approx(6.8, abs=1e-12)


def oracle_type_eus(config, shares, policy):
    """Independent enumeration over both players' signal draws."""
    coop = {"C": 1.0, "D": 0.0}

    def action_prob_coop(own, opp):
        if own == PD_DEFECTOR:
            return 0.0
        if own == PD_COOPERATOR:
            return 1.0
        return sum(
            signal_dist(opp, config.signal_accuracy)[s] * coop[policy[s]]
            for s in range(3)
        )

    eus = []
    for own in range(3):
        total = 0.0
        for opp in range(3):
            pc_own = action_prob_coop(own, opp)
            pc_opp = action_prob_coop(opp, own)
            eu = (
                pc_own * pc_opp * config.cc
                + pc_own * (1 - pc_opp) * config.cd
                + (1 - pc_own) * pc_opp * config.dc
                + (1 - pc_own) * (1 - pc_opp) * config.dd
            )
            total += shares[opp] * eu
        eus.append(total)
    return np.array(eus)


@given(
    seed=st.integers(0, 10_000),
    accuracy=st.sampled_from([0.0, 1 / 3, 1.0]) | st.floats(0.0, 1.0),
    extinct=st.sampled_from([None, PD_DEFECTOR, PD_COOPERATOR, PD_FDT]),
)
@settings(max_examples=100)
def test_type_eus_match_enumeration_oracle(seed, accuracy, extinct):
    rng = np.random.default_rng(seed)
    dc, cc, dd, cd = sorted(rng.integers(1, 1001, size=4))[::-1]
    if not dc > cc > dd > cd:
        cc, dd, cd, dc = 7, 4, 1, 10
    config = PdConfig(cc=cc, cd=cd, dc=dc, dd=dd, signal_accuracy=accuracy)
    shares = rng.dirichlet(np.ones(3))
    if extinct is not None:
        shares[extinct] = 0.0
        shares /= shares.sum()
    policy = tuple(rng.choice(["C", "D"], size=3))
    got = pd_expected_utilities(config, shares, policy)
    assert got == pytest.approx(oracle_type_eus(config, shares, policy), abs=1e-9)


def test_component_eu_affine_structure():
    # Holding the focal component fixed, the EU is the stated constant plus
    # 0.045 times the payoffs against the other two policy components.
    for a0, a1 in itertools.product("DC", repeat=2):
        pol_c = (a0, a1, "C")
        eu_c = library_component_eu(BASELINE, THIRDS, pol_c, 2, "C")
        cross = payoff(BASELINE, "C", a0) + payoff(BASELINE, "C", a1)
        assert eu_c - 0.045 * cross == pytest.approx(6.07, abs=1e-9)

        pol_d = (a0, a1, "D")
        eu_d = library_component_eu(BASELINE, THIRDS, pol_d, 2, "D")
        cross = payoff(BASELINE, "D", a0) + payoff(BASELINE, "D", a1)
        assert eu_d - 0.045 * cross == pytest.approx(3.94, abs=1e-9)


def test_solved_policy_is_component_wise_stable():
    for p in (0.5, 0.7, 0.9):
        config = PdConfig(signal_accuracy=p)
        policy = solve_fdt_pd_policy(config, THIRDS)
        for s in range(3):
            held = library_component_eu(config, THIRDS, policy, s, policy[s])
            other = "C" if policy[s] == "D" else "D"
            alt = library_component_eu(config, THIRDS, policy, s, other)
            assert held >= alt - 1e-12


# Exact ties in the FDT EU between two fixed points, from small-N integer-payoff
# cases: the solver keeps the first in itertools.product("DC") order.
@pytest.mark.parametrize(
    "accuracy, shares, tied, expected",
    [
        (0.0, [0.0, 0.0, 1.0], [("D", "C", "D"), ("C", "D", "D")], ("D", "C", "D")),
        (1 / 3, (np.array([1, 0, 10]) / 11).tolist(), [("D", "D", "C"), ("C", "D", "D")], ("D", "D", "C")),
    ],
)
def test_solver_breaks_exact_ties_by_policy_order(accuracy, shares, tied, expected):
    config = PdConfig(cc=526, cd=311, dc=846, dd=376, signal_accuracy=accuracy)
    first, second = (pd_expected_utilities(config, shares, policy)[PD_FDT] for policy in tied)
    assert first == second
    assert solve_fdt_pd_policy(config, shares) == expected
    assert oracles.solve_fdt_pd_policy(config, shares) == expected


@pytest.mark.parametrize(
    "shares",
    [
        [float("nan"), 0.5, 0.5],
        [0.5, 0.5, float("inf")],
        [0.0, 0.0, 0.0],
        [-0.5, 1.0, 0.5],
        [0.5, 0.5],
        [0.25, 0.25, 0.25, 0.25],
    ],
)
def test_solver_rejects_shares_that_are_not_odds(shares):
    with pytest.raises(ValueError) as info:
        solve_fdt_pd_policy(BASELINE, shares)
    assert type(info.value) is ValueError  # not a solver outcome such as NoFixedPointError


def test_play_round_matches_vectorized_means():
    policy = ("D", "D", "C")
    n = 20_000
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(8)
    scalar = np.array([
        pd_play_round(PD_FDT, PD_FDT, policy, BASELINE, rng1)[0] for _ in range(n)
    ])
    t = np.full(n, PD_FDT)
    vec, _ = pd_play_many(t, t, policy, BASELINE, rng2)
    se = np.hypot(scalar.std() / np.sqrt(n), vec.std() / np.sqrt(n))
    assert abs(scalar.mean() - vec.mean()) < 4 * se


def test_play_many_matches_analytic_mean():
    policy = ("D", "D", "C")
    rng = np.random.default_rng(3)
    n = 200_000
    for own, opp in ((PD_FDT, PD_DEFECTOR), (PD_FDT, PD_FDT), (PD_COOPERATOR, PD_FDT)):
        mine, _ = pd_play_many(
            np.full(n, own), np.full(n, opp), policy, BASELINE, rng
        )
        point = np.zeros(3)
        point[opp] = 1.0
        expect = pd_expected_utilities(BASELINE, point, policy)[own]
        se = mine.std() / np.sqrt(n)
        assert abs(mine.mean() - expect) < 4 * se + 1e-9


def test_newcomb_game_choices_match_threshold_oracle():
    for high in (2.0, 10.0, 1e4, 1e6):
        for low in (1.0, high / 2):
            for p in np.linspace(0.0, 1.0, 101):  # both ends, 0 and 1, included
                config = NewcombConfig(high=high, low=low, accuracy=p)
                expected = tuple(newcomb_choice(name, config) for name in NEWCOMB_TYPES)
                assert NewcombGame(config).choices == expected
    tie = NewcombConfig(high=3.0, low=2.0, accuracy=0.75)  # both FDT EUs are exactly 2.75
    assert newcomb_choice("fdt", tie) == "two-box"
    assert NewcombGame(tie).choices == ("two-box", "two-box")


def test_newcomb_perfect_predictor_is_deterministic():
    config = NewcombConfig(accuracy=1.0)
    game = NewcombGame(config)
    types = np.array([0, 1])  # cdt, fdt
    scores = game.play_generation(types, game.choices, 100, np.random.default_rng(0))
    assert scores[1] == pytest.approx(100 * config.high)
    assert scores[0] == pytest.approx(100 * config.low)


def test_newcomb_play_many_means():
    config = NewcombConfig()
    n = 100_000
    rng = np.random.default_rng(11)
    types = np.repeat([0, 1], n)
    game = NewcombGame(config)
    utilities = game.play_generation(types, game.choices, 1, rng)
    for code, expect in ((0, 1_100.0), (1, 9_910.0)):
        sample = utilities[types == code]
        se = sample.std() / np.sqrt(n)
        assert abs(sample.mean() - expect) < 4 * se


def test_beauty_guesses_at_thirds():
    cdt, fdt = beauty_guesses(THIRDS, BeautyConfig())
    assert cdt == pytest.approx(450 / 19, abs=1e-12)
    assert fdt == pytest.approx(400 / 19, abs=1e-12)


def test_beauty_guesses_all_cdt_fallback():
    # No random or FDT players: CDT's anchor vanishes, both guesses go to 0.
    cdt, fdt = beauty_guesses((0.0, 1.0, 0.0), BeautyConfig())
    assert cdt == 0.0
    assert fdt == 0.0


@given(
    shares=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    fraction=st.floats(0.05, 0.95),
)
def test_beauty_guesses_are_mutual_best_responses(shares, fraction):
    shares = np.asarray(shares) / np.sum(shares)
    config = BeautyConfig(fraction=fraction)
    cdt, fdt = beauty_guesses(shares, config)
    r, c, f = shares
    mid = (config.low + config.high) / 2
    if r + f > 0:
        cdt_target = fraction * (r * mid + f * fdt) / (r + f)
        assert cdt == pytest.approx(np.clip(cdt_target, config.low, config.high), abs=1e-9)
    fdt_target = fraction * (r * mid + c * cdt + f * fdt)
    assert fdt == pytest.approx(np.clip(fdt_target, config.low, config.high), abs=1e-9)


@given(seed=st.integers(0, 1000), n=st.integers(1, 40))
@settings(max_examples=50)
def test_beauty_utilities_bounded(seed, n):
    rng = np.random.default_rng(seed)
    types = rng.integers(0, 3, size=n)
    game = BeautyGame(BeautyConfig())
    guesses = game.decide(np.bincount(types, minlength=3) / n)
    utilities = game.play_generation(types, guesses, 1, rng)
    assert (utilities >= 0.01 - 1e-12).all()
    assert (utilities <= 1000.0 + 1e-12).all()


def test_pd_game_odd_population_one_agent_sits_out():
    game = PdGame(BASELINE)
    types = np.array([PD_DEFECTOR] * 3)
    scores = game.play_generation(types, game.decide((1.0, 0.0, 0.0)), 1, np.random.default_rng(0))
    assert (scores == 0).sum() == 1
    assert (scores[scores > 0] == BASELINE.dd).all()


def test_pd_game_two_agents_known_payoffs():
    game = PdGame(BASELINE)
    types = np.array([PD_DEFECTOR, PD_COOPERATOR])
    scores = game.play_generation(types, game.decide((0.5, 0.5, 0.0)), 1, np.random.default_rng(0))
    assert scores.tolist() == [10.0, 1.0]


def test_adapter_type_names():
    assert PdGame(BASELINE).type_names == PD_TYPES == ("defector", "cooperator", "fdt")
    assert NewcombGame(NewcombConfig()).type_names == NEWCOMB_TYPES
    assert BeautyGame(BeautyConfig()).type_names == BEAUTY_TYPES
