"""Reference implementations of the game kernels, kept as test oracles.

These are the straightforward per-round and per-pair versions of the
mechanics in ``fdtsim.games``. They draw the same random numbers in the
same order and add each agent's utilities in the same order as the library
kernels, so the tests compare the two for equal bytes and an equal final
generator state, not just equal distributions.
"""
import itertools

import numpy as np

from fdtsim.games import (
    NEWCOMB_TYPES,
    ONE_BOX,
    PD_COOPERATOR,
    PD_DEFECTOR,
    PD_FDT,
    BEAUTY_CDT,
    BEAUTY_FDT,
    BEAUTY_RANDOM,
    NoFixedPointError,
    beauty_guesses,
    newcomb_decision,
    pd_component_eu,
    pd_expected_utilities,
)


# ---------------------------------------------------------------------------
# Prisoner's Dilemma with type signals
# ---------------------------------------------------------------------------

def _fdt_round_action(opp_type, policy, p, rng):
    if rng.random() < p:
        signal = opp_type
    else:
        signal = (opp_type + 1 + rng.integers(0, 2)) % 3
    return policy[signal]


def pd_play_round(type1, type2, policy, config, rng):
    """Play one noisy-signal round; returns realized (utility1, utility2)."""

    def act(own, opp):
        if own == PD_DEFECTOR:
            return "D"
        if own == PD_COOPERATOR:
            return "C"
        return _fdt_round_action(opp, policy, config.signal_accuracy, rng)

    a1 = act(type1, type2)
    a2 = act(type2, type1)
    return config.payoff(a1, a2), config.payoff(a2, a1)


def pd_play_many(types1, types2, policy, config, rng):
    """Vectorized pd_play_round over aligned arrays of type codes."""
    coop_given_signal = np.array([a == "C" for a in policy])
    p = config.signal_accuracy

    def actions(own, opp):
        act = own == PD_COOPERATOR
        fdt = own == PD_FDT
        m = int(fdt.sum())
        if m:
            opp_fdt = opp[fdt]
            correct = rng.random(m) < p
            alt = rng.integers(0, 2, size=m)
            signal = np.where(correct, opp_fdt, (opp_fdt + 1 + alt) % 3)
            act[fdt] = coop_given_signal[signal]
        return act

    a1 = actions(types1, types2)
    a2 = actions(types2, types1)
    # Indexed by (own cooperates, opponent cooperates) as 0/1.
    matrix = np.array([[config.dd, config.dc], [config.cd, config.cc]])
    return matrix[a1.astype(int), a2.astype(int)], matrix[a2.astype(int), a1.astype(int)]


def _is_fixed_point(config, shares, policy):
    for s in range(3):
        eu_c = pd_component_eu(config, shares, policy, s, "C")
        eu_d = pd_component_eu(config, shares, policy, s, "D")
        held = eu_c if policy[s] == "C" else eu_d
        if held < max(eu_c, eu_d):
            return False
    return True


def solve_fdt_pd_policy(config, shares):
    """The policy solver, computing each component's posterior afresh."""
    shares = np.asarray(shares, dtype=float)
    fixed = [
        pol
        for pol in itertools.product("DC", repeat=3)
        if _is_fixed_point(config, shares, pol)
    ]
    if not fixed:
        raise NoFixedPointError(f"no self-consistent policy for shares={shares.tolist()}")

    def rank(pol):
        fdt_eu = pd_expected_utilities(config, shares, pol)[PD_FDT]
        return (-fdt_eu, pol[0] == "C", pol[1] == "C", pol[2] == "C")

    return tuple(min(fixed, key=rank))


def pd_play_generation(config, types, rounds, rng):
    """``PdGame.play_generation`` on the kernel above."""
    n = types.size
    shares = np.bincount(types, minlength=3) / n
    policy = solve_fdt_pd_policy(config, shares)
    perms = np.tile(np.arange(n), (rounds, 1))
    rng.permuted(perms, axis=1, out=perms)
    if n % 2:
        perms = perms[:, :-1]
    left, right = perms[:, 0::2].ravel(), perms[:, 1::2].ravel()
    u_left, u_right = pd_play_many(types[left], types[right], policy, config, rng)
    scores = np.bincount(left, weights=u_left, minlength=n)
    scores += np.bincount(right, weights=u_right, minlength=n)
    return scores


# ---------------------------------------------------------------------------
# Transparent Newcomb
# ---------------------------------------------------------------------------

def newcomb_play_round(theory, config, rng):
    """One predictor encounter; returns the realized utility."""
    would_one_box = newcomb_decision(theory, config) == ONE_BOX
    correct = rng.random() < config.accuracy
    predicted_one_box = would_one_box if correct else not would_one_box
    if not predicted_one_box:
        return config.low
    return config.high if would_one_box else config.high + config.low


def newcomb_play_generation(config, types, rounds, rng):
    """``NewcombGame.play_generation`` as an inline (rounds, N) computation."""
    correct = rng.random((rounds, types.size)) < config.accuracy
    one_box_by_type = np.array(
        [newcomb_decision(name, config) == ONE_BOX for name in NEWCOMB_TYPES]
    )
    would_one_box = one_box_by_type[types]
    predicted_one_box = would_one_box[None, :] == correct
    utilities = np.where(
        predicted_one_box,
        np.where(would_one_box[None, :], config.high, config.high + config.low),
        config.low,
    )
    return utilities.sum(axis=0)


# ---------------------------------------------------------------------------
# Keynesian beauty contest
# ---------------------------------------------------------------------------

def beauty_play_round(types, config, rng):
    """One whole-population guessing round; returns per-agent utilities."""
    types = np.asarray(types)
    if types.size == 0:
        raise ValueError("population is empty")
    counts = np.bincount(types, minlength=3)
    cdt_guess, fdt_guess = beauty_guesses(counts / types.size, config)
    guesses = np.empty(types.size)
    random_mask = types == BEAUTY_RANDOM
    guesses[random_mask] = rng.uniform(config.low, config.high, int(random_mask.sum()))
    guesses[types == BEAUTY_CDT] = cdt_guess
    guesses[types == BEAUTY_FDT] = fdt_guess
    target = config.fraction * guesses.mean()
    error = np.abs(target - guesses)
    return np.minimum(config.cap, 1.0 / np.maximum(error, 1.0 / config.cap))


def beauty_play_generation(config, types, rounds, rng):
    """``BeautyGame.play_generation`` as a loop over whole-population rounds."""
    scores = np.zeros(types.size)
    for _ in range(rounds):
        scores += beauty_play_round(types, config, rng)
    return scores
