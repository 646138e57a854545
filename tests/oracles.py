"""Reference implementations of the game kernels, kept as test oracles.

These are the straightforward per-round and per-pair versions of the
mechanics in ``fdtsim.games``. They draw the same random numbers in the
same order and add each agent's utilities in the same order as the library
kernels, so the tests compare the two for equal bytes and an equal final
generator state, not just equal distributions. The PD analytics here (payoff
table, component EUs, type EUs, policy solver) are scalar loops that share
no code with the library's matrix form.
"""
import itertools

import numpy as np

from fdtsim.beliefs import SignalModel, posterior
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
)


# ---------------------------------------------------------------------------
# Prisoner's Dilemma with type signals
# ---------------------------------------------------------------------------

def payoff(config, own, opp):
    """Row player's payoff for (own action, opponent action)."""
    if own == "C":
        return config.cc if opp == "C" else config.cd
    return config.dc if opp == "C" else config.dd


def signal_dist(true_type, p):
    """Distribution of the signal an observer receives about ``true_type``."""
    dist = np.full(3, (1.0 - p) / 2.0)
    dist[true_type] = p
    return dist


def pd_component_eu(config, shares, policy, signal, action):
    """Expected utility of answering ``signal`` with ``action``, one payoff at a time.

    ``vs_fdt`` adds left to right in an explicit loop, like the library's
    sums; ``sum()`` would round differently from Python 3.12 on.
    """
    post = posterior(shares, signal, SignalModel(config.signal_accuracy, 3))
    trial = list(policy)
    trial[signal] = action
    opp_signal = signal_dist(PD_FDT, config.signal_accuracy)
    vs_fdt = 0.0
    for j in range(3):
        vs_fdt += opp_signal[j] * payoff(config, action, trial[j])
    return (
        post[PD_DEFECTOR] * payoff(config, action, "D")
        + post[PD_COOPERATOR] * payoff(config, action, "C")
        + post[PD_FDT] * vs_fdt
    )


def pd_expected_utilities(config, shares, policy):
    """Per-type expected round utility, one (own type, opponent type) pair at a time."""
    shares = np.asarray(shares, dtype=float)
    p = config.signal_accuracy
    coop = np.array([a == "C" for a in policy], dtype=float)
    # Probability an FDT agent cooperates given the opponent's true type.
    fdt_coop = np.array([signal_dist(t, p) @ coop for t in range(3)])

    def vs_mixture(own_coop, opp_coop):
        return (
            own_coop * opp_coop * config.cc
            + own_coop * (1.0 - opp_coop) * config.cd
            + (1.0 - own_coop) * opp_coop * config.dc
            + (1.0 - own_coop) * (1.0 - opp_coop) * config.dd
        )

    opp_coop_by_type = {
        PD_DEFECTOR: 0.0,
        PD_COOPERATOR: 1.0,
        PD_FDT: None,  # depends on the focal agent's own type
    }
    eus = np.zeros(3)
    for own in range(3):
        own_coop_by_opp = (
            fdt_coop if own == PD_FDT else np.full(3, 1.0 if own == PD_COOPERATOR else 0.0)
        )
        total = 0.0
        for opp in range(3):
            opp_coop = opp_coop_by_type[opp]
            if opp_coop is None:
                opp_coop = fdt_coop[own]
            total += shares[opp] * vs_mixture(own_coop_by_opp[opp], opp_coop)
        eus[own] = total
    return eus


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
    return payoff(config, a1, a2), payoff(config, a2, a1)


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
    """The policy solver, one policy and one component at a time."""
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
