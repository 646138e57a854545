"""Game logic for the three evolutionary games.

Signal Prisoner's Dilemma: three fixed types (Defector, Cooperator, FDT).
FDT agents read a noisy type signal, update by odds-form Bayes, and follow a
self-consistent signal -> action policy solved from the current population
shares. Transparent Newcomb: each agent faces a predictor alone. Beauty
contest: the whole population guesses at once and is scored by inverse error.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .beliefs import posteriors, signal_likelihoods
from .graphs import _is_finite_number, decide
from .scenarios import build

# Prisoner's Dilemma type codes; signal index i names type i.
PD_TYPES = ("defector", "cooperator", "fdt")
PD_DEFECTOR, PD_COOPERATOR, PD_FDT = 0, 1, 2

NEWCOMB_TYPES = ("cdt", "fdt")

BEAUTY_TYPES = ("random", "cdt", "fdt")
BEAUTY_RANDOM, BEAUTY_CDT, BEAUTY_FDT = 0, 1, 2

# Guesses per block of beauty-contest rounds: 26 rounds at N = 10k.
_BLOCK_ELEMENTS = 2**18

PdPolicy = tuple[str, str, str]  # action ("C" or "D") per received signal


class NoFixedPointError(ValueError):
    """No self-consistent policy exists for the given parameters."""


def _check_finite(config) -> None:
    for name, value in vars(config).items():
        if not _is_finite_number(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class PdConfig:
    cc: float = 7.0
    cd: float = 1.0
    dc: float = 10.0
    dd: float = 4.0
    signal_accuracy: float = 0.9

    def __post_init__(self) -> None:
        _check_finite(self)
        # Checked as the floats the tables play with: 2**60 + 2 and 2**60 are one float.
        cc, cd, dc, dd = (float(v) for v in (self.cc, self.cd, self.dc, self.dd))
        if not dc > cc > dd > cd:
            raise ValueError(
                f"payoffs must satisfy DC > CC > DD > CD as floats, got DC={dc} CC={cc} DD={dd} CD={cd}"
            )
        if cd <= 0.0:
            raise ValueError("all payoffs must be positive")
        if not 0.0 <= self.signal_accuracy <= 1.0:
            raise ValueError(f"signal_accuracy must be in [0, 1], got {self.signal_accuracy}")

    @functools.cached_property
    def _tables(self) -> _PdTables:
        """This config's signal-PD tables, built on first use and kept with the config."""
        return _PdTables(self)


@dataclass(frozen=True)
class NewcombConfig:
    high: float = 10_000.0
    low: float = 1_000.0
    accuracy: float = 0.99

    def __post_init__(self) -> None:
        _check_finite(self)
        high, low = float(self.high), float(self.low)  # as the floats the scenario plays with
        if not high > low > 0.0:
            raise ValueError(f"need high > low > 0 as floats, got high={high} low={low}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")


@dataclass(frozen=True)
class BeautyConfig:
    fraction: float = 2.0 / 3.0
    low: float = 0.0
    high: float = 100.0
    cap: float = 1000.0

    def __post_init__(self) -> None:
        _check_finite(self)
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {self.fraction}")
        # A subnormal cap has 1 / cap = inf: every error would score 1 / inf = 0.
        if not (self.cap > 0.0 and _is_finite_number(1.0 / self.cap)):
            raise ValueError(f"cap must be positive, with 1 / cap finite, got {self.cap}")
        low, high = float(self.low), float(self.high)  # as the floats the draws use
        if not (high > low and _is_finite_number(high - low)):
            raise ValueError(f"guess range must be nonempty, high - low finite, as floats: [{low}, {high}]")


# ---------------------------------------------------------------------------
# Prisoner's Dilemma with type signals
# ---------------------------------------------------------------------------

# The eight FDT policies in itertools.product("DC") order, which is also the
# solver's tie-break order, as cooperation (D = 0, C = 1) per signal.
_PD_POLICIES = list(itertools.product("DC", repeat=3))
_PD_POLICY_COOP = np.array(_PD_POLICIES) == "C"
# _PD_PAIRS[s][j]: the indices of the policies D and C on signal s, j-th product("DC") pair elsewhere.
_PD_PAIRS = [list(zip(np.flatnonzero(~c).tolist(), np.flatnonzero(c).tolist())) for c in _PD_POLICY_COOP.T]
# _PD_FDT_COOP[policy, 4 * opponent type t + 2 * correct + alt]: whether an FDT agent
# cooperates; a wrong signal about type t names type (t + 1 + alt) % 3.
_SEEN = [t if correct else (t + 1 + alt) % 3 for t in range(3) for correct in (0, 1) for alt in (0, 1)]
_PD_FDT_COOP = _PD_POLICY_COOP[:, _SEEN].astype(np.uint8)


class _PdTables:
    """Everything in the signal PD that depends on the config alone; see ``PdConfig._tables``."""

    def __init__(self, config: PdConfig):
        # likelihoods[s, t]: probability that a signal about an agent of type t names type s.
        likelihoods = signal_likelihoods(config.signal_accuracy, 3)
        # As floats: an integer payoff beyond int64 cannot multiply an int64 array.
        cc, cd, dc, dd = (float(v) for v in (config.cc, config.cd, config.dc, config.dd))
        payoff = np.array([[dd, dc], [cd, cc]])  # [own action, opponent action], D = 0, C = 1
        # vs[action, policy]: the action's EU against an FDT opponent that follows the policy.
        vs = (likelihoods[:, PD_FDT] * payoff[:, _PD_POLICY_COOP.astype(int)]).sum(-1)
        # own[policy, i, j] (K): probability that type i cooperates against type j, opp its transpose;
        # type_payoffs[policy, i, j]: type i's expected round payoff against type j under that K.
        own = np.zeros((len(_PD_POLICIES), 3, 3))
        own[:, PD_COOPERATOR, :] = 1.0
        own[:, PD_FDT, :] = (_PD_POLICY_COOP[:, None, :] * likelihoods.T).sum(-1)
        opp = np.swapaxes(own, -1, -2)
        self.type_payoffs = (
            own * opp * cc + own * (1.0 - opp) * cd + (1.0 - own) * opp * dc + (1.0 - own) * (1.0 - opp) * dd
        )
        # Each side's payoff indexed by 2 * (side 1 cooperates) + (side 2 cooperates).
        self.pair_payoffs = payoff.ravel(), payoff.T.ravel()
        # The solver's tables, as floats: numpy's per-call cost would outweigh the arithmetic.
        self.likelihoods, self.payoff = likelihoods.tolist(), payoff.tolist()
        # An FDT opponent runs this agent's function: in a pair, D meets the D member and C the C one.
        vs_d, vs_c = vs.tolist()
        self.vs_fdt = [[(vs_d[with_d], vs_c[with_c]) for with_d, with_c in pairs] for pairs in _PD_PAIRS]
        self.fdt_payoffs = self.type_payoffs[:, PD_FDT].tolist()

    def component_eus(self, shares, signals) -> list[list[tuple[float, float]]]:
        """EU[i][j]: the EUs of answering ``signals[i]`` with D and with C under either policy of
        ``_PD_PAIRS[signals[i]][j]``, whose other two components alone enter them. Against the
        posterior over the opponent's type, a Defector defects, a Cooperator cooperates, and an FDT
        opponent answers its own signal about this agent with the policy whose ``signals[i]``
        component is forced to the action. Sums run left to right, as the scalar oracle's do.
        """
        (d_vs_d, d_vs_c), (c_vs_d, c_vs_c) = self.payoff
        eus = []
        for signal, (p_d, p_c, p_fdt) in zip(signals, posteriors(shares, self.likelihoods, signals)):
            known_d, known_c = p_d * d_vs_d + p_c * d_vs_c, p_d * c_vs_d + p_c * c_vs_c
            eus.append([(known_d + p_fdt * d, known_c + p_fdt * c) for d, c in self.vs_fdt[signal]])
        return eus


def solve_fdt_pd_policy(config: PdConfig, shares) -> PdPolicy:
    """Best self-consistent signal -> action policy for the FDT type.

    Of the policies where every component is a best response given the whole policy, the one with
    the highest FDT round EU; ties break toward defection, signal by signal. A signal no agent sends
    enters no EU: its component is D. Shares other than three finite odds, not all 0, raise ValueError.
    """
    tables, (share_d, share_c, share_fdt) = config._tables, map(float, shares)  # a wrong length: ValueError
    fixed, signals = [True] * len(_PD_POLICIES), []
    for signal, (odds_d, odds_c, odds_fdt) in enumerate(tables.likelihoods):
        if share_d * odds_d > 0.0 or share_c * odds_c > 0.0 or share_fdt * odds_fdt > 0.0:
            signals.append(signal)
        else:  # no agent sends it
            for _, with_c in _PD_PAIRS[signal]:
                fixed[with_c] = False
    # Out go the policies whose action on a sent signal is strictly worse than the other.
    for signal, signal_eus in zip(signals, tables.component_eus(shares, signals)):
        for (eu_d, eu_c), (with_d, with_c) in zip(signal_eus, _PD_PAIRS[signal]):
            if eu_d < eu_c:
                fixed[with_d] = False
            elif eu_c < eu_d:
                fixed[with_c] = False
    best = None
    for policy, ok, (against_d, against_c, against_fdt) in zip(_PD_POLICIES, fixed, tables.fdt_payoffs):
        if ok:  # the FDT type's EU against each type, weighted by its share; the first maximum wins
            fdt_eu = (against_d * share_d + against_c * share_c) + against_fdt * share_fdt
            if best is None or fdt_eu > best_eu:
                best, best_eu = policy, fdt_eu
    if best is None:
        raise NoFixedPointError(f"no self-consistent policy for config={config} shares={shares}")
    return best


def pd_expected_utilities(config: PdConfig, shares, policy: PdPolicy) -> np.ndarray:
    """Analytic per-round expected utility for each type, in PD_TYPES order.

    Defectors and Cooperators ignore their signals; FDT agents follow the
    policy on an independent noisy signal of the opponent's true type.
    """
    type_payoffs = config._tables.type_payoffs[_PD_POLICIES.index(tuple(policy))]
    return (type_payoffs * np.asarray(shares, dtype=float)).sum(-1)


def pd_play_many(
    types1: np.ndarray, types2: np.ndarray, policy: PdPolicy, config: PdConfig, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Play one noisy-signal round per aligned pair; returns each side's utilities.

    Pair i is ``types1[i]`` against ``types2[i]``. Each FDT agent on the
    first side draws whether its signal is correct (``random``) and which
    wrong type it names (``integers``), then the second side does the same;
    a wrong signal about type t names type (t + 1 + alt) % 3.
    """
    p = config.signal_accuracy
    fdt_coop = _PD_FDT_COOP[_PD_POLICIES.index(tuple(policy))]

    def cooperates(own: np.ndarray, opp: np.ndarray) -> np.ndarray:
        act = (own == PD_COOPERATOR).view(np.uint8)
        fdt = np.flatnonzero(own == PD_FDT)
        if fdt.size:
            correct = rng.random(fdt.size) < p
            alt = rng.integers(0, 2, size=fdt.size)
            act[fdt] = fdt_coop[4 * opp[fdt] + 2 * correct + alt]
        return act

    pair = 2 * cooperates(types1, types2)
    pair += cooperates(types2, types1)
    first, second = config._tables.pair_payoffs
    return first[pair], second[pair]


# ---------------------------------------------------------------------------
# Keynesian beauty contest
# ---------------------------------------------------------------------------

def beauty_guesses(shares, config: BeautyConfig) -> tuple[float, float]:
    """Simultaneous guesses for the CDT and FDT types given shares.

    CDT predicts the average from the Random and FDT types only (it treats
    other CDT guesses as independent of its own); FDT solves for the guess
    that is consistent with every FDT agent guessing the same. With Random
    and FDT both extinct the CDT guess falls back to 0.
    """
    r_rand, r_cdt, r_fdt = np.asarray(shares, dtype=float)
    f = config.fraction
    mean_random = (config.low + config.high) / 2.0
    observed = r_rand + r_fdt
    if observed > 0.0:
        alpha = f * r_rand * mean_random / observed
        beta = f * r_fdt / observed
    else:
        alpha = beta = 0.0
    # cdt = alpha + beta * fdt; substitute into the FDT consistency equation.
    denominator = 1.0 - f * r_cdt * beta - f * r_fdt
    fdt = (f * r_rand * mean_random + f * r_cdt * alpha) / denominator
    cdt = alpha + beta * fdt
    clamp = lambda g: min(max(g, config.low), config.high)
    return clamp(cdt), clamp(fdt)


# ---------------------------------------------------------------------------
# Adapters consumed by the generation loop
# ---------------------------------------------------------------------------

class PdGame:
    """Pairwise play: every round draws a fresh random perfect matching."""

    type_names = PD_TYPES

    def __init__(self, config: PdConfig):
        self.config = config

    def decide(self, shares) -> PdPolicy:
        return solve_fdt_pd_policy(self.config, shares)

    def play_generation(self, types: np.ndarray, policy: PdPolicy, rounds: int, rng) -> np.ndarray:
        n = types.size
        # All matchings at once: one independent permutation per round.
        perms = np.tile(np.arange(n), (rounds, 1))
        rng.permuted(perms, axis=1, out=perms)
        if n % 2:
            perms = perms[:, :-1]  # one agent sits out each round
        left, right = perms[:, 0::2].ravel(), perms[:, 1::2].ravel()
        del perms  # freed before the kernel allocates its per-pair arrays
        codes = types.astype(np.int8)
        u_left, u_right = pd_play_many(codes[left], codes[right], policy, self.config, rng)
        # Two bincounts, left then right: one over both sides would add each
        # agent's payoffs in another order.
        scores = np.bincount(left, weights=u_left, minlength=n)
        scores += np.bincount(right, weights=u_right, minlength=n)
        return scores


class NewcombGame:
    """Each agent plays one independent predictor round per round."""

    type_names = NEWCOMB_TYPES

    def __init__(self, config: NewcombConfig):
        self.config = config
        problem = build("newcomb-transparent", high=config.high, low=config.low, accuracy=config.accuracy)
        self.choices = tuple(decide(problem, theory).chosen for theory in NEWCOMB_TYPES)
        # Each choice's utility when the prediction is wrong and right; as floats, no int64 sum can wrap.
        utility, other = problem.model.utility, dict(zip(problem.actions, problem.actions[::-1]))
        self._utility = {choice: (utility[choice, other[choice]], utility[choice, choice]) for choice in other}

    def decide(self, shares) -> tuple[str, str]:
        return self.choices

    def play_generation(self, types: np.ndarray, choices, rounds: int, rng) -> np.ndarray:
        """Each agent's utility over ``rounds`` encounters, one uniform per agent per round.

        The predictor reads the would-be choice of each type (``choices``) right with probability
        ``accuracy`` and fills the big box only on a one-box read; facing it empty, an agent takes low.
        """
        wrong, right = np.array([self._utility[choice] for choice in choices]).T
        draws = rng.random((rounds, types.size))
        return np.where(draws < self.config.accuracy, right[types], wrong[types]).sum(axis=0)


class BeautyGame:
    """One whole-population guessing round per round, played in blocks of rounds.

    A block holds about ``_BLOCK_ELEMENTS`` guesses (2 MB of float64, and as
    much again at most for the Random agents' draws), with the same draws and
    sums as one round at a time.
    """

    type_names = BEAUTY_TYPES

    def __init__(self, config: BeautyConfig):
        self.config = config

    def decide(self, shares) -> tuple[float, float]:
        return beauty_guesses(shares, self.config)

    def play_generation(self, types: np.ndarray, guesses, rounds: int, rng) -> np.ndarray:
        """Per-agent utilities summed over ``rounds`` guessing rounds.

        Every round the Random agents draw fresh guesses; the CDT and FDT
        agents guess ``guesses``, fixed within a generation. Utility is the
        inverse distance to ``fraction`` times the realized average guess,
        capped, so errors of 1/cap or less score exactly the cap.
        """
        config = self.config
        n = types.size
        if n == 0:
            raise ValueError("population is empty")
        cdt_guess, fdt_guess = guesses
        is_cdt = types == BEAUTY_CDT
        random_at = np.flatnonzero(types == BEAUTY_RANDOM)
        block = max(1, _BLOCK_ELEMENTS // n)
        guesses = np.tile(np.where(is_cdt, cdt_guess, fdt_guess), (min(block, rounds), 1))
        floor = 1.0 / config.cap
        random_scores = np.zeros(random_at.size)
        cdt_score = fdt_score = 0.0
        for start in range(0, rounds, block):
            draws = rng.uniform(config.low, config.high, (min(block, rounds - start), random_at.size))
            rows = guesses[: len(draws)]
            rows[:, random_at] = draws
            # Each row's sum is the pairwise sum that ``.mean()`` makes of it.
            targets = config.fraction * (rows.sum(axis=1) / n)
            if not np.isfinite(targets).all():  # else every agent would score 1 / inf = 0
                raise ValueError(f"the sum of N = {n} guesses in [{config.low}, {config.high}] is not finite")
            for target in targets.tolist():
                cdt_score += min(config.cap, 1.0 / max(abs(target - cdt_guess), floor))
                fdt_score += min(config.cap, 1.0 / max(abs(target - fdt_guess), floor))
            error = np.abs(np.subtract(targets[:, None], draws, out=draws), out=draws)
            np.maximum(error, floor, out=error)
            np.divide(1.0, error, out=error)
            # Utilities add up round by round: summing the block's columns
            # would use pairwise summation and change the last bits.
            for row in np.minimum(error, config.cap, out=error):
                random_scores += row
        scores = np.where(is_cdt, cdt_score, fdt_score)
        scores[random_at] = random_scores
        return scores
