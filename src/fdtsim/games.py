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
import math
from dataclasses import dataclass

import numpy as np

from .beliefs import _check_shares, _posteriors, signal_likelihoods
from .graphs import _is_finite_number, decide
from .scenarios import build

# Prisoner's Dilemma type codes; signal index i names type i.
PD_TYPES = ("defector", "cooperator", "fdt")
PD_DEFECTOR, PD_COOPERATOR, PD_FDT = 0, 1, 2

NEWCOMB_TYPES = ("cdt", "fdt")

BEAUTY_TYPES = ("random", "cdt", "fdt")
BEAUTY_RANDOM, BEAUTY_CDT, BEAUTY_FDT = 0, 1, 2

# Agent-rounds per block of rounds in the beauty contest and the PD: 26 rounds at N = 10k. A
# quarter of it is the PD's seats per chunk of signal draws.
_BLOCK_ELEMENTS = 2**18

PdPolicy = tuple[str, str, str]  # action ("C" or "D") per received signal


def _store_floats(config) -> None:
    """Check that each field is a finite number, and keep it as the float64 that the games play."""
    for name, value in vars(config).items():
        if not _is_finite_number(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        object.__setattr__(config, name, float(value))


@dataclass(frozen=True)
class PdConfig:
    cc: float = 7.0
    cd: float = 1.0
    dc: float = 10.0
    dd: float = 4.0
    signal_accuracy: float = 0.9

    def __post_init__(self) -> None:
        _store_floats(self)
        cc, cd, dc, dd = self.cc, self.cd, self.dc, self.dd
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
        _store_floats(self)
        if not self.high > self.low > 0.0:
            raise ValueError(f"need high > low > 0 as floats, got high={self.high} low={self.low}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")


@dataclass(frozen=True)
class BeautyConfig:
    fraction: float = 2.0 / 3.0
    low: float = 0.0
    high: float = 100.0
    cap: float = 1000.0

    def __post_init__(self) -> None:
        _store_floats(self)
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {self.fraction}")
        # A subnormal cap has 1 / cap = inf: every error would score 1 / inf = 0.
        if not (self.cap > 0.0 and _is_finite_number(1.0 / self.cap)):
            raise ValueError(f"cap must be positive, with 1 / cap finite, got {self.cap}")
        low, high = self.low, self.high
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
_PD_FDT_COOP = _PD_POLICY_COOP[:, _SEEN]


class _PdTables:
    """Everything in the signal PD that depends on the config alone; see ``PdConfig._tables``."""

    def __init__(self, config: PdConfig):
        # likelihoods[s, t]: probability that a signal about an agent of type t names type s.
        likelihoods = signal_likelihoods(config.signal_accuracy)
        cc, cd, dc, dd = config.cc, config.cd, config.dc, config.dd
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
        for signal, (p_d, p_c, p_fdt) in zip(signals, _posteriors(shares, self.likelihoods, signals)):
            known_d, known_c = p_d * d_vs_d + p_c * d_vs_c, p_d * c_vs_d + p_c * c_vs_c
            eus.append([(known_d + p_fdt * d, known_c + p_fdt * c) for d, c in self.vs_fdt[signal]])
        return eus


def _policy_index(policy) -> int:
    """The row of ``policy`` in ``_PD_POLICIES``; ValueError unless it is one of the eight."""
    try:
        return _PD_POLICIES.index(tuple(policy))
    except (ValueError, TypeError):  # TypeError: not iterable
        raise ValueError(f"policy must be one of {_PD_POLICIES}, got {policy!r}") from None


# The solver's rounding band, in units of the largest payoff dc; u = 2**-53. While the weights
# share * likelihood are normal floats, each EU of ``component_eus`` is within 13 u * dc of its value
# in exact arithmetic on the same float inputs: its posterior takes 7 roundings, its ``vs_fdt`` 4 and
# its own products and sums 2, each relative to payoffs of at most dc weighted by a distribution.
# The FDT EUs from ``fdt_payoffs`` are as close; 1,500 drawn configs came within 3 u * dc. Where an
# action is an exact best response, its EU is then at most 26 u * dc below the other's, so a band of
# at least that keeps every exact fixed point. One always exists (the component EUs form a weighted
# potential game), so the kept set is never empty. 2**-46 = 128 u is also twice PD_GRAPH_TOL (64 u,
# tests/test_oracles.py), the bound between the graph engine's EUs and these: EUs taken from that
# engine would move no gap by more than the band.
_NEAR = 2.0**-46


def solve_fdt_pd_policy(config: PdConfig, shares) -> PdPolicy:
    """Best self-consistent signal -> action policy for the FDT type, to within a rounding band.

    A policy is kept unless its action on a sent signal is worse than the other action by more than
    ``_NEAR * config.dc``; of the kept policies, the first in ``_PD_POLICIES`` order (toward
    defection, signal by signal) whose FDT round EU is within the band of the highest wins. A signal
    no agent sends enters no EU: its component is D. Shares that ``_check_shares`` refuses raise
    ValueError.
    """
    tables, (share_d, share_c, share_fdt) = config._tables, (checked := _check_shares(shares, 3, "shares"))
    fixed, signals, near = [True] * len(_PD_POLICIES), [], _NEAR * config.dc
    for signal, (odds_d, odds_c, odds_fdt) in enumerate(tables.likelihoods):
        if share_d * odds_d > 0.0 or share_c * odds_c > 0.0 or share_fdt * odds_fdt > 0.0:
            signals.append(signal)
        else:  # no agent sends it
            for _, with_c in _PD_PAIRS[signal]:
                fixed[with_c] = False
    for signal, signal_eus in zip(signals, tables.component_eus(checked, signals)):
        for (eu_d, eu_c), (with_d, with_c) in zip(signal_eus, _PD_PAIRS[signal]):
            if eu_d < eu_c - near:
                fixed[with_d] = False
            elif eu_c < eu_d - near:
                fixed[with_c] = False
    # The FDT type's EU against each type, weighted by its share; -inf for a dropped policy.
    fdt_eus = [(against_d * share_d + against_c * share_c) + against_fdt * share_fdt if ok else -math.inf
               for ok, (against_d, against_c, against_fdt) in zip(fixed, tables.fdt_payoffs)]
    top = max(fdt_eus)
    return next(policy for policy, fdt_eu in zip(_PD_POLICIES, fdt_eus) if fdt_eu >= top - near)


def pd_expected_utilities(config: PdConfig, shares, policy: PdPolicy) -> np.ndarray:
    """Analytic per-round expected utility for each type, in PD_TYPES order.

    Defectors and Cooperators ignore their signals; FDT agents follow the
    policy on an independent noisy signal of the opponent's true type.
    """
    type_payoffs = config._tables.type_payoffs[_policy_index(policy)]
    return (type_payoffs * _check_shares(shares, 3, "shares")).sum(-1)


def pd_play_many(
    types1: np.ndarray, types2: np.ndarray, policy: PdPolicy, config: PdConfig, rng
) -> np.ndarray:
    """Play one noisy-signal round per aligned pair; returns each pair's uint8 outcome code.

    Pair i is ``types1[i]`` against ``types2[i]``, and its code is 2 * a1 + a2, where a1 and a2
    are 1 when side 1 and side 2 cooperate; ``config._tables.pair_payoffs`` maps a code to each
    side's payoff. Each FDT agent on the first side draws whether its signal is correct
    (``random``) and which wrong type it names (``integers``), then the second side does the
    same; a wrong signal about type t names type (t + 1 + alt) % 3. Each side is played in
    chunks of ``_BLOCK_ELEMENTS // 4`` seats, whose int64 index, float64 draws and int64 keys take
    at most 512 KB each; chunked draws leave the stream as one draw over all seats would.
    """
    p, chunk = config.signal_accuracy, max(1, _BLOCK_ELEMENTS // 4)
    fdt_coop = _PD_FDT_COOP[_policy_index(policy)]

    def cooperates(own: np.ndarray, opp: np.ndarray) -> np.ndarray:
        act, is_fdt = own == PD_COOPERATOR, own == PD_FDT
        chunks = [slice(start, start + chunk) for start in range(0, own.size, chunk)]
        # Every FDT seat draws ``random`` before the first one draws ``integers``.
        correct = [rng.random(np.count_nonzero(is_fdt[at])) < p for at in chunks]
        for at, seen in zip(chunks, correct):
            fdt = is_fdt[at].nonzero()[0]
            key = rng.integers(2, size=fdt.size)  # alt, then 4 * opponent type + 2 * correct + alt
            key += 4 * opp[at].take(fdt)
            key += seen
            key += seen
            act[at][fdt] = fdt_coop.take(key)
        return act

    pair = cooperates(types1, types2).view(np.uint8)
    pair += pair
    pair += cooperates(types2, types1)
    return pair


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
    r_rand, r_cdt, r_fdt = _check_shares(shares, 3, "shares")
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
        """Per-agent payoffs summed over ``rounds`` rounds, each a fresh random perfect matching.

        Matchings are permuted in blocks of ``max(1, _BLOCK_ELEMENTS // N)`` rounds, one
        ``pd_play_many`` call plays every pair, and each side's payoffs are summed block by block:
        the draws and every score are those of one (R, N) permutation and one ``bincount`` per
        side. A seat holds 4 bytes of agent index (8 from N = 2**31) and 1 of type code, a pair 1
        of outcome code; the rest is bounded per block and per chunk of draws.
        """
        n, half = types.size, types.size // 2
        if not (rounds and half):
            return np.zeros(n)
        block = max(1, _BLOCK_ELEMENTS // n)
        seats, seated = _pd_seats(types, rounds, block, rng)
        pair = pd_play_many(seated[0], seated[1], policy, self.config, rng)
        del seated  # freed before the scoring's per-block arrays
        # Two sums, side 1 then side 2: one over both sides would add each agent's payoffs in
        # another order.
        first, second = self.config._tables.pair_payoffs
        scores = _pd_side_scores(seats[0], first, pair, n, block * half)
        scores += _pd_side_scores(seats[1], second, pair, n, block * half)
        return scores


def _pd_side_scores(
    seats: np.ndarray, payoffs: np.ndarray, pair: np.ndarray, n: int, step: int
) -> np.ndarray:
    """One side's payoffs summed per agent in pair order: ``bincount`` over the first ``step`` pairs
    and ``add.at`` (one unbuffered add per pair, in order) over each later ``step``, which adds
    every agent's payoffs as one ``bincount`` over all pairs would."""
    scores = np.bincount(seats[:step], weights=payoffs.take(pair[:step]), minlength=n)
    for start in range(step, pair.size, step):
        np.add.at(scores, seats[start : start + step], payoffs.take(pair[start : start + step]))
    return scores


def _pd_seats(types: np.ndarray, rounds: int, block: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Each round's matching, permuted ``block`` rounds at a time: the agent index and the type code
    in every seat, as (2, R * (N // 2)) arrays whose rows are side 1 and side 2 in pair order."""
    n, half = types.size, types.size // 2
    seats = np.empty((2, rounds, half), dtype=np.int32 if n < 2**31 else np.int64)
    seated = np.empty((2, rounds, half), dtype=np.int8)
    codes = types.astype(np.int8)

    def sides(rows: np.ndarray) -> np.ndarray:  # pair k is entries 2k and 2k + 1; odd N's last sits out
        return rows[:, : 2 * half].reshape(len(rows), half, 2).transpose(2, 0, 1)

    scratch = np.empty((min(block, rounds), n), dtype=np.intp)
    for start in range(0, rounds, block):
        rows = scratch[: rounds - start]
        rows[:] = np.arange(n)
        rng.permuted(rows, axis=1, out=rows)
        seats[:, start : start + len(rows)] = sides(rows)
        seated[:, start : start + len(rows)] = sides(codes.take(rows))
    return seats.reshape(2, -1), seated.reshape(2, -1)


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
        config, n = self.config, types.size
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
