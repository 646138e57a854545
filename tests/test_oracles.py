"""The game adapters, the policy solver, the component EUs and the causal-graph scoring against ``oracles``.

The library kernels only reorganise the work around the random draws, so
each must return the same bytes and leave the generator in the same state
as its reference version, for every population, round count, parameter
set, decision (any FDT policy, Newcomb choices or beauty guesses, not only
the solved ones) and (for the beauty contest) block size of rounds,
including odd populations, extinct types, a single Random agent and
perfect or useless signals. The graph engine scores all actions
from one enumeration, and must give each action the bits, or the error,
of scoring it alone on its own intervened model. The births and deaths of
``evolve.repopulate`` must be numpy's own ``Generator.choice``, draw for draw.
"""
import itertools
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from fdtsim import evolve, games, graphs
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


@st.composite
def beauty_decisions(draw):
    """A beauty config and a (CDT, FDT) guess pair drawn anywhere in its range, not only the solved one."""
    config = draw(beauty_configs())
    guess = st.floats(config.low, config.high)
    return config, (draw(guess), draw(guess))


# Every decision a kernel can be given: each of the eight FDT policies, and each pair of Newcomb choices.
pd_policies = st.sampled_from(games._PD_POLICIES)
newcomb_choices = st.sampled_from(list(itertools.product(("one-box", "two-box"), repeat=2)))


def outcome(play, types, decision, rounds, seed):
    """Score bytes and the final generator state."""
    rng = np.random.default_rng(seed)
    scores = play(np.array(types, dtype=np.int64), decision, rounds, rng)
    return scores.dtype, scores.tobytes(), rng.bit_generator.state


@given(pd_configs(), populations(3), pd_policies, rounds, seeds)
@settings(max_examples=200)
@example(PdConfig(signal_accuracy=1.0), [0, 1, 2, 2, 1], ("D", "C", "C"), 7, 0)
@example(PdConfig(signal_accuracy=0.0), [2] * 9, ("C", "D", "C"), 12, 1)
@example(PdConfig(cc=7.3, cd=1.1, dc=10.7, dd=4.2), [2, 0, 2, 1, 2, 2, 0], ("D", "D", "C"), 5, 2)
def test_pd_generation_matches_oracle(config, types, policy, rounds, seed):
    oracle = partial(oracles.pd_play_generation, config)
    assert outcome(PdGame(config).play_generation, types, policy, rounds, seed) == outcome(
        oracle, types, policy, rounds, seed
    )


@given(newcomb_configs(), populations(2), newcomb_choices, rounds, seeds)
@settings(max_examples=200)
@example(NewcombConfig(accuracy=0.0), [0, 1, 1], ("two-box", "one-box"), 3, 0)
@example(NewcombConfig(accuracy=1.0), [1], ("one-box", "two-box"), 12, 1)
def test_newcomb_generation_matches_oracle(config, types, choices, rounds, seed):
    oracle = partial(oracles.newcomb_play_generation, config)
    assert outcome(NewcombGame(config).play_generation, types, choices, rounds, seed) == outcome(
        oracle, types, choices, rounds, seed
    )


@given(beauty_decisions(), populations(3), rounds, seeds)
@settings(max_examples=200)
@example((BeautyConfig(), (450 / 19, 400 / 19)), [1, 0, 2, 1, 2, 1], 12, 0)  # exactly one Random agent
@example((BeautyConfig(), (0.0, 100.0)), [0], 12, 1)
@example((BeautyConfig(), (0.0, 0.0)), [1, 1, 1], 4, 2)  # Random and FDT extinct
def test_beauty_generation_matches_oracle(case, types, rounds, seed):
    config, guesses = case
    oracle = partial(oracles.beauty_play_generation, config)
    assert outcome(BeautyGame(config).play_generation, types, guesses, rounds, seed) == outcome(
        oracle, types, guesses, rounds, seed
    )


@given(beauty_decisions(), populations(3), rounds, seeds, st.data())
@settings(max_examples=200)
def test_beauty_generation_in_blocks_of_any_size_matches_oracle(case, types, rounds, seed, data):
    # Every block size from one round to the whole generation, with a short last block.
    config, guesses = case
    elements = data.draw(st.integers(1, max(1, len(types) * rounds)))
    oracle = partial(oracles.beauty_play_generation, config)
    with mock.patch.object(games, "_BLOCK_ELEMENTS", elements):
        blocked = outcome(BeautyGame(config).play_generation, types, guesses, rounds, seed)
    assert blocked == outcome(oracle, types, guesses, rounds, seed)


@given(newcomb_configs(), populations(2), seeds)
def test_newcomb_play_many_matches_scalar_rounds(config, types, seed):
    # One double per encounter, in order, so the scalar loop sees the same draws; the game
    # plays its own choices, and the scalar rounds take theirs from the closed form.
    rng_many, rng_scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    game = NewcombGame(config)
    many = game.play_generation(np.array(types), game.choices, 1, rng_many)
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
                got = solver_outcome(oracles.library_component_eu, *args)
                want = solver_outcome(oracles.pd_component_eu, *args)
                if isinstance(want, type):
                    assert got is want
                else:  # both add in the same order
                    assert got.hex() == want.hex()


# Tolerance of the PD graph oracle, in units of the largest payoff M. Both
# sides start from the same likelihoods and shares. The graph's EU is
# sum(w * u) / sum(w) over at most 9 assignments, and each weight w takes 2
# rounded products. The numerator takes at most 3 + 8 roundings, the
# denominator 2 + 8 and the division 1: 22, each at most u = 2**-53
# relative. The library's posterior, 3-term sums, product and two additions
# take about 10 more. The graph also divides by the opponent's signal
# distribution, whose floats sum to 1 only within 3u. That is 35u in all,
# rounded up to 64u; the largest error seen over 300 random draws was 4.4u.
# The bound holds only while the weights are normal floats, so a signal sent
# with probability below 2**-900 is not compared: at accuracy 2.2e-313
# against Defectors alone, the graph's EU of D is 1.5 + 2.2e-11, where the
# library's is exactly 1.5.
PD_GRAPH_TOL = 64 * 2.0**-53


@given(pd_configs(), share_weights)
@settings(max_examples=200, deadline=None)
@example(PdConfig(signal_accuracy=1 / 3), [1.0, 1.0, 1.0])
@example(PdConfig(signal_accuracy=1.0), [0.5, 0.5, 0.0])  # signal 2 is unreachable
@example(PdConfig(signal_accuracy=0.0), [0.0, 0.0, 1.0])  # signal 2 is unreachable
def test_pd_graph_oracle_matches_component_eus_and_solver(config, weights):
    # The signal PD's FDT reasoning as a causal graph, scored by graphs.decide.
    shares = normalized(weights)
    tol = PD_GRAPH_TOL * max(config.cc, config.cd, config.dc, config.dd)
    signal_dists = [oracles.signal_dist(t, config.signal_accuracy) for t in range(3)]
    sent = [any(shares[t] > 0.0 and signal_dists[t][s] > 0.0 for t in range(3)) for s in range(3)]
    normal = [sum(shares[t] * signal_dists[t][s] for t in range(3)) >= 2.0**-900 for s in range(3)]
    for policy in itertools.product("DC", repeat=3):
        for signal in range(3):
            problem = oracles.pd_signal_problem(config, shares, policy, signal)
            if not sent[signal]:  # no posterior on either side
                assert scoring_outcome(graphs.decide, problem, "fdt") is graphs.ZeroProbabilityError
                assert solver_outcome(oracles.library_component_eu, config, shares, policy, signal, "C") \
                    is AllZeroPosteriorError
            if not normal[signal]:
                continue
            eus = graphs.decide(problem, "fdt").expected_utility
            for action in "DC":
                want = oracles.library_component_eu(config, shares, policy, signal, action)
                assert abs(eus[action] - want) <= tol
    # Each component of the solved policy is a best response to within 2 tol,
    # so where the graph chooses otherwise, its two EUs tie.
    policy = solver_outcome(solve_fdt_pd_policy, config, shares)
    if policy is not NoFixedPointError:
        for signal in np.flatnonzero(normal):
            report = graphs.decide(oracles.pd_signal_problem(config, shares, policy, signal), "fdt")
            eus = report.expected_utility
            assert report.chosen == policy[signal] or abs(eus["C"] - eus["D"]) <= 2 * tol


@given(pd_configs(), st.sampled_from([0.0, 1.0]), share_weights, st.integers(0, 2))
@settings(max_examples=200)
def test_perfect_or_useless_signals_about_extinct_types_have_a_policy(config, accuracy, weights, extinct):
    # At p = 1 a signal naming an extinct type is never sent; at p = 0 one
    # naming the only surviving type is never sent. Either has no posterior.
    config = replace(config, signal_accuracy=accuracy)
    shares = normalized(weights[:extinct] + [0.0] + weights[extinct + 1 :])
    policy = solver_outcome(solve_fdt_pd_policy, config, shares)
    assert policy is not AllZeroPosteriorError
    if policy is not NoFixedPointError:
        names = (lambda t, s: t == s) if accuracy == 1.0 else (lambda t, s: t != s)
        sent = [any(shares[t] > 0.0 and names(t, s) for t in range(3)) for s in range(3)]
        assert all(action == "D" for action, reach in zip(policy, sent) if not reach)


# ---------------------------------------------------------------------------
# Weighted draws of births and deaths
# ---------------------------------------------------------------------------

@given(
    arrays(np.float64, st.integers(1, 400), elements=st.just(0.0) | st.floats(1e-9, 1e9)),
    st.booleans(),
    st.integers(1, 400),
    seeds,
)
@settings(max_examples=300)
def test_weighted_draw_matches_numpy_choice(weights, replace_, size, seed):
    assume(weights.sum() > 0.0)
    p = weights / weights.sum()
    size = min(size, np.count_nonzero(p))
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = want_rng.choice(p.size, size=size, replace=replace_, p=p)
    got = evolve._choice(got_rng, p, size, replace_)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert got_rng.random() == want_rng.random()


# ---------------------------------------------------------------------------
# Causal-graph scoring
# ---------------------------------------------------------------------------

cpt_entries = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def decision_problems(draw):
    """A DAG of 2-5 nodes with 2-3 labels each, zero CPT entries, evidence anywhere and a partial utility.

    Each CPT row is normalized. (An all-zero row makes the oracle's recursion
    raise a bare KeyError, where the library gives that branch no weight.)

    Nodes are named so that creation order and sorted order differ, which
    makes the topological order's within-level sort matter.
    """
    n = draw(st.integers(2, 5))
    names = draw(st.permutations("ABCDE"))[:n]
    domains = [("u", "v", "w")[: draw(st.integers(2, 3))] for _ in range(n)]
    parents = [sorted(draw(st.sets(st.integers(0, i - 1), max_size=i))) if i else [] for i in range(n)]
    act = draw(st.integers(0, n - 1))
    dfv = draw(st.none() | st.integers(0, act - 1)) if act else None
    if dfv is not None:
        domains[dfv] = domains[act]
        parents[act] = sorted({*parents[act], dfv})

    def row(size):
        weights = draw(st.lists(cpt_entries, min_size=size, max_size=size).filter(any))
        total = sum(weights)
        return tuple(w / total for w in weights)

    cpts = {
        names[i]: graphs.Cpt(
            names[i],
            tuple(names[j] for j in parents[i]),
            {key: row(len(domains[i])) for key in itertools.product(*(domains[j] for j in parents[i]))},
        )
        for i in range(n)
    }
    outcomes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    keys = list(itertools.product(*(domains[i] for i in outcomes)))
    missing = draw(st.sets(st.sampled_from(keys), max_size=2))
    utility = {key: draw(st.floats(-1e6, 1e6)) for key in keys if key not in missing}
    evidence = {names[i]: draw(st.sampled_from(domains[i])) for i in draw(st.sets(st.integers(0, n - 1), max_size=2))}
    model = graphs.CausalModel(
        tuple(map(graphs.Variable, names, domains)), cpts, tuple(names[i] for i in outcomes), utility
    )
    return graphs.DecisionProblem(model, names[act], None if dfv is None else names[dfv], evidence)


def scoring_outcome(score, *args):
    """The exact bits of the result, or the type of the error raised."""
    try:
        result = score(*args)
    except (ValueError, KeyError) as exc:
        return type(exc)
    if isinstance(result, graphs.EvaluationReport):
        return result.chosen, [(a, eu.hex()) for a, eu in result.expected_utility.items()]
    return result.tobytes()


@given(decision_problems())
@settings(max_examples=400)
def test_graph_scoring_matches_per_action_oracle(problem):
    for theory in graphs.THEORIES:
        assert scoring_outcome(graphs.decide, problem, theory) == scoring_outcome(
            oracles.decide, problem, theory
        )
    model = problem.model
    for var in model.variables:
        assert scoring_outcome(graphs.infer, model, problem.evidence, var.id) == scoring_outcome(
            oracles.infer, model, problem.evidence, var.id
        )
