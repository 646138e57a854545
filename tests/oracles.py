"""Reference implementations of the game kernels, kept as test oracles.

These are the straightforward per-round and per-pair versions of the
mechanics in ``fdtsim.games``, and the one-model-per-action scoring of
``fdtsim.graphs``. They draw the same random numbers in the
same order and add each agent's utilities in the same order as the library
kernels, so the tests compare the two for equal bytes and an equal final
generator state, not just equal distributions. The PD analytics here (payoff
table, component EUs, type EUs, policy solver) are scalar loops that share
no code with the library's tables, and the PD agent's choice is also
posed as a causal graph for ``graphs.decide``. The Newcomb choice here is
the closed form that the library takes from the ``newcomb-transparent``
scenario instead. ``build_by_constructors`` builds a one-shot scenario
through the checking constructors on every call, the path that
``scenarios.build`` takes once per scenario. ``validate_model`` lists
every way a hand-built causal model breaks the engine's assumptions; the
library scores a model as given.
"""
import itertools
from dataclasses import replace

import numpy as np

from fdtsim import graphs
from fdtsim.beliefs import posteriors, signal_likelihoods
from fdtsim.graphs import (
    CausalModel,
    Cpt,
    DecisionProblem,
    EvaluationReport,
    MissingDecisionFunctionError,
    Variable,
    ZeroProbabilityError,
)
from fdtsim.games import (
    PD_COOPERATOR,
    PD_DEFECTOR,
    PD_FDT,
    PD_TYPES,
    BEAUTY_CDT,
    BEAUTY_FDT,
    BEAUTY_RANDOM,
    NoFixedPointError,
)
from fdtsim.scenarios import _SCENARIOS, scenario_defaults


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
    post = posteriors(shares, signal_likelihoods(config.signal_accuracy), [signal])[0]
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


def library_component_eu(config, shares, policy, signal, action):
    """The library's EU of answering ``signal`` with ``action``: one entry of ``component_eus``."""
    others = [a == "C" for s, a in enumerate(policy) if s != signal]
    return config._tables.component_eus(shares, [signal])[0][2 * others[0] + others[1]][action == "C"]


def pd_signal_problem(config, shares, policy, signal):
    """An FDT agent's choice on receiving ``signal``, as a causal graph for ``graphs.decide``.

    T is the opponent's type, with ``shares`` as its prior, and S my signal
    about it, observed as ``signal``. DF is my decision function and A, my
    action, copies it. O is the opponent's signal about me, an FDT agent,
    and B the opponent's action: a Defector plays D and a Cooperator C. An
    FDT opponent runs my function, so on O = ``signal`` it plays DF, and on
    any other signal the policy's component for it.
    """
    p, actions = config.signal_accuracy, ("D", "C")
    point = lambda action: tuple(float(a == action) for a in actions)

    def opponent(t, o, df):
        if t != PD_FDT:
            return "C" if t == PD_COOPERATOR else "D"
        return df if o == signal else policy[o]

    cpts = [
        Cpt("T", (), {(): tuple(map(float, shares))}),
        Cpt("S", ("T",), {(PD_TYPES[t],): tuple(map(float, signal_dist(t, p))) for t in range(3)}),
        Cpt("DF", (), {(): (0.5, 0.5)}),
        Cpt("A", ("DF",), {(df,): point(df) for df in actions}),
        Cpt("O", (), {(): tuple(map(float, signal_dist(PD_FDT, p)))}),
        Cpt("B", ("T", "O", "DF"), {
            (PD_TYPES[t], PD_TYPES[o], df): point(opponent(t, o, df))
            for t, o, df in itertools.product(range(3), range(3), actions)
        }),
    ]
    domains = dict(T=PD_TYPES, S=PD_TYPES, DF=actions, A=actions, O=PD_TYPES, B=actions)
    utility = {(a, b): payoff(config, a, b) for a, b in itertools.product(actions, actions)}
    model = CausalModel(
        tuple(itertools.starmap(Variable, domains.items())), {c.child: c for c in cpts}, ("A", "B"), utility
    )
    return DecisionProblem(model, "A", "DF", {"S": PD_TYPES[signal]})


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
    """Every component a best response; one for a signal no agent can send is D instead."""
    for s in range(3):
        if not any(shares[t] * signal_dist(t, config.signal_accuracy)[s] > 0.0 for t in range(3)):
            if policy[s] == "C":
                return False
            continue
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


def pd_play_generation(config, types, policy, rounds, rng):
    """``PdGame.play_generation`` on the kernel above."""
    n = types.size
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

def newcomb_choice(theory, config):
    """A type's would-be choice with both boxes visibly full; a tie two-boxes.

    CDT's act cannot move the prediction, and two-boxing adds ``low`` to
    either one. FDT's choice is what the predictor reads, right with
    probability p.
    """
    if theory == "cdt":
        return "two-box"
    p, high, low = config.accuracy, config.high, config.low
    one_box_eu = p * high + (1.0 - p) * low
    two_box_eu = (1.0 - p) * (high + low) + p * low
    return "one-box" if one_box_eu > two_box_eu else "two-box"


def newcomb_play_round(theory, config, rng):
    """One predictor encounter; returns the realized utility."""
    would_one_box = newcomb_choice(theory, config) == "one-box"
    correct = rng.random() < config.accuracy
    predicted_one_box = would_one_box if correct else not would_one_box
    if not predicted_one_box:
        return config.low
    return config.high if would_one_box else config.high + config.low


def newcomb_play_generation(config, types, choices, rounds, rng):
    """``NewcombGame.play_generation`` as an inline (rounds, N) computation."""
    correct = rng.random((rounds, types.size)) < config.accuracy
    one_box_by_type = np.array([choice == "one-box" for choice in choices])
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

def beauty_play_round(types, decision, config, rng):
    """One whole-population guessing round; the CDT and FDT agents guess ``decision``."""
    types = np.asarray(types)
    if types.size == 0:
        raise ValueError("population is empty")
    cdt_guess, fdt_guess = decision
    guesses = np.empty(types.size)
    random_mask = types == BEAUTY_RANDOM
    guesses[random_mask] = rng.uniform(config.low, config.high, int(random_mask.sum()))
    guesses[types == BEAUTY_CDT] = cdt_guess
    guesses[types == BEAUTY_FDT] = fdt_guess
    target = config.fraction * guesses.mean()
    error = np.abs(target - guesses)
    return np.minimum(config.cap, 1.0 / np.maximum(error, 1.0 / config.cap))


def beauty_play_generation(config, types, decision, rounds, rng):
    """``BeautyGame.play_generation`` as a loop over whole-population rounds."""
    scores = np.zeros(types.size)
    for _ in range(rounds):
        scores += beauty_play_round(types, decision, config, rng)
    return scores


# ---------------------------------------------------------------------------
# Causal-graph scoring, one intervened model and one recursive enumeration per action
# ---------------------------------------------------------------------------

def _point_mass(domain, value):
    return tuple(1.0 if label == value else 0.0 for label in domain)


def _topological_order(model):
    """Kahn's algorithm, with the nodes of each level in sorted order."""
    remaining = {v.id: set(model.cpts[v.id].parents) for v in model.variables}
    order = []
    while remaining:
        free = sorted(vid for vid, deps in remaining.items() if not deps)
        if not free:
            raise ValueError("parent graph contains a cycle")
        for vid in free:
            order.append(vid)
            del remaining[vid]
        for deps in remaining.values():
            deps.difference_update(free)
    return order


def _joint(model):
    """Enumerate all positive-probability full assignments with their weight."""
    order = _topological_order(model)

    def recurse(i, asg, prob):
        if i == len(order):
            yield dict(asg), prob
            return
        vid = order[i]
        cpt = model.cpts[vid]
        row = cpt.table[tuple(asg[p] for p in cpt.parents)]
        for label, p in zip(model.domain(vid), row):
            if p <= 0.0:
                continue
            asg[vid] = label
            yield from recurse(i + 1, asg, prob * p)
        asg.pop(vid, None)  # an all-zero row sets no label: its branch has no weight

    yield from recurse(0, {}, 1.0)


def _condition(model, evidence):
    """The joint's assignments that agree with ``evidence``, and their total weight."""
    kept, total = [], 0.0
    for asg, p in _joint(model):
        if all(asg[k] == v for k, v in evidence.items()):
            kept.append((asg, p))
            total += p
    if total <= 0.0:
        raise ZeroProbabilityError(f"evidence {dict(evidence)} has probability zero")
    return kept, total


def infer(model, evidence, query):
    kept, total = _condition(model, evidence)
    weights = dict.fromkeys(model.domain(query), 0.0)
    for asg, p in kept:
        weights[asg[query]] += p
    return np.array(list(weights.values())) / total


def _expected_utility(model, evidence):
    kept, total = _condition(model, evidence)
    acc = 0.0
    for asg, p in kept:
        outcome = tuple(asg[ov] for ov in model.outcome_vars)
        if outcome not in model.utility:
            raise KeyError(f"no utility entry for outcome {outcome}")
        acc += p * model.utility[outcome]
    return acc / total


def _check_action(problem, action):
    if action not in problem.actions:
        raise ValueError(f"action {action!r} not in domain {problem.actions}")


def evaluate_edt(problem, action):
    _check_action(problem, action)
    return _expected_utility(problem.model, {**problem.evidence, problem.action_var: action})


def evaluate_cdt(problem, action):
    _check_action(problem, action)
    forced = Cpt(problem.action_var, (), {(): _point_mass(problem.actions, action)})
    model = replace(problem.model, cpts={**problem.model.cpts, problem.action_var: forced})
    return _expected_utility(model, problem.evidence)


def evaluate_fdt(problem, action):
    dfv = problem.decision_fn_var
    if dfv is None:
        raise MissingDecisionFunctionError("problem has no decision-function variable")
    _check_action(problem, action)
    forced = Cpt(dfv, (), {(): _point_mass(problem.actions, action)})
    follow = Cpt(
        problem.action_var,
        (dfv,),
        {(v,): _point_mass(problem.actions, v) for v in problem.actions},
    )
    model = replace(problem.model, cpts={**problem.model.cpts, dfv: forced, problem.action_var: follow})
    return _expected_utility(model, problem.evidence)


EVALUATORS = {"edt": evaluate_edt, "cdt": evaluate_cdt, "fdt": evaluate_fdt}


def decide(problem, theory):
    """Score each action on its own model, in domain order; ties go to the first action."""
    eus = {action: EVALUATORS[theory](problem, action) for action in problem.actions}
    chosen = problem.actions[0]
    for action in problem.actions[1:]:
        if eus[action] > eus[chosen]:
            chosen = action
    return EvaluationReport(expected_utility=eus, chosen=chosen)


# ---------------------------------------------------------------------------
# Causal-model diagnostics
# ---------------------------------------------------------------------------

NORMALIZATION_TOL = 1e-9


def validate_model(model: CausalModel) -> list[str]:
    """Return one diagnostic string per invariant violation; empty if valid."""
    diags: list[str] = []
    ids = [v.id for v in model.variables]
    for v in model.variables:
        if len(v.domain) < 2:
            diags.append(f"variable {v.id!r}: domain has fewer than 2 values")
    id_set = set(ids)
    for vid in ids:
        if vid not in model.cpts:
            diags.append(f"variable {vid!r}: missing CPT")
    for child, cpt in model.cpts.items():
        dangling = [p for p in cpt.parents if p not in id_set]
        for p in dangling:
            diags.append(f"variable {child!r}: dangling parent reference {p!r}")
        if dangling:
            continue
        domain = model.domain(child)
        expected_keys = set(itertools.product(*(model.domain(p) for p in cpt.parents)))
        for key in expected_keys - set(cpt.table):
            diags.append(f"variable {child!r}: missing row for parents {key}")
        for key, row in cpt.table.items():
            if key not in expected_keys:
                diags.append(f"variable {child!r}: spurious row {key}")
                continue
            if len(row) != len(domain):
                diags.append(f"variable {child!r}: row {key} has wrong arity")
                continue
            if any(p < 0.0 or p > 1.0 for p in row):
                diags.append(f"variable {child!r}: row {key} has entries outside [0, 1]")
            if abs(sum(row) - 1.0) > NORMALIZATION_TOL:
                diags.append(f"variable {child!r}: row {key} not normalized")
    for ov in model.outcome_vars:
        if ov not in id_set:
            diags.append(f"outcome variable {ov!r} not in model")
    if diags:
        return diags
    try:
        (order, _, _), states = graphs._enumerate(model, {})
    except ValueError:
        return diags + ["cycle in parent graph"]
    # Utility must cover every outcome assignment that can actually occur.
    at = [order.index(ov) for ov in model.outcome_vars]
    reachable = {tuple(asg[i] for i in at) for asg, _ in states}
    for key in sorted(reachable - set(model.utility)):
        diags.append(f"utility table missing reachable outcome {key}")
    return diags


# ---------------------------------------------------------------------------
# One-shot scenarios
# ---------------------------------------------------------------------------

# Every (scenario, theory) pair with an answer; smoking-edt has no decision-function node.
# The ``oneshot`` golden digest iterates this tuple, so a new scenario goes into
# SCENARIO_PAIRS only.
ONESHOT_PAIRS = tuple(
    (scenario, theory)
    for scenario in ("smoking-edt", "smoking-cdt", "newcomb", "parfit", "twin-pd")
    for theory in ("edt", "cdt", "fdt")
    if (scenario, theory) != ("smoking-edt", "fdt")
)
SCENARIO_PAIRS = ONESHOT_PAIRS + tuple(("newcomb-transparent", theory) for theory in ("edt", "cdt", "fdt"))


def scenario_params(scenario, uniform):
    """Overrides for every parameter of ``scenario``, each drawn by ``uniform(low, high)``.

    Priors stay inside (0, 1), so every action EDT conditions on has positive
    probability; the other probabilities may take either end. Twin-PD payoffs
    keep DC > CC > DD > CD.
    """
    prob = lambda: uniform(0.0, 1.0)
    prior = lambda: uniform(0.01, 0.99)
    if scenario in ("smoking-edt", "smoking-cdt"):
        smoke = dict(smoke_prior=prior(), gene_given_smoke=prob(), gene_given_no_smoke=prob())
        return dict(
            smoke if scenario == "smoking-edt" else dict(gene_prior=prob()),
            cancer_given_gene=prob(), cancer_given_no_gene=prob(),
            smoke_utility=uniform(-20.0, 20.0), cancer_utility=uniform(-500.0, 0.0),
        )
    if scenario == "newcomb":
        return dict(accuracy=prob(), big_box=uniform(0.0, 1e7), small_box=uniform(0.0, 1e4),
                    two_box_prior=prior())
    if scenario == "newcomb-transparent":
        return dict(high=uniform(0.0, 1e7), low=uniform(0.0, 1e4), accuracy=prob())
    if scenario == "parfit":
        return dict(accuracy=prob(), payment=uniform(0.0, 1e4), stranded_utility=uniform(-1e7, 0.0),
                    refuse_prior=prior())
    cd = uniform(-10.0, 10.0)
    dd = cd + uniform(0.1, 10.0)
    cc = dd + uniform(0.1, 10.0)
    return dict(rho=prob(), cd=cd, dd=dd, cc=cc, dc=cc + uniform(0.1, 10.0))


def build_by_constructors(scenario, **overrides):
    """``scenarios.build`` with each node, model and problem made by its checking constructor on every call.

    The overrides must pass ``build``'s parameter checks, which this oracle does not repeat.
    """
    row, v = _SCENARIOS[scenario], scenario_defaults(scenario)
    v.update((name, float(value)) for name, value in overrides.items())
    nodes = row.nodes(v)
    domains = {name: domain for name, domain, _, _ in nodes}

    def rows(parents):
        return itertools.product(*map(domains.get, parents))

    cpts = {
        name: Cpt(name, parents, {k: (p, 1.0 - p) for k, p in zip(rows(parents), firsts, strict=True)})
        for name, _, parents, firsts in nodes
    }
    utility = dict(zip(rows(row.outcomes), row.utility(v), strict=True))
    model = CausalModel(tuple(itertools.starmap(Variable, domains.items())), cpts, row.outcomes, utility)
    return DecisionProblem(model, row.action, row.decision_fn)


def scenario_closed_form(scenario, theory, v):
    """Expected utility of each action, in domain order, derived by hand from the scenario's graph."""
    if scenario in ("smoking-edt", "smoking-cdt"):
        # smoking-edt: Smoke -> Gene -> Cancer, so both theories move the gene with the choice.
        # smoking-cdt: Smoke copies a Decision that the gene does not touch.
        def cancer(gene):
            return gene * v["cancer_given_gene"] + (1.0 - gene) * v["cancer_given_no_gene"]

        if scenario == "smoking-edt":
            p_smoke, p_not = cancer(v["gene_given_smoke"]), cancer(v["gene_given_no_smoke"])
        else:
            p_smoke = p_not = cancer(v["gene_prior"])
        return v["smoke_utility"] + v["cancer_utility"] * p_smoke, v["cancer_utility"] * p_not
    if scenario == "newcomb":
        p, big, small = v["accuracy"], v["big_box"], v["small_box"]
        if theory == "cdt":  # the prediction follows the prior disposition, not the act
            q = (1.0 - v["two_box_prior"]) * p + v["two_box_prior"] * (1.0 - p)
            return q * big, q * big + small
        return p * big, (1.0 - p) * (big + small) + p * small
    if scenario == "newcomb-transparent":  # two-box first; facing an empty big box, take low
        p, high, low = v["accuracy"], v["high"], v["low"]
        if theory == "cdt":  # the prediction reads the fair-coin disposition, not the act
            return 0.5 * (high + low) + 0.5 * low, 0.5 * high + 0.5 * low
        return (1.0 - p) * (high + low) + p * low, p * high + (1.0 - p) * low
    if scenario == "parfit":
        p, pay, stranded = v["accuracy"], v["payment"], v["stranded_utility"]
        if theory == "cdt":  # the driver reads the prior disposition, not the act
            drive = (1.0 - v["refuse_prior"]) * p + v["refuse_prior"] * (1.0 - p)
            return -drive * pay + (1.0 - drive) * stranded, (1.0 - drive) * stranded
        return -p * pay + (1.0 - p) * stranded, p * stranded
    rho = v["rho"]
    if theory == "cdt":  # the twin's action is a fair coin whatever rho is
        return (v["cc"] + v["cd"]) / 2.0, (v["dc"] + v["dd"]) / 2.0
    return rho * v["cc"] + (1.0 - rho) * v["cd"], (1.0 - rho) * v["dc"] + rho * v["dd"]
