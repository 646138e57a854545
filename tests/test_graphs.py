import ast
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fdtsim
import oracles
from fdtsim import graphs
from fdtsim.graphs import (
    CausalModel,
    Cpt,
    DecisionProblem,
    MissingDecisionFunctionError,
    Variable,
    ZeroProbabilityError,
    decide,
    infer,
)
from fdtsim.scenarios import build

BOOL = ("yes", "no")


def chain_model(p_a=0.3, p_b_given=(0.9, 0.2), p_c_given=(0.8, 0.1)):
    """A -> B -> C, all binary, with a utility on C."""
    return CausalModel(
        variables=(
            Variable("A", BOOL),
            Variable("B", BOOL),
            Variable("C", BOOL),
        ),
        cpts={
            "A": Cpt("A", (), {(): (p_a, 1 - p_a)}),
            "B": Cpt("B", ("A",), {
                ("yes",): (p_b_given[0], 1 - p_b_given[0]),
                ("no",): (p_b_given[1], 1 - p_b_given[1]),
            }),
            "C": Cpt("C", ("B",), {
                ("yes",): (p_c_given[0], 1 - p_c_given[0]),
                ("no",): (p_c_given[1], 1 - p_c_given[1]),
            }),
        },
        outcome_vars=("C",),
        utility={("yes",): 10.0, ("no",): 0.0},
    )


def test_validate_clean_model():
    assert oracles.validate_model(chain_model()) == []


def test_validate_catches_unnormalized_row():
    model = chain_model()
    bad = Cpt("A", (), {(): (0.6, 0.6)})
    msgs = oracles.validate_model(replace(model, cpts={**model.cpts, bad.child: bad}))
    assert any("normal" in m.lower() for m in msgs)


def test_validate_catches_dangling_parent():
    model = chain_model()
    bad = Cpt("B", ("Z",), {("yes",): (0.5, 0.5), ("no",): (0.5, 0.5)})
    msgs = oracles.validate_model(replace(model, cpts={**model.cpts, bad.child: bad}))
    assert any("Z" in m for m in msgs)


def test_validate_catches_cycle():
    model = chain_model()
    bad = Cpt("A", ("C",), {("yes",): (0.5, 0.5), ("no",): (0.5, 0.5)})
    msgs = oracles.validate_model(replace(model, cpts={**model.cpts, bad.child: bad}))
    assert any("cycle" in m.lower() for m in msgs)


def test_validate_catches_missing_utility_row():
    model = chain_model()
    broken = CausalModel(model.variables, model.cpts, ("C",), {("yes",): 1.0})
    msgs = oracles.validate_model(broken)
    assert any("utility" in m.lower() for m in msgs)


def test_infer_matches_hand_computation():
    # P(B=yes) = 0.3*0.9 + 0.7*0.2 = 0.41
    post = infer(chain_model(), {}, "B")
    assert post[0] == pytest.approx(0.41, abs=1e-12)

    # Bayes flip: P(A=yes | B=yes) = 0.27 / 0.41
    post = infer(chain_model(), {"B": "yes"}, "A")
    assert post[0] == pytest.approx(0.27 / 0.41, abs=1e-12)


def test_infer_rejects_zero_probability_evidence():
    model = chain_model(p_b_given=(1.0, 1.0))
    with pytest.raises(ZeroProbabilityError):
        infer(model, {"B": "no"}, "A")


@pytest.mark.parametrize(
    "evidence, query, message",
    [
        ({"Nope": "x"}, "Action", "unknown variable 'Nope'"),
        ({}, "Nope", "unknown variable 'Nope'"),
        # A label outside the domain is a bad input, not evidence of probability zero.
        ({"Action": "three-box"}, "Action", "'three-box' is not in the domain"),
    ],
)
def test_infer_rejects_evidence_or_query_outside_the_model(evidence, query, message):
    with pytest.raises(ValueError, match=message) as info:
        infer(build("newcomb").model, evidence, query)
    assert not isinstance(info.value, ZeroProbabilityError)


def make_problem(model, **kwargs):
    return DecisionProblem(model=model, action_var="A", **kwargs)


def model_without_cpt(scenario, var):
    model = build(scenario).model
    return replace(model, cpts={vid: cpt for vid, cpt in model.cpts.items() if vid != var})


@pytest.mark.parametrize(
    "scenario, changes, field",
    [
        # Shares the action's domain but is not its parent.
        ("newcomb", dict(decision_fn_var="Prediction"), "decision_fn_var"),
        # A parent of the action with another domain.
        ("parfit", dict(decision_fn_var="Driver"), "decision_fn_var"),
        ("newcomb", dict(decision_fn_var="Decison"), "decision_fn_var"),
        ("newcomb", dict(evidence={"Predicton": "one-box"}), "evidence"),
        ("newcomb", dict(evidence={"Prediction": "three-box"}), "evidence"),
        ("newcomb", dict(action_var="Choice"), "action_var"),
        ("newcomb", dict(model=model_without_cpt("newcomb", "Action")), "'Action' has no CPT"),
    ],
)
def test_decision_problem_rejects_broken_invariants(scenario, changes, field):
    with pytest.raises(ValueError, match=field):
        replace(build(scenario), **changes)


def test_repeated_domain_label_is_rejected_naming_the_variable():
    # Scored as given, Prediction = ("one-box", "one-box") made FDT two-box in Newcomb's problem.
    prediction = build("newcomb").model.variables[2]
    with pytest.raises(ValueError, match="'Prediction' repeats a domain label"):
        replace(prediction, domain=("one-box", "one-box"))


def test_repeated_variable_id_is_rejected_naming_the_variable():
    # Scored as given, the second Prediction was dropped without a word.
    model = build("newcomb").model
    with pytest.raises(ValueError, match="'Prediction' appears more than once"):
        replace(model, variables=model.variables + (Variable("Prediction", BOOL),))


def test_cpt_filed_under_another_variable_is_rejected_naming_both():
    # Scored as given, each CPT stood in for the variable of its dict key.
    variables = (Variable("A", BOOL), Variable("B", BOOL))
    cpts = {
        "A": Cpt("B", (), {(): (0.3, 0.7)}),
        "B": Cpt("A", ("A",), {("yes",): (1.0, 0.0), ("no",): (0.0, 1.0)}),
    }
    with pytest.raises(ValueError, match="variable 'A' holds the CPT of 'B'"):
        CausalModel(variables, cpts, ("B",), {("yes",): 1.0, ("no",): 0.0})


def test_cpt_filed_under_a_missing_variable_is_rejected_naming_it():
    # Kept as given, the orphan CPT was never read: FDT still scored one-box at 990000.0.
    model = build("newcomb").model
    cpts = {**model.cpts, "Ghost": Cpt("Ghost", ("Nope",), {("x",): (1.0,)})}
    with pytest.raises(ValueError, match="CPT is filed under 'Ghost', which is not a variable"):
        replace(model, cpts=cpts)


def test_edt_equals_cdt_for_root_action():
    # The action node has no parents, so conditioning and intervening agree.
    problem = make_problem(chain_model())
    edt, cdt = (decide(problem, theory).expected_utility for theory in ("edt", "cdt"))
    for action in BOOL:
        assert edt[action] == pytest.approx(cdt[action], abs=1e-12)


def test_fdt_requires_decision_function_node():
    with pytest.raises(MissingDecisionFunctionError):
        decide(make_problem(chain_model()), "fdt")


def test_decide_ties_break_to_first_action():
    model = chain_model(p_b_given=(0.5, 0.5))  # action has no effect
    report = decide(make_problem(model), "edt")
    assert report.chosen == "yes"
    assert report.expected_utility["yes"] == pytest.approx(
        report.expected_utility["no"]
    )


def action_only_problem(prior, utility):
    """A single root action whose own label is the outcome."""
    model = CausalModel((Variable("A", BOOL),), {"A": Cpt("A", (), {(): prior})}, ("A",), utility)
    return make_problem(model)


@pytest.mark.parametrize(
    "prior, utility, error, message",
    [
        # "no" has probability zero, though "yes" alone would score.
        ((1.0, 0.0), {("yes",): 1.0, ("no",): 2.0}, ZeroProbabilityError, "'no'"),
        # "yes" lacks a utility entry, though "no" alone would score.
        ((0.5, 0.5), {("no",): 2.0}, KeyError, "'yes'"),
        # Both fail; the error is that of the first action in domain order.
        ((0.0, 1.0), {("yes",): 1.0}, ZeroProbabilityError, "'yes'"),
        ((1.0, 0.0), {("no",): 2.0}, KeyError, "'yes'"),
    ],
)
def test_decide_raises_the_first_unscorable_actions_error(prior, utility, error, message):
    with pytest.raises(error, match=message):
        decide(action_only_problem(prior, utility), "edt")


@pytest.mark.parametrize("theory", ["tdt", None, 3])
def test_decide_rejects_unknown_theory(theory):
    with pytest.raises(ValueError, match="unknown theory"):
        decide(make_problem(chain_model()), theory)


def test_variable_without_cpt_is_named():
    problem = replace(build("newcomb"), model=model_without_cpt("newcomb", "Prediction"))
    for theory in ("edt", "cdt", "fdt"):
        with pytest.raises(ValueError, match="'Prediction' has no CPT"):
            decide(problem, theory)
    with pytest.raises(ValueError, match="'Prediction' has no CPT"):
        infer(problem.model, {}, "Action")


NEWCOMB = build("newcomb")
PREDICTION_ROWS = NEWCOMB.model.cpts["Prediction"].table


def with_prediction(parents, table):
    """The Newcomb model with another Prediction CPT."""
    return replace(NEWCOMB.model, cpts={**NEWCOMB.model.cpts, "Prediction": Cpt("Prediction", parents, table)})


# Each malformed model's reads raise a ValueError naming the variable at
# fault, worded as oracles.validate_model's diagnostic. infer reads no outcome variable.
MALFORMED = {
    "missing-row": (
        with_prediction(("Decision",), {("one-box",): PREDICTION_ROWS[("one-box",)]}),
        "variable 'Prediction': missing row for parents ('two-box',)",
    ),
    "short-row": (
        with_prediction(("Decision",), {key: row[:1] for key, row in PREDICTION_ROWS.items()}),
        "variable 'Prediction': row ('one-box',) has wrong arity",
    ),
    "long-row": (
        with_prediction(("Decision",), {key: row + (0.0,) for key, row in PREDICTION_ROWS.items()}),
        "variable 'Prediction': row ('one-box',) has wrong arity",
    ),
    "dangling-parent": (
        with_prediction(("Decison",), PREDICTION_ROWS),
        "variable 'Prediction': dangling parent reference 'Decison'",
    ),
    "unknown-outcome": (
        replace(NEWCOMB.model, outcome_vars=("Action", "Predicton")),
        "outcome variable 'Predicton' not in model",
    ),
}


@pytest.mark.parametrize("case, scorer", [
    (case, scorer)
    for case in sorted(MALFORMED)
    for scorer in ("edt", "cdt", "fdt", "infer")
    if (case, scorer) != ("unknown-outcome", "infer")
])
def test_malformed_model_raises_value_error_naming_the_variable(case, scorer):
    model, message = MALFORMED[case]
    assert message in oracles.validate_model(model)
    with pytest.raises(ValueError) as info:
        if scorer == "infer":
            infer(model, {}, "Action")
        else:
            decide(replace(NEWCOMB, model=model), scorer)
    assert str(info.value) == message and type(info.value) is ValueError


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse(Path(fdtsim.__file__).read_text())
    imported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(fdtsim.__all__) == sorted(imported)
    for name in fdtsim.__all__:
        assert getattr(fdtsim, name) is not None


def reversed_chain_model():
    """``chain_model``'s ids and numbers with every edge reversed: C -> B -> A."""
    model = chain_model()
    flip = {
        "A": Cpt("A", ("B",), model.cpts["B"].table),
        "B": Cpt("B", ("C",), model.cpts["C"].table),
        "C": Cpt("C", (), model.cpts["A"].table),
    }
    return replace(model, cpts=flip)


def test_same_ids_under_other_edges_get_their_own_order():
    orders = []
    for model in (chain_model(), reversed_chain_model()):
        order, _ = graphs._enumerate(model, model.cpts, {})
        orders.append(order)
        problem = make_problem(model)
        for theory in ("edt", "cdt"):
            assert decide(problem, theory) == oracles.decide(problem, theory)
        for query in ("A", "B", "C"):
            posterior = infer(model, {"A": "yes"}, query)
            assert posterior.tobytes() == oracles.infer(model, {"A": "yes"}, query).tobytes()
    assert orders == [("A", "B", "C"), ("C", "B", "A")]


def test_cached_structure_is_immutable():
    order, row_keys = graphs._structure((("A", ()), ("C", ("B", "A")), ("B", ("A",))))
    assert order == ("A", "B", "C") and isinstance(order, tuple) and isinstance(row_keys, tuple)
    # Each getter gives the node's parent labels in its CPT's parent order: 0, 1 and 2 parents.
    asg = ("a", "b", "c")
    assert [key(asg) for key in row_keys] == [tuple(asg[i] for i in pos) for pos in ((), (0,), (1, 0))]


def test_cycle_raises_on_every_call():
    model = chain_model()
    bad = Cpt("A", ("C",), {("yes",): (0.5, 0.5), ("no",): (0.5, 0.5)})
    cyclic = replace(model, cpts={**model.cpts, "A": bad})
    for _ in range(3):
        with pytest.raises(ValueError, match="cycle"):
            infer(cyclic, {}, "B")
        with pytest.raises(ValueError, match="cycle"):
            decide(make_problem(cyclic), "edt")


def test_cached_plan_holds_only_tuples_with_the_evidence_labels_in_domain_order():
    shape = (("A", ()), ("C", ("B", "A")), ("B", ("A",)))
    order, plan = graphs._plan(shape, (("x", "y", "z"), ("p", "q", "r"), ("u", "v")), (("C", "r"),))
    assert order == ("A", "B", "C") and [level[2] for level in plan] == list(graphs._structure(shape)[1])
    assert type(plan) is tuple and all(type(level) is tuple and type(level[3]) is tuple for level in plan)
    assert all(type(pair) is tuple for level in plan for pair in level[3])
    assert [(vid, arity, labels) for vid, arity, _, labels in plan] == [
        ("A", 3, ((0, "x"), (1, "y"), (2, "z"))),
        ("B", 2, ((0, "u"), (1, "v"))),
        ("C", 3, ((2, "r"),)),
    ]


def test_structure_caches_stay_bounded():
    caches = (graphs._structure, graphs._interventions, graphs._plan, graphs._readers)
    for i in range(max(cache.cache_info().maxsize for cache in caches) + 10):
        var = f"V{i}"
        model = CausalModel(
            (Variable(var, BOOL),), {var: Cpt(var, (), {(): (0.5, 0.5)})}, (var,), {("yes",): 1.0, ("no",): 0.0}
        )
        assert decide(DecisionProblem(model, var), "cdt").chosen == "yes"
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize == info.maxsize  # full, and no fuller


@given(shift=st.floats(-1e4, 1e4, allow_nan=False), seed=st.integers(0, 10_000))
def test_argmax_invariant_under_utility_shift(shift, seed):
    rng = np.random.default_rng(seed)
    p_a = rng.uniform(0.05, 0.95)
    pb = rng.uniform(0.05, 0.95, size=2)
    pc = rng.uniform(0.05, 0.95, size=2)
    base = chain_model(p_a, tuple(pb), tuple(pc))
    shifted = CausalModel(
        base.variables,
        base.cpts,
        base.outcome_vars,
        {k: v + shift for k, v in base.utility.items()},
    )
    for theory in ("edt", "cdt"):
        before = decide(make_problem(base), theory)
        after = decide(make_problem(shifted), theory)
        assert before.chosen == after.chosen


@given(seed=st.integers(0, 10_000))
def test_fdt_equals_cdt_when_decision_node_has_single_dependent(seed):
    # Decision -> Action only: the functional intervention and the plain
    # do() on the action move exactly the same mass.
    rng = np.random.default_rng(seed)
    p_o = rng.uniform(0.05, 0.95, size=2)
    model = CausalModel(
        variables=(
            Variable("Decision", BOOL),
            Variable("Action", BOOL),
            Variable("Outcome", BOOL),
        ),
        cpts={
            "Decision": Cpt("Decision", (), {(): (0.5, 0.5)}),
            "Action": Cpt("Action", ("Decision",), {
                ("yes",): (1.0, 0.0),
                ("no",): (0.0, 1.0),
            }),
            "Outcome": Cpt("Outcome", ("Action",), {
                ("yes",): (p_o[0], 1 - p_o[0]),
                ("no",): (p_o[1], 1 - p_o[1]),
            }),
        },
        outcome_vars=("Outcome",),
        utility={("yes",): 3.0, ("no",): -2.0},
    )
    problem = DecisionProblem(
        model=model, action_var="Action", decision_fn_var="Decision"
    )
    fdt, cdt = (decide(problem, theory).expected_utility for theory in ("fdt", "cdt"))
    for action in BOOL:
        assert fdt[action] == pytest.approx(cdt[action], abs=1e-12)


@given(seed=st.integers(0, 10_000))
def test_posteriors_normalized(seed):
    rng = np.random.default_rng(seed)
    model = chain_model(
        rng.uniform(0.05, 0.95),
        tuple(rng.uniform(0.05, 0.95, size=2)),
        tuple(rng.uniform(0.05, 0.95, size=2)),
    )
    for query in ("A", "B", "C"):
        post = infer(model, {"C": "yes"}, query)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)
        assert (post >= 0).all()


def chain_with(**tables):
    """``chain_model`` with the CPT tables of some of its variables replaced."""
    model = chain_model()
    cpts = {vid: Cpt(vid, model.cpts[vid].parents, table) for vid, table in tables.items()}
    return replace(model, cpts={**model.cpts, **cpts})


ERROR_ORDER = {
    # B's missing row is reached (A keeps both labels); C's short row comes later in the order.
    "missing-row-before-later-arity": (
        chain_with(B={("yes",): (0.9, 0.1)}, C={("yes",): (0.8,), ("no",): (0.1, 0.9)}),
        "variable 'B': missing row for parents ('no',)",
    ),
    # A's all-zero row leaves no assignment alive, yet C's rows are still checked.
    "arity-after-pruned-root": (
        chain_with(A={(): (0.0, 0.0)}, C={("yes",): (0.8,), ("no",): (0.1, 0.9)}),
        "variable 'C': row ('yes',) has wrong arity",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_ORDER))
@pytest.mark.parametrize("scorer", ["edt", "infer"])
def test_malformed_rows_raise_in_topological_order(case, scorer):
    model, message = ERROR_ORDER[case]
    with pytest.raises(ValueError) as info:
        if scorer == "infer":
            infer(model, {}, "C")
        else:
            decide(make_problem(model), scorer)
    assert str(info.value) == message and type(info.value) is ValueError


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_cpt_entry_or_utility_is_rejected_naming_where(value):
    # Scored as given, a Prediction row of (nan, 0.5) gave EDT NaN for one-box, and still chose it.
    with pytest.raises(ValueError, match=r"^variable 'Prediction': row \('one-box',\) has a non-finite entry"):
        with_prediction(("Decision",), {**PREDICTION_ROWS, ("one-box",): (value, 0.5)})
    with pytest.raises(ValueError, match=r"^utility of outcome \('one-box', 'two-box'\) is not finite"):
        replace(NEWCOMB.model, utility={**NEWCOMB.model.utility, ("one-box", "two-box"): value})


def test_deep_deterministic_chain_keeps_only_the_live_states():
    # Decision -> Action -> N02 -> ... -> N23, each a copy of its parent: 2 live assignments per
    # level, where a plan over the unpruned product would hold 2**24.
    names = ["Decision", "Action"] + [f"N{i:02d}" for i in range(2, 24)]
    copy = {("yes",): (1.0, 0.0), ("no",): (0.0, 1.0)}
    cpts = {names[0]: Cpt(names[0], (), {(): (0.5, 0.5)})}
    cpts.update((child, Cpt(child, (parent,), copy)) for parent, child in zip(names, names[1:]))
    variables = tuple(Variable(name, BOOL) for name in names)
    model = CausalModel(variables, cpts, (names[-1],), {("yes",): 1.0, ("no",): 0.0})
    problem = DecisionProblem(model, "Action", "Decision")
    tracemalloc.start()
    try:
        reports = [decide(problem, theory) for theory in graphs.THEORIES]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [report.expected_utility for report in reports] == [{"yes": 1.0, "no": 0.0}] * 3
    assert peak < 1_000_000
