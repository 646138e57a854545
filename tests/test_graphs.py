from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fdtsim.graphs import (
    CausalModel,
    Cpt,
    DecisionProblem,
    MissingDecisionFunctionError,
    Variable,
    ZeroProbabilityError,
    decide,
    evaluate_cdt,
    evaluate_edt,
    evaluate_fdt,
    infer,
    validate_model,
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
    assert validate_model(chain_model()) == []


def test_validate_catches_unnormalized_row():
    model = chain_model()
    bad = Cpt("A", (), {(): (0.6, 0.6)})
    msgs = validate_model(model.with_cpt(bad))
    assert any("normal" in m.lower() for m in msgs)


def test_validate_catches_dangling_parent():
    model = chain_model()
    bad = Cpt("B", ("Z",), {("yes",): (0.5, 0.5), ("no",): (0.5, 0.5)})
    msgs = validate_model(model.with_cpt(bad))
    assert any("Z" in m for m in msgs)


def test_validate_catches_cycle():
    model = chain_model()
    bad = Cpt("A", ("C",), {("yes",): (0.5, 0.5), ("no",): (0.5, 0.5)})
    msgs = validate_model(model.with_cpt(bad))
    assert any("cycle" in m.lower() for m in msgs)


def test_validate_catches_missing_utility_row():
    model = chain_model()
    broken = CausalModel(model.variables, model.cpts, ("C",), {("yes",): 1.0})
    msgs = validate_model(broken)
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


def make_problem(model, **kwargs):
    return DecisionProblem(model=model, action_var="A", **kwargs)


@pytest.mark.parametrize(
    "scenario, changes, field",
    [
        # Shares the action's domain but is not its parent.
        ("newcomb", dict(decision_fn_var="Prediction"), "decision_fn_var"),
        # A parent of the action with another domain.
        ("parfit", dict(decision_fn_var="Driver"), "decision_fn_var"),
        ("newcomb", dict(decision_fn_var="Decison"), "decision_fn_var"),
        ("newcomb", dict(evidence={"Predicton": "one-box"}), "evidence"),
        ("newcomb", dict(action_var="Choice"), "action_var"),
    ],
)
def test_decision_problem_rejects_broken_invariants(scenario, changes, field):
    with pytest.raises(ValueError, match=field):
        replace(build(scenario), **changes)


def test_edt_equals_cdt_for_root_action():
    # The action node has no parents, so conditioning and intervening agree.
    problem = make_problem(chain_model())
    for action in BOOL:
        assert evaluate_edt(problem, action) == pytest.approx(
            evaluate_cdt(problem, action), abs=1e-12
        )


def test_fdt_requires_decision_function_node():
    with pytest.raises(MissingDecisionFunctionError):
        evaluate_fdt(make_problem(chain_model()), "yes")


def test_unknown_action_rejected():
    with pytest.raises(ValueError):
        evaluate_edt(make_problem(chain_model()), "maybe")


def test_decide_ties_break_to_first_action():
    model = chain_model(p_b_given=(0.5, 0.5))  # action has no effect
    report = decide(make_problem(model), "edt")
    assert report.chosen == "yes"
    assert report.expected_utility["yes"] == pytest.approx(
        report.expected_utility["no"]
    )


def test_decide_rejects_unknown_theory():
    with pytest.raises(ValueError):
        decide(make_problem(chain_model()), "tdt")


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
    for action in BOOL:
        assert evaluate_fdt(problem, action) == pytest.approx(
            evaluate_cdt(problem, action), abs=1e-12
        )


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
