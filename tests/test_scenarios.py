import math

import pytest
from hypothesis import given, settings, strategies as st

from fdtsim.graphs import THEORIES, decide
from fdtsim.scenarios import SCENARIO_IDS, build
from oracles import (
    SCENARIO_PAIRS,
    build_by_constructors,
    model_parts,
    scenario_closed_form,
    scenario_params,
    validate_model,
)

# (scenario, theory) -> expected choice at default parameters
EXPECTED_CHOICES = {
    ("smoking-edt", "edt"): "not-smoke",
    ("smoking-edt", "cdt"): "not-smoke",
    ("smoking-cdt", "edt"): "smoke",
    ("smoking-cdt", "cdt"): "smoke",
    ("smoking-cdt", "fdt"): "smoke",
    ("newcomb", "edt"): "one-box",
    ("newcomb", "cdt"): "two-box",
    ("newcomb", "fdt"): "one-box",
    ("newcomb-transparent", "edt"): "one-box",
    ("newcomb-transparent", "cdt"): "two-box",
    ("newcomb-transparent", "fdt"): "one-box",
    ("parfit", "edt"): "pay",
    ("parfit", "cdt"): "refuse",
    ("parfit", "fdt"): "pay",
    ("twin-pd", "edt"): "C",
    ("twin-pd", "cdt"): "D",
    ("twin-pd", "fdt"): "C",
}


@pytest.mark.parametrize("scenario,theory", sorted(EXPECTED_CHOICES))
def test_default_choices(scenario, theory):
    report = decide(build(scenario), theory)
    assert report.chosen == EXPECTED_CHOICES[(scenario, theory)]


@pytest.mark.parametrize("scenario", sorted(SCENARIO_IDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_models_validate_clean(scenario, data):
    # The library scores the numbers of a model as given, so build alone keeps rows normalized and in [0, 1].
    v = scenario_params(scenario, lambda low, high: data.draw(st.floats(low, high)))
    assert validate_model(*model_parts(build(scenario).model)) == []
    assert validate_model(*model_parts(build(scenario, **v).model)) == []


def test_newcomb_values():
    report = decide(build("newcomb"), "fdt")
    assert report.expected_utility["one-box"] == pytest.approx(990_000.0)
    assert report.expected_utility["two-box"] == pytest.approx(11_000.0)
    # A two-boxing disposition makes the prediction causal history concrete.
    report = decide(build("newcomb", two_box_prior=1.0), "cdt")
    assert report.chosen == "two-box"
    assert report.expected_utility["two-box"] == pytest.approx(11_000.0)


def test_newcomb_transparent_tie_two_boxes():
    # Both FDT EUs are exactly 2.75 here, and a tie goes to the first action.
    report = decide(build("newcomb-transparent", high=3, low=2, accuracy=0.75), "fdt")
    assert report.expected_utility == {"two-box": 2.75, "one-box": 2.75}
    assert report.chosen == "two-box"


def test_parfit_values():
    report = decide(build("parfit"), "fdt")
    assert report.expected_utility["pay"] == pytest.approx(-300_700.0)
    assert report.expected_utility["refuse"] == pytest.approx(-700_000.0)
    report = decide(build("parfit", refuse_prior=1.0), "cdt")
    assert report.chosen == "refuse"
    assert report.expected_utility["refuse"] == pytest.approx(-700_000.0)


def test_twin_pd_rho_sweep_matches_closed_form():
    # EU(C) = rho*CC + (1-rho)*CD; EU(D) = rho*DD + (1-rho)*DC; ties -> C.
    for i in range(0, 1001):
        rho = i / 1000.0
        eu_c = rho * 7 + (1 - rho) * 1
        eu_d = rho * 4 + (1 - rho) * 10
        expected = "C" if eu_c >= eu_d else "D"
        report = decide(build("twin-pd", rho=rho), "fdt")
        assert report.chosen == expected, rho
        assert report.expected_utility["C"] == pytest.approx(eu_c, abs=1e-9)
        assert report.expected_utility["D"] == pytest.approx(eu_d, abs=1e-9)


def test_twin_pd_correlation_threshold():
    assert decide(build("twin-pd", rho=0.8), "fdt").chosen == "C"
    assert decide(build("twin-pd", rho=0.75), "fdt").chosen == "C"  # indifferent
    assert decide(build("twin-pd", rho=0.749), "fdt").chosen == "D"


def test_cdt_defects_for_any_rho():
    for rho in (0.0, 0.5, 0.75, 1.0):
        assert decide(build("twin-pd", rho=rho), "cdt").chosen == "D"


def check_closed_form(scenario, theory, v):
    report = decide(build(scenario, **v), theory)
    expected = scenario_closed_form(scenario, theory, v)
    # The floor at a few ulps keeps the tolerance above 0 when every parameter is subnormal.
    scale = max(abs(u) for u in v.values())
    tol = max(1e-9 * scale, 4 * math.ulp(scale))
    assert tuple(report.expected_utility.values()) == pytest.approx(expected, rel=1e-9, abs=tol)
    if abs(expected[0] - expected[1]) > tol:  # ties go to the first action
        assert report.chosen == build(scenario).actions[expected[1] > expected[0]]


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(SCENARIO_PAIRS), data=st.data())
def test_every_pair_matches_its_closed_form(pair, data):
    # The closed forms are derived from each scenario's graph by hand, so a CPT
    # row listed in the wrong parent order changes some pair's EUs.
    scenario, theory = pair
    v = scenario_params(scenario, lambda low, high: data.draw(st.floats(low, high)))
    check_closed_form(scenario, theory, v)


@pytest.mark.parametrize("theory", ["edt", "cdt", "fdt"])
def test_closed_form_holds_at_subnormal_utilities(theory):
    # EDT's products 0.5 * 5e-324 underflow to 0 where the closed form keeps 5e-324.
    check_closed_form("newcomb-transparent", theory, dict(high=0.0, low=5e-324, accuracy=0.0))


def typed(values):
    """Each value by type and repr, which tell 7 from 7.0."""
    return [(type(x), repr(x)) for x in values]


def exact(problem):
    """``problem``'s structure, and each CPT entry and utility by type and repr."""
    model = problem.model
    tables = [(vid, cpt.child, cpt.parents, [(key, typed(row)) for key, row in cpt.table.items()])
              for vid, cpt in model.cpts.items()]
    return (problem.action_var, problem.decision_fn_var, problem.evidence, model.variables,
            model.outcome_vars, model._domains, tables, list(model.utility), typed(model.utility.values()))


def outcome(fn, *args):
    """``fn(*args)``'s report, with each EU's repr, or the type and message of the error it raises."""
    try:
        report = fn(*args)
    except Exception as error:
        return type(error), str(error)
    return report.chosen, [(action, repr(u)) for action, u in report.expected_utility.items()]


@pytest.mark.parametrize("scenario", sorted(SCENARIO_IDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_build_matches_the_constructors(scenario, data):
    # build refills a template checked once; the oracle runs every constructor on every call.
    v = scenario_params(scenario, lambda low, high: data.draw(st.floats(low, high)))
    for overrides in ({}, v):
        got, want = build(scenario, **overrides), build_by_constructors(scenario, **overrides)
        assert got == want
        assert exact(got) == exact(want)
        for theory in THEORIES:
            assert outcome(decide, got, theory) == outcome(decide, want, theory)


@pytest.mark.parametrize("scenario,overrides", [
    ("newcomb", dict(big_box=1.7e308, small_box=1e308)),
    ("newcomb-transparent", dict(high=1.7e308, low=1e308)),
    ("smoking-edt", dict(smoke_utility=1.7e308, cancer_utility=1.7e308)),
    ("smoking-cdt", dict(smoke_utility=-1.7e308, cancer_utility=-1.7e308)),
])
def test_overflowing_utility_raises_as_the_constructors_do(scenario, overrides):
    with pytest.raises(ValueError) as want:
        build_by_constructors(scenario, **overrides)
    with pytest.raises(ValueError) as got:
        build(scenario, **overrides)
    assert (got.type, str(got.value)) == (want.type, str(want.value))
    assert str(got.value).startswith("utility of outcome (")


def dicts(problem):
    """Every public mapping of ``problem``: its evidence, CPTs, utility and each CPT table."""
    model = problem.model
    return [problem.evidence, model.cpts, model.utility] + [cpt.table for cpt in model.cpts.values()]


@pytest.mark.parametrize("scenario", sorted(SCENARIO_IDS))
def test_builds_share_no_dict(scenario):
    first, second = build(scenario), build(scenario)
    assert not {id(d) for d in dicts(first)} & {id(d) for d in dicts(second)}
