"""Builders for the worked one-shot decision problems.

Each builder returns a ready-to-evaluate DecisionProblem with the canonical
numbers as defaults; any numeric default can be overridden by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .graphs import CausalModel, Cpt, DecisionProblem, Variable

SCENARIO_IDS = ("smoking-edt", "smoking-cdt", "newcomb", "parfit", "twin-pd")


class ScenarioError(ValueError):
    """Unknown scenario id or invalid parameter override."""


@dataclass(frozen=True)
class ScenarioParams:
    scenario: str
    overrides: Mapping[str, float] = field(default_factory=dict)


_DEFAULTS: dict[str, dict[str, float]] = {
    "smoking-edt": {
        "smoke_prior": 0.5,
        "gene_given_smoke": 0.75,
        "gene_given_no_smoke": 0.10,
        "cancer_given_gene": 0.8,
        "cancer_given_no_gene": 0.2,
        "smoke_utility": 5.0,
        "cancer_utility": -100.0,
    },
    "smoking-cdt": {
        "gene_prior": 0.5,
        "cancer_given_gene": 0.8,
        "cancer_given_no_gene": 0.2,
        "smoke_utility": 5.0,
        "cancer_utility": -100.0,
    },
    "newcomb": {
        "accuracy": 0.99,
        "big_box": 1_000_000.0,
        "small_box": 1_000.0,
        "two_box_prior": 0.5,
    },
    "parfit": {
        "accuracy": 0.7,
        "payment": 1_000.0,
        "stranded_utility": -1_000_000.0,
        "refuse_prior": 0.5,
    },
    "twin-pd": {
        "rho": 1.0,
        "cc": 7.0,
        "cd": 1.0,
        "dc": 10.0,
        "dd": 4.0,
    },
}

_PROBABILITY_PARAMS = {
    "smoke_prior",
    "gene_given_smoke",
    "gene_given_no_smoke",
    "cancer_given_gene",
    "cancer_given_no_gene",
    "gene_prior",
    "accuracy",
    "two_box_prior",
    "refuse_prior",
    "rho",
}


def scenario_defaults(scenario: str) -> dict[str, float]:
    try:
        return dict(_DEFAULTS[scenario])
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {scenario!r}; expected one of {SCENARIO_IDS}"
        ) from None


def _resolve_params(params: ScenarioParams) -> dict[str, float]:
    values = scenario_defaults(params.scenario)
    for name, value in params.overrides.items():
        if name not in values:
            raise ScenarioError(
                f"scenario {params.scenario!r} has no parameter {name!r}; "
                f"valid names: {sorted(values)}"
            )
        values[name] = float(value)
    for name in values:
        if not math.isfinite(values[name]):
            raise ScenarioError(f"parameter {name!r} must be finite, got {values[name]}")
        if name in _PROBABILITY_PARAMS and not 0.0 <= values[name] <= 1.0:
            raise ScenarioError(f"parameter {name!r} must be a probability, got {values[name]}")
    if params.scenario == "twin-pd":
        v = values
        if not (v["dc"] > v["cc"] > v["dd"] > v["cd"]):
            raise ScenarioError(
                "twin-pd payoffs must satisfy DC > CC > DD > CD, got "
                f"DC={v['dc']} CC={v['cc']} DD={v['dd']} CD={v['cd']}"
            )
    return values


def _binary_cpt(child, parents, p_first_by_row):
    """CPT for a two-valued child: p_first_by_row maps row key -> P(first label)."""
    return Cpt(child, parents, {k: (p, 1.0 - p) for k, p in p_first_by_row.items()})


def _smoking_edt(v: dict[str, float]) -> DecisionProblem:
    variables = (
        Variable("Smoke", ("smoke", "not-smoke")),
        Variable("Gene", ("gene", "no-gene")),
        Variable("Cancer", ("cancer", "no-cancer")),
    )
    cpts = {
        "Smoke": _binary_cpt("Smoke", (), {(): v["smoke_prior"]}),
        "Gene": _binary_cpt(
            "Gene",
            ("Smoke",),
            {("smoke",): v["gene_given_smoke"], ("not-smoke",): v["gene_given_no_smoke"]},
        ),
        "Cancer": _binary_cpt(
            "Cancer",
            ("Gene",),
            {("gene",): v["cancer_given_gene"], ("no-gene",): v["cancer_given_no_gene"]},
        ),
    }
    utility = {
        (s, c): v["smoke_utility"] * (s == "smoke") + v["cancer_utility"] * (c == "cancer")
        for s in ("smoke", "not-smoke")
        for c in ("cancer", "no-cancer")
    }
    model = CausalModel(variables, cpts, ("Smoke", "Cancer"), utility)
    return DecisionProblem(model, action_var="Smoke")


def _smoking_cdt(v: dict[str, float]) -> DecisionProblem:
    actions = ("smoke", "not-smoke")
    variables = (
        Variable("Gene", ("gene", "no-gene")),
        Variable("Decision", actions),
        Variable("Smoke", actions),
        Variable("Cancer", ("cancer", "no-cancer")),
    )
    smoke_rows = {
        (g, d): (1.0 if d == "smoke" else 0.0)
        for g in ("gene", "no-gene")
        for d in actions
    }
    cpts = {
        "Gene": _binary_cpt("Gene", (), {(): v["gene_prior"]}),
        "Decision": _binary_cpt("Decision", (), {(): 0.5}),
        "Smoke": _binary_cpt("Smoke", ("Gene", "Decision"), smoke_rows),
        "Cancer": _binary_cpt(
            "Cancer",
            ("Gene",),
            {("gene",): v["cancer_given_gene"], ("no-gene",): v["cancer_given_no_gene"]},
        ),
    }
    utility = {
        (s, c): v["smoke_utility"] * (s == "smoke") + v["cancer_utility"] * (c == "cancer")
        for s in actions
        for c in ("cancer", "no-cancer")
    }
    model = CausalModel(variables, cpts, ("Smoke", "Cancer"), utility)
    return DecisionProblem(model, action_var="Smoke", decision_fn_var="Decision")


def _newcomb(v: dict[str, float]) -> DecisionProblem:
    actions = ("one-box", "two-box")
    p = v["accuracy"]
    variables = (
        Variable("Decision", actions),
        Variable("Action", actions),
        Variable("Prediction", actions),
    )
    cpts = {
        "Decision": _binary_cpt("Decision", (), {(): 1.0 - v["two_box_prior"]}),
        "Action": _binary_cpt(
            "Action", ("Decision",), {("one-box",): 1.0, ("two-box",): 0.0}
        ),
        "Prediction": _binary_cpt(
            "Prediction", ("Decision",), {("one-box",): p, ("two-box",): 1.0 - p}
        ),
    }
    big, small = v["big_box"], v["small_box"]
    utility = {
        ("one-box", "one-box"): big,
        ("one-box", "two-box"): 0.0,
        ("two-box", "one-box"): big + small,
        ("two-box", "two-box"): small,
    }
    model = CausalModel(variables, cpts, ("Action", "Prediction"), utility)
    return DecisionProblem(model, action_var="Action", decision_fn_var="Decision")


def _parfit(v: dict[str, float]) -> DecisionProblem:
    actions = ("pay", "refuse")
    p = v["accuracy"]
    variables = (
        Variable("Decision", actions),
        Variable("Driver", ("drive", "leave")),
        Variable("Pay", actions),
    )
    pay_rows = {
        (d, dr): (1.0 if d == "pay" else 0.0)
        for d in actions
        for dr in ("drive", "leave")
    }
    cpts = {
        "Decision": _binary_cpt("Decision", (), {(): 1.0 - v["refuse_prior"]}),
        "Driver": _binary_cpt("Driver", ("Decision",), {("pay",): p, ("refuse",): 1.0 - p}),
        "Pay": _binary_cpt("Pay", ("Decision", "Driver"), pay_rows),
    }
    utility = {
        ("pay", "drive"): -v["payment"],
        ("refuse", "drive"): 0.0,
        ("pay", "leave"): v["stranded_utility"],
        ("refuse", "leave"): v["stranded_utility"],
    }
    model = CausalModel(variables, cpts, ("Pay", "Driver"), utility)
    return DecisionProblem(model, action_var="Pay", decision_fn_var="Decision")


def _twin_pd(v: dict[str, float]) -> DecisionProblem:
    actions = ("C", "D")
    rho = v["rho"]
    variables = (
        Variable("Decision", actions),
        Variable("A1", actions),
        Variable("A2", actions),
    )
    cpts = {
        "Decision": _binary_cpt("Decision", (), {(): 0.5}),
        "A1": _binary_cpt("A1", ("Decision",), {("C",): 1.0, ("D",): 0.0}),
        # The twin copies the shared function's output with probability rho,
        # otherwise plays the opposite action.
        "A2": _binary_cpt("A2", ("Decision",), {("C",): rho, ("D",): 1.0 - rho}),
    }
    utility = {
        ("C", "C"): v["cc"],
        ("C", "D"): v["cd"],
        ("D", "C"): v["dc"],
        ("D", "D"): v["dd"],
    }
    model = CausalModel(variables, cpts, ("A1", "A2"), utility)
    return DecisionProblem(model, action_var="A1", decision_fn_var="Decision")


_BUILDERS = {
    "smoking-edt": _smoking_edt,
    "smoking-cdt": _smoking_cdt,
    "newcomb": _newcomb,
    "parfit": _parfit,
    "twin-pd": _twin_pd,
}


def build_scenario(params: ScenarioParams) -> DecisionProblem:
    """Build the decision problem named by ``params.scenario``."""
    values = _resolve_params(params)
    return _BUILDERS[params.scenario](values)


def build(scenario: str, **overrides: float) -> DecisionProblem:
    """Convenience wrapper around :func:`build_scenario`."""
    return build_scenario(ScenarioParams(scenario, overrides))
