"""The worked one-shot decision problems, as one table.

Each row of ``_SCENARIOS`` holds everything about one problem: its default
parameters and which of them are probabilities, any extra check, its nodes,
its outcome variables and utilities, and its action and decision-function
variables. ``build`` checks the parameters and refills the row's template,
its DecisionProblem at the defaults, built and checked once. Adding a
scenario means adding one row.
"""
from __future__ import annotations

import functools
import itertools
from typing import Callable, NamedTuple

from .graphs import CausalModel, Cpt, DecisionProblem, Variable, _is_finite_number, _refilled


class ScenarioError(ValueError):
    """Unknown scenario id or invalid parameter override."""


class _Scenario(NamedTuple):
    defaults: dict[str, float]
    probabilities: tuple[str, ...]
    # Each node is (name, domain, parents, P(first label) for each parent row
    # in itertools.product order); every domain has two labels.
    nodes: Callable[[dict], tuple]
    outcomes: tuple[str, ...]
    utility: Callable[[dict], tuple]  # one value per outcome row, in product order
    action: str
    decision_fn: str | None = None
    check: Callable[[dict], str] = lambda v: ""  # what is wrong with the values, if anything


_SMOKE, _GENE, _CANCER = ("smoke", "not-smoke"), ("gene", "no-gene"), ("cancer", "no-cancer")
_BOXES, _PAY = ("one-box", "two-box"), ("pay", "refuse")


def _smoking_utility(v: dict) -> tuple:
    smoke, cancer = v["smoke_utility"], v["cancer_utility"]
    return smoke + cancer, smoke, cancer, 0.0


_SCENARIOS = {
    "smoking-edt": _Scenario(
        defaults=dict(smoke_prior=0.5, gene_given_smoke=0.75, gene_given_no_smoke=0.10,
                      cancer_given_gene=0.8, cancer_given_no_gene=0.2,
                      smoke_utility=5.0, cancer_utility=-100.0),
        probabilities=("smoke_prior", "gene_given_smoke", "gene_given_no_smoke",
                       "cancer_given_gene", "cancer_given_no_gene"),
        nodes=lambda v: (
            ("Smoke", _SMOKE, (), (v["smoke_prior"],)),
            ("Gene", _GENE, ("Smoke",), (v["gene_given_smoke"], v["gene_given_no_smoke"])),
            ("Cancer", _CANCER, ("Gene",), (v["cancer_given_gene"], v["cancer_given_no_gene"])),
        ),
        outcomes=("Smoke", "Cancer"),
        utility=_smoking_utility,
        action="Smoke",
    ),
    "smoking-cdt": _Scenario(
        defaults=dict(gene_prior=0.5, cancer_given_gene=0.8, cancer_given_no_gene=0.2,
                      smoke_utility=5.0, cancer_utility=-100.0),
        probabilities=("gene_prior", "cancer_given_gene", "cancer_given_no_gene"),
        nodes=lambda v: (
            ("Gene", _GENE, (), (v["gene_prior"],)),
            ("Decision", _SMOKE, (), (0.5,)),
            ("Smoke", _SMOKE, ("Gene", "Decision"), (1.0, 0.0, 1.0, 0.0)),
            ("Cancer", _CANCER, ("Gene",), (v["cancer_given_gene"], v["cancer_given_no_gene"])),
        ),
        outcomes=("Smoke", "Cancer"),
        utility=_smoking_utility,
        action="Smoke",
        decision_fn="Decision",
    ),
    "newcomb": _Scenario(
        defaults=dict(accuracy=0.99, big_box=1_000_000.0, small_box=1_000.0, two_box_prior=0.5),
        probabilities=("accuracy", "two_box_prior"),
        nodes=lambda v: (
            ("Decision", _BOXES, (), (1.0 - v["two_box_prior"],)),
            ("Action", _BOXES, ("Decision",), (1.0, 0.0)),
            ("Prediction", _BOXES, ("Decision",), (v["accuracy"], 1.0 - v["accuracy"])),
        ),
        outcomes=("Action", "Prediction"),
        utility=lambda v: (v["big_box"], 0.0, v["big_box"] + v["small_box"], v["small_box"]),
        action="Action",
        decision_fn="Decision",
    ),
    # The Newcomb game's choice with both boxes in view: an agent facing an
    # empty big box takes low. Two-box comes first, so a tie two-boxes.
    "newcomb-transparent": _Scenario(
        defaults=dict(high=10_000.0, low=1_000.0, accuracy=0.99),
        probabilities=("accuracy",),
        nodes=lambda v: (
            ("Decision", _BOXES[::-1], (), (0.5,)),
            ("Action", _BOXES[::-1], ("Decision",), (1.0, 0.0)),
            ("Prediction", _BOXES[::-1], ("Decision",), (v["accuracy"], 1.0 - v["accuracy"])),
        ),
        outcomes=("Action", "Prediction"),
        utility=lambda v: (v["low"], v["high"] + v["low"], v["low"], v["high"]),
        action="Action",
        decision_fn="Decision",
    ),
    "parfit": _Scenario(
        defaults=dict(accuracy=0.7, payment=1_000.0, stranded_utility=-1_000_000.0, refuse_prior=0.5),
        probabilities=("accuracy", "refuse_prior"),
        nodes=lambda v: (
            ("Decision", _PAY, (), (1.0 - v["refuse_prior"],)),
            ("Driver", ("drive", "leave"), ("Decision",), (v["accuracy"], 1.0 - v["accuracy"])),
            ("Pay", _PAY, ("Decision", "Driver"), (1.0, 1.0, 0.0, 0.0)),
        ),
        outcomes=("Pay", "Driver"),
        utility=lambda v: (-v["payment"], v["stranded_utility"], 0.0, v["stranded_utility"]),
        action="Pay",
        decision_fn="Decision",
    ),
    "twin-pd": _Scenario(
        defaults=dict(rho=1.0, cc=7.0, cd=1.0, dc=10.0, dd=4.0),
        probabilities=("rho",),
        nodes=lambda v: (
            ("Decision", ("C", "D"), (), (0.5,)),
            ("A1", ("C", "D"), ("Decision",), (1.0, 0.0)),
            # The twin copies the shared function's output with probability rho,
            # otherwise plays the opposite action.
            ("A2", ("C", "D"), ("Decision",), (v["rho"], 1.0 - v["rho"])),
        ),
        outcomes=("A1", "A2"),
        utility=lambda v: (v["cc"], v["cd"], v["dc"], v["dd"]),
        action="A1",
        decision_fn="Decision",
        check=lambda v: "" if v["dc"] > v["cc"] > v["dd"] > v["cd"] else (
            "payoffs must satisfy DC > CC > DD > CD, got "
            f"DC={v['dc']} CC={v['cc']} DD={v['dd']} CD={v['cd']}"
        ),
    ),
}

SCENARIO_IDS = tuple(_SCENARIOS)


def scenario_defaults(scenario: str) -> dict[str, float]:
    """A copy of ``scenario``'s default parameters by name: the overrides ``build`` accepts."""
    if not isinstance(scenario, str) or scenario not in _SCENARIOS:
        raise ScenarioError(f"unknown scenario {scenario!r}; expected one of {SCENARIO_IDS}")
    return dict(_SCENARIOS[scenario].defaults)


def build(scenario: str, **overrides: float) -> DecisionProblem:
    """The decision problem ``scenario``, with any of its default parameters overridden by name."""
    v = scenario_defaults(scenario)
    row = _SCENARIOS[scenario]
    for name, value in overrides.items():
        if name not in v:
            raise ScenarioError(f"scenario {scenario!r} has no parameter {name!r}; valid names: {sorted(v)}")
        if not _is_finite_number(value):
            raise ScenarioError(f"parameter {name!r} must be a finite number, got {value!r}")
        v[name] = float(value)
    for name in row.probabilities:
        if not 0.0 <= v[name] <= 1.0:
            raise ScenarioError(f"parameter {name!r} must be a probability, got {v[name]}")
    if problem := row.check(v):
        raise ScenarioError(f"{scenario} {problem}")
    # Each p is a finite probability, so every row is finite and only the utilities need a check.
    rows = [(p, 1.0 - p) for _, _, _, firsts in row.nodes(v) for p in firsts]
    return _refilled(_template(scenario), rows, row.utility(v))


@functools.cache
def _template(scenario: str) -> DecisionProblem:
    """``scenario`` at its defaults, built once by the checking constructors.

    No structure depends on the parameter values, so ``build`` refills this
    problem's CPT rows and utilities, in product order, with new numbers.
    """
    row = _SCENARIOS[scenario]
    nodes = row.nodes(row.defaults)
    domains = {name: domain for name, domain, _, _ in nodes}

    def rows(parents):
        return itertools.product(*map(domains.get, parents))

    cpts = {
        name: Cpt(name, parents, {k: (p, 1.0 - p) for k, p in zip(rows(parents), firsts, strict=True)})
        for name, _, parents, firsts in nodes
    }
    utility = dict(zip(rows(row.outcomes), row.utility(row.defaults), strict=True))
    model = CausalModel(tuple(itertools.starmap(Variable, domains.items())), cpts, row.outcomes, utility)
    return DecisionProblem(model, row.action, row.decision_fn)
