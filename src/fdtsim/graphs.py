"""Finite-domain causal models with exact enumeration inference.

A candidate action can be scored three ways: by conditioning on it as
evidence (evidential), by forcing it with a do-intervention on the action
node (causal), or by forcing the output of an explicit decision-function
node and propagating to everything downstream of it (functional).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping

import numpy as np

NORMALIZATION_TOL = 1e-9

Assignment = Mapping[str, str]


class ZeroProbabilityError(ValueError):
    """Conditioning on evidence whose total probability is zero."""


class MissingDecisionFunctionError(ValueError):
    """Functional evaluation requested on a problem without a decision-function node."""


@dataclass(frozen=True)
class Variable:
    id: str
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(self.domain))


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table for one variable.

    ``table`` maps each full parent assignment (a tuple of value labels in
    ``parents`` order; the empty tuple for roots) to a probability vector
    over the child's domain.
    """

    child: str
    parents: tuple[str, ...]
    table: Mapping[tuple[str, ...], tuple[float, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(
            self,
            "table",
            {tuple(k): tuple(v) for k, v in self.table.items()},
        )


@dataclass(frozen=True)
class CausalModel:
    """Variables, one CPT per variable, and a utility over outcome variables."""

    variables: tuple[Variable, ...]
    cpts: Mapping[str, Cpt]
    outcome_vars: tuple[str, ...]
    utility: Mapping[tuple[str, ...], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "outcome_vars", tuple(self.outcome_vars))
        object.__setattr__(self, "cpts", dict(self.cpts))
        object.__setattr__(
            self, "utility", {tuple(k): float(v) for k, v in self.utility.items()}
        )

    def variable(self, var_id: str) -> Variable:
        for v in self.variables:
            if v.id == var_id:
                return v
        raise KeyError(f"no variable {var_id!r} in model")

    def domain(self, var_id: str) -> tuple[str, ...]:
        return self.variable(var_id).domain

    def with_cpt(self, cpt: Cpt) -> "CausalModel":
        cpts = dict(self.cpts)
        cpts[cpt.child] = cpt
        return replace(self, cpts=cpts)


@dataclass(frozen=True)
class DecisionProblem:
    """A causal model plus the action node to decide and optional evidence.

    ``decision_fn_var`` names the node standing for the agent's own decision
    procedure; it must share the action variable's domain and be listed among
    the action variable's parents.
    """

    model: CausalModel
    action_var: str
    decision_fn_var: str | None = None
    evidence: Assignment = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "evidence", dict(self.evidence))
        ids = {v.id for v in self.model.variables}
        if self.action_var not in ids:
            raise ValueError(f"action_var {self.action_var!r} is not a variable of the model")
        dfv = self.decision_fn_var
        if dfv is not None and not (
            dfv in ids
            and self.model.domain(dfv) == self.actions
            and dfv in self.model.cpts[self.action_var].parents
        ):
            raise ValueError(
                f"decision_fn_var {dfv!r} must be a parent of action_var "
                f"{self.action_var!r} with the same domain {self.actions}"
            )
        if not ids.issuperset(self.evidence):
            raise ValueError(f"evidence names unknown variables {sorted(set(self.evidence) - ids)}")

    @property
    def actions(self) -> tuple[str, ...]:
        return self.model.domain(self.action_var)


@dataclass(frozen=True)
class EvaluationReport:
    """Per-action expected utilities plus the chosen (argmax) action.

    Ties go to the action listed first in the action variable's domain.
    """

    expected_utility: Mapping[str, float]
    chosen: str


def _point_mass(domain: tuple[str, ...], value: str) -> tuple[float, ...]:
    return tuple(1.0 if label == value else 0.0 for label in domain)


def _topological_order(model: CausalModel) -> list[str]:
    """Kahn's algorithm; raises ValueError if the parent graph has a cycle."""
    remaining = {v.id: set(model.cpts[v.id].parents) for v in model.variables}
    order: list[str] = []
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


def _joint(model: CausalModel) -> Iterator[tuple[dict[str, str], float]]:
    """Enumerate all positive-probability full assignments with their weight."""
    order = _topological_order(model)

    def recurse(i: int, asg: dict[str, str], prob: float):
        if i == len(order):
            yield dict(asg), prob
            return
        vid = order[i]
        cpt = model.cpts[vid]
        key = tuple(asg[p] for p in cpt.parents)
        row = cpt.table[key]
        for label, p in zip(model.domain(vid), row):
            if p <= 0.0:
                continue
            asg[vid] = label
            yield from recurse(i + 1, asg, prob * p)
        del asg[vid]

    yield from recurse(0, {}, 1.0)


def validate_model(model: CausalModel) -> list[str]:
    """Return one diagnostic string per invariant violation; empty if valid."""
    diags: list[str] = []
    ids = [v.id for v in model.variables]
    if len(set(ids)) != len(ids):
        diags.append("duplicate variable ids")
    for v in model.variables:
        if len(v.domain) < 2:
            diags.append(f"variable {v.id!r}: domain has fewer than 2 values")
        if len(set(v.domain)) != len(v.domain):
            diags.append(f"variable {v.id!r}: duplicate domain labels")
    id_set = set(ids)
    for vid in ids:
        if vid not in model.cpts:
            diags.append(f"variable {vid!r}: missing CPT")
    for child, cpt in model.cpts.items():
        if child not in id_set:
            diags.append(f"CPT references unknown variable {child!r}")
            continue
        dangling = [p for p in cpt.parents if p not in id_set]
        for p in dangling:
            diags.append(f"variable {child!r}: dangling parent reference {p!r}")
        if dangling:
            continue
        domain = model.domain(child)
        expected_keys = set(
            itertools.product(*(model.domain(p) for p in cpt.parents))
        )
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
        _topological_order(model)
    except ValueError:
        return diags + ["cycle in parent graph"]
    # Utility must cover every outcome assignment that can actually occur.
    reachable = {
        tuple(asg[ov] for ov in model.outcome_vars) for asg, _ in _joint(model)
    }
    for key in sorted(reachable - set(model.utility)):
        diags.append(f"utility table missing reachable outcome {key}")
    return diags


def _condition(model: CausalModel, evidence: Assignment) -> tuple[list[tuple[dict, float]], float]:
    """The joint's assignments that agree with ``evidence``, and their total weight."""
    kept, total = [], 0.0
    for asg, p in _joint(model):
        if all(asg[k] == v for k, v in evidence.items()):
            kept.append((asg, p))
            total += p
    if total <= 0.0:
        raise ZeroProbabilityError(f"evidence {dict(evidence)} has probability zero")
    return kept, total


def infer(model: CausalModel, evidence: Assignment, query: str) -> np.ndarray:
    """Exact posterior over ``query``'s domain by full-joint enumeration."""
    domain = model.domain(query)
    kept, total = _condition(model, evidence)
    weights = dict.fromkeys(domain, 0.0)
    for asg, p in kept:
        weights[asg[query]] += p
    return np.array([weights[label] for label in domain]) / total


def _expected_utility(model: CausalModel, evidence: Assignment) -> float:
    kept, total = _condition(model, evidence)
    acc = 0.0
    for asg, p in kept:
        outcome = tuple(asg[ov] for ov in model.outcome_vars)
        if outcome not in model.utility:
            raise KeyError(f"no utility entry for outcome {outcome}")
        acc += p * model.utility[outcome]
    return acc / total


def _check_action(problem: DecisionProblem, action: str) -> None:
    if action not in problem.actions:
        raise ValueError(
            f"action {action!r} not in domain {problem.actions} of {problem.action_var!r}"
        )


def evaluate_edt(problem: DecisionProblem, action: str) -> float:
    """Expected utility of conditioning on the action as plain evidence."""
    _check_action(problem, action)
    evidence = dict(problem.evidence)
    evidence[problem.action_var] = action
    return _expected_utility(problem.model, evidence)


def evaluate_cdt(problem: DecisionProblem, action: str) -> float:
    """Expected utility after forcing the action node (parents severed)."""
    _check_action(problem, action)
    model = problem.model
    domain = model.domain(problem.action_var)
    forced = Cpt(problem.action_var, (), {(): _point_mass(domain, action)})
    return _expected_utility(model.with_cpt(forced), problem.evidence)


def evaluate_fdt(problem: DecisionProblem, action: str) -> float:
    """Expected utility after forcing the decision-function node's output.

    The action node keeps only the decision-function node as parent and
    copies its value; every other descendant of the decision-function node
    updates through its unchanged CPT.
    """
    dfv = problem.decision_fn_var
    if dfv is None:
        raise MissingDecisionFunctionError(
            "problem has no decision-function variable; functional evaluation undefined"
        )
    _check_action(problem, action)
    model = problem.model
    dfv_domain = model.domain(dfv)
    model = model.with_cpt(Cpt(dfv, (), {(): _point_mass(dfv_domain, action)}))
    action_domain = model.domain(problem.action_var)
    follow = Cpt(
        problem.action_var,
        (dfv,),
        {(v,): _point_mass(action_domain, v) for v in dfv_domain},
    )
    return _expected_utility(model.with_cpt(follow), problem.evidence)


_EVALUATORS = {"edt": evaluate_edt, "cdt": evaluate_cdt, "fdt": evaluate_fdt}
THEORIES = tuple(sorted(_EVALUATORS))


def decide(problem: DecisionProblem, theory: str) -> EvaluationReport:
    """Evaluate every action under ``theory`` and pick the argmax.

    Ties break toward the action listed first in the action domain.
    """
    try:
        evaluator = _EVALUATORS[theory.lower()]
    except KeyError:
        raise ValueError(f"unknown theory {theory!r}; expected one of {sorted(_EVALUATORS)}")
    eus = {action: evaluator(problem, action) for action in problem.actions}
    chosen = problem.actions[0]
    for action in problem.actions[1:]:
        if eus[action] > eus[chosen]:
            chosen = action
    return EvaluationReport(expected_utility=eus, chosen=chosen)
