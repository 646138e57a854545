"""Finite-domain causal models with exact enumeration inference.

A candidate action can be scored three ways: by conditioning on it as
evidence (evidential), by forcing it with a do-intervention on the action
node (causal), or by forcing the output of an explicit decision-function
node and propagating to everything downstream of it (functional).
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

Assignment = Mapping[str, str]


def _is_finite_number(value) -> bool:
    """A real number, not a bool, that is neither NaN nor infinite nor beyond the float range."""
    if type(value) is float:  # the common case, without the slow abstract-class check below
        return math.isfinite(value)
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float, such as 10**400
        return False


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
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"variable {self.id!r} repeats a domain label: {self.domain}")


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table for one variable.

    ``table`` maps each full parent assignment (a tuple of value labels in
    ``parents`` order; the empty tuple for roots) to a probability vector
    over the child's domain. It is a read-only view of a private copy.
    """

    child: str
    parents: tuple[str, ...]
    table: Mapping[tuple[str, ...], tuple[float, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        table = {}
        for key, row in self.table.items():
            if not all(map(math.isfinite, row := tuple(row))):
                raise ValueError(f"variable {self.child!r}: row {tuple(key)} has a non-finite entry: {row}")
            table[tuple(key)] = row
        object.__setattr__(self, "table", MappingProxyType(table))


@dataclass(frozen=True)
class CausalModel:
    """Variables, one CPT per variable, and a utility over outcome variables.

    ``cpts`` and ``utility`` are read-only views of private copies, and each
    CPT row has its variable's domain's length, so a built model stays checked.
    """

    variables: tuple[Variable, ...]
    cpts: Mapping[str, Cpt]
    outcome_vars: tuple[str, ...]
    utility: Mapping[tuple[str, ...], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "outcome_vars", tuple(self.outcome_vars))
        object.__setattr__(self, "cpts", MappingProxyType(dict(self.cpts)))
        utility = {}
        for key, value in self.utility.items():
            if not math.isfinite(value := float(value)):
                raise ValueError(f"utility of outcome {tuple(key)} is not finite: {value}")
            utility[tuple(key)] = value
        object.__setattr__(self, "utility", MappingProxyType(utility))
        object.__setattr__(self, "_domains", {v.id: v.domain for v in self.variables})
        object.__setattr__(self, "_plans", {})
        if len(self._domains) != len(self.variables):
            ids = [v.id for v in self.variables]
            repeated = next(var_id for var_id in ids if ids.count(var_id) > 1)
            raise ValueError(f"variable {repeated!r} appears more than once in the model")
        for key, cpt in self.cpts.items():
            if key not in self._domains:
                raise ValueError(f"a CPT is filed under {key!r}, which is not a variable of the model")
            if cpt.child != key:
                raise ValueError(f"variable {key!r} holds the CPT of {cpt.child!r} in the model")
            arity = len(self._domains[key])
            for row_key, row in cpt.table.items():
                if len(row) != arity:
                    raise ValueError(f"variable {key!r}: row {row_key} has wrong arity")

    def domain(self, var_id: str) -> tuple[str, ...]:
        try:
            return self._domains[var_id]
        except KeyError:
            raise KeyError(f"no variable {var_id!r} in model") from None


@dataclass(frozen=True)
class DecisionProblem:
    """A causal model plus the action node to decide and optional evidence.

    ``decision_fn_var`` names the node standing for the agent's own decision
    procedure; it must share the action variable's domain and be listed among
    the action variable's parents. ``evidence`` is a read-only copy.
    """

    model: CausalModel
    action_var: str
    decision_fn_var: str | None = None
    evidence: Assignment = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "evidence", MappingProxyType(dict(self.evidence)))
        if self.action_var not in self.model._domains:
            raise ValueError(f"action_var {self.action_var!r} is not a variable of the model")
        if self.action_var not in self.model.cpts:
            raise ValueError(f"variable {self.action_var!r} has no CPT")
        dfv = self.decision_fn_var
        if dfv is not None and not (
            dfv in self.model._domains
            and self.model.domain(dfv) == self.actions
            and dfv in self.model.cpts[self.action_var].parents
        ):
            raise ValueError(
                f"decision_fn_var {dfv!r} must be a parent of action_var "
                f"{self.action_var!r} with the same domain {self.actions}"
            )
        _check_evidence(self.model, self.evidence)

    @property
    def actions(self) -> tuple[str, ...]:
        return self.model.domain(self.action_var)


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given, skipping ``__post_init__``."""
    (obj := object.__new__(cls)).__dict__.update(fields)
    return obj


def _refilled(template: DecisionProblem, rows: Iterable[tuple[float, ...]],
              utilities: Iterable[float]) -> DecisionProblem:
    """A fresh copy of ``template``, without evidence, with new CPT rows and utilities in its order.

    ``rows`` runs through every CPT's rows, table after table. Only the
    utilities are checked, as ``CausalModel`` checks them: the caller
    vouches that each row is a finite tuple of floats as long as its domain.
    The copy has the template's structure, so it shares its enumeration plans.
    """
    model, rows = template.model, iter(rows)
    # zip stops at a table's last key before it takes a row, so each table takes only its own rows.
    cpts = {vid: _unchecked(Cpt, child=vid, parents=cpt.parents,
                            table=MappingProxyType(dict(zip(cpt.table, rows))))
            for vid, cpt in model.cpts.items()}
    utility = dict(zip(model.utility, utilities))
    for key, value in utility.items():
        if not math.isfinite(value):
            raise ValueError(f"utility of outcome {key} is not finite: {value}")
    model = _unchecked(CausalModel, variables=model.variables, cpts=MappingProxyType(cpts),
                       outcome_vars=model.outcome_vars, utility=MappingProxyType(utility),
                       _domains=model._domains, _plans=model._plans)
    return _unchecked(DecisionProblem, model=model, action_var=template.action_var,
                      decision_fn_var=template.decision_fn_var, evidence=MappingProxyType({}))


@dataclass(frozen=True)
class EvaluationReport:
    """Per-action expected utilities plus the chosen (argmax) action.

    Ties go to the action listed first in the action variable's domain.
    """

    expected_utility: Mapping[str, float]
    chosen: str


def _check_evidence(model: CausalModel, evidence: Assignment) -> None:
    """Raise ValueError unless each evidence entry is a variable of ``model`` and a label of its domain."""
    for var, label in evidence.items():
        if (domain := model._domains.get(var)) is None:
            raise ValueError(f"evidence names unknown variable {var!r}")
        if label not in domain:
            raise ValueError(f"evidence label {label!r} is not in the domain {domain} of {var!r}")


def _key_getter(pos: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """A function from an assignment to its labels at ``pos``, as a tuple: ``()`` for no position."""
    if len(pos) > 1:
        return operator.itemgetter(*pos)
    return (lambda asg, i=pos[0]: (asg[i],)) if pos else (lambda asg: ())


def _new_plan(model: CausalModel, intervention: tuple[str, str | None] | None) -> tuple:
    """``model``'s enumeration plan as it is (``intervention`` None), with CDT's (action, None) forced
    or with FDT's (action, decision-function node) forced: the node becomes a root with weight 1.0 on
    each label, and under FDT the action copies it.

    The plan is the topological order (Kahn's algorithm, each level sorted);
    per node in it, its id, its CPT row-key getter, the (index, label) pairs
    of its domain and its forced table or None; and the getter of an
    assignment's outcome labels, None if an outcome variable is not in the
    model. Raises ValueError on a missing CPT, a dangling parent or a cycle.
    """
    forced = {}
    if intervention is not None:
        act, dfv = intervention
        ones = {(): (1.0,) * len(actions := model.domain(act))}
        forced = {act: Cpt(act, (), ones)}
        if dfv is not None:
            copy = {(v,): tuple(float(w == v) for w in actions) for v in actions}
            forced = {dfv: Cpt(dfv, (), ones), act: Cpt(act, (dfv,), copy)}
    try:
        parents = {vid: (forced.get(vid) or model.cpts[vid]).parents for vid in model._domains}
    except KeyError as missing:
        raise ValueError(f"variable {missing.args[0]!r} has no CPT") from None
    remaining = {vid: set(deps) for vid, deps in parents.items()}
    order: list[str] = []
    while remaining:
        free = sorted(vid for vid, deps in remaining.items() if not deps)
        if not free:
            if dangling := next(((vid, p) for vid in parents for p in parents[vid] if p not in parents), None):
                raise ValueError("variable {!r}: dangling parent reference {!r}".format(*dangling))
            raise ValueError("parent graph contains a cycle")
        order += free
        remaining = {vid: deps.difference(free) for vid, deps in remaining.items() if deps}
    at = {vid: i for i, vid in enumerate(order)}
    levels = tuple((vid, _key_getter(tuple(map(at.get, parents[vid]))), tuple(enumerate(model._domains[vid])),
                    forced[vid].table if vid in forced else None) for vid in order)
    outcomes = tuple(map(at.get, model.outcome_vars))
    return tuple(order), levels, None if None in outcomes else _key_getter(outcomes)


def _enumerate(model: CausalModel, evidence: Assignment,
               intervention: tuple[str, str | None] | None = None) -> tuple[tuple, list]:
    """``model``'s plan under ``intervention`` (see ``_new_plan``), and each full assignment that agrees
    with ``evidence``: a tuple of labels in the plan's order, with the product of its CPT entries.

    The model makes each plan on first use and keeps only those that
    succeed, so a broken structure raises on every call. Assignments come
    in lexicographic order of (node in topological order, label in domain
    order); a branch ends at the first entry that is not positive or the
    first label that contradicts the evidence. A missing row that an
    assignment reaches raises ValueError naming the variable.
    """
    if (plan := model._plans.get(intervention)) is None:
        plan = model._plans[intervention] = _new_plan(model, intervention)
    states: list[tuple[tuple[str, ...], float]] = [((), 1.0)]
    for vid, row_key, labels, table in plan[1]:  # the levels, in topological order
        table = model.cpts[vid].table if table is None else table
        if vid in evidence:
            labels = [(j, label) for j, label in labels if label == evidence[vid]]
        try:
            states = [
                (asg + (label,), prob * row[j])
                for asg, prob in states
                for row in (table[row_key(asg)],)
                for j, label in labels
                if not row[j] <= 0.0
            ]
        except KeyError as missing:
            raise ValueError(f"variable {vid!r}: missing row for parents {missing.args[0]}") from None
    return plan, states


def infer(model: CausalModel, evidence: Assignment, query: str) -> np.ndarray:
    """Exact posterior over ``query``'s domain by full-joint enumeration."""
    _check_evidence(model, evidence)
    if query not in model._domains:
        raise ValueError(f"query names unknown variable {query!r}")
    (order, _, _), states = _enumerate(model, evidence)
    at, domain = order.index(query), model.domain(query)
    weights, total = dict.fromkeys(domain, 0.0), 0.0
    for asg, p in states:
        weights[asg[at]] += p
        total += p
    if total <= 0.0:
        raise ZeroProbabilityError(f"evidence {dict(evidence)} has probability zero")
    return np.array([weights[label] for label in domain]) / total


def _scores(problem: DecisionProblem, theory: str) -> dict[str, float]:
    """Every action's expected utility under ``theory``; raises the first unscorable action's error.

    One enumeration serves all actions. EDT drops any evidence on the action
    and splits the joint by action label. CDT makes the action node a root,
    and FDT the decision-function node (the action copies it), with weight
    1.0 on every label. As ``x * 1.0 == x``, each action's assignments keep
    the order and the products of enumerating the model forced to that
    action alone, so each action's sums are the same to the last bit.
    """
    model, act, actions, utility = problem.model, problem.action_var, problem.actions, problem.model.utility
    evidence, intervention = problem.evidence, None
    if theory == "edt":
        if act in evidence:
            evidence = {var: label for var, label in evidence.items() if var != act}
    elif theory == "fdt" and problem.decision_fn_var is None:
        raise MissingDecisionFunctionError(
            "problem has no decision-function variable; functional evaluation undefined"
        )
    else:
        intervention = (act, problem.decision_fn_var if theory == "fdt" else None)
    (order, _, outcome_key), states = _enumerate(model, evidence, intervention)
    if outcome_key is None:
        unknown = next(ov for ov in model.outcome_vars if ov not in order)
        raise ValueError(f"outcome variable {unknown!r} not in model")
    at = order.index(act)
    totals, accs, missing = dict.fromkeys(actions, 0.0), dict.fromkeys(actions, 0.0), {}
    for asg, p in states:
        action, outcome = asg[at], outcome_key(asg)
        totals[action] += p
        if (u := utility.get(outcome)) is None:
            missing.setdefault(action, outcome)
        else:
            accs[action] += p * u
    for action in actions:
        if totals[action] <= 0.0:
            raise ZeroProbabilityError(
                f"action {action!r} with evidence {dict(evidence)} has probability zero")
        if action in missing:
            raise KeyError(f"no utility entry for outcome {missing[action]}")
        accs[action] /= totals[action]
    return accs


THEORIES = ("cdt", "edt", "fdt")


def decide(problem: DecisionProblem, theory: str) -> EvaluationReport:
    """Evaluate every action under ``theory`` and pick the argmax.

    Ties break toward the action listed first in the action domain. If an
    action cannot be scored, the error of the first such action is raised.
    """
    if (name := theory.lower() if isinstance(theory, str) else None) not in THEORIES:
        raise ValueError(f"unknown theory {theory!r}; expected one of {list(THEORIES)}")
    eus = _scores(problem, name)
    # max keeps the first of equal maxima, as it replaces only on a strictly greater EU.
    return EvaluationReport(expected_utility=eus, chosen=max(problem.actions, key=eus.__getitem__))
