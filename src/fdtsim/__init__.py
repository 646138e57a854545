"""Decision-theory simulator: one-shot causal scenarios and evolutionary games."""

__version__ = "0.1.0"

from .graphs import (
    CausalModel,
    Cpt,
    DecisionProblem,
    EvaluationReport,
    Variable,
    decide,
    infer,
)
from .scenarios import SCENARIO_IDS, build

__all__ = [
    "CausalModel",
    "Cpt",
    "DecisionProblem",
    "EvaluationReport",
    "SCENARIO_IDS",
    "Variable",
    "build",
    "decide",
    "infer",
]
