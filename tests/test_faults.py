"""Every bad input that the library refuses, as one table.

``FAULTS`` maps a case name to a call, the exception type it must raise and
its message. The type must be exact, so a subclass such as
``ZeroProbabilityError`` cannot stand in for a plain ``ValueError``, nor the
reverse. The message, ``exc.args[0]``, must equal the row's in full; a
``Prefix`` gives only its start, where the end differs across the supported
Python or numpy versions. A new bad input is one more row. The CLI's
failures are rows of ``FAILURES`` in ``tests/test_cli.py``.
"""
import importlib
import inspect
import math
import pkgutil
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fdtsim
import oracles
from fdtsim.evolve import NonPositiveScoreError, Population, repopulate
from fdtsim.experiments import ExperimentConfig
from fdtsim.games import (
    BeautyConfig,
    BeautyGame,
    NewcombConfig,
    PdConfig,
    beauty_guesses,
    pd_expected_utilities,
    pd_play_many,
    solve_fdt_pd_policy,
)
from fdtsim.graphs import (
    CausalModel,
    Cpt,
    MissingDecisionFunctionError,
    Variable,
    ZeroProbabilityError,
    decide,
    infer,
)
from fdtsim.scenarios import ScenarioError, build, scenario_defaults
from test_config import VALID, pd_dict
from test_evolve import config as loop_config
from test_graphs import BOOL, chain_model, chain_parts, make_problem
from test_oracles import decision_problems


class Prefix(str):
    """The start of a message whose end differs across the supported Python or numpy versions."""


NEWCOMB = build("newcomb")
PREDICTION_ROWS = NEWCOMB.model.cpts["Prediction"].table
ONE_BOX_ROW = "variable 'Prediction': row ('one-box',) has a non-finite entry: "
ONE_TWO_UTILITY = "utility of outcome ('one-box', 'two-box') is not finite: "
KNOWN_SCENARIOS = ("expected one of ('smoking-edt', 'smoking-cdt', 'newcomb', 'newcomb-transparent', 'parfit',"
                   " 'twin-pd')")
SHARES = "initial_shares must be 3 finite, nonnegative numbers that sum to 1, got "
# Every reader of a share vector refuses these with the one message, apart from the name it gives.
BAD_SHARES = {"nan": ([math.nan, 0.5, 0.5], "[nan, 0.5, 0.5]"), "inf": ([0.5, 0.5, math.inf], "[0.5, 0.5, inf]"),
              "zeros": ([0.0, 0.0, 0.0], "[0.0, 0.0, 0.0]"), "negative": ([-0.5, 1.0, 0.5], "[-0.5, 1.0, 0.5]"),
              "sum-1.5": ([0.5, 0.5, 0.5], "[0.5, 0.5, 0.5]"), "two": ([0.5, 0.5], "[0.5, 0.5]"),
              "four": ([0.25] * 4, "[0.25, 0.25, 0.25, 0.25]")}
SHARE_READERS = {"solver": partial(solve_fdt_pd_policy, PdConfig()),
                 "beauty": lambda shares: beauty_guesses(shares, BeautyConfig()),
                 "pd-eus": lambda shares: pd_expected_utilities(PdConfig(), shares, ("D", "D", "C"))}
PD_POLICIES = ("[('D', 'D', 'D'), ('D', 'D', 'C'), ('D', 'C', 'D'), ('D', 'C', 'C'), ('C', 'D', 'D'),"
               " ('C', 'D', 'C'), ('C', 'C', 'D'), ('C', 'C', 'C')]")


def with_prediction(parents, table):
    """The Newcomb model with another Prediction CPT."""
    return replace(NEWCOMB.model, cpts={**NEWCOMB.model.cpts, "Prediction": Cpt("Prediction", parents, table)})


def with_prediction_row(row):
    return with_prediction(("Decision",), {**PREDICTION_ROWS, ("one-box",): row})


def with_utility(value):
    return replace(NEWCOMB.model, utility={**NEWCOMB.model.utility, ("one-box", "two-box"): value})


def without_cpt(scenario, var):
    model = build(scenario).model
    return replace(model, cpts={vid: cpt for vid, cpt in model.cpts.items() if vid != var})


def chain_with(**tables):
    """``chain_model`` with the CPT tables of some of its variables replaced."""
    model = chain_model()
    cpts = {vid: Cpt(vid, model.cpts[vid].parents, table) for vid, table in tables.items()}
    return replace(model, cpts={**model.cpts, **cpts})


def decide_action_only(prior, utility):
    """EDT on a single root action whose own label is the outcome."""
    model = CausalModel((Variable("A", BOOL),), {"A": Cpt("A", (), {(): prior})}, ("A",), utility)
    return decide(make_problem(model), "edt")


def repopulated(scores):
    """Two replacements among four agents, with overflow warnings off as in a run."""
    config = loop_config(population=4, birth_rate=0.5)
    with np.errstate(over="ignore"):
        return repopulate(np.array([0, 1, 0, 1]), np.array(scores), config, 2, np.random.default_rng(0))


# Values that are not finite real numbers; numpy 1 writes np.float32(inf) as inf.
NOT_FINITE = {"nan": (math.nan, "nan"), "inf": (math.inf, "inf"), "minus-inf": (-math.inf, "-inf"),
              "float32-inf": (np.float32("inf"), None), "str": ("7", "'7'"), "bool": (True, "True"),
              "none": (None, "None")}
GAME_FIELDS = ([(PdConfig, name) for name in ("cc", "cd", "dc", "dd", "signal_accuracy")]
               + [(NewcombConfig, name) for name in ("high", "low", "accuracy")]
               + [(BeautyConfig, name) for name in ("fraction", "low", "high", "cap")])

# case -> (call, exception type, message)
FAULTS = {
    # --- graphs: inference and scoring ---
    "infer-zero-probability-evidence": (lambda: infer(chain_model(p_b_given=(1.0, 1.0)), {"B": "no"}, "A"),
                                        ZeroProbabilityError, "evidence {'B': 'no'} has probability zero"),
    "infer-unknown-evidence-variable": (lambda: infer(NEWCOMB.model, {"Nope": "x"}, "Action"), ValueError,
                                        "evidence names unknown variable 'Nope'"),
    "infer-unknown-query": (lambda: infer(NEWCOMB.model, {}, "Nope"), ValueError,
                            "query names unknown variable 'Nope'"),
    # A label outside the domain is a bad input, not evidence of probability zero.
    "infer-label-outside-domain": (
        lambda: infer(NEWCOMB.model, {"Action": "three-box"}, "Action"), ValueError,
        "evidence label 'three-box' is not in the domain ('one-box', 'two-box') of 'Action'"),
    "domain-of-unknown-variable": (partial(NEWCOMB.model.domain, "Z"), KeyError, "no variable 'Z' in model"),
    "fdt-without-decision-function": (lambda: decide(make_problem(chain_model()), "fdt"),
                                      MissingDecisionFunctionError,
                                      "problem has no decision-function variable; functional evaluation undefined"),
    **{f"unknown-theory-{theory}": (partial(decide, make_problem(chain_model()), theory), ValueError,
                                    f"unknown theory {theory!r}; expected one of ['cdt', 'edt', 'fdt']")
       for theory in ("tdt", None, 3)},
    # One action unscorable, though the other alone would score; or both, and the first one's error wins.
    "second-action-zero-probability": (partial(decide_action_only, (1.0, 0.0), {("yes",): 1.0, ("no",): 2.0}),
                                       ZeroProbabilityError, "action 'no' with evidence {} has probability zero"),
    "first-action-without-utility": (partial(decide_action_only, (0.5, 0.5), {("no",): 2.0}), KeyError,
                                     "no utility entry for outcome ('yes',)"),
    "both-unscorable-first-zero-probability": (partial(decide_action_only, (0.0, 1.0), {("yes",): 1.0}),
                                               ZeroProbabilityError,
                                               "action 'yes' with evidence {} has probability zero"),
    "both-unscorable-first-without-utility": (partial(decide_action_only, (1.0, 0.0), {("no",): 2.0}), KeyError,
                                              "no utility entry for outcome ('yes',)"),
    # --- graphs: construction ---
    # A model that cannot be enumerated is refused when it is built: infer and decide read no structure.
    "variable-without-cpt": (partial(without_cpt, "newcomb", "Prediction"), ValueError,
                             "variable 'Prediction' has no CPT"),
    "missing-row": (partial(with_prediction, ("Decision",), {("one-box",): PREDICTION_ROWS[("one-box",)]}),
                    ValueError, "variable 'Prediction': missing row for parents ('two-box',)"),
    # Scored, A never took "no", so B's missing row was never reached.
    "missing-row-on-zero-probability-branch": (partial(chain_with, A={(): (1.0, 0.0)}, B={("yes",): (0.9, 0.1)}),
                                               ValueError, "variable 'B': missing row for parents ('no',)"),
    # Scored, a row under a label outside the parent's domain was ignored without a word.
    "spurious-row": (partial(chain_with, B={("yes",): (0.9, 0.1), ("maybe",): (0.5, 0.5), ("no",): (0.2, 0.8)}),
                     ValueError, "variable 'B': spurious row ('maybe',)"),
    "dangling-parent": (partial(with_prediction, ("Decison",), PREDICTION_ROWS), ValueError,
                        "variable 'Prediction': dangling parent reference 'Decison'"),
    "cycle": (lambda: CausalModel(*chain_parts(A=Cpt("A", ("C",), {("yes",): (0.5, 0.5), ("no",): (0.5, 0.5)}))),
              ValueError, "parent graph contains a cycle"),
    "unknown-outcome": (lambda: replace(NEWCOMB.model, outcome_vars=("Action", "Predicton")), ValueError,
                        "outcome variable 'Predicton' not in model"),
    # Shares the action's domain but is not its parent; a parent of the action with another domain.
    "decision-fn-not-a-parent": (lambda: replace(NEWCOMB, decision_fn_var="Prediction"), ValueError,
                                 "decision_fn_var 'Prediction' must be a parent of action_var 'Action'"
                                 " with the same domain ('one-box', 'two-box')"),
    "decision-fn-other-domain": (lambda: replace(build("parfit"), decision_fn_var="Driver"), ValueError,
                                 "decision_fn_var 'Driver' must be a parent of action_var 'Pay'"
                                 " with the same domain ('pay', 'refuse')"),
    "decision-fn-unknown": (lambda: replace(NEWCOMB, decision_fn_var="Decison"), ValueError,
                            "decision_fn_var 'Decison' must be a parent of action_var 'Action'"
                            " with the same domain ('one-box', 'two-box')"),
    "problem-evidence-unknown-variable": (lambda: replace(NEWCOMB, evidence={"Predicton": "one-box"}), ValueError,
                                          "evidence names unknown variable 'Predicton'"),
    "problem-evidence-label-outside-domain": (
        lambda: replace(NEWCOMB, evidence={"Prediction": "three-box"}), ValueError,
        "evidence label 'three-box' is not in the domain ('one-box', 'two-box') of 'Prediction'"),
    "action-var-unknown": (lambda: replace(NEWCOMB, action_var="Choice"), ValueError,
                           "action_var 'Choice' is not a variable of the model"),
    "action-var-without-cpt": (lambda: replace(NEWCOMB, model=without_cpt("newcomb", "Action")), ValueError,
                               "variable 'Action' has no CPT"),
    # Scored, an empty domain made infer report that the evidence {} has probability zero.
    "empty-domain": (partial(Variable, "A", ()), ValueError, "variable 'A' has an empty domain"),
    # Scored as given, Prediction = ("one-box", "one-box") made FDT two-box in Newcomb's problem.
    "repeated-domain-label": (lambda: replace(NEWCOMB.model.variables[2], domain=("one-box", "one-box")), ValueError,
                              "variable 'Prediction' repeats a domain label: ('one-box', 'one-box')"),
    # A str domain or parents became one label or parent per character.
    "str-domain": (lambda: Variable("A", "yes"), ValueError,
                   "variable 'A': domain 'yes' is a str, not a sequence of labels"),
    "str-parents": (lambda: Cpt("B", "AB", {("yes", "no"): (0.5, 0.5)}), ValueError,
                    "variable 'B': parents 'AB' is a str, not a sequence of ids"),
    # Scored as given, the second Prediction was dropped without a word.
    "repeated-variable-id": (
        lambda: replace(NEWCOMB.model, variables=NEWCOMB.model.variables + (Variable("Prediction", BOOL),)),
        ValueError, "variable 'Prediction' appears more than once in the model"),
    # Scored as given, each CPT stood in for the variable of its dict key.
    "cpt-filed-under-another-variable": (
        lambda: CausalModel((Variable("A", BOOL), Variable("B", BOOL)),
                            {"A": Cpt("B", (), {(): (0.3, 0.7)}),
                             "B": Cpt("A", ("A",), {("yes",): (1.0, 0.0), ("no",): (0.0, 1.0)})},
                            ("B",), {("yes",): 1.0, ("no",): 0.0}),
        ValueError, "variable 'A' holds the CPT of 'B' in the model"),
    # Kept as given, the orphan CPT was never read: FDT still scored one-box at 990000.0.
    "cpt-filed-under-a-missing-variable": (
        lambda: replace(NEWCOMB.model, cpts={**NEWCOMB.model.cpts, "Ghost": Cpt("Ghost", ("Nope",), {("x",): (1.0,)})}),
        ValueError, "a CPT is filed under 'Ghost', which is not a variable of the model"),
    "short-row": (partial(with_prediction, ("Decision",), {key: row[:1] for key, row in PREDICTION_ROWS.items()}),
                  ValueError, "variable 'Prediction': row ('one-box',) has wrong arity"),
    "long-row": (partial(with_prediction, ("Decision",), {key: row + (0.0,) for key, row in PREDICTION_ROWS.items()}),
                 ValueError, "variable 'Prediction': row ('one-box',) has wrong arity"),
    # The CPTs are checked in order, each whole: B's missing row is refused before C's short row.
    # An all-zero row is legal, and C's short row is refused though no assignment would reach it.
    "missing-row-before-later-arity": (
        partial(chain_with, B={("yes",): (0.9, 0.1)}, C={("yes",): (0.8,), ("no",): (0.1, 0.9)}),
        ValueError, "variable 'B': missing row for parents ('no',)"),
    "arity-after-pruned-root": (
        partial(chain_with, A={(): (0.0, 0.0)}, C={("yes",): (0.8,), ("no",): (0.1, 0.9)}),
        ValueError, "variable 'C': row ('yes',) has wrong arity"),
    # Scored as given, a Prediction row of (nan, 0.5) gave EDT NaN for one-box, and still chose it. A str,
    # None or 10**400 raised a bare TypeError or OverflowError; a bool, or the utility "7", was taken as a number.
    **{f"{label}-cpt-entry": (partial(with_prediction_row, (value, 0.5)), ValueError, ONE_BOX_ROW + f"({text}, 0.5)")
       for label, (value, text) in NOT_FINITE.items() if label != "float32-inf"},
    "huge-int-cpt-entry": (partial(with_prediction_row, (10**400, 0)), ValueError, ONE_BOX_ROW + f"({10**400}, 0)"),
    # Scored, the enumeration pruned the negative entry: infer gave A = [0., 1.]. Odds above 1 stay legal.
    "negative-cpt-entry": (partial(Cpt, "A", (), {(): (-0.5, 1.5)}), ValueError,
                           "variable 'A': row () has a negative entry: (-0.5, 1.5)"),
    **{f"{label}-utility": (partial(with_utility, value), ValueError, ONE_TWO_UTILITY + text)
       for label, (value, text) in NOT_FINITE.items() if label != "float32-inf"},
    "huge-int-utility": (partial(with_utility, 10**400), ValueError, ONE_TWO_UTILITY + str(10**400)),
    # --- scenarios ---
    "unknown-scenario": (partial(build, "trolley"), ScenarioError, f"unknown scenario 'trolley'; {KNOWN_SCENARIOS}"),
    **{f"{kind}-scenario-{fn.__name__}": (partial(fn, scenario), ScenarioError,
                                          f"unknown scenario {scenario!r}; {KNOWN_SCENARIOS}")
       for kind, scenario in (("list", ["newcomb"]), ("dict", {}), ("none", None), ("int", 3), ("tuple", ("newcomb",)))
       for fn in (build, scenario_defaults)},
    "unknown-override": (partial(build, "newcomb", box_count=3), ScenarioError,
                         "scenario 'newcomb' has no parameter 'box_count'; valid names:"
                         " ['accuracy', 'big_box', 'small_box', 'two_box_prior']"),
    "probability-above-1": (partial(build, "newcomb", accuracy=1.5), ScenarioError,
                            "parameter 'accuracy' must be a probability, got 1.5"),
    "probability-below-0": (partial(build, "twin-pd", rho=-0.1), ScenarioError,
                            "parameter 'rho' must be a probability, got -0.1"),
    "twin-pd-not-a-dilemma": (partial(build, "twin-pd", cc=1, cd=7), ScenarioError,
                              "twin-pd payoffs must satisfy DC > CC > DD > CD, got DC=10.0 CC=1.0 DD=4.0 CD=7.0"),
    **{f"{label}-override": (partial(build, "newcomb", accuracy=value), ScenarioError,
                             f"parameter 'accuracy' must be a finite number, got {text}")
       for label, value, text in (("str", "0.5", "'0.5'"), ("bool", True, "True"), ("none", None, "None"),
                                  ("huge-int", 10**400, str(10**400)), ("list", [0.5], "[0.5]"))},
    # --- games ---
    "pd-dc-not-above-cc": (partial(PdConfig, cc=10, cd=1, dc=7, dd=4), ValueError,
                           "payoffs must satisfy DC > CC > DD > CD as floats, got DC=7.0 CC=10.0 DD=4.0 CD=1.0"),
    "pd-signal-accuracy-above-1": (partial(PdConfig, signal_accuracy=1.5), ValueError,
                                   "signal_accuracy must be in [0, 1], got 1.5"),
    # The one check of the accuracy's range: the signal matrix takes it unchecked.
    "pd-signal-accuracy-below-0": (partial(PdConfig, signal_accuracy=-0.1), ValueError,
                                   "signal_accuracy must be in [0, 1], got -0.1"),
    "pd-cd-0": (partial(PdConfig, cd=0), ValueError, "all payoffs must be positive"),
    **{f"{config.__name__}-{name}-{label}": (
        partial(config, **{name: value}), ValueError,
        f"{name} must be a finite number, got {text}" if text else Prefix(f"{name} must be a finite number, got "))
       for config, name in GAME_FIELDS for label, (value, text) in NOT_FINITE.items()},
    # Shares are bad input, not a solver outcome. The beauty guesses took NaN shares to (nan, nan).
    **{f"{reader}-shares-{label}": (partial(read, shares), ValueError,
                                    f"shares must be 3 finite, nonnegative numbers that sum to 1, got {text}")
       for reader, read in SHARE_READERS.items() for label, (shares, text) in BAD_SHARES.items()},
    "pd-eus-unknown-policy": (partial(pd_expected_utilities, PdConfig(), (1 / 3,) * 3, ("D", "X", "C")), ValueError,
                              f"policy must be one of {PD_POLICIES}, got ('D', 'X', 'C')"),
    # Unchecked, the block size _BLOCK_ELEMENTS // 0 raised ZeroDivisionError.
    "beauty-empty-population": (partial(BeautyGame(BeautyConfig()).play_generation, np.array([], dtype=int),
                                        (50.0, 0.0), 1, np.random.default_rng(0)), ValueError, "population is empty"),
    "play-many-unknown-policy": (
        partial(pd_play_many, np.array([2]), np.array([0]), ["C", "C"], PdConfig(), np.random.default_rng(0)),
        ValueError, f"policy must be one of {PD_POLICIES}, got ['C', 'C']"),
    # --- evolve ---
    **{f"from-shares-{label}": (partial(Population.from_shares, ("a", "b", "c"), shares, 10), ValueError,
                                f"shares must be 3 finite, nonnegative numbers that sum to 1, got {text}")
       for label, shares, text in (
           ("nan", (math.nan, 0.5, 0.5), "(nan, 0.5, 0.5)"), ("inf", (math.inf, 0.0, 0.0), "(inf, 0.0, 0.0)"),
           ("negative", (1.5, -0.5, 0.0), "(1.5, -0.5, 0.0)"), ("sum-1.5", (0.5, 0.5, 0.5), "(0.5, 0.5, 0.5)"),
       )},
    "loop-negative-birth-rate": (partial(loop_config, birth_rate=-0.1), ValueError,
                                 "birth_rate must be a number in [0, 1], got -0.1"),
    "loop-mutation-rate-1.5": (partial(loop_config, mutation_rate=1.5), ValueError,
                               "mutation_rate must be a number in [0, 1], got 1.5"),
    # round(N * b) = 0 with b > 0.
    "loop-zero-replacements": (partial(loop_config, population=10, birth_rate=0.01), ValueError,
                               "birth_rate is positive but rounds to zero replacements per generation"),
    "too-few-scorers": (partial(repopulated, [0.0, 0.0, 0.0, 5.0]), NonPositiveScoreError,
                        "1 agents scored above 0, fewer than the 2 replacements"),
    "negative-score": (partial(repopulated, [1.0, 2.0, -3.0, 5.0]), NonPositiveScoreError,
                       "agent 2 has negative score -3.0"),
    "scores-sum-to-inf": (partial(repopulated, [1e308, 1e308, 1.0, 1.0]), NonPositiveScoreError,
                          "scores sum to inf, inverses to 2.0: not finite"),
    "scores-sum-to-nan": (partial(repopulated, [math.nan, 1.0, 2.0, 3.0]), NonPositiveScoreError,
                          "scores sum to nan, inverses to 1.8333333333333333: not finite"),
    # 1 / 1e300 is lost beside 1 / 1e-300: one agent carries the whole death weight.
    "too-few-death-weights": (partial(repopulated, [1e-300, 1e300, 1e300, 1e300]), NonPositiveScoreError,
                              "1 death weights above 0, fewer than 2 deaths"),
    # --- experiments: ExperimentConfig.from_dict ---
    **{f"from-dict-{label}": (partial(ExperimentConfig.from_dict, data), ValueError, message)
       for label, data, message in (
           ("list", [1, 2], "config must be a JSON object, got list"),
           ("unknown-key", pd_dict(birthrate=0.5), "unknown config keys ['birthrate']; valid keys: ['game',"
            " 'population', 'generations', 'rounds', 'initial_shares', 'birth_rate', 'mutation_rate', 'seed',"
            " 'game_params', 'snapshot_every']"),
           ("missing-rounds", {k: v for k, v in VALID["pd"].items() if k != "rounds"},
            "missing config keys ['rounds']"),
           ("str-population", pd_dict(population="40"), "population must be an integer >= 1, got '40'"),
           ("float-population", pd_dict(population=40.0), "population must be an integer >= 1, got 40.0"),
           ("bool-seed", pd_dict(seed=True), "seed must be an integer >= 0, got True"),
           ("negative-generations", pd_dict(generations=-1), "generations must be an integer >= 1, got -1"),
           ("zero-generations", pd_dict(generations=0), "generations must be an integer >= 1, got 0"),
           ("zero-snapshot-every", pd_dict(snapshot_every=0), "snapshot_every must be an integer >= 1, got 0"),
           ("nan-mutation-rate", pd_dict(mutation_rate=math.nan), "mutation_rate must be a number in [0, 1], got nan"),
           ("birth-rate-1.5", pd_dict(birth_rate=1.5), "birth_rate must be a number in [0, 1], got 1.5"),
           ("str-birth-rate", pd_dict(birth_rate="0.1"), "birth_rate must be a number in [0, 1], got '0.1'"),
           ("zero-replacements", pd_dict(population=10),
            "birth_rate is positive but rounds to zero replacements per generation"),
           ("zero-rounds", pd_dict(rounds=0), "rounds must be >= 1 when birth_rate is positive"),
           ("unknown-game", pd_dict(game="chess"), "unknown game 'chess'; expected one of ('pd', 'newcomb', 'beauty')"),
           ("list-game", pd_dict(game=["pd"]), "unknown game ['pd']; expected one of ('pd', 'newcomb', 'beauty')"),
           ("list-game-params", pd_dict(game_params=[["cc", 7.0]]), "game_params must be an object, got [['cc', 7.0]]"),
           ("game-params-typo", pd_dict(game_params={"signal_acuracy": 0.9}),
            "invalid game_params for 'pd': PdConfig.__init__() got an unexpected keyword argument 'signal_acuracy'"),
           ("not-a-dilemma", pd_dict(game_params={"cc": 1}),
            "payoffs must satisfy DC > CC > DD > CD as floats, got DC=10.0 CC=1.0 DD=4.0 CD=1.0"),
           ("str-payoff", pd_dict(game_params={"cc": "7"}), "cc must be a finite number, got '7'"),
           # np.longdouble has no Python equal and breaks np.bincount in a run; numpy 1 names it float128.
           ("longdouble-payoff", pd_dict(game_params=dict(VALID["pd"]["game_params"], cc=np.longdouble(7))),
            Prefix("game_params['cc'] must be a Python or float64 number, got a ")),
           ("str-shares", pd_dict(initial_shares=["0.34", "0.33", "0.33"]), SHARES + "['0.34', '0.33', '0.33']"),
           ("nan-shares", pd_dict(initial_shares=[math.nan, 0.5, 0.5]), SHARES + "[nan, 0.5, 0.5]"),
           ("two-shares", pd_dict(initial_shares=[0.5, 0.5]), SHARES + "[0.5, 0.5]"),
           ("shares-sum-1.5", pd_dict(initial_shares=[0.5, 0.5, 0.5]), SHARES + "[0.5, 0.5, 0.5]"),
           ("negative-share", pd_dict(initial_shares=[1.5, -0.5, 0.0]), SHARES + "[1.5, -0.5, 0.0]"),
           ("str-initial-shares", pd_dict(initial_shares="abc"), SHARES + "'abc'"),
           ("huge-int-share", pd_dict(initial_shares=[10**400, 0, 0]), SHARES + f"[{10**400}, 0, 0]"),
           ("huge-int-population", pd_dict(population=10**400), f"population must be an integer >= 1, got {10**400}"),
           ("population-above-2-53", pd_dict(population=2**53 + 1),
            "population must be at most 2**53 = 9007199254740992, got 9007199254740993"),
           ("rounds-above-2-53", pd_dict(rounds=2**53 + 1),
            "rounds must be at most 2**53 = 9007199254740992, got 9007199254740993"),
           ("beauty-range-overflow", dict(VALID["beauty"], game_params={"low": -1e308, "high": 1e308}),
            "guess range must be nonempty, high - low finite, as floats: [-1e+308, 1e+308]"),
           ("beauty-subnormal-cap", dict(VALID["beauty"], game_params={"cap": 5e-324}),
            "cap must be positive, with 1 / cap finite, got 5e-324"),
       )},
}


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_fault_raises_its_exact_type_and_message(case):
    call, error, message = FAULTS[case]
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is error
    if isinstance(message, Prefix):
        assert info.value.args[0].startswith(message)
    else:
        assert info.value.args[0] == message


@st.composite
def planted_models(draw):
    """(fault or None, parts): a ``decision_problems`` model's parts with at most one structural fault
    planted in them. No label or variable is named "x" or "Z"."""
    model = draw(decision_problems()).model
    variables, cpts, outcomes = model.variables, dict(model.cpts), list(model.outcome_vars)
    fault = draw(st.sampled_from([None, "dropped-cpt", "dropped-row", "spurious-row", "renamed-parent", "cycle",
                                  "renamed-outcome"]))
    ids = [vid for vid in sorted(cpts) if cpts[vid].parents or fault != "renamed-parent"]
    assume(ids)
    vid = draw(st.sampled_from(ids))
    parents, table = cpts[vid].parents, dict(cpts[vid].table)
    if fault == "dropped-cpt":
        del cpts[vid]
    elif fault == "dropped-row":
        del table[draw(st.sampled_from(list(table)))]
    elif fault == "spurious-row":
        table[("x",) * max(len(parents), 1)] = next(iter(table.values()))
    elif fault == "renamed-parent":
        at = draw(st.integers(0, len(parents) - 1))
        parents = parents[:at] + ("Z",) + parents[at + 1:]
    elif fault == "cycle":  # vid takes as its last parent itself or a child of its own
        child = draw(st.sampled_from([vid] + [c for c, cpt in cpts.items() if vid in cpt.parents]))
        parents += (child,)
        table = {key + (label,): row for key, row in table.items() for label in model.domain(child)}
    elif fault == "renamed-outcome":
        outcomes[draw(st.integers(0, len(outcomes) - 1))] = "Z"
    if fault not in (None, "dropped-cpt", "renamed-outcome"):
        cpts[vid] = Cpt(vid, parents, table)
    return fault, (variables, cpts, tuple(outcomes), model.utility)


@given(planted_models())
@settings(max_examples=300)
def test_a_model_with_a_structural_fault_is_refused_with_the_oracles_diagnostic(case):
    fault, parts = case
    if fault is None:
        CausalModel(*parts)
        return
    with pytest.raises(ValueError) as info:
        CausalModel(*parts)
    assert type(info.value) is ValueError
    assert info.value.args[0] in oracles.validate_model(*parts)


def test_every_error_type_is_the_type_of_a_row():
    # A new exception class in the package cannot land without a row that raises it.
    modules = [importlib.import_module(f"fdtsim.{info.name}") for info in pkgutil.iter_modules(fdtsim.__path__)]
    defined = {cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if issubclass(cls, BaseException) and cls.__module__ == module.__name__}
    assert defined
    assert not (defined | {ValueError, KeyError}) - {error for _, error, _ in FAULTS.values()}


# Every reader of a type-share vector, with the name its message gives.
EVERY_SHARE_READER = (("initial_shares", lambda shares: ExperimentConfig.from_dict(pd_dict(initial_shares=shares))),
                      ("shares", lambda shares: Population.from_shares(("a", "b", "c"), shares, 10)),
                      *(("shares", read) for read in SHARE_READERS.values()))
# Entries that the share rule takes, and NaN, infinities, negatives, bools and strs, which it refuses.
SHARE_ENTRIES = st.floats(0.0, 1.0) | st.sampled_from([0, 1, 0.5, math.nan, math.inf, -math.inf, -0.25, True, False,
                                                       "0.5"])


@st.composite
def share_vectors(draw):
    """(kind, a list, tuple or numpy array): shares that sum to 1 ("normalized"), shares whose sum is
    off by more than 1e-9 ("off"), or 0 to 5 entries drawn freely ("free")."""
    kind = draw(st.sampled_from(["normalized", "off", "free"]))
    if kind == "free":
        values = draw(st.lists(SHARE_ENTRIES, max_size=5))
    else:
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(any))
        values = [weight / sum(weights) for weight in weights]
        if kind == "off":
            values[draw(st.integers(0, 2))] += draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(2e-9, 0.5))
    return kind, draw(st.sampled_from([list, tuple, np.array]))(values)


@given(share_vectors())
@example(("free", [0.0, 0.0, 0.0]))
@example(("free", (True, False, False)))
@example(("free", ["0.5", "0.25", "0.25"]))
@example(("free", [math.nan, 0.5, 0.5]))
@example(("free", (0.5, 0.5)))
@example(("free", [1, 0, 0]))
@example(("normalized", np.array([0.2, 0.3, 0.5])))
@example(("free", np.array([1, 0, 0])))
@example(("free", np.eye(3)))
@example(("free", np.array(0.5)))
def test_every_share_reader_takes_the_same_vectors(case):
    # The config, the start allocation, the FDT solver, the beauty guesses and the analytic EUs accept
    # the same share vectors, and refuse the rest with one message apart from the name.
    kind, shares = case
    outcomes = set()
    for name, read in EVERY_SHARE_READER:
        try:
            read(shares)
        except ValueError as exc:
            assert exc.args[0].startswith(f"{name} must be 3 finite, nonnegative numbers that sum to 1, got ")
            outcomes.add(exc.args[0].removeprefix(name))
        else:
            outcomes.add(None)
    assert len(outcomes) == 1, outcomes
    if kind == "normalized":
        assert outcomes == {None}
    elif kind == "off":
        assert outcomes != {None}
