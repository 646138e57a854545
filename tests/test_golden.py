"""Pinned sha256 digests of ``trajectory_csv`` for short runs.

Each case is a preset or a sweep shortened to a few seconds of work. The
digests change if any random draw, the order of the draws, or the order of
a per-agent float sum changes, so a rewrite of a game kernel that claims to
keep every CSV byte-identical must leave them all in place.

Two cases guard known traps: ``beauty-cdt-heavy`` at N = 301, seed 0 has
exactly one Random agent in generation 39 (and none in generation 40), and
``pd-fractional`` uses non-integer payoffs, where summing the two sides of
each pairing in another order changes the last bits of the scores.
Two cover draws the others never make: ``newcomb-mutating`` has
round(N·m) = 6 mutants per generation (every other run has none), and
``pd-sit-out`` (odd N, one round) leaves one agent on score 0 each
generation, so a zero weight enters the death draw. ``beauty-blocks`` at
N = 30,001 and R = 20 plays its rounds in blocks of 8, 8 and 4, where every
other beauty case fits in one block. ``pd-blocks`` at N = 30,001 and R = 20,
with non-integer payoffs, plays its matchings and scores in blocks of 8, 8
and 4 rounds at odd N, where every other PD case fits in one block.

The ``oneshot`` digest covers the one-shot scenarios: the choice and the
exact bits of the EUs of every (scenario, theory) pair in ``ONESHOT_PAIRS``,
which leaves out ``newcomb-transparent``, at the defaults and at drawn
overrides. It changes if a built model or the order of any sum in the
enumeration changes.

The digests were recorded under numpy 2.4.6. An older numpy (Python 3.10
cannot install numpy 2.3 or later) may draw other streams, so a mismatch
names the numpy that ran it: there it may be a stream change, not a
regression.
"""
import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from fdtsim import experiments
from fdtsim.experiments import PRESETS, SWEEPS
from fdtsim.graphs import decide
from fdtsim.scenarios import build
from oracles import ONESHOT_PAIRS, scenario_params

RUNS = {
    "pd-baseline": replace(PRESETS["pd-baseline"], population=300, generations=30, rounds=20, seed=1),
    "pd-invasion-odd": replace(
        PRESETS["pd-invasion"], population=301, generations=30, rounds=20, seed=2
    ),
    "pd-fractional": replace(
        PRESETS["pd-baseline"],
        population=101,
        generations=20,
        rounds=15,
        seed=3,
        game_params={"cc": 7.3, "cd": 1.1, "dc": 10.7, "dd": 4.2, "signal_accuracy": 0.85},
    ),
    "newcomb-baseline": replace(
        PRESETS["newcomb-baseline"], population=300, generations=30, rounds=20, seed=4
    ),
    "beauty-baseline": replace(PRESETS["beauty-baseline"], population=300, generations=30, seed=5),
    "beauty-cdt-heavy": replace(PRESETS["beauty-cdt-heavy"], population=301, generations=40, seed=0),
    "beauty-blocks": replace(
        PRESETS["beauty-baseline"], population=30_001, generations=3, rounds=20, seed=9
    ),
    "pd-blocks": replace(
        PRESETS["pd-baseline"],
        population=30_001,
        generations=3,
        rounds=20,
        seed=10,
        game_params={"cc": 7.3, "cd": 1.1, "dc": 10.7, "dd": 4.2, "signal_accuracy": 0.9},
    ),
    "newcomb-mutating": replace(
        PRESETS["newcomb-baseline"], population=300, generations=30, rounds=5, mutation_rate=0.02, seed=7
    ),
    "pd-sit-out": replace(
        PRESETS["pd-invasion"], population=301, generations=20, rounds=1, birth_rate=0.1, seed=8
    ),
}

NUMPY_OF_DIGESTS = "2.4.6"
SWEEP_RUNS = 3
ONESHOT_DRAWS = 30

DIGESTS = {
    "beauty-baseline": "8524bcec1efbc6e7f8d9fb203df4f04696c714d81193ca8ef05a23a770765f86",
    "beauty-blocks": "26c6d7b02cbe48baafe0e4b6482eb3594dcddea5354b8289e1b6048401e268eb",
    "beauty-cdt-heavy": "426a1f77eae7d54fc8ef7580f69c3033e891ac4ee659a9fb7bd79499f2aa57d9",
    "newcomb-baseline": "25f930b8212a6f21eba3b2a25166e91d1ad919203e4e4851d7e382ae49c87b8a",
    "newcomb-mutating": "63eeb4f080fe97fc12dbca27b36bf0056e8009b52be0142c5f85910d64502e76",
    "pd-baseline": "1293e9a0b1b038533b3a719cb4306268334e87be83bd2f66c669db981cb07e61",
    "pd-blocks": "1471d6c56e40302eda5fee3906accc9b3a0c9d64710c7b05a123f2073182b815",
    "pd-fractional": "82bf170cc092f12e48903c84ecd82756ce05ff699752ad118c1086d009d7e393",
    "pd-invasion-odd": "36e08969c5d5b68dd41ee0b84689405e6e3685b2c446fb2c62956220bb81226f",
    "pd-sit-out": "a57f98a8526985630c16511aca5b36e59f335659dc924600c45b23d328c0128e",
    "newcomb-sweep": "171f0de8228e3d52960c3b1c0a3c63bada60b864a78477f8a04f615e4184faca",
    "pd-payoff-sweep": "cf501f426a740450294590a850bfa6d2a1a413c259dfca35c41c12379c91fb12",
    "pd-signal-sweep": "9ac580663a3b552f5b785076af631d8e06b5af9faaf072a48f7760e3995dd8ca",
    "oneshot": "c71e8eceab88204665032bcab713f6c09f585da6cbd97ace702b9f332b9c52d1",
}


def check(name, digest):
    assert digest == DIGESTS[name], (
        f"{name} digest changed under numpy {np.__version__}; the digests were recorded under numpy {NUMPY_OF_DIGESTS}")


def run_digest(config) -> str:
    csv = experiments.trajectory_csv(experiments.run(config), config)
    return hashlib.sha256(csv.encode()).hexdigest()


def sweep_digest(preset: str) -> str:
    """One digest over the CSVs of every run of a shortened sweep, in run order."""
    base = replace(SWEEPS[preset][0], population=200, generations=10, rounds=10)
    digest = hashlib.sha256()
    for config, _ in experiments.sweep_configs(preset, base, SWEEP_RUNS):
        digest.update(experiments.trajectory_csv(experiments.run(config), config).encode())
    return digest.hexdigest()


def oneshot_digest() -> str:
    rng = random.Random(6)
    digest = hashlib.sha256()
    for scenario, theory in ONESHOT_PAIRS:
        for overrides in [{}] + [scenario_params(scenario, rng.uniform) for _ in range(ONESHOT_DRAWS)]:
            report = decide(build(scenario, **overrides), theory)
            eus = [eu.hex() for eu in report.expected_utility.values()]
            digest.update(repr((scenario, theory, report.chosen, eus)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_csv_digest(name):
    check(name, run_digest(RUNS[name]))


@pytest.mark.parametrize("preset", sorted(SWEEPS))
def test_sweep_csv_digest(preset):
    check(preset, sweep_digest(preset))


def test_oneshot_digest():
    check("oneshot", oneshot_digest())
