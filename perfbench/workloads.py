"""The benchmark's four workloads.

Each workload draws its inputs from the workload seed, runs one operation
per input through fdtsim's public API, and checks every output. An
operation is the unit that latency is reported for:

- ``pd-10k``: one ``experiments.run`` of the ``pd-baseline`` preset,
  shortened to ``PD_GENERATIONS`` generations.
- ``beauty-10k``: one ``experiments.run`` of ``beauty-baseline``, shortened
  to ``BEAUTY_GENERATIONS`` generations.
- ``sweep-small``: ``fdtsim sweep`` run in-process, ``pd-payoff-sweep`` and
  then ``newcomb-sweep``, each writing its CSVs.
- ``oneshot``: one ``scenarios.build`` plus ``graphs.decide``.

Workloads look fdtsim functions up through their modules at call time, so
the span wrappers of ``tracing.Tracer`` see every call. Each names, in
``calibration``, the kernels of ``run.Calibration`` that resemble its work.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np

PD_GENERATIONS = 1
BEAUTY_GENERATIONS = 5

SWEEP_PRESETS = ("pd-payoff-sweep", "newcomb-sweep")
SWEEP_POPULATION = 300
SWEEP_ROUNDS = 10
SWEEP_RUNS = 2
SWEEP_GENERATIONS = 20

# Width, in standard deviations, of the generation-1 score band of pd-10k;
# the variance is an upper bound, so a correct engine practically never
# falls outside.
CLT_Z = 6.0
SHARE_TOL = 1e-9
EU_REL_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_population(counts, shares, size: int, where: str) -> None:
    _require(sum(counts) == size, f"{where}: counts {counts} do not sum to {size}")
    _require(
        abs(math.fsum(shares) - 1.0) <= SHARE_TOL,
        f"{where}: shares {shares} do not sum to 1",
    )


class EvolveWorkload:
    """Repeated short ``experiments.run`` calls of one evolutionary preset."""

    def __init__(self, fdt, seed: int, preset: str, generations: int):
        self.fdt = fdt
        self.seed = seed
        self.base = replace(fdt.experiments.PRESETS[preset], generations=generations)

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        while True:
            yield replace(self.base, seed=int(rng.integers(2**31)))

    def run(self, config):
        return self.fdt.experiments.run(config)

    def agent_rounds(self, config) -> int:
        return config.population * config.rounds * config.generations

    def check(self, config, trajectory) -> bytes:
        records = trajectory.records
        _require(
            [r.generation for r in records] == list(range(1, config.generations + 1)),
            "trajectory does not hold one record per generation",
        )
        for record in records:
            _check_population(
                record.counts, record.shares, config.population, f"generation {record.generation}"
            )
        self.check_first_generation(config, records[0].mean_scores)
        csv = self.fdt.experiments.trajectory_csv(trajectory, config)
        return hashlib.sha256(csv.encode()).digest()

    def check_first_generation(self, config, mean_scores) -> None:
        raise NotImplementedError


class PdWorkload(EvolveWorkload):
    """``pd-10k``: the pairwise PD matching kernel at N=10k, R=100."""

    calibration = ("memory",)

    def __init__(self, fdt, seed: int):
        super().__init__(fdt, seed, "pd-baseline", PD_GENERATIONS)
        games = fdt.games
        base = self.base
        pd = games.PdConfig(**base.game_params)
        n = base.population
        counts = fdt.evolve.Population.from_shares(games.PD_TYPES, base.initial_shares, n).counts()
        policy = games.solve_fdt_pd_policy(pd, counts / n)
        # Each agent meets one of the other n - 1 agents per round.
        self.expected = np.array([
            base.rounds
            * games.pd_expected_utilities(pd, (counts - np.eye(3)[t]) / (n - 1), policy)[t]
            for t in range(3)
        ])
        # Round payoffs lie in [cd, dc]; an agent's payoff correlates only
        # with its partner's, which at most doubles the variance of a sum.
        round_var = ((pd.dc - pd.cd) / 2.0) ** 2
        self.band = CLT_Z * np.sqrt(2.0 * base.rounds * round_var / counts)

    def check_first_generation(self, config, mean_scores) -> None:
        error = np.abs(np.asarray(mean_scores) - self.expected)
        _require(
            bool(np.all(error <= self.band)),
            f"generation-1 mean scores {list(mean_scores)} outside "
            f"{self.expected.tolist()} +- {self.band.tolist()}",
        )


class BeautyWorkload(EvolveWorkload):
    """``beauty-10k``: the beauty contest's per-round loop at N=10k, R=100."""

    calibration = ("small_arrays",)

    def __init__(self, fdt, seed: int):
        super().__init__(fdt, seed, "beauty-baseline", BEAUTY_GENERATIONS)
        self.max_score = fdt.games.BeautyConfig(**self.base.game_params).cap * self.base.rounds

    def check_first_generation(self, config, mean_scores) -> None:
        _require(
            all(0.0 < m <= self.max_score for m in mean_scores),
            f"generation-1 mean scores {list(mean_scores)} outside (0, {self.max_score}]",
        )


class SweepWorkload:
    """``sweep-small``: two CLI sweeps whose per-run fixed costs dominate."""

    calibration = ("small_arrays", "python")

    def __init__(self, fdt, seed: int, out_dir: Path):
        self.fdt = fdt
        self.seed = seed
        self.out_dir = Path(out_dir)

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        while True:
            yield int(rng.integers(2**31))

    def argv(self, preset: str, seed: int) -> list[str]:
        return [
            "sweep", "--preset", preset,
            "--population", str(SWEEP_POPULATION), "--rounds", str(SWEEP_ROUNDS),
            "--runs", str(SWEEP_RUNS), "--generations", str(SWEEP_GENERATIONS),
            "--seed", str(seed), "--out", str(self.out_dir / f"{preset}.csv"),
        ]

    def run(self, seed: int) -> list[int]:
        with contextlib.redirect_stdout(io.StringIO()):
            return [self.fdt.cli.main(self.argv(preset, seed)) for preset in SWEEP_PRESETS]

    def agent_rounds(self, seed: int) -> int:
        return (
            len(SWEEP_PRESETS) * SWEEP_RUNS * SWEEP_GENERATIONS * SWEEP_POPULATION * SWEEP_ROUNDS
        )

    def check(self, seed: int, exit_codes: list[int]) -> bytes:
        _require(exit_codes == [0] * len(SWEEP_PRESETS), f"sweep exit codes {exit_codes}")
        digest = hashlib.sha256()
        for preset in SWEEP_PRESETS:
            for i in range(SWEEP_RUNS):
                path = self.out_dir / f"{preset}-{i:03d}.csv"
                _require(path.is_file(), f"{path.name} was not written")
                data = path.read_bytes()
                path.unlink()
                self.check_csv(data.decode(), path.name)
                digest.update(data)
        return digest.digest()

    def check_csv(self, text: str, name: str) -> None:
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
        _require(
            [int(row[0]) for row in rows] == list(range(1, SWEEP_GENERATIONS + 1)),
            f"{name}: not one row per generation",
        )
        for row in rows:
            counts = [int(c) for c in row[1::3]]
            shares = [float(s) for s in row[2::3]]
            _check_population(counts, shares, SWEEP_POPULATION, f"{name} generation {row[0]}")


# (scenario, theory) pairs; smoking-edt has no decision-function node.
ONESHOT_PAIRS = tuple(
    (scenario, theory)
    for scenario in ("smoking-edt", "smoking-cdt", "newcomb", "parfit", "twin-pd")
    for theory in ("edt", "cdt", "fdt")
    if (scenario, theory) != ("smoking-edt", "fdt")
)

ACTIONS = {
    "smoking-edt": ("smoke", "not-smoke"),
    "smoking-cdt": ("smoke", "not-smoke"),
    "newcomb": ("one-box", "two-box"),
    "parfit": ("pay", "refuse"),
    "twin-pd": ("C", "D"),
}


def draw_overrides(rng: random.Random, scenario: str) -> dict[str, float]:
    """Random probability and payoff overrides for one scenario."""
    prob = lambda: rng.uniform(0.05, 0.95)
    if scenario == "smoking-edt":
        return {
            "smoke_prior": prob(), "gene_given_smoke": prob(), "gene_given_no_smoke": prob(),
            "cancer_given_gene": prob(), "cancer_given_no_gene": prob(),
            "smoke_utility": rng.uniform(1.0, 20.0), "cancer_utility": rng.uniform(-500.0, -10.0),
        }
    if scenario == "smoking-cdt":
        return {
            "gene_prior": prob(), "cancer_given_gene": prob(), "cancer_given_no_gene": prob(),
            "smoke_utility": rng.uniform(1.0, 20.0), "cancer_utility": rng.uniform(-500.0, -10.0),
        }
    if scenario == "newcomb":
        return {
            "accuracy": prob(), "big_box": rng.uniform(1e3, 1e7),
            "small_box": rng.uniform(1.0, 1e4), "two_box_prior": prob(),
        }
    if scenario == "parfit":
        return {
            "accuracy": prob(), "payment": rng.uniform(1.0, 1e4),
            "stranded_utility": rng.uniform(-1e7, -1e3), "refuse_prior": prob(),
        }
    while True:
        cd, dd, cc, dc = sorted(rng.uniform(1.0, 20.0) for _ in range(4))
        if cd < dd < cc < dc:
            return {"rho": prob(), "cc": cc, "cd": cd, "dc": dc, "dd": dd}


def closed_form_eus(scenario: str, theory: str, v: dict[str, float]) -> tuple[float, float]:
    """Expected utility of each action, in domain order, by hand-derived formulas."""
    if scenario in ("smoking-edt", "smoking-cdt"):
        def cancer(gene: float) -> float:
            return gene * v["cancer_given_gene"] + (1.0 - gene) * v["cancer_given_no_gene"]

        if scenario == "smoking-edt":
            # Smoke is a root, so conditioning on it and forcing it agree.
            p_smoke, p_not = cancer(v["gene_given_smoke"]), cancer(v["gene_given_no_smoke"])
        else:
            p_smoke = p_not = cancer(v["gene_prior"])
        return (
            v["smoke_utility"] + v["cancer_utility"] * p_smoke,
            v["cancer_utility"] * p_not,
        )
    if scenario == "newcomb":
        p, big, small = v["accuracy"], v["big_box"], v["small_box"]
        if theory == "cdt":
            q = (1.0 - v["two_box_prior"]) * p + v["two_box_prior"] * (1.0 - p)
            return q * big, q * big + small
        return p * big, (1.0 - p) * (big + small) + p * small
    if scenario == "parfit":
        p, pay, stranded = v["accuracy"], v["payment"], v["stranded_utility"]
        if theory == "cdt":
            drive = (1.0 - v["refuse_prior"]) * p + v["refuse_prior"] * (1.0 - p)
            return -drive * pay + (1.0 - drive) * stranded, (1.0 - drive) * stranded
        return -p * pay + (1.0 - p) * stranded, p * stranded
    rho = v["rho"]
    if theory == "cdt":
        return (v["cc"] + v["cd"]) / 2.0, (v["dc"] + v["dd"]) / 2.0
    return rho * v["cc"] + (1.0 - rho) * v["cd"], (1.0 - rho) * v["dc"] + rho * v["dd"]


class OneshotWorkload:
    """``oneshot``: build + decide over the 14 valid (scenario, theory) pairs."""

    calibration = ("python",)

    def __init__(self, fdt, seed: int):
        self.fdt = fdt
        self.seed = seed

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            for scenario, theory in ONESHOT_PAIRS:
                yield scenario, theory, draw_overrides(rng, scenario)

    def run(self, op):
        scenario, theory, overrides = op
        return self.fdt.graphs.decide(self.fdt.scenarios.build(scenario, **overrides), theory)

    def agent_rounds(self, op) -> int:
        return 1

    def check(self, op, report) -> bytes:
        scenario, theory, overrides = op
        actions = ACTIONS[scenario]
        _require(
            tuple(report.expected_utility) == actions,
            f"{scenario}/{theory}: actions {tuple(report.expected_utility)}",
        )
        expected = closed_form_eus(scenario, theory, overrides)
        got = tuple(report.expected_utility[a] for a in actions)
        scale = EU_REL_TOL * max(abs(u) for u in overrides.values())
        for action, e, g in zip(actions, expected, got):
            _require(
                math.isclose(g, e, rel_tol=EU_REL_TOL, abs_tol=scale),
                f"{scenario}/{theory}: EU[{action}] = {g!r}, closed form {e!r}",
            )
        # Ties go to the first action in the domain.
        if not math.isclose(expected[0], expected[1], rel_tol=EU_REL_TOL, abs_tol=scale):
            best = actions[1] if expected[1] > expected[0] else actions[0]
            _require(report.chosen == best, f"{scenario}/{theory}: chose {report.chosen}")
        return hashlib.sha256(repr((report.chosen, got)).encode()).digest()


def make(name: str, fdt, seed: int, out_dir: Path):
    if name == "pd-10k":
        return PdWorkload(fdt, seed)
    if name == "beauty-10k":
        return BeautyWorkload(fdt, seed)
    if name == "sweep-small":
        return SweepWorkload(fdt, seed, out_dir)
    if name == "oneshot":
        return OneshotWorkload(fdt, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pd-10k", "beauty-10k", "sweep-small", "oneshot")
