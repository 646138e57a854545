import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fdtsim
from fdtsim import cli, experiments
from fdtsim.experiments import PRESETS, SWEEPS, ExperimentConfig
from fdtsim.graphs import THEORIES, decide
from fdtsim.scenarios import SCENARIO_IDS, build, scenario_defaults


def small_config(**kwargs):
    defaults = dict(
        game="newcomb",
        population=100,
        generations=12,
        rounds=5,
        initial_shares=(0.5, 0.5),
        seed=7,
        snapshot_every=5,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_config_round_trip():
    cfg = small_config(game_params={"accuracy": 0.9})
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_round_trip_through_json():
    cfg = PRESETS["pd-baseline"]
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_unknown_game_rejected():
    with pytest.raises(ValueError):
        small_config(game="chess")


def test_presets_exist():
    for name in (
        "pd-baseline",
        "pd-invasion",
        "newcomb-baseline",
        "beauty-baseline",
        "beauty-cdt-heavy",
    ):
        assert name in PRESETS
    assert PRESETS["beauty-cdt-heavy"].initial_shares == (0.1, 0.8, 0.1)
    assert PRESETS["pd-invasion"].initial_shares == (0.9, 0.0, 0.1)


def csv_rows(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def test_csv_row_count_and_header():
    cfg = small_config()
    rows = csv_rows(experiments.trajectory_csv(experiments.run(cfg), cfg))
    header, data = rows[0], rows[1:]
    assert header == (
        "generation,cdt_count,cdt_share,cdt_mean_score,"
        "fdt_count,fdt_share,fdt_mean_score"
    )
    # snapshots at 5, 10 plus the final generation 12
    assert len(data) == math.ceil(cfg.generations / cfg.snapshot_every)
    assert data[-1].startswith("12,")


def test_csv_byte_identical_across_runs():
    cfg = small_config()
    a = experiments.trajectory_csv(experiments.run(cfg), cfg)
    b = experiments.trajectory_csv(experiments.run(cfg), cfg)
    assert a == b


def test_csv_metadata_lines():
    cfg = small_config()
    text = experiments.trajectory_csv(experiments.run(cfg), cfg)
    comments = [l for l in text.splitlines() if l.startswith("#")]
    assert any("config:" in l for l in comments)
    assert any(f"seed: {cfg.seed}" in l for l in comments)


def test_scenario_command(capsys):
    assert cli.main(["scenario", "newcomb", "--theory", "fdt"]) == 0
    out = capsys.readouterr().out
    assert "chosen: one-box" in out
    assert "990000" in out


def test_scenario_command_with_override(capsys):
    assert cli.main(["scenario", "twin-pd", "--theory", "fdt", "--rho", "0.5"]) == 0
    assert "chosen: D" in capsys.readouterr().out


# A scenario parameter is an ordinary flag: ``--name=value`` and unique abbreviations work.
@pytest.mark.parametrize("flag", [["--accuracy=0.5"], ["--acc", "0.5"]])
def test_scenario_parameter_flag_forms(flag, capsys):
    assert cli.main(["scenario", "newcomb", "--accuracy", "0.5"]) == 0
    expected = capsys.readouterr().out
    assert cli.main(["scenario", "newcomb"] + flag) == 0
    assert capsys.readouterr().out == expected
    assert "EU[two-box] = 501000" in expected


# argparse alone reads only -5 and -.5 as numbers: -1e5 after a space would be a flag.
def test_negative_exponent_after_a_space_is_a_value(capsys):
    assert cli.main(["scenario", "newcomb", "--small-box", "-1e5"]) == 0
    expected = capsys.readouterr().out
    assert cli.main(["scenario", "newcomb", "--small-box=-1e5"]) == 0
    assert capsys.readouterr().out == expected
    assert "EU[two-box] = -90000" in expected


def test_scenario_help_lists_every_parameter_with_its_default(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["scenario", "newcomb", "-h"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, value in scenario_defaults("newcomb").items():
        assert f"--{name.replace('_', '-')} {name.upper()} default: {value}" in text


# Every scenario under every theory but smoking-edt/fdt, a FAILURES row; a two-box prior of 1
# prunes newcomb's one-box branch, which CDT and FDT still score by forcing the decision.
@pytest.mark.parametrize("scenario, theory, params", [
    *((scenario, theory, {}) for scenario in SCENARIO_IDS for theory in sorted(THEORIES)
      if (scenario, theory) != ("smoking-edt", "fdt")),
    ("newcomb", "cdt", {"two_box_prior": 1.0}),
    ("newcomb", "fdt", {"two_box_prior": 1.0}),
])
def test_scenario_prints_each_eu_in_domain_order_and_the_choice(scenario, theory, params, capsys):
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in params.items()]
    assert cli.main(["scenario", scenario, "--theory", theory] + flags) == 0
    problem = build(scenario, **params)
    report = decide(problem, theory)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        f"scenario: {scenario}",
        f"theory: {theory}",
        *(f"  EU[{action}] = {report.expected_utility[action]:.6g}" for action in problem.actions),
        f"chosen: {report.chosen}",
    ]


# Small runs, so that a flag the CLI fails to refuse costs little.
SMALL = ["--population", "100", "--rounds", "1", "--generations", "1"]
NEWCOMB_SMALL = ["--preset", "newcomb-baseline"] + SMALL


def test_evolve_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli.main([
        "evolve", "--preset", "newcomb-baseline",
        "--population", "100", "--generations", "10", "--rounds", "5",
        "--snapshot-every", "5", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    assert "final shares" in capsys.readouterr().out
    assert len(csv_rows(out.read_text())) == 1 + 2  # header + gens 5, 10


def test_evolve_command_reads_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config().to_dict()))
    assert cli.main(["evolve", "--config", str(path)]) == 0


def test_evolve_runs_with_agents_that_sit_out(capsys):
    # At odd N with one round an agent sits out each generation and scores 0.
    assert cli.main([
        "evolve", "--preset", "pd-invasion", "--population", "37", "--rounds", "1",
        "--birth-rate", "0.1", "--generations", "50",
    ]) == 0
    assert "final shares" in capsys.readouterr().out


def assert_runs_as_float_twin(run, params, tmp_path, capsys):
    """``run`` with integer ``params`` writes the data rows of its twin with the equal floats."""
    rows = []
    for game_params in (params, {k: float(v) for k, v in params.items()}):
        path, out = tmp_path / "cfg.json", tmp_path / "run.csv"
        path.write_text(json.dumps(dict(run, game_params=game_params)))
        assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        rows.append(csv_rows(out.read_text()))
    assert rows[0] == rows[1]
    capsys.readouterr()


def test_evolve_takes_pd_payoffs_beyond_int64(tmp_path, capsys):
    payoffs = {"cc": 7 * 10**19, "cd": 10**19, "dc": 10**20, "dd": 4 * 10**19}
    assert_runs_as_float_twin(PD_RUN, payoffs, tmp_path, capsys)


@pytest.mark.parametrize("high", [10_000, 10**15 + 1, 10**17, 2 * 10**17])
def test_evolve_scores_integer_newcomb_payoffs_as_floats(high, tmp_path, capsys):
    # Beyond 2**53 an int64 sum of these payoffs is exact or wraps, where float64 rounds.
    run = {"game": "newcomb", "population": 300, "generations": 20, "rounds": 100, "seed": 3,
           "initial_shares": [0.5, 0.5]}
    assert_runs_as_float_twin(run, {"high": high, "low": 1001}, tmp_path, capsys)


@pytest.mark.parametrize("shares", [[0.1, 0.8, 0.1], [0.01, 0.19, 0.8]])
def test_evolve_scores_integer_beauty_bounds_as_floats(shares, tmp_path, capsys):
    # Clamped to an integer bound, both guesses made an int64 row that truncated every Random draw.
    run = {"game": "beauty", "population": 300, "generations": 30, "rounds": 10, "seed": 1,
           "initial_shares": shares}
    assert_runs_as_float_twin(run, {"low": 10, "high": 100}, tmp_path, capsys)


def test_evolve_runs_with_a_perfect_signal_about_an_extinct_type(tmp_path, capsys):
    # No agent can send signal 1, so it has no posterior; the FDT policy answers it with D.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        dict(PD_RUN, initial_shares=[0.9, 0.0, 0.1], game_params={"signal_accuracy": 1.0})
    ))
    assert cli.main(["evolve", "--config", str(path)]) == 0
    assert "final shares" in capsys.readouterr().out


def test_evolve_out_that_is_a_directory_fails_when_written(tmp_path, capsys):
    # Its parent directory exists, so only the write itself can find the fault.
    assert cli.main(["evolve", "--out", str(tmp_path)] + NEWCOMB_SMALL) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {tmp_path}: ") and captured.err.count("\n") == 1


# A missing output directory is found before the run starts, not after it ends.
@pytest.mark.parametrize("argv", [
    ["evolve", "--preset", "newcomb-baseline"],
    ["sweep", "--preset", "newcomb-sweep", "--runs", "3"],
])
def test_missing_out_dir_exits_2_before_any_run(argv, tmp_path, monkeypatch, capsys):
    def no_run(config):
        raise AssertionError("experiments.run called")

    monkeypatch.setattr(experiments, "run", no_run)
    assert cli.main(argv + ["--out", str(tmp_path / "missing" / "a.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1


# A run path that is an existing directory passes the check before the runs; its write fails.
def test_sweep_out_that_is_a_directory_fails_when_written(tmp_path, capsys):
    (tmp_path / "run0").mkdir()
    argv = ["sweep", "--preset", "newcomb-sweep", "--runs", "2", "--out", str(tmp_path / "run{i}")]
    assert cli.main(argv + SMALL) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'run0'}: ") and err.count("\n") == 1


# Any ValueError is bad input or a run that cannot finish, not only the error classes known today.
def test_any_value_error_from_a_run_exits_1_with_one_error_line(monkeypatch, capsys):
    def fail(config):
        raise ValueError("the run cannot finish")

    monkeypatch.setattr(experiments, "run", fail)
    assert cli.main(["evolve", "--preset", "newcomb-baseline"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the run cannot finish\n"


# At N = 3 and one round an agent sits out: two scorers for three replacements.
def test_sweep_run_that_cannot_finish_exits_1_naming_the_run(capsys):
    argv = ["sweep", "--preset", "pd-payoff-sweep", "--runs", "2", "--population", "3",
            "--rounds", "1", "--generations", "1", "--birth-rate", "1"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "sweep pd-payoff-sweep: 2 runs\n"
    assert captured.err.startswith("error: run 0: ") and captured.err.count("\n") == 1


# At N = 2**53 numpy refuses to allocate the start types: the MemoryError names the run too.
def test_sweep_run_too_large_to_allocate_exits_1_naming_the_run(capsys):
    assert cli.main(["sweep", "--preset", "newcomb-sweep", "--runs", "2", "--population", str(2**53),
                     "--generations", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "sweep newcomb-sweep: 2 runs\n"
    assert captured.err.startswith("error: run 0: Unable to allocate ") and captured.err.count("\n") == 1


PD_RUN = {
    "game": "pd", "population": 40, "generations": 2, "rounds": 3,
    "initial_shares": [1 / 3, 1 / 3, 1 / 3], "birth_rate": 0.05,
}
BEAUTY_RUN = {"game": "beauty", "population": 300, "generations": 2, "rounds": 2,
              "initial_shares": [0.34, 0.33, 0.33]}
PD_OVERFLOW = {"game": "pd", "population": 200, "generations": 2, "rounds": 5,
               "initial_shares": [0.4, 0.3, 0.3],
               "game_params": {"cc": 1e307, "cd": 1e306, "dc": 1.7e308, "dd": 5e306}}
CONFIG = ["evolve", "--config", "CONFIG"]
EVOLVE_PD = ["evolve", "--preset", "pd-baseline"]
EVOLVE_NEWCOMB = ["evolve", "--preset", "newcomb-baseline"]
NEWCOMB = ["scenario", "newcomb"]
SWEEP_NEWCOMB = ["sweep", "--preset", "newcomb-sweep"]
SHARES = "initial_shares must be 3 finite, nonnegative numbers that sum to 1, got "
SWEEP_PRESETS = "sweep requires --preset, one of ['newcomb-sweep', 'pd-payoff-sweep', 'pd-signal-sweep']\n"


def repeated(flag):
    return f"flag {flag} given more than once\n"


# Bad input, or a valid run the engine cannot finish: case -> (argv, config or None, exit
# code, message). Each must exit with the code, print nothing on stdout, and print one stderr
# line that starts with ``error: `` and then the message; a message ending in a newline is the
# whole line. ``CONFIG`` in argv stands for the path of a file holding the config as JSON.
FAILURES = {
    "game-params-typo": (CONFIG, dict(PD_RUN, game_params={"signal_acuracy": 0.9}), 1,
                         "invalid game_params for 'pd': PdConfig.__init__() got an unexpected keyword argument"
                         " 'signal_acuracy'\n"),
    "payoff-order": (CONFIG, dict(PD_RUN, game_params={"cc": 1}), 1,
                     "payoffs must satisfy DC > CC > DD > CD as floats, got DC=10.0 CC=1.0 DD=4.0 CD=1.0\n"),
    "unknown-key": (CONFIG, dict(PD_RUN, birthrate=0.5), 1, "unknown config keys ['birthrate']; valid keys: "),
    "string-population": (CONFIG, dict(PD_RUN, population="40"), 1,
                          "population must be an integer >= 1, got '40'\n"),
    "two-pd-shares": (CONFIG, dict(PD_RUN, initial_shares=[0.5, 0.5]), 1, SHARES + "[0.5, 0.5]\n"),
    "nan-birth-rate": (CONFIG, dict(PD_RUN, birth_rate=math.nan), 1,
                       "birth_rate must be a number in [0, 1], got nan\n"),
    "top-level-list": (CONFIG, [PD_RUN], 1, "config must be a JSON object, got list\n"),
    "nan-shares": (CONFIG, dict(PD_RUN, initial_shares=[math.nan, 0.5, 0.5]), 1, SHARES + "[nan, 0.5, 0.5]\n"),
    "no-replacements": (CONFIG, {k: v for k, v in dict(PD_RUN, population=50).items() if k != "birth_rate"}, 1,
                        "birth_rate is positive but rounds to zero replacements per generation\n"),
    "rounds-0": (EVOLVE_PD + ["--rounds", "0"], None, 1, "rounds must be >= 1 when birth_rate is positive\n"),
    "negative-seed": (EVOLVE_PD + ["--seed", "-1"], None, 1, "seed must be an integer >= 0, got -1\n"),
    "negative-generations": (EVOLVE_PD + ["--generations", "-2"], None, 1,
                             "generations must be an integer >= 1, got -2\n"),
    "zero-generations": (EVOLVE_NEWCOMB + ["--population", "100", "--rounds", "2", "--generations", "0"],
                         None, 1, "generations must be an integer >= 1, got 0\n"),
    "nan-birth-rate-flag": (EVOLVE_PD + ["--birth-rate", "nan"], None, 1,
                            "birth_rate must be a number in [0, 1], got nan\n"),
    "evolve-no-config-or-preset": (["evolve"], None, 1, "one of --config or --preset is required\n"),
    "evolve-unknown-preset": (["evolve", "--preset", "nope"], None, 1, "unknown preset 'nope'; available: "),
    # I/O: a config file that cannot be read, an output directory that does not exist.
    "evolve-config-missing": (
        ["evolve", "--config", "/does/not/exist.json"], None, 2,
        "cannot read config: [Errno 2] No such file or directory: '/does/not/exist.json'\n"),
    "evolve-out-dir-missing": (EVOLVE_NEWCOMB + ["--population", "200", "--generations", "2", "--rounds", "2",
                                                 "--out", "/does/not/exist/run.csv"], None, 2,
                               "cannot write /does/not/exist/run.csv: /does/not/exist is not a directory\n"),
    # Scenario parameters: unknown, out of range, not finite.
    "scenario-unknown-parameter": (NEWCOMB + ["--boxes", "3"], None, 1, "unrecognized arguments: --boxes 3\n"),
    "scenario-accuracy-2": (NEWCOMB + ["--accuracy", "2.0"], None, 1,
                            "parameter 'accuracy' must be a probability, got 2.0\n"),
    "scenario-big-box-nan": (NEWCOMB + ["--big-box", "nan"], None, 1,
                             "parameter 'big_box' must be a finite number, got nan\n"),
    "scenario-big-box-inf": (NEWCOMB + ["--big-box", "inf"], None, 1,
                             "parameter 'big_box' must be a finite number, got inf\n"),
    "scenario-big-box-minus-inf": (NEWCOMB + ["--big-box", "-inf"], None, 1,
                                   "parameter 'big_box' must be a finite number, got -inf\n"),
    "scenario-big-box-equals-minus-inf": (NEWCOMB + ["--big-box=-inf"], None, 1,
                                          "parameter 'big_box' must be a finite number, got -inf\n"),
    # big-box + small-box overflows to an inf utility, which scored two-box at EU inf and chose it.
    "newcomb-utility-overflow": (NEWCOMB + ["--big-box", "1.7e308", "--small-box", "1e308"], None, 1,
                                 "utility of outcome ('two-box', 'one-box') is not finite: inf\n"),
    # A prior of 1 leaves the other action with probability zero, which EDT cannot condition on.
    "smoking-edt-smoke-prior-1": (["scenario", "smoking-edt", "--smoke-prior", "1", "--theory", "edt"], None, 1,
                                  "action 'not-smoke' with evidence {} has probability zero\n"),
    "newcomb-two-box-prior-1": (NEWCOMB + ["--two-box-prior", "1", "--theory", "edt"], None, 1,
                                "action 'one-box' with evidence {} has probability zero\n"),
    "smoking-edt-fdt": (["scenario", "smoking-edt", "--theory", "fdt"], None, 1,
                        "problem has no decision-function variable; functional evaluation undefined\n"),
    # Counts beyond 2**53, past which from_shares' float arithmetic is not exact: the error names
    # the field, not a numpy failure deep in the run.
    "population-1e20": (EVOLVE_NEWCOMB + ["--population", str(10**20)], None, 1,
                        "population must be at most 2**53 = 9007199254740992, got 100000000000000000000\n"),
    "population-int64-max": (EVOLVE_NEWCOMB + ["--population", str(2**63 - 1)], None, 1,
                             "population must be at most 2**53 = 9007199254740992, got 9223372036854775807\n"),
    "rounds-1e20": (EVOLVE_PD + ["--rounds", str(10**20)], None, 1,
                    "rounds must be at most 2**53 = 9007199254740992, got 100000000000000000000\n"),
    # Counts within 2**53 whose arrays numpy refuses outright (64 and 71 PiB): no allocation is attempted.
    "population-2-53-allocation": (EVOLVE_NEWCOMB + ["--population", str(2**53), "--generations", "1"], None, 1,
                                   "Unable to allocate "),
    "rounds-1e12-allocation": (EVOLVE_PD + ["--rounds", str(10**12), "--generations", "1"], None, 1,
                               "Unable to allocate "),
    # 1 / cap overflows to inf for a subnormal cap, which would score every agent 1 / inf = 0.
    "beauty-subnormal-cap": (CONFIG, dict(BEAUTY_RUN, population=23, generations=1, rounds=3, birth_rate=0.0,
                                          mutation_rate=0.0, seed=1, game_params={"cap": 5e-324}), 1,
                             "cap must be positive, with 1 / cap finite, got 5e-324\n"),
    # Strict orders that hold on the values as given but not on the floats the engine plays with:
    # 2**60 + 2 and 2**60 are one float, so CC == DD, both Newcomb types two-box,
    # and the guess range is empty.
    "pd-payoffs-tie-as-floats": (
        CONFIG, dict(PD_RUN, game_params={"cc": 2**60 + 2, "cd": 1, "dc": 2**61, "dd": 2**60}), 1,
        "payoffs must satisfy DC > CC > DD > CD as floats, got DC=2.305843009213694e+18"
        " CC=1.152921504606847e+18 DD=1.152921504606847e+18 CD=1.0\n"),
    "newcomb-payoffs-tie-as-floats": (
        CONFIG, dict(PD_RUN, game="newcomb", initial_shares=[0.5, 0.5],
                     game_params={"high": 2**60 + 2, "low": 2**60}), 1,
        "need high > low > 0 as floats, got high=1.152921504606847e+18 low=1.152921504606847e+18\n"),
    "beauty-range-empty-as-floats": (
        CONFIG, dict(PD_RUN, game="beauty", game_params={"low": 2**60, "high": 2**60 + 2}), 1,
        "guess range must be nonempty, high - low finite, as floats:"
        " [1.152921504606847e+18, 1.152921504606847e+18]\n"),
    # A guess range whose width overflows a float.
    "beauty-range-overflow": (
        CONFIG, dict(BEAUTY_RUN, game_params={"low": -1e308, "high": 1e308}), 1,
        "guess range must be nonempty, high - low finite, as floats: [-1e+308, 1e+308]\n"),
    # A round's sum of 300 guesses overflows to inf, which would score every agent 1 / inf = 0.
    "beauty-guess-sum-overflow": (CONFIG, dict(BEAUTY_RUN, game_params={"low": 1e308, "high": 1.7e308}), 1,
                                  "the sum of N = 300 guesses in [1e+308, 1.7e+308] is not finite\n"),
    "beauty-guess-sum-overflow-no-births": (
        CONFIG, dict(BEAUTY_RUN, birth_rate=0.0, game_params={"low": 1e308, "high": 1.7e308}), 1,
        "the sum of N = 300 guesses in [1e+308, 1.7e+308] is not finite\n"),
    # Usage errors found by argparse itself. Whether it quotes the choices after an invalid one
    # depends on the Python version.
    "string-population-flag": (["evolve", "--population", "abc"], None, 1,
                               "argument --population: invalid int value: 'abc'\n"),
    "unknown-theory": (NEWCOMB + ["--theory", "xdt"], None, 1, "argument --theory: invalid choice: 'xdt' "),
    "no-command": ([], None, 1, "the following arguments are required: command\n"),
    "evolve-unknown-flag": (EVOLVE_NEWCOMB + ["--bogus", "1"], None, 1, "unrecognized arguments: --bogus 1\n"),
    # Every single-valued flag, given twice (abbreviated, with ``=``, or with the same value both
    # times), is an error, not a silent last-value-wins.
    "repeated-scenario-parameter": (NEWCOMB + ["--accuracy", "0.5", "--accuracy", "0.6"], None, 1,
                                    repeated("--accuracy")),
    "repeated-theory": (NEWCOMB + ["--theory", "edt", "--theory", "cdt"], None, 1, repeated("--theory")),
    "repeated-population": (["evolve", "--population", "5", "--population", "6"], None, 1,
                            repeated("--population")),
    "repeated-population-abbreviated": (EVOLVE_NEWCOMB + ["--pop", "5"] + SMALL, None, 1,
                                        repeated("--population")),
    "repeated-preset": (EVOLVE_PD + NEWCOMB_SMALL, None, 1, repeated("--preset")),
    "repeated-seed-same-value": (["evolve", "--seed", "1", "--seed=1"] + NEWCOMB_SMALL, None, 1,
                                 repeated("--seed")),
    "repeated-config": (["evolve", "--config", "a.json", "--config", "b.json"], None, 1, repeated("--config")),
    "repeated-out": (["evolve", "--out", "no-dir/a.csv", "--out", "no-dir/b.csv"] + NEWCOMB_SMALL, None, 1,
                     repeated("--out")),
    "repeated-runs": (SWEEP_NEWCOMB + ["--runs", "0", "--runs", "0"] + SMALL, None, 1, repeated("--runs")),
    "repeated-birth-rate": (
        SWEEP_NEWCOMB + ["--runs", "0", "--birth-rate", "0.1", "--birth-rate", "0.2"] + SMALL, None, 1,
        repeated("--birth-rate")),
    "sweep-birth-rate-2": (["sweep", "--preset", "pd-payoff-sweep", "--birth-rate", "2"], None, 1,
                           "birth_rate must be a number in [0, 1], got 2.0\n"),
    "sweep-not-a-sweep-preset": (["sweep", "--preset", "pd-baseline"], None, 1, SWEEP_PRESETS),
    "sweep-no-preset": (["sweep"], None, 1, SWEEP_PRESETS),
    # --runs is checked before any run: at least 1, and for the signal sweep
    # at most the length of its accuracy grid.
    "sweep-runs-0": (SWEEP_NEWCOMB + ["--runs", "0"] + SMALL, None, 1, "runs must be >= 1, got 0\n"),
    "signal-sweep-runs-7": (["sweep", "--preset", "pd-signal-sweep", "--runs", "7"] + SMALL, None, 1,
                            "runs must be <= 6, the length of the accuracy grid\n"),
    # A sweep's runs come from its preset; a config file, even a valid one, is not taken.
    "sweep-config-flag": (SWEEP_NEWCOMB + ["--config", "CONFIG"] + SMALL, PD_RUN, 1,
                          "unrecognized arguments: --config "),
    # Valid configs whose run fails: at N = 3 and one round an agent sits
    # out, leaving two scorers for three replacements; and payoffs near the
    # float limit overflow the scores to inf, which no weight can come from.
    "too-few-scorers": (
        EVOLVE_PD + ["--population", "3", "--rounds", "1", "--generations", "1", "--birth-rate", "1"], None, 1,
        "2 agents scored above 0, fewer than the 3 replacements\n"),
    "score-overflow": (CONFIG, PD_OVERFLOW, 1, "defector scores sum to inf: not finite\n"),
    # Without births nothing weights the scores, but their means still go to the CSV.
    "score-overflow-no-births": (CONFIG, dict(PD_OVERFLOW, birth_rate=0.0), 1,
                                 "defector scores sum to inf: not finite\n"),
}


def failure_argv(case, tmp_path):
    """``case``'s argv, with ``CONFIG`` replaced by the path of a file holding its config."""
    argv, config = FAILURES[case][:2]
    path = tmp_path / "cfg.json"
    if config is not None:
        path.write_text(json.dumps(config))
    return [str(path) if arg == "CONFIG" else arg for arg in argv]


def assert_one_error_line(out, err, message):
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith("error: " + message), err


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failure_exits_with_its_code_and_one_error_line(case, tmp_path, capsys):
    code, message = FAILURES[case][2:]
    assert cli.main(failure_argv(case, tmp_path)) == code
    captured = capsys.readouterr()
    assert_one_error_line(captured.out, captured.err, message)


# ``python -m fdtsim.cli``, one case per exit code: the shell sees the code main returns.
@pytest.mark.parametrize("case", [None, "smoking-edt-fdt", "evolve-out-dir-missing"],
                         ids=["exit-0", "exit-1", "exit-2"])
def test_module_exit_code_reaches_the_shell(case, tmp_path):
    if case is None:
        argv, code = ["scenario", "newcomb"], 0
    else:
        argv, code = failure_argv(case, tmp_path), FAILURES[case][2]
    env = dict(os.environ, PYTHONPATH=str(Path(fdtsim.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "fdtsim.cli"] + argv, env=env, capture_output=True, text=True)
    assert done.returncode == code
    if case is None:
        assert done.stderr == "" and done.stdout.endswith("chosen: one-box\n")
    else:
        assert_one_error_line(done.stdout, done.stderr, FAILURES[case][3])


@pytest.mark.parametrize("preset, keys", [
    ("newcomb-sweep", ["accuracy=", "high="]),
    ("pd-payoff-sweep", ["cc=", "dc="]),
])
def test_sweep_writes_one_csv_per_run(preset, keys, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep", "--preset", preset, "--runs", "3",
        "--population", "200", "--generations", "3", "--rounds", "2",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    files = sorted(tmp_path.glob("sweep-*.csv"))
    assert len(files) == 3
    summary = capsys.readouterr().out
    assert all(key in summary for key in keys)


# Only a literal ``{i}`` is replaced; other braces are kept as they are.
@pytest.mark.parametrize("template, first", [
    ("a{i}.csv", "a0.csv"),
    ("a{i}{j}.csv", "a0{j}.csv"),
    ("a{i}{.csv", "a0{.csv"),
])
def test_sweep_out_template(template, first, tmp_path, capsys):
    argv = ["sweep", "--preset", "newcomb-sweep", "--runs", "2", "--out", str(tmp_path / template)]
    assert cli.main(argv + SMALL) == 0
    names = sorted(path.name for path in tmp_path.iterdir())
    assert len(names) == 2 and names[0] == first
    capsys.readouterr()


def test_pd_payoff_sweep_draws_are_dilemmas():
    import numpy as np

    from fdtsim.experiments import draw_pd_payoffs

    rng = np.random.default_rng(0)
    for _ in range(100):
        p = draw_pd_payoffs(rng)
        assert p["dc"] > p["cc"] > p["dd"] > p["cd"]
        assert all(float(v).is_integer() and 1 <= v <= 1000 for v in p.values())


def test_signal_sweep_grid():
    base, runs, _ = SWEEPS["pd-signal-sweep"]
    configs = experiments.sweep_configs("pd-signal-sweep", base, runs)
    accuracies = [info["signal_accuracy"] for _, info in configs]
    assert accuracies == [0.5, 0.6, 0.65, 0.7, 0.8, 0.9]
    seeds = {cfg.seed for cfg, _ in configs}
    assert len(seeds) == len(configs)  # per-run derived seeds are distinct


# Run i is the same whatever --runs is, and --seed seeds every run of the sweep.
@pytest.mark.parametrize("preset", sorted(SWEEPS))
def test_sweep_run_depends_only_on_its_index_and_the_base_seed(preset):
    base = SWEEPS[preset][0]
    five = experiments.sweep_configs(preset, base, 5)
    assert experiments.sweep_configs(preset, base, 2) == five[:2]
    reseeded = experiments.sweep_configs(preset, replace(base, seed=1), 5)
    assert not {cfg.seed for cfg, _ in five} & {cfg.seed for cfg, _ in reseeded}
