import json
import math
from dataclasses import replace

import pytest

from fdtsim import cli, experiments
from fdtsim.experiments import PRESETS, SWEEPS, ExperimentConfig
from fdtsim.scenarios import scenario_defaults


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


def test_scenario_help_lists_every_parameter_with_its_default(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["scenario", "newcomb", "-h"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, value in scenario_defaults("newcomb").items():
        assert f"--{name.replace('_', '-')} {name.upper()} default: {value}" in text


def test_scenario_command_bad_override():
    assert cli.main(["scenario", "newcomb", "--boxes", "3"]) == 1
    assert cli.main(["scenario", "newcomb", "--accuracy", "2.0"]) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_scenario_command_rejects_non_finite_override(value, capsys):
    assert cli.main(["scenario", "newcomb", "--big-box", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_scenario_command_rejects_repeated_override(capsys):
    assert cli.main(["scenario", "newcomb", "--accuracy", "0.5", "--accuracy", "0.6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "accuracy" in captured.err


# A prior of 1 leaves the other action with probability zero, which EDT cannot condition on.
@pytest.mark.parametrize("argv, action", [
    (["scenario", "smoking-edt", "--smoke-prior", "1", "--theory", "edt"], "'not-smoke'"),
    (["scenario", "newcomb", "--two-box-prior", "1", "--theory", "edt"], "'one-box'"),
])
def test_scenario_zero_probability_action_exits_1_naming_it(argv, action, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert action in captured.err


# Every single-valued flag, given twice (abbreviated, with ``=``, or with the
# same value both times), is an error, not a silent last-value-wins. The runs
# are small, so a regression fails fast instead of running a preset in full.
SMALL = ["--population", "100", "--rounds", "1", "--generations", "1"]
NEWCOMB_SMALL = ["--preset", "newcomb-baseline"] + SMALL


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["scenario", "newcomb", "--theory", "edt", "--theory", "cdt"], "--theory"),
        (["evolve", "--population", "5", "--population", "6"], "--population"),
        (["evolve", "--preset", "newcomb-baseline", "--pop", "5"] + SMALL, "--population"),
        (["evolve", "--preset", "pd-baseline"] + NEWCOMB_SMALL, "--preset"),
        (["evolve", "--seed", "1", "--seed=1"] + NEWCOMB_SMALL, "--seed"),
        (["evolve", "--config", "a.json", "--config", "b.json"], "--config"),
        (["evolve", "--out", "no-dir/a.csv", "--out", "no-dir/b.csv"] + NEWCOMB_SMALL, "--out"),
        (["sweep", "--preset", "newcomb-sweep", "--runs", "0", "--runs", "0"] + SMALL, "--runs"),
        (["sweep", "--preset", "newcomb-sweep", "--runs", "0", "--birth-rate", "0.1",
          "--birth-rate", "0.2"] + SMALL, "--birth-rate"),
    ],
)
def test_repeated_flag_exits_1_naming_it(argv, flag, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: flag {flag} given more than once\n"


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


def test_evolve_takes_pd_payoffs_beyond_int64(tmp_path, capsys):
    # The run matches the one with the equal float payoffs row for row.
    payoffs = {"cc": 7 * 10**19, "cd": 10**19, "dc": 10**20, "dd": 4 * 10**19}
    rows = []
    for params in (payoffs, {k: float(v) for k, v in payoffs.items()}):
        path, out = tmp_path / "cfg.json", tmp_path / "run.csv"
        path.write_text(json.dumps(dict(PD_RUN, game_params=params)))
        assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        rows.append(csv_rows(out.read_text()))
    assert rows[0] == rows[1]
    capsys.readouterr()


@pytest.mark.parametrize("high", [10_000, 10**15 + 1, 10**17, 2 * 10**17])
def test_evolve_scores_integer_newcomb_payoffs_as_floats(high, tmp_path, capsys):
    # Beyond 2**53 an int64 sum of these payoffs is exact or wraps, where float64 rounds.
    run = {"game": "newcomb", "population": 300, "generations": 20, "rounds": 100, "seed": 3,
           "initial_shares": [0.5, 0.5]}
    rows = []
    for params in ({"high": high, "low": 1001}, {"high": float(high), "low": 1001.0}):
        path, out = tmp_path / "cfg.json", tmp_path / "run.csv"
        path.write_text(json.dumps(dict(run, game_params=params)))
        assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        rows.append(csv_rows(out.read_text()))
    assert rows[0] == rows[1]
    capsys.readouterr()


def test_evolve_requires_config_or_preset(capsys):
    assert cli.main(["evolve"]) == 1
    assert cli.main(["evolve", "--preset", "nope"]) == 1
    capsys.readouterr()


def test_evolve_missing_config_file_is_io_error():
    assert cli.main(["evolve", "--config", "/does/not/exist.json"]) == 2


def test_evolve_unwritable_out_is_io_error():
    assert cli.main([
        "evolve", "--preset", "newcomb-baseline",
        "--population", "200", "--generations", "2", "--rounds", "2",
        "--out", "/does/not/exist/run.csv",
    ]) == 2


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


def test_evolve_rejects_unknown_flags():
    assert cli.main(["evolve", "--preset", "newcomb-baseline", "--bogus", "1"]) == 1


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
CONFIG = ["evolve", "--config", "CONFIG"]
EVOLVE_PD = ["evolve", "--preset", "pd-baseline"]

# Bad input, or a valid run the engine cannot finish: each must end in one
# ``error:`` line. ``CONFIG`` stands for the path of a file holding the JSON value.
REPRODUCERS = {
    "game-params-typo": (CONFIG, dict(PD_RUN, game_params={"signal_acuracy": 0.9})),
    "payoff-order": (CONFIG, dict(PD_RUN, game_params={"cc": 1})),
    "unknown-key": (CONFIG, dict(PD_RUN, birthrate=0.5)),
    "string-population": (CONFIG, dict(PD_RUN, population="40")),
    "two-pd-shares": (CONFIG, dict(PD_RUN, initial_shares=[0.5, 0.5])),
    "nan-birth-rate": (CONFIG, dict(PD_RUN, birth_rate=math.nan)),
    "top-level-list": (CONFIG, [PD_RUN]),
    "nan-shares": (CONFIG, dict(PD_RUN, initial_shares=[math.nan, 0.5, 0.5])),
    "no-replacements": (
        CONFIG, {k: v for k, v in dict(PD_RUN, population=50).items() if k != "birth_rate"}
    ),
    "rounds-0": (EVOLVE_PD + ["--rounds", "0"], None),
    "negative-seed": (EVOLVE_PD + ["--seed", "-1"], None),
    "negative-generations": (EVOLVE_PD + ["--generations", "-2"], None),
    "zero-generations": (
        ["evolve", "--preset", "newcomb-baseline", "--population", "100", "--rounds", "2",
         "--generations", "0"],
        None,
    ),
    "nan-birth-rate-flag": (EVOLVE_PD + ["--birth-rate", "nan"], None),
    # Counts beyond 2**53, past which from_shares' float arithmetic is not exact.
    "population-1e20": (["evolve", "--preset", "newcomb-baseline", "--population", str(10**20)], None),
    "population-int64-max": (["evolve", "--preset", "newcomb-baseline", "--population", str(2**63 - 1)], None),
    "rounds-1e20": (EVOLVE_PD + ["--rounds", str(10**20)], None),
    # Counts within 2**53 whose arrays numpy refuses outright (64 and 71 PiB): no allocation is attempted.
    "population-2-53-allocation": (
        ["evolve", "--preset", "newcomb-baseline", "--population", str(2**53), "--generations", "1"], None
    ),
    "rounds-1e12-allocation": (EVOLVE_PD + ["--rounds", str(10**12), "--generations", "1"], None),
    # 1 / cap overflows to inf for a subnormal cap, which would score every agent 1 / inf = 0.
    "beauty-subnormal-cap": (
        CONFIG,
        {"game": "beauty", "population": 23, "generations": 1, "rounds": 3,
         "initial_shares": [0.34, 0.33, 0.33], "birth_rate": 0.0, "mutation_rate": 0.0, "seed": 1,
         "game_params": {"cap": 5e-324}},
    ),
    # Strict orders that hold on the values as given but not on the floats the engine plays with:
    # 2**60 + 2 and 2**60 are one float, so CC == DD, both Newcomb types two-box,
    # and the guess range is empty.
    "pd-payoffs-tie-as-floats": (
        CONFIG, dict(PD_RUN, game_params={"cc": 2**60 + 2, "cd": 1, "dc": 2**61, "dd": 2**60})
    ),
    "newcomb-payoffs-tie-as-floats": (
        CONFIG,
        dict(PD_RUN, game="newcomb", initial_shares=[0.5, 0.5], game_params={"high": 2**60 + 2, "low": 2**60}),
    ),
    "beauty-range-empty-as-floats": (
        CONFIG, dict(PD_RUN, game="beauty", game_params={"low": 2**60, "high": 2**60 + 2})
    ),
    # Usage errors found by argparse itself.
    "string-population-flag": (["evolve", "--population", "abc"], None),
    "unknown-theory": (["scenario", "newcomb", "--theory", "xdt"], None),
    "no-command": ([], None),
    "sweep-birth-rate-2": (["sweep", "--preset", "pd-payoff-sweep", "--birth-rate", "2"], None),
    # --runs is checked before any run: at least 1, and for the signal sweep
    # at most the length of its accuracy grid.
    "sweep-runs-0": (["sweep", "--preset", "newcomb-sweep", "--runs", "0"] + SMALL, None),
    "signal-sweep-runs-7": (["sweep", "--preset", "pd-signal-sweep", "--runs", "7"] + SMALL, None),
    # A sweep's runs come from its preset; a config file, even a valid one, is not taken.
    "sweep-config-flag": (["sweep", "--preset", "newcomb-sweep", "--config", "CONFIG"] + SMALL, PD_RUN),
    # Valid configs whose run fails: at N = 3 and one round an agent sits
    # out, leaving two scorers for three replacements; and payoffs near the
    # float limit overflow the scores to inf, which no weight can come from.
    "too-few-scorers": (
        EVOLVE_PD + ["--population", "3", "--rounds", "1", "--generations", "1",
                     "--birth-rate", "1"],
        None,
    ),
    "score-overflow": (
        CONFIG,
        {"game": "pd", "population": 200, "generations": 2, "rounds": 5,
         "initial_shares": [0.4, 0.3, 0.3],
         "game_params": {"cc": 1e307, "cd": 1e306, "dc": 1.7e308, "dd": 5e306}},
    ),
    # Without births nothing weights the scores, but their means still go to the CSV.
    "score-overflow-no-births": (
        CONFIG,
        {"game": "pd", "population": 200, "generations": 2, "rounds": 5, "birth_rate": 0.0,
         "initial_shares": [0.4, 0.3, 0.3],
         "game_params": {"cc": 1e307, "cd": 1e306, "dc": 1.7e308, "dd": 5e306}},
    ),
}


BEAUTY_OVERFLOW = {"game": "beauty", "population": 300, "generations": 2, "rounds": 2,
                   "initial_shares": [0.34, 0.33, 0.33], "game_params": {"low": 1e308, "high": 1.7e308}}


@pytest.mark.parametrize("births", [{}, {"birth_rate": 0.0}], ids=["births", "no-births"])
def test_beauty_targets_that_overflow_exit_1_naming_the_range(births, tmp_path, capsys):
    # A round's sum of 300 guesses overflows to inf, which would score every agent 1 / inf = 0.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BEAUTY_OVERFLOW, **births)))
    assert cli.main(["evolve", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the sum of N = 300 guesses in [1e+308, 1.7e+308] is not finite\n"


def test_evolve_runs_with_a_perfect_signal_about_an_extinct_type(tmp_path, capsys):
    # No agent can send signal 1, so it has no posterior; the FDT policy answers it with D.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        dict(PD_RUN, initial_shares=[0.9, 0.0, 0.1], game_params={"signal_accuracy": 1.0})
    ))
    assert cli.main(["evolve", "--config", str(path)]) == 0
    assert "final shares" in capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(REPRODUCERS))
def test_bad_input_exits_1_with_one_error_line(case, tmp_path, capsys):
    argv, config = REPRODUCERS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main([str(path) if arg == "CONFIG" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# The error names the field, not a numpy failure deep in the run.
@pytest.mark.parametrize("case, name", [
    ("population-1e20", "population"), ("population-int64-max", "population"), ("rounds-1e20", "rounds"),
])
def test_count_beyond_2_53_exits_1_naming_the_field(case, name, capsys):
    assert cli.main(REPRODUCERS[case][0]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must be at most 2**53 ")


def test_sweep_writes_one_csv_per_run(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep", "--preset", "newcomb-sweep", "--runs", "3",
        "--population", "200", "--generations", "3", "--rounds", "2",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    files = sorted(tmp_path.glob("sweep-*.csv"))
    assert len(files) == 3
    summary = capsys.readouterr().out
    assert "accuracy=" in summary and "high=" in summary


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


def test_sweep_requires_known_preset():
    assert cli.main(["sweep", "--preset", "pd-baseline"]) == 1
    assert cli.main(["sweep"]) == 1


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
