import json
import math

import pytest

from fdtsim import cli, experiments
from fdtsim.experiments import PRESETS, ExperimentConfig, SweepSpec


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


def test_scenario_command_bad_override():
    assert cli.main(["scenario", "newcomb", "--boxes", "3"]) == 1
    assert cli.main(["scenario", "newcomb", "--accuracy", "2.0"]) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_scenario_command_rejects_non_finite_override(value, capsys):
    assert cli.main(["scenario", "newcomb", "--big-box", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


def test_evolve_rejects_unknown_flags():
    assert cli.main(["evolve", "--preset", "newcomb-baseline", "--bogus", "1"]) == 1


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
    "sweep-birth-rate-2": (["sweep", "--preset", "pd-payoff-sweep", "--birth-rate", "2"], None),
    # Valid configs whose run fails: an agent that sits out every round
    # scores 0, and a perfect signal about an extinct type has no posterior.
    "odd-n-sit-out": (
        EVOLVE_PD + ["--population", "37", "--rounds", "1", "--generations", "3",
                     "--birth-rate", "0.1", "--seed", "0"],
        None,
    ),
    "disjoint-signal-support": (
        CONFIG,
        dict(PD_RUN, initial_shares=[0.9, 0.0, 0.1], game_params={"signal_accuracy": 1.0}),
    ),
}


@pytest.mark.parametrize("case", sorted(REPRODUCERS))
def test_bad_input_exits_1_with_one_error_line(case, tmp_path, capsys):
    argv, config = REPRODUCERS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main([str(path) if arg == "CONFIG" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sweep_zero_runs(capsys):
    assert cli.main([
        "sweep", "--preset", "newcomb-sweep", "--runs", "0",
        "--population", "200", "--generations", "2", "--rounds", "2",
    ]) == 0
    assert "0 runs" in capsys.readouterr().out


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
    base = PRESETS["pd-baseline"]
    configs = experiments.sweep_configs("pd-signal", base, SweepSpec(runs=0))
    accuracies = [info["signal_accuracy"] for _, info in configs]
    assert accuracies == [0.5, 0.6, 0.65, 0.7, 0.8, 0.9]
    seeds = {cfg.seed for cfg, _ in configs}
    assert len(seeds) == len(configs)  # per-run derived seeds are distinct
