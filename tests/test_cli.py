import dataclasses
import inspect
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from kdivis import cli, divisibility, figures, measures, models, sweep
from kdivis.cli import main

#: (family, config and flag name, model attribute) of every model parameter
FAMILY_PARAMS = [
    ("pauli", "g1", "g1"), ("pauli", "g2", "g2"), ("pauli", "g3", "g3"),
    ("ad", "gamma0", "gamma0"), ("ad", "lambda", "lam"),
    ("cnot", "J", "J"), ("cnot", "gamma", "gamma"), ("cnot", "a", "a"),
    ("superradiance", "gamma0", "gamma0"), ("superradiance", "x", "x"),
    ("superradiance", "a", "a"),
]


def test_classify_hall_preset(capsys):
    assert main(["classify", "hall"]) == 0
    out = capsys.readouterr().out
    assert "class: PD1" in out
    assert "worst CP violation" in out
    assert "singular times: none" in out


def test_classify_weak_amplitude_damping(capsys):
    assert main(["classify", "ad", "--gamma0", "0.4", "--lambda", "1"]) == 0
    assert "class: PD2" in capsys.readouterr().out


def test_classify_single_sine_channel(capsys):
    code = main(["classify", "pauli", "--g1", "0", "--g2", "0", "--g3", "sin",
                 "--horizon", "6.3"])
    assert code == 0
    assert "class: PD0" in capsys.readouterr().out


def test_classify_from_config_file(tmp_path, capsys):
    cfg = {"model": {"family": "ad", "gamma0": 2.0, "lambda": 1.0},
           "run": {"horizon": 20.0, "steps": 300}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["classify", "--config", str(path)]) == 0
    assert "class: PD0" in capsys.readouterr().out


def test_flags_override_config(tmp_path, capsys):
    cfg = {"model": {"family": "ad", "gamma0": 2.0, "lambda": 1.0},
           "run": {"horizon": 20.0}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    # the flag drops gamma0 below lambda/2, flipping the verdict
    assert main(["classify", "--config", str(path), "--gamma0", "0.3"]) == 0
    assert "class: PD2" in capsys.readouterr().out


def test_config_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["classify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unreadable_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert main(["classify", "hall", "--config", str(path)]) == 1
    assert f"config error: cannot read config {path}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"run"', "null"])
def test_config_top_level_must_be_an_object(text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["classify", "hall", "--config", str(path)]) == 1
    assert f"config {path}: top level must be an object" in capsys.readouterr().err


def test_missing_horizon_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"family": "ad", "gamma0": 1.0, "lambda": 1.0}}))
    assert main(["classify", "--config", str(path)]) == 1
    assert "config error: run.horizon is required" in capsys.readouterr().err
    assert main(["classify", "--config", str(path), "--horizon", "2", "--steps", "20"]) == 0


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"family": "ad", "gamma0": 1.0,
                                          "lambda": 1.0, "typo": 3},
                                "run": {"horizon": 5.0}}))
    assert main(["classify", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_wrong_family_parameter_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"family": "pauli", "gamma0": 1.0},
                                "run": {"horizon": 5.0}}))
    assert main(["classify", "--config", str(path)]) == 1


def test_missing_model_parameter_is_config_error(capsys):
    assert main(["classify", "ad", "--horizon", "5"]) == 0  # preset fills params
    assert main(["classify", "--horizon", "5"]) == 1  # no model at all
    assert "config error" in capsys.readouterr().err


def test_model_error_exit_code(capsys):
    # invalid physical parameter: a > 1
    assert main(["classify", "cnot", "--a", "1.5", "--horizon", "5"]) == 2
    assert "error" in capsys.readouterr().err


def test_overflowing_pauli_model_is_run_error(capsys):
    argv = ["classify", "pauli", "--g1", "-100", "--g2", "1", "--g3", "1",
            "--horizon", "10", "--steps", "20"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Bloch eigenvalue overflows float64 from t = 7.5:")


def test_negative_exponent_form_value_takes_the_equals_form(monkeypatch, capsys):
    # argparse reads "-1e-3" after a space as a flag, not as a negative number
    argv = ["classify", "pauli", "--g2", "1", "--g3", "1", "--horizon", "2", "--steps", "20"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--g1", "-1e-3"])
    assert exc.value.code == 2
    assert "--g1: expected one argument" in capsys.readouterr().err
    seen = []
    classify = divisibility.classify
    monkeypatch.setattr(cli.divisibility, "classify",
                        lambda model, *args: seen.append(model) or classify(model, *args))
    assert main([*argv, "--g1=-1e-3"]) == 0
    assert seen[0].g1 == models.RateFn.constant(-1e-3)
    assert seen[0].g1(0.5) == -1e-3
    assert main([*argv, "--g1", "-0.001"]) == 0
    assert seen[1] == seen[0]


#: a C-NOT model whose maps are singular from t = 9.4 on
SINGULAR = ["cnot", "--J", "1", "--gamma", "1", "--a", "0", "--horizon", "40", "--steps", "200"]


def test_singular_times_are_reported(capsys):
    assert main(["classify", *SINGULAR]) == 0
    out = capsys.readouterr().out
    assert "singular times: 9.4, 9.6, 9.8, 10, 10.2, 10.4, 10.6, 10.8 (+145 more)\n" in out
    assert main(["rhp", *SINGULAR]) == 0
    assert "singular steps skipped: 153\n" in capsys.readouterr().out


def test_blp_and_rhp_commands(tmp_path, capsys):
    out = tmp_path / "blp_series.csv"
    assert main(["blp", "hall", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "BLP measure" in text and "detected: no" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 501

    out2 = tmp_path / "rhp_series.csv"
    assert main(["rhp", "hall", "--out", str(out2)]) == 0
    text = capsys.readouterr().out
    assert "RHP measure" in text and "detected: yes" in text
    assert out2.read_text().startswith("t,value")


@pytest.mark.parametrize("command", ["blp", "rhp"])
def test_series_out_is_flag_only(command, tmp_path, monkeypatch, capsys):
    # a config shared with sweep names the sweep's files; a series ignores it
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(json.dumps({"output": {"path": "series.csv"}}))
    assert main([command, "hall", "--steps", "50", "--config", "c.json"]) == 0
    assert "wrote" not in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
    assert main([command, "hall", "--steps", "50", "--config", "c.json",
                 "--out", "s.csv"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "s.csv"]
    assert Path("s.csv").read_text().startswith("t,value\n")
    # the flag sets no config key either
    args = cli.build_parser().parse_args([command, "--out", "s.csv"])
    assert cli._flag_overrides(args) == {}


def test_sweep_command(tmp_path, capsys):
    cfg = {
        "model": {"family": "ad"},
        "sweep": {"x": {"name": "gamma0", "min": 0.1, "max": 1.5, "n": 4},
                  "y": {"name": "lambda", "min": 0.4, "max": 1.6, "n": 3}},
        "run": {"horizon": 30.0, "steps": 150, "measures": True, "jobs": 1},
        "output": {"path": str(tmp_path / "phase"), "format": "both"},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path)]) == 0
    csv_text = (tmp_path / "phase.csv").read_text()
    cells = sweep.parse_csv(csv_text)
    assert len(cells) == 12
    assert (tmp_path / "phase.svg").read_text().startswith("<svg")
    # atomic writes leave no temp files behind
    assert not list(tmp_path.glob("*.tmp"))


#: (family, x axis, y axis, cells) of each preset sweep
PRESET_FIGURES = {
    "fig1": [("pauli", ("g1", -1.0, 1.0, 101), ("g2", -1.0, 1.0, 101), 101 * 101)] * 2,
    "fig2": [("cnot", ("gamma", 0.01, 1.0, 41), ("a", 0.0, 1.0, 41), 41 * 41)],
    "fig3": [("ad", ("gamma0", 0.05, 2.0, 101), ("lambda", 0.1, 2.0, 101), 101 * 101)],
    "fig4": [("superradiance", ("x", 0.05 * math.pi, 3.0 * math.pi, 60), ("a", 0.0, 1.0, 41),
              60 * 41)],
}


def test_preset_figures_keep_their_families_axes_and_sizes():
    # the specs are built, not swept; the largest preset has 20402 cells
    assert sorted(PRESET_FIGURES) == sorted(figures.FIGURES)
    for name, expected in PRESET_FIGURES.items():
        specs = figures.figure_specs(name)
        assert [(s.family, dataclasses.astuple(s.x), dataclasses.astuple(s.y), s.x.n * s.y.n)
                for s in specs] == expected
    assert [s.fixed for s in figures.figure_specs("fig1")] == [{"g3": "const:0.5"},
                                                               {"g3": "const:-0.5"}]
    # fig4 puts x = pi, 2 pi and 3 pi, where the single atom is Markovian, on grid columns
    xs = figures.figure_specs("fig4")[0].x.values()
    for k in (1, 2, 3):
        assert np.abs(xs - k * math.pi).min() <= 2 * np.spacing(k * math.pi)


@pytest.mark.parametrize("command", ["blp", "sweep", "figure"])
def test_unwritable_output_is_run_error(command, tmp_path, monkeypatch, capsys):
    # a path under a regular file: makedirs fails before any temp file exists,
    # and sweep and figure fail so before the first cell is evaluated
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell was evaluated before the output directory was made")

    monkeypatch.setattr(sweep, "run_sweep", no_cells)
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {"blp": ["blp", "hall", "--steps", "50", "--out", str(blocker / "x.csv")],
            "sweep": ["sweep", "--config", str(_tiny_sweep_config(tmp_path)),
                      "--out", str(blocker / "s")],
            "figure": ["figure", "fig3", "--out-dir", str(blocker / "d"), "--jobs", "2"]}
    assert main(argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and str(blocker) in err
    assert not list(tmp_path.rglob("*.tmp"))
    assert blocker.read_text() == ""


def test_fig1_cross_check_disagreement_is_run_error(tmp_path, monkeypatch, capsys):
    # an analytic fill that paints everything PD2 disagrees with the numeric
    # classifier at the first checked cell, (g1, g2) = (-1, -1), which is PD0
    monkeypatch.setattr(divisibility, "constant_pauli_class",
                        lambda g1, g2, g3: divisibility.DivisibilityClass.PD2)
    assert main(["figure", "fig1", "--out-dir", str(tmp_path / "figs")]) == 2
    err = capsys.readouterr().err
    assert "error: numeric cross-check failed at (g1=-1, g2=-1, g3=0.5)" in err
    assert "analytic PD2, numeric PD0" in err
    assert list((tmp_path / "figs").iterdir()) == []


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        figures.atomic_write_text(target, "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_text() == "old\n"


def test_fig1_fills_the_region_predicates(tmp_path):
    written = figures.generate_figure("fig1", tmp_path, jobs=1)
    assert sorted(p.name for p in written) == [
        "fig1_g3_neg.csv", "fig1_g3_neg.svg", "fig1_g3_pos.csv", "fig1_g3_pos.svg"]
    for spec, (sign, g3) in zip(figures.figure_specs("fig1"), (("pos", 0.5), ("neg", -0.5))):
        assert (tmp_path / f"fig1_g3_{sign}.svg").read_text().startswith("<svg")
        cells = sweep.parse_csv((tmp_path / f"fig1_g3_{sign}.csv").read_text())
        points = [(g1, g2) for g2 in spec.y.values() for g1 in spec.x.values()]
        assert len(cells) == len(points) == 101 * 101
        for cell, (g1, g2) in zip(cells, points):
            assert (cell.x, cell.y) == pytest.approx((g1, g2), abs=1e-9)
            assert cell.pd_class == str(divisibility.constant_pauli_class(g1, g2, g3))
            margin = min(abs(g1), abs(g2), abs(g3), abs(g1 + g2), abs(g2 + g3), abs(g3 + g1))
            assert cell.near_boundary == (margin < 0.05)


def test_figure_command_writes_files(tmp_path, monkeypatch):
    # shrink fig2 so the end-to-end path stays fast
    small = [sweep.GridSpec(
        family="cnot",
        x=sweep.ParamRange("gamma", 0.02, 0.5, 3),
        y=sweep.ParamRange("a", 0.0, 1.0, 3),
        fixed={"J": 1.0}, horizon=6.0, n_steps=120)]
    monkeypatch.setattr(figures, "figure_specs", lambda name: small)
    assert main(["figure", "fig2", "--out-dir", str(tmp_path), "--jobs", "1"]) == 0
    assert (tmp_path / "fig2.csv").exists()
    assert (tmp_path / "fig2.svg").exists()
    cells = sweep.parse_csv((tmp_path / "fig2.csv").read_text())
    # pure-control rows are Markovian
    assert all(c.pd_class == "PD2" for c in cells if c.y in (0.0, 1.0))


def test_presets_serialize_and_rebuild():
    for name, preset in cli.PRESETS.items():
        text = json.dumps(preset)
        reparsed = json.loads(text)
        cli.validate_config(reparsed)
        assert reparsed == preset
        cfg = cli.load_run_config(name, None, None)
        model = cli._build_model(cfg)
        assert model is not None


def test_invalid_preset_rejected():
    with pytest.raises(cli.RunConfigError):
        cli.load_run_config("nope", None, None)


def test_sweep_missing_blocks_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"family": "ad", "gamma0": 1.0,
                                          "lambda": 1.0},
                                "run": {"horizon": 5.0}}))
    assert main(["sweep", "--config", str(path)]) == 1


def test_sweep_missing_fixed_parameter_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": {"family": "cnot"},
        "sweep": {"x": {"name": "gamma", "min": 0.01, "max": 1.0, "n": 2},
                  "y": {"name": "a", "min": 0.0, "max": 1.0, "n": 2}},
        "run": {"horizon": 2.0, "steps": 20}}))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
    assert "missing fixed parameter(s) ['J']" in capsys.readouterr().err


def test_sweep_epsilon_beyond_grid_step_is_config_error(tmp_path, capsys):
    # the schema only requires epsilon > 0; a step longer than
    # horizon/steps would fail every cell, so the spec is rejected up front
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": {"family": "ad"},
        "sweep": {"x": {"name": "gamma0", "min": 0.5, "max": 1.0, "n": 2},
                  "y": {"name": "lambda", "min": 0.5, "max": 1.0, "n": 2}},
        "run": {"horizon": 2.0, "steps": 20, "epsilon": 0.5}}))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
    assert "epsilon must lie in (0, horizon/n_steps]" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["classify", "rhp"])
def test_invalid_run_block_is_config_error(command, capsys):
    # the same run block that fails a sweep spec is a config error here too,
    # not a numerical failure (exit 2)
    argv = [command, "ad", "--gamma0", "1", "--lambda", "1",
            "--horizon", "2", "--steps", "20", "--epsilon", "0.5"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "epsilon must lie in (0, horizon/n_steps]" in err


def test_main_propagates_programming_errors(monkeypatch):
    # only config, model and numerical failures map to exit codes; a
    # KeyError is a bug and must surface instead of becoming exit 2
    def broken(*args, **kwargs):
        raise KeyError("unexpected key")

    monkeypatch.setattr(cli.divisibility, "classify", broken)
    with pytest.raises(KeyError, match="unexpected key"):
        main(["classify", "hall"])


def _built_model(argv):
    args = cli.build_parser().parse_args(argv)
    return cli._build_model(cli.load_run_config(args.preset, args.config,
                                                cli._flag_overrides(args)))


def test_flag_table_covers_every_model_parameter():
    assert sorted(FAMILY_PARAMS) == sorted(
        (tag, p.name, p.attr) for tag, fam in models.MODEL_FAMILIES.items()
        for p in fam.params)


@pytest.mark.parametrize("family, name, attr", FAMILY_PARAMS)
def test_model_parameter_flag_and_config_type(family, name, attr, tmp_path, capsys):
    rate = family == "pauli"
    if rate:
        assert getattr(_built_model(["classify", family, f"--{name}", "sin"]), attr).tag == "sin"
        built = _built_model(["classify", family, f"--{name}", "0.5"])
        assert getattr(built, attr).tag == "const:0.5"
    else:
        assert getattr(_built_model(["classify", family, f"--{name}", "0.25"]), attr) == 0.25
    # a config value of the wrong kind is a config error
    model_cfg = dict(cli.PRESETS[family]["model"], **{name: [0.5] if rate else "0.25"})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": model_cfg, "run": {"horizon": 1.0}}))
    assert main(["classify", "--config", str(path)]) == 1
    assert f"config field model/{name}" in capsys.readouterr().err


#: (subcommand and its positional, a flag it does not read) for every
#: subcommand; sweep reads every run and output flag
IGNORED_FLAGS = [
    *((["figure", "fig1"], f) for f in (["--out", "x"], ["--horizon", "1"], ["--steps", "3"],
                                         ["--epsilon", "99"], ["--tol", "7"])),
    *((["classify", "hall"], f) for f in (["--out", "x"], ["--format", "svg"], ["--jobs", "7"],
                                           ["--pairs", "3"], ["--detection", "1"])),
    *((["blp", "hall"], f) for f in (["--epsilon", "0.001"], ["--tol", "5"],
                                      ["--format", "svg"], ["--jobs", "7"])),
    *((["rhp", "hall"], f) for f in (["--tol", "5"], ["--format", "svg"], ["--jobs", "7"],
                                      ["--pairs", "3"])),
]


@pytest.mark.parametrize("flag", [command + f for command, f in IGNORED_FLAGS])
def test_figure_rejects_flags_it_does_not_read(flag, tmp_path, monkeypatch, capsys):
    # every subcommand, figure first; the flag is the last two arguments
    monkeypatch.chdir(tmp_path)  # a parser that took the flag would write here
    with pytest.raises(SystemExit) as exc:
        main(flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag[2:])}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_subcommands_take_the_flags_they_read(tmp_path):
    parser = cli.build_parser()
    for argv in (["classify", "hall", "--horizon", "1", "--steps", "3", "--epsilon", "0.1",
                  "--tol", "1e-6"],
                 ["blp", "hall", "--horizon", "1", "--steps", "3", "--pairs", "2",
                  "--detection", "0.1", "--out", "x"],
                 ["rhp", "hall", "--horizon", "1", "--steps", "3", "--epsilon", "0.1",
                  "--detection", "0.1", "--out", "x"],
                 ["sweep", "--horizon", "1", "--steps", "3", "--epsilon", "0.1", "--tol", "1",
                  "--pairs", "2", "--detection", "1", "--out", "x", "--format", "csv",
                  "--jobs", "1", "--measures"],
                 ["figure", "fig1", "--format", "csv", "--jobs", "1"]):
        parser.parse_args([*argv, "--config", str(tmp_path / "c.json")])


@pytest.mark.parametrize("cfg, keys", [
    ({"run": {"steps": 3, "horizon": 1.0}}, "['run.steps', 'run.horizon']"),
    ({"model": {"family": "ad"}, "run": {"jobs": 1}}, "['model']"),
    ({"sweep": {"x": {"name": "gamma0", "min": 0.1, "max": 1.0, "n": 2},
                "y": {"name": "lambda", "min": 0.1, "max": 1.0, "n": 2}}}, "['sweep']"),
    ({"output": {"path": "p", "dir": "d"}}, "['output.path']"),
])
def test_figure_rejects_config_keys_it_does_not_read(cfg, keys, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "figs"
    assert main(["figure", "fig1", "--config", str(path), "--out-dir", str(out_dir)]) == 1
    assert f"figure does not read config key(s) {keys}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_figure_reads_jobs_and_output_dir_and_format_from_config(tmp_path, monkeypatch):
    small = [sweep.GridSpec(
        family="ad", x=sweep.ParamRange("gamma0", 0.1, 1.5, 2),
        y=sweep.ParamRange("lambda", 0.4, 1.6, 2), fixed={}, horizon=2.0, n_steps=20)]
    monkeypatch.setattr(figures, "figure_specs", lambda name: small)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"run": {"jobs": 1},
                                "output": {"dir": str(tmp_path / "figs"), "format": "csv"}}))
    assert main(["figure", "fig3", "--config", str(path)]) == 0
    assert [p.name for p in (tmp_path / "figs").iterdir()] == ["fig3.csv"]
    # the flag overrides the config's directory
    assert main(["figure", "fig3", "--config", str(path), "--out-dir", "flag"]) == 0
    assert [p.name for p in (tmp_path / "flag").iterdir()] == ["fig3.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "figs", "flag"]


@pytest.mark.parametrize("argv, message", [
    (["classify", "cnot", "--gamma", "nan"], "gamma must be finite, got nan"),
    (["classify", "ad", "--gamma0", "nan"], "gamma0 must be finite, got nan"),
    (["blp", "superradiance", "--x", "inf"], "x must be finite, got inf"),
    (["rhp", "pauli", "--g2=-inf"], "g2: constant rate must be finite, got -inf"),
])
def test_non_finite_model_flag_is_model_error(argv, message, capsys):
    assert main([*argv, "--steps", "20"]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["classify", "hall", "--tol", "nan"], "run/tolerance: nan"),
    (["blp", "hall", "--detection", "inf"], "run/detection: inf"),
    (["rhp", "hall", "--horizon", "inf"], "run/horizon: inf"),
])
def test_non_finite_run_flag_is_config_error(argv, field, capsys):
    assert main(argv) == 1
    assert f"config error: config field {field} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_literal_is_config_error(literal, tmp_path, capsys):
    # Python's json accepts these literals; a sweep with one failed every cell
    text = json.dumps({
        "model": {"family": "cnot", "J": 1.0},
        "sweep": {"x": {"name": "gamma", "min": 0.01, "max": 1.0, "n": 2},
                  "y": {"name": "a", "min": 0.0, "max": 1.0, "n": 2}},
        "run": {"horizon": 2.0, "steps": 20, "jobs": 1},
        "output": {"path": str(tmp_path / "s")}}).replace("1.0,", f"{literal},", 1)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["sweep", "--config", str(path)]) == 1
    assert f"{literal} is not a finite number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def _tiny_sweep_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": {"family": "ad"},
        "sweep": {"x": {"name": "gamma0", "min": 0.5, "max": 1.0, "n": 2},
                  "y": {"name": "lambda", "min": 0.5, "max": 1.0, "n": 2}},
        "run": {"horizon": 2.0, "steps": 20, "jobs": 1}}))
    return path


def test_sweep_output_name_keeps_its_dots(tmp_path, capsys):
    path = _tiny_sweep_config(tmp_path)
    runs = tmp_path / "runs"
    for out in ("gamma0.5", "gamma0.7", "phase.csv", "map.svg"):
        assert main(["sweep", "--config", str(path), "--out", str(runs / out)]) == 0
    assert sorted(p.name for p in runs.iterdir()) == [
        "gamma0.5.csv", "gamma0.5.svg", "gamma0.7.csv", "gamma0.7.svg",
        "map.csv", "map.svg", "phase.csv", "phase.svg"]


def test_output_files_get_the_umask_mode_and_keep_their_own(tmp_path, capsys):
    old = os.umask(0o022)
    try:
        out = tmp_path / "r.csv"
        assert main(["rhp", "hall", "--steps", "50", "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        out.chmod(0o640)
        assert main(["rhp", "hall", "--steps", "50", "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        os.umask(0o077)
        new = figures.atomic_write_text(tmp_path / "new.csv", "t,value\n")
        assert stat.S_IMODE(new.stat().st_mode) == 0o600
    finally:
        os.umask(old)


#: a value other than the default for every key of the settings table
SETTING_VALUES = {
    "run.pairs": 3, "run.detection": 0.5, "run.horizon": 2.5, "run.steps": 30,
    "run.epsilon": 0.01, "run.tolerance": 1e-6, "run.jobs": 3, "run.measures": True,
    "output.path": "p.csv", "output.format": "svg", "output.dir": "d",
}


@pytest.mark.parametrize("setting, command", [
    (s, c) for s in cli._SETTINGS if s.flag and s.key for c in sorted(s.readers)],
    ids=lambda v: v if isinstance(v, str) else v.flag)
def test_flag_and_config_key_give_the_same_config(setting, command, tmp_path):
    value = SETTING_VALUES[f"{setting.block}.{setting.key}"]
    assert value != setting.default
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({setting.block: {setting.key: value}}))
    argv = [command, *(["fig1"] if command == "figure" else []), setting.flag,
            *([] if value is True else [str(value)])]
    from_flag = cli.load_run_config(
        None, None, cli._flag_overrides(cli.build_parser().parse_args(argv)))
    assert from_flag == cli.load_run_config(None, path, None)
    assert cli._block(from_flag, setting.block)[setting.key] == value


@pytest.mark.parametrize("setting", [s for s in cli._SETTINGS if s.key],
                         ids=lambda s: f"{s.block}.{s.key}")
def test_figure_accepts_exactly_the_keys_it_reads(setting, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(figures, "generate_figure", lambda *args, **kwargs: [])
    key = f"{setting.block}.{setting.key}"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({setting.block: {setting.key: SETTING_VALUES[key]}}))
    code = main(["figure", "fig1", "--config", str(path)])
    if "figure" in setting.readers:
        assert code == 0
    else:
        assert code == 1
        assert f"figure does not read config key(s) ['{key}']" in capsys.readouterr().err


def test_cli_run_defaults_match_the_library_defaults():
    run = cli._block({}, "run")
    spec = {f.name: f.default for f in dataclasses.fields(sweep.GridSpec)}
    classify = inspect.signature(divisibility.classify).parameters
    blp = inspect.signature(measures.blp_measure).parameters
    rhp = inspect.signature(measures.rhp_measure).parameters
    assert run["steps"] == spec["n_steps"] == classify["n_steps"].default
    assert run["steps"] == blp["n_steps"].default == rhp["n_steps"].default
    assert run["pairs"] == spec["n_pairs"] == blp["n_pairs"].default
    assert run["epsilon"] == spec["epsilon"] == classify["epsilon"].default
    assert run["epsilon"] == rhp["epsilon"].default
    assert run["tolerance"] == spec["tol"] == classify["tol"].default
    assert run["detection"] == spec["detection"]


def test_import_loads_no_scipy_or_jsonschema():
    # numpy is the one runtime dependency; scipy and jsonschema serve the tests
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, kdivis, kdivis.cli; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('scipy', 'jsonschema')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out == "[]\n"


def _config_error(cfg) -> str | None:
    try:
        cli.validate_config(cfg)
    except cli.RunConfigError as exc:
        return str(exc)
    return None


#: the value that makes :func:`_with` drop a key
_DROP = object()


def _with(cfg: dict, path: tuple, val) -> dict:
    """A copy of ``cfg`` with the value at ``path`` replaced, or removed if ``val`` is _DROP."""
    out = json.loads(json.dumps(cfg))
    *parents, last = path
    node = out
    for key in parents:
        node = node[key]
    if val is _DROP:
        del node[last]
    else:
        node[last] = val
    return out


#: the keys that hold an int; an integral float there is the one value the
#: schema accepted and the flag table rejects
INT_FIELDS = [("run", "steps"), ("run", "pairs"), ("run", "jobs"),
              ("sweep", "x", "n"), ("sweep", "y", "n")]

#: values tried at every key: each wrong kind, values at and below every
#: bound, integral floats, non-finite floats, rate strings and choices
PROBES = ["x", "", [1], [], True, False, None, {}, {"a": 1}, -1, 0, 1, 2, 3, 10**20,
          -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, math.inf, -math.inf, math.nan,
          "const:1", "sin", "tanh-neg", "csv", "svg", "both", "pauli", "ad"]


def _config_corpus():
    """(config, path of an integral-float int key or None) pairs."""
    base = {"model": {"family": "cnot", "J": 1.0, "gamma": 0.1, "a": 0.5},
            "sweep": {"x": {"name": "gamma", "min": 0.01, "max": 1.0, "n": 3},
                      "y": {"name": "a", "min": 0.0, "max": 1.0, "n": 3}},
            "run": {"horizon": 2.0, "steps": 20, "pairs": 8, "detection": 1e-5,
                    "epsilon": 0.01, "tolerance": 1e-9, "jobs": 2, "measures": True},
            "output": {"path": "s", "format": "both", "dir": "d"}}
    configs = [base, *cli.PRESETS.values()]
    # the sweep configs the benchmark writes
    for family, x, y, fixed, horizon in (
            ("ad", ("gamma0", 0.05, 2.0), ("lambda", 0.1, 2.0), {}, 100.0),
            ("cnot", ("gamma", 0.01, 1.0), ("a", 0.0, 1.0), {"J": 1.0}, 10.0),
            ("superradiance", ("x", 0.05 * math.pi, 3.0 * math.pi), ("a", 0.0, 1.0),
             {"gamma0": 1.0}, 10.0)):
        configs.append({
            "model": {"family": family, **fixed},
            "sweep": {axis: {"name": name, "min": lo + 0.003, "max": hi - 0.01, "n": 41}
                      for axis, (name, lo, hi) in (("x", x), ("y", y))},
            "run": {"horizon": horizon, "steps": 500, "measures": True, "jobs": 2},
            "output": {"path": "p/sweep-0", "format": "both"}})
    for name, val in SETTING_VALUES.items():
        block, _, key = name.partition(".")
        configs.append({block: {key: val}})
    # every key of every block: each probe value, and the key dropped
    leaves = [("model", "family"), *(("run", key) for key in base["run"]),
              *(("output", key) for key in base["output"]),
              *(("sweep", axis, key) for axis in "xy" for key in base["sweep"][axis])]
    bases = {path: base for path in leaves}
    for name in cli.PRESETS:
        model = cli.PRESETS[name]["model"]
        for key in model.keys() - {"family"}:
            bases[("model", key)] = {**base, "model": model}
    for path, cfg in bases.items():
        configs += [_with(cfg, path, val) for val in [*PROBES, _DROP]]
    # unknown keys at every level; non-object, empty and missing blocks and axes
    for path in [(), ("model",), ("sweep",), ("sweep", "x"), ("sweep", "y"), ("run",),
                 ("output",)]:
        configs.append(_with(base, (*path, "typo"), 1))
        if path:
            configs += [_with(base, path, val)
                        for val in ["x", 3, 1.5, [], [1], None, True, {}, _DROP]]
    configs += [{}, [], "x", 3, None, {"model": {"family": "pauli", "gamma0": 1.0}},
                {"model": {"family": "ad", "g1": "sin", "J": 1.0}},
                {"model": {"family": ["pauli"]}}, {"model": {"family": {"pauli": 1}}}]
    return [(cfg, next((path for path in INT_FIELDS if _is_integral_float(_at(cfg, path))),
                       None)) for cfg in configs]


def _at(cfg, path: tuple):
    for key in path:
        if not isinstance(cfg, dict) or key not in cfg:
            return None
        cfg = cfg[key]
    return cfg


def _is_integral_float(val) -> bool:
    return isinstance(val, float) and val.is_integer()


def test_flag_table_check_matches_the_schema():
    corpus = _config_corpus()
    assert len(corpus) > 1000
    judged = {"accepted": 0, "rejected": 0, "integral float": 0}
    for cfg, int_path in corpus:
        old, new = oracles.schema_config_error(cfg), _config_error(cfg)
        if int_path is not None and old is None:
            # the schema took 2.0 for an integer; the flag table wants an int
            assert new is not None and new.startswith(f"config field {'/'.join(int_path)}: ")
            judged["integral float"] += 1
            continue
        assert (old is None) == (new is None), (cfg, old, new)
        if old is None:
            judged["accepted"] += 1
            continue
        judged["rejected"] += 1
        if old.startswith("config field "):
            assert new.startswith("config field "), (cfg, old, new)
        else:
            assert new == old  # the family's parameter check
    assert min(judged.values()) > 10, judged


@pytest.mark.parametrize("path", INT_FIELDS, ids=lambda p: "/".join(p))
def test_integral_float_for_an_int_is_config_error(path, tmp_path, capsys):
    cfg = json.loads(_tiny_sweep_config(tmp_path).read_text())
    cfg = _with(cfg, path, 2.0)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "s")]) == 1
    assert f"config error: config field {'/'.join(path)}: 2.0 is not of type ['int']" in (
        capsys.readouterr().err)
    assert not (tmp_path / "s.csv").exists()
