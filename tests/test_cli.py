"""End-to-end command line runs on small configurations."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spindetect import runner
from spindetect.cli import main
from spindetect.output import read_csv

import helpers
from helpers import rates_config, small_continuum_config


def tiny_continuum_config():
    """Continuum run from explicit rates, ~1 s."""
    return {
        "kind": "continuum",
        "label": "tiny",
        "packet": {"mass_kg": helpers.CESIUM_MASS_KG,
                   "mean_velocity_m_per_s": 1.79,
                   "momentum_width_hbar_per_m": 2.0e7},
        "detector": {"resonance_per_s": helpers.RESONANCE},
        "rates_override": {"decay_per_s": 1.2e7, "shift_per_s": -2.0e7},
        "numerics": {"continuum": {
            "x_min_l0": -120.0, "x_max_l0": 120.0, "grid_spacing_l0": 0.05,
            "time_start_t0": -8.0, "time_stop_t0": 8.0, "time_step_t0": 0.02,
            "snapshots": 2}},
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_validate_preset(capsys):
    assert main(["validate", "--preset", "figure1"]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    assert "kind=compare" in out


def test_validate_rejects_bad_config(tmp_path, capsys):
    cfg = rates_config()
    cfg["packet"]["momentum_width_hbar_per_m"] = -3.0
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 2
    assert "momentum_width_hbar_per_m" in capsys.readouterr().err


def test_validate_rejects_non_finite_numbers(tmp_path, capsys):
    # json.load reads NaN and Infinity; validation must stop them, not the run
    cfg = small_continuum_config()
    cfg["numerics"]["continuum"]["time_step_t0"] = float("nan")
    path = write_config(tmp_path, cfg)
    assert "NaN" in path.read_text()
    assert main(["validate", "--config", str(path)]) == 2
    assert "numerics.continuum.time_step_t0" in capsys.readouterr().err


def test_unknown_preset_lists_available(capsys):
    assert main(["rates", "--preset", "definitely-not-a-preset"]) == 2
    err = capsys.readouterr().err
    assert "figure1" in err


def test_rates_run_values_and_rerun_stability(tmp_path, capsys):
    path = write_config(tmp_path, rates_config())
    out1 = tmp_path / "out1"
    assert main(["rates", "--config", str(path), "--out", str(out1)]) == 0
    stdout = capsys.readouterr().out
    assert "rates.csv" in stdout and "manifest.json" in stdout

    cols = read_csv(out1 / "rates.csv")
    assert cols["decay_rate_per_s"][0] == pytest.approx(
        helpers.DECAY_RATE_REF, rel=1e-12)
    assert cols["level_shift_per_s"][0] == pytest.approx(
        helpers.LEVEL_SHIFT_REF, rel=1e-12)
    assert cols["recurrence_time_s"][0] == pytest.approx(
        helpers.RECURRENCE_REF, rel=1e-12)
    assert cols["correlation_time_s"][0] == pytest.approx(
        helpers.CORRELATION_TIME_REF, rel=1e-12)

    # the manifest is a valid config source and reruns byte-identically
    out2 = tmp_path / "out2"
    assert main(["rates", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert (out2 / "rates.csv").read_bytes() == (out1 / "rates.csv").read_bytes()
    assert main(["validate", "--config", str(out1 / "manifest.json")]) == 0


def test_continuum_run_with_flag_overrides(tmp_path):
    path = write_config(tmp_path, tiny_continuum_config())
    out = tmp_path / "out"
    code = main(["continuum", "--config", str(path), "--out", str(out),
                 "--no-shift", "--snapshots", "3", "--fields"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["include_shift"] is False
    assert manifest["config"]["numerics"]["continuum"]["snapshots"] == 3
    assert manifest["outputs"]["fields_cont"] == "fields_cont.csv"
    fields = read_csv(out / "fields_cont.csv")
    assert len(fields) == 1 + 2 * 3

    w1 = read_csv(out / "w1_cont.csv")
    assert list(w1) == ["t_s", "no_detection_prob", "detection_density_per_s"]
    balance = manifest["summary"]["continuum"]["norm_balance"]
    assert balance["continuity_residual_relative"] < 1e-9
    # the tight grid clips the launch tails at 4.4 sigma, so the budget
    # carries that norm deficit; wide production grids hold it near 1e-12
    assert balance["detection_integral_gap"] < 2e-5
    split = manifest["summary"]["continuum"]["mass_split"]
    assert sum(split.values()) == pytest.approx(1.0, abs=1e-6)
    assert split["detected"] > 0.01


def test_continuum_rerun_is_byte_stable(tmp_path):
    path = write_config(tmp_path, tiny_continuum_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["continuum", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["continuum", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "w1_cont.csv").read_bytes() == (out2 / "w1_cont.csv").read_bytes()


def test_window_off_the_step_grid_warns(tmp_path):
    """A span of 800.65 steps runs 801, to 8.02 t0; the manifest names the
    configured and the used end instead of moving it silently."""
    cfg = tiny_continuum_config()
    cfg["numerics"]["continuum"]["time_stop_t0"] = 8.013
    out = tmp_path / "out"
    assert main(["continuum", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    moved = [w for w in manifest["warnings"] if "time window" in w]
    assert moved == ["time window ends at 8.02 t0, not the configured 8.013 t0: "
                     "the span is not a whole number of 0.02 t0 steps"]
    # perfbench counts warnings by these phrases; this one is none of them
    assert not any(p in moved[0] for p in ("refined x", "edge mass", "window edges"))
    # w1 sits on step midpoints: the last one is half a step before 8.02
    t_last = read_csv(out / "w1_cont.csv")["t_s"][-1]
    assert t_last / helpers.make_units().time_unit == pytest.approx(8.01, rel=1e-12)


def test_failed_matching_nodes_reach_the_manifest(tmp_path, monkeypatch, capsys):
    """A matching node that fails is dropped from the synthesis; the run
    says so once in its manifest and once on stderr."""
    from spindetect import discrete

    solve = discrete.match_at_origin

    def first_node_fails(*args, **kwargs):
        solution = solve(*args, **kwargs)
        solution.failed[0] = True
        return solution

    monkeypatch.setattr(discrete, "match_at_origin", first_node_fails)
    cfg = helpers.small_compare_config()
    cfg["kind"] = "discrete"
    del cfg["numerics"]["continuum"], cfg["comparison"]
    out = tmp_path / "out"
    assert main(["discrete", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    message = "dropping 1 failed matching nodes from synthesis"
    assert manifest["warnings"].count(message) == 1
    assert capsys.readouterr().err.count(message) == 1


def test_cli_prints_each_run_warning_once(tmp_path):
    """A zero-decay run whose packet reaches the right wall raises the
    initial-norm, edge-mass and residual-mass warnings.  Run as its own
    process, so that nothing else catches the warnings: stderr has one
    "warning:" line per manifest entry and no other copy of any of them."""
    cfg = small_continuum_config()
    del cfg["bath"]
    cfg["rates_override"] = {"decay_per_s": 0.0}
    cfg["numerics"]["continuum"].update(
        x_min_l0=-80.0, x_max_l0=60.0, grid_spacing_l0=0.1, time_start_t0=-6.0,
        time_stop_t0=11.0, time_step_t0=0.01)
    out = tmp_path / "out"
    src = str(Path(runner.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "spindetect.cli", "continuum",
                           "--config", str(write_config(tmp_path, cfg)), "--out", str(out)],
                          env=env, capture_output=True, text=True, check=True)
    listed = json.loads((out / "manifest.json").read_text())["warnings"]
    assert [sum(phrase in w for w in listed)
            for phrase in ("initial norm", "edge mass", "residual mass")] == [1, 1, 1]
    assert done.stderr.splitlines() == [f"warning: {w}" for w in listed]


def test_any_warning_raised_during_a_run_reaches_the_manifest(tmp_path, monkeypatch):
    """run_config records every UserWarning raised inside it, wherever it
    comes from and each time it is raised, and does not let it escape to
    the caller."""
    stats = runner.arrival_stats

    def warning_stats(*args, **kwargs):
        for _ in range(2):
            warnings.warn("a probe warning from arrival_stats")
        return stats(*args, **kwargs)

    monkeypatch.setattr(runner, "arrival_stats", warning_stats)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = runner.run_config(tiny_continuum_config(), tmp_path)
    assert manifest["warnings"].count("a probe warning from arrival_stats") == 2


def test_sweep_over_decay_rate(tmp_path):
    cfg = tiny_continuum_config()
    cfg["kind"] = "sweep"
    cfg["sweep"] = {"parameter": "rates_override.decay_per_s",
                    "values": [0.0, 1.2e7], "run": "continuum"}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out),
                 "--jobs", "1"]) == 0
    cols = read_csv(out / "summary.csv")
    np.testing.assert_array_equal(cols["status_ok"], [1.0, 1.0])
    np.testing.assert_array_equal(cols["value"], [0.0, 1.2e7])
    # no decay, no detection; the moments are then undefined
    assert abs(cols["detected"][0]) < 1e-10
    assert np.isnan(cols["mean_arrival_s"][0])
    assert cols["detected"][1] > 0.01
    assert (out / "run_001" / "w1_cont.csv").exists()
    # the sweep re-raises each sub-run's warnings under its run_### prefix
    listed = [f"run_{i:03d}: {w}" for i in range(2) for w in json.loads(
        (out / f"run_{i:03d}" / "manifest.json").read_text())["warnings"]]
    assert listed
    assert json.loads((out / "manifest.json").read_text())["warnings"] == listed


def test_config_file_must_exist(capsys):
    assert main(["rates", "--config", "/nonexistent/cfg.json"]) == 2
    assert "error" in capsys.readouterr().err
