"""End-to-end command line runs on small configurations."""

import concurrent.futures
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spindetect
from spindetect import runner
from spindetect.cli import main
from spindetect.conditional import ConditionalTrajectory
from spindetect.config import resolve_config
from spindetect.errors import NumericsError, SpindetectError
from spindetect.output import read_csv

import helpers
from helpers import (rates_config, refined_fluorescence_config, small_continuum_config,
                     small_discrete_config)


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


def test_validate_rejects_a_table_out_of_order(tmp_path, capsys):
    """The run would stop on the same table; validate names its path."""
    cfg = small_continuum_config()
    cfg["detector"]["sensitivity"] = {"kind": "tabulated", "x_l0": [0.0, 4.0, 2.0],
                                      "values": [0.0, 1.0, 0.5]}
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 2
    assert ("config error at detector.sensitivity.x_l0: must be strictly increasing"
            in capsys.readouterr().err)
    out = tmp_path / "run"
    assert main(["continuum", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_validate_rejects_a_block_the_kind_does_not_read(tmp_path, capsys):
    """A fluorescence run never reads a bath; a config without a kind gets
    the generic checks only."""
    cfg = helpers.fluorescence_config()
    cfg["bath"] = rates_config()["bath"]
    assert main(["validate", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "config error at bath: not read by fluorescence runs" in capsys.readouterr().err
    del cfg["kind"]
    assert main(["validate", "--config", str(write_config(tmp_path, cfg))]) == 0
    assert "kind=unspecified" in capsys.readouterr().out


def test_too_few_simpson_points_are_a_config_error(tmp_path, capsys):
    """A right spacing over twice x_max leaves one Simpson point over
    [0, x_max]; the run stops with a configuration error, not a
    ZeroDivisionError."""
    cfg = helpers.small_compare_config()
    cfg["kind"] = "discrete"
    del cfg["numerics"]["continuum"], cfg["comparison"]
    cfg["numerics"]["discrete"].update(x_max_l0=0.5, right_spacing_l0=2.0)
    out = tmp_path / "out"
    assert main(["discrete", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)]) == 2
    assert "fewer than 3 Simpson points" in capsys.readouterr().err


@pytest.mark.parametrize("build, block, keys, path", [
    (small_discrete_config, "discrete",
     {"time_start_t0": 0.0, "time_stop_t0": 0.75, "time_step_t0": 0.25},
     "numerics.discrete.time_step_t0"),
    (small_continuum_config, "continuum",
     {"time_start_t0": 0.0, "time_stop_t0": 0.01, "time_step_t0": 0.01},
     "numerics.continuum.time_step_t0"),
    (small_continuum_config, "continuum",
     {"x_min_l0": -0.3, "x_max_l0": 0.3, "grid_spacing_l0": 0.1},
     "numerics.continuum.grid_spacing_l0"),
], ids=["discrete-window", "continuum-window", "continuum-grid"])
def test_validate_rejects_the_point_counts_the_run_rejects(tmp_path, capsys, build, block,
                                                           keys, path):
    """validate names the key that sets the short grid; the run stops on the
    same error before it creates --out."""
    cfg = build()
    cfg["numerics"][block].update(keys)
    config = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(config)]) == 2
    assert f"config error at {path}: " in capsys.readouterr().err
    out = tmp_path / "out"
    assert main([cfg["kind"], "--config", str(config), "--out", str(out)]) == 2
    assert f"config error at {path}: " in capsys.readouterr().err
    assert not out.exists()


def test_fluorescence_without_detuning_or_linewidth_fails_before_running(tmp_path, capsys):
    """The one-channel limit needs detuning or linewidth; resolving the
    config says so, before the two-channel leg runs and writes its CSV."""
    cfg = helpers.fluorescence_config()
    cfg["fluorescence"]["linewidth_per_s"] = 0.0
    cfg["numerics"]["continuum"].update(time_start_t0=-5.0, time_stop_t0=-4.0)
    out = tmp_path / "out"
    assert main(["fluorescence", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)]) == 2
    assert ("config error at fluorescence: detuning_per_s and linewidth_per_s cannot "
            "both vanish") in capsys.readouterr().err
    assert not (out / "w1_fluor.csv").exists()


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


@pytest.mark.parametrize("coupling, absent", [
    (helpers.COUPLING, set()),
    (0.0, {"quadrature_decay_rate_per_s", "quadrature_level_shift_per_s",
           "correlation_time_s"}),
], ids=["coupled", "zero-coupling"])
def test_rates_csv_lists_the_manifest_values(tmp_path, coupling, absent):
    """Each rates.csv column is the manifest's resonance or derived value of
    that name, NaN where the derived block has none: a zero-coupling bath
    has no quadrature rates and no correlation time."""
    cfg = rates_config()
    cfg["bath"]["coupling_sqrt_per_s"] = coupling
    runner.run_config(cfg, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    listed = {"resonance_per_s": manifest["config"]["detector"]["resonance_per_s"],
              **manifest["derived"]}
    cols = read_csv(tmp_path / "rates.csv")
    assert list(cols) == list(runner.RATES_COLUMNS)
    assert {c for c in cols if c not in listed} == absent
    for c, values in cols.items():
        np.testing.assert_array_equal(values, [listed.get(c, np.nan)], err_msg=c)


def test_continuum_run_with_config_overrides(tmp_path):
    cfg = tiny_continuum_config()
    cfg["include_shift"] = False
    cfg["numerics"]["continuum"].update(snapshots=3, write_fields=True)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["continuum", "--config", str(path), "--out", str(out)]) == 0
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


def test_a_run_without_the_shift_runs_a_zero_shift(tmp_path):
    """include_shift false writes the w1 of the same rates with a zero shift,
    byte for byte, and not that of the shifted run."""
    runs = []
    for include, shift in ((False, -2.0e7), (True, 0.0), (True, -2.0e7)):
        cfg = tiny_continuum_config()
        cfg["include_shift"] = include
        cfg["rates_override"]["shift_per_s"] = shift
        out = tmp_path / f"{include}{shift:g}"
        runner.run_config(cfg, out)
        runs.append((out / "w1_cont.csv").read_bytes())
    assert runs[0] == runs[1] != runs[2]


@pytest.mark.parametrize("command, flags", [
    ("rates", ["--no-shift"]), ("rates", ["--snapshots", "3"]), ("rates", ["--fields"]),
    ("sweep", ["--jobs", "0"]), ("sweep", ["--jobs", "-5"]), ("compare", ["--jobs", "2"])])
def test_removed_flags_and_nonpositive_jobs_are_usage_errors(tmp_path, command, flags, capsys):
    """The three override flags are gone (their config keys remain), --jobs
    below 1 is refused rather than clamped, and only a sweep takes --jobs.
    The flags fail before the config is read."""
    path = write_config(tmp_path, rates_config())
    with pytest.raises(SystemExit) as stop:
        main([command, "--config", str(path), "--out", str(tmp_path / "out")] + flags)
    assert stop.value.code == 2
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_that_cannot_be_created_is_a_usage_error(tmp_path, capsys):
    """An --out naming an existing file is one error line and exit 2, not a
    traceback."""
    afile = tmp_path / "afile"
    afile.write_text("")
    path = write_config(tmp_path, rates_config())
    assert main(["rates", "--config", str(path), "--out", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create --out {afile}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_tabulated_table_is_relative_to_the_detector_start(tmp_path):
    """start_l0 shifts a tabulated sensitivity: a table starting at 2 l0 runs
    bit for bit like the same table written 2 l0 further right, and unlike
    the table left at 0 l0."""
    runs = []
    for start, x_l0 in ((2.0, [0.0, 4.0, 120.0]), (0.0, [2.0, 6.0, 122.0]),
                        (0.0, [0.0, 4.0, 120.0])):
        cfg = tiny_continuum_config()
        cfg["detector"]["sensitivity"] = {"kind": "tabulated", "start_l0": start,
                                          "x_l0": x_l0, "values": [0.0, 1.0, 1.0]}
        out = tmp_path / f"start{start:g}"
        assert main(["continuum", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        runs.append((out / "w1_cont.csv").read_bytes())
    assert runs[0] == runs[1] != runs[2]


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
    assert moved == ["time window: a 0.02 t0 step does not fit [-8, 8.013] t0; the grid "
                     "takes 802 points at 0.02 t0 over [-8, 8.02] t0"]
    # perfbench counts warnings by these phrases; this one is none of them
    assert not any(p in moved[0] for p in ("refined x", "edge mass", "window edges"))
    # w1 sits on step midpoints: the last one is half a step before 8.02
    t_last = read_csv(out / "w1_cont.csv")["t_s"][-1]
    assert t_last / helpers.make_units().time_unit == pytest.approx(8.01, rel=1e-12)


def test_each_grid_warns_when_its_step_does_not_fit(monkeypatch):
    """The time windows, the continuum grid and the discrete right grid take
    their point counts by one rule.  The figure1 preset's steps fit, and
    nothing warns.  Steps that do not fit warn in the same words with the
    grid taken: a time window keeps its step and moves its end, a spatial
    grid keeps its ends, and the right grid's Simpson count is odd."""
    class RightGrid(Exception):
        pass

    def right_grid(*args, right_points, **kwargs):
        raise RightGrid(right_points)

    monkeypatch.setattr(runner, "detection_density_discrete", right_grid)
    cfg = resolve_config(spindetect.load_preset("figure1"))
    scene = runner.build_scene(cfg)

    def point_counts():
        grid = runner._continuum_setup(cfg, scene)[0]
        with pytest.raises(RightGrid) as right:
            runner._run_discrete(cfg, scene, None)
        return grid.n_points, right.value.args[0]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert point_counts() == (70001, 10001)
    cfg["numerics"]["continuum"].update(grid_spacing_l0=0.015, time_stop_t0=45.001)
    cfg["numerics"]["discrete"].update(x_max_l0=180.0, right_spacing_l0=0.07)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert point_counts() == (46668, 2573)
    assert [str(w.message) for w in caught] == [
        "continuum grid: a 0.015 l0 step does not fit [-350, 350] l0; the grid takes "
        "46668 points at 0.0149998928579 l0 over [-350, 350] l0",
        "time window: a 0.004 t0 step does not fit [-25, 45.001] t0; the grid takes "
        "17501 points at 0.004 t0 over [-25, 45] t0",
        "discrete right grid: a 0.07 l0 step does not fit [0, 180] l0; the grid takes "
        "2573 points at 0.0699844479005 l0 over [0, 180] l0"]


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


def test_manifest_version_is_the_package_version(tmp_path):
    # read with a regex: tomllib needs Python 3.11 and the project supports 3.10
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    manifest = runner.run_config(rates_config(), tmp_path)
    assert manifest["version"] == spindetect.__version__ == declared


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


@pytest.fixture(scope="module")
def refined_fluorescence(tmp_path_factory):
    out = tmp_path_factory.mktemp("refined_fluorescence")
    return out, runner.run_config(refined_fluorescence_config(), out)


@pytest.mark.parametrize("build, fields_flag", [
    (tiny_continuum_config, False), (tiny_continuum_config, True),
    (refined_fluorescence_config, False), (refined_fluorescence_config, True),
], ids=["continuum", "continuum-fields", "fluorescence", "fluorescence-fields"])
def test_runs_keep_snapshots_only_when_they_write_fields(tmp_path, monkeypatch, build,
                                                        fields_flag):
    """A propagation keeps the configured snapshot count when the run writes
    its fields, and only the launch and final fields (2) otherwise; the
    fluorescence limit leg's fields are never written.  Each record is seen
    where this process writes its density CSV, as the fluorescence limit
    leg propagates in a forked child."""
    kept = []
    to_csv = ConditionalTrajectory.to_csv

    def recording(traj, path):
        kept.append(traj.snapshots.shape[1])
        to_csv(traj, path)

    monkeypatch.setattr(ConditionalTrajectory, "to_csv", recording)
    cfg = build()
    cfg["numerics"]["continuum"].update(snapshots=7, write_fields=fields_flag)
    runner.run_config(cfg, tmp_path)
    written = 7 if fields_flag else 2
    assert kept == ([written, 2] if cfg["kind"] == "fluorescence" else [written])


def _artifacts(out: Path) -> dict:
    """Every file of a run directory, the manifest without its clock fields."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["wall_clock_s"], manifest["created_utc"]
    return {**files, "manifest.json": manifest}


@pytest.mark.parametrize("fields_flag", [False, True], ids=["no-fields", "fields"])
def test_forked_limit_leg_is_the_in_process_run(tmp_path, monkeypatch, fields_flag):
    """The limit leg forked beside the two-channel leg and the same leg run
    in this process write the same bytes and manifest, warnings in order:
    the limit leg's after the two-channel leg's."""
    limit_leg = runner.propagate_conditional

    def warning_leg(*args, **kwargs):
        for i in range(2):
            warnings.warn(f"limit leg probe {i}")
        return limit_leg(*args, **kwargs)

    monkeypatch.setattr(runner, "propagate_conditional", warning_leg)
    cfg = refined_fluorescence_config()
    cfg["numerics"]["continuum"]["write_fields"] = fields_flag
    forked = runner.run_config(cfg, tmp_path / "forked")
    monkeypatch.setattr(runner, "FORK_LEGS", False)
    in_process = runner.run_config(cfg, tmp_path / "in_process")
    # the grid's 190 l0 / 0.15 warning comes first, from the shared setup
    assert [w[:17] for w in forked["warnings"]] == ["continuum grid: a", "time step refined",
                                                   "limit leg probe 0", "limit leg probe 1"]
    assert _artifacts(tmp_path / "forked") == _artifacts(tmp_path / "in_process")


@pytest.mark.parametrize("leg", ["propagate_conditional", "propagate_two_channel"],
                         ids=["limit-leg", "two-channel-leg"])
def test_a_failed_leg_fails_the_run_and_leaves_no_process(tmp_path, monkeypatch, leg):
    """An error of either fluorescence leg is the run's error, and no child
    process is left: the forked limit leg is joined or killed, and reaped."""
    def failing(*args, **kwargs):
        raise NumericsError(f"probe failure in {leg}")

    monkeypatch.setattr(runner, leg, failing)
    with pytest.raises(NumericsError, match=f"probe failure in {leg}"):
        runner.run_config(refined_fluorescence_config(), tmp_path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not runner.FORK_LEGS, reason="the limit leg forks on Linux only")
def test_a_leg_that_ends_without_a_result_is_a_run_error(tmp_path, monkeypatch):
    """A forked leg whose process exits without a result fails the run with
    its exit status, not an EOFError or a hang."""
    monkeypatch.setattr(runner, "propagate_conditional", lambda *args, **kwargs: os._exit(3))
    with pytest.raises(SpindetectError, match=r"without a result \(exit status 3\)"):
        runner.run_config(refined_fluorescence_config(), tmp_path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_refinement_is_one_manifest_warning(refined_fluorescence):
    """The benchmark reads the refinement factor N from the manifest entry
    "time step refined xN ..."; the run lists it once, for the two-channel
    leg."""
    _, manifest = refined_fluorescence
    refined = [w for w in manifest["warnings"] if w.startswith("time step refined")]
    assert refined == ["time step refined x3 to respect the potential phase bound "
                       "dt|V|/hbar < 0.1"]
    assert int(re.search(r"refined x(\d+)", refined[0]).group(1)) == 3


def test_fluorescence_manifest_holds_only_what_it_reads(refined_fluorescence):
    """No sensitivity, include_shift or comparison window is filled into a
    fluorescence config, and no rates reach its derived block."""
    _, manifest = refined_fluorescence
    cfg = manifest["config"]
    assert "include_shift" not in cfg and "sensitivity" not in cfg["detector"]
    assert cfg["comparison"] == {"n_resample": 2048}
    assert list(manifest["derived"]) == ["time_unit_s", "length_unit_m",
                                         "mean_wavenumber_per_m"]


def test_fluorescence_writes_its_fields(refined_fluorescence):
    """write_fields writes the two-channel leg's ground-channel snapshots,
    as a continuum run writes its field."""
    out, manifest = refined_fluorescence
    assert manifest["outputs"]["fields_fluor"] == "fields_fluor.csv"
    cols = read_csv(out / "fields_fluor.csv")
    assert len(cols) == 1 + 2 * 9
    x = cols["x_m"] / helpers.make_units().length_unit
    assert x[0] == pytest.approx(-90.0) and x[-1] == pytest.approx(100.0)


def test_fluorescence_legs_balance_their_drain(refined_fluorescence):
    """Both legs are checked against w1 = -dP0/dt; the numbers go to the
    manifest only, so comparison.json holds just the comparison."""
    out, manifest = refined_fluorescence
    balance = manifest["summary"]["fluorescence"]["norm_balance"]
    assert list(balance) == ["two_channel", "one_channel"]
    for leg in balance.values():
        # the gap also carries the launch-norm deficit, here about 8e-10
        assert leg["continuity_residual_relative"] < 1e-9
        assert leg["detection_integral_gap"] < 1e-6
    assert "norm_balance" not in json.loads((out / "comparison.json").read_text())


def test_fluorescence_legs_share_the_refined_time_grid(refined_fluorescence):
    """The one-channel limit leg runs at the two-channel leg's refined step,
    not at the requested one, which its smaller |V|max would not refine."""
    out, _ = refined_fluorescence
    t_fluor = read_csv(out / "w1_fluor.csv")["t_s"]
    np.testing.assert_array_equal(t_fluor, read_csv(out / "w1_limit.csv")["t_s"])
    step = (t_fluor[-1] - t_fluor[0]) / (t_fluor.size - 1)
    assert step == pytest.approx(0.05 / 3 * helpers.make_units().time_unit, rel=1e-9)


def test_broad_packet_runs_on_the_continuum_route(tmp_path):
    """k0/sigma_k = 5 is too broad for the discrete route's momentum window
    (k0 - 8 sigma_k <= 0), not for the continuum route."""
    cfg = small_continuum_config()
    packet = cfg["packet"]
    k0 = packet["mass_kg"] * packet["mean_velocity_m_per_s"] / helpers.HBAR
    packet["momentum_width_hbar_per_m"] = k0 / 5.0
    manifest = runner.run_config(cfg, tmp_path)
    cont = manifest["summary"]["continuum"]
    assert cont["mass_split"]["detected"] == pytest.approx(0.3511, abs=1e-3)
    assert cont["norm_balance"]["continuity_residual_relative"] < 1e-9
    assert [w for w in manifest["warnings"] if "residual mass" not in w] == []


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


def test_sweep_starts_no_more_workers_than_legs(tmp_path, monkeypatch):
    """A pool starts all its workers at once, so a sweep sizes it to its legs
    and runs one leg serially.  A fake executor records its size and maps in
    this process: the test starts no processes."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = tiny_continuum_config()
    cfg["kind"] = "sweep"
    for values in ([0.0, 1.2e7], [1.2e7]):
        cfg["sweep"] = {"parameter": "rates_override.decay_per_s", "values": values,
                        "run": "continuum"}
        manifest = runner.run_config(cfg, tmp_path / f"legs{len(values)}", jobs=8)
        assert manifest["failed_sub_runs"] == 0
    assert sizes == [2]


def test_config_file_must_exist(capsys):
    assert main(["rates", "--config", "/nonexistent/cfg.json"]) == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run summaries: the manifest's summary and comparison.json


def _paths(tree, prefix=""):
    """Every key path of nested dicts, in order."""
    out = []
    for key, value in tree.items():
        out.append(prefix + key)
        if isinstance(value, dict):
            out += _paths(value, f"{prefix}{key}.")
    return out


def _under(prefix, keys):
    return [f"{prefix}.{key}" for key in keys]


ARRIVAL = ["total_detection_probability", "mean_arrival_s", "std_arrival_s",
           "mode_arrival_s", "window_s"]
CURVES = ["window_s", "n_nodes", "peak", "linf", "l2_rms", "linf_relative", "l2_relative"]
BALANCE = ["continuity_residual_relative", "detection_integral_gap"]
DISCRETE = ["flip_probability_final", "arrival", *_under("arrival", ARRIVAL)]
CONTINUUM = ["mass_split", *_under("mass_split", ["reflected", "transmitted_undetected",
                                                  "residual_in_region", "detected"]),
             "arrival", *_under("arrival", ARRIVAL), "survival_final",
             "norm_balance", *_under("norm_balance", BALANCE)]
COMPARE_JSON = ["comparison", *_under("comparison", CURVES), "window_recurrence_fraction",
                "discrete", *_under("discrete", DISCRETE),
                "continuum", *_under("continuum", CONTINUUM)]
FLUORESCENCE_JSON = ["adiabaticity_ratio", "raw_comparison", *_under("raw_comparison", CURVES),
                     "normalized_comparison", *_under("normalized_comparison", CURVES),
                     "two_channel_detected", "one_channel_detected"]


@pytest.mark.parametrize("build, summary, payload", [
    (helpers.small_compare_config,
     ["discrete", *_under("discrete", DISCRETE), "continuum", *_under("continuum", CONTINUUM),
      "comparison", *_under("comparison", CURVES)], COMPARE_JSON),
    (small_continuum_config, ["continuum", *_under("continuum", CONTINUUM)], None),
    (small_discrete_config, ["discrete", *_under("discrete", DISCRETE)], None),
    (rates_config, [], None),
], ids=["compare", "continuum", "discrete", "rates"])
def test_summary_key_order(tmp_path, build, summary, payload):
    """The manifest's summary, and comparison.json where a run writes one,
    keep their keys and key order."""
    manifest = runner.run_config(build(), tmp_path)
    assert _paths(manifest["summary"]) == summary
    if payload is None:
        assert not (tmp_path / "comparison.json").exists()
    else:
        assert _paths(json.loads((tmp_path / "comparison.json").read_text())) == payload


def test_fluorescence_summary_key_order(refined_fluorescence):
    out, manifest = refined_fluorescence
    assert _paths(json.loads((out / "comparison.json").read_text())) == FLUORESCENCE_JSON
    assert _paths(manifest["summary"]) == [
        "fluorescence", *_under("fluorescence", FLUORESCENCE_JSON), "fluorescence.norm_balance",
        *_under("fluorescence.norm_balance", ["two_channel", *_under("two_channel", BALANCE),
                                              "one_channel", *_under("one_channel", BALANCE)])]


@pytest.fixture(scope="module")
def failing_sweep(tmp_path_factory):
    """A three-leg sweep whose middle leg resolves but has a grid too coarse
    for the packet, run serially and on two worker processes: (exit code,
    out dir) per jobs."""
    root = tmp_path_factory.mktemp("failing_sweep")
    cfg = tiny_continuum_config()
    cfg["kind"] = "sweep"
    cfg["sweep"] = {"parameter": "numerics.continuum.grid_spacing_l0",
                    "values": [0.05, 1.0, 0.05], "run": "continuum"}
    path = write_config(root, cfg)
    runs = {}
    for jobs in (1, 2):
        out = root / f"jobs{jobs}"
        runs[jobs] = main(["sweep", "--config", str(path), "--out", str(out),
                           "--jobs", str(jobs)]), out
    return runs


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_reports_a_failed_sub_run(failing_sweep, jobs):
    """The failed leg is a status_ok 0 row of NaN and its run-time error; the
    other legs still run, and the CLI exits 1."""
    code, out = failing_sweep[jobs]
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_sub_runs"] == 1
    sweep = manifest["summary"]["sweep"]
    assert _paths(sweep) == ["parameter", "values", "failed", "runs"]
    assert sweep["failed"] == 1
    assert [list(run) for run in sweep["runs"]] == [["index", "value", "error"]] * 3
    assert [run["error"] is None for run in sweep["runs"]] == [True, False, True]
    assert sweep["runs"][1]["error"].startswith("grid spacing ")
    assert "does not resolve the packet" in sweep["runs"][1]["error"]
    cols = read_csv(out / "summary.csv")
    assert list(cols) == ["value", "status_ok", "detected", "reflected",
                          "mean_arrival_s", "std_arrival_s"]
    np.testing.assert_array_equal(cols["value"], [0.05, 1.0, 0.05])
    np.testing.assert_array_equal(cols["status_ok"], [1.0, 0.0, 1.0])
    assert all(np.isnan(cols[name][1]) for name in list(cols)[2:])
    assert cols["detected"][0] > 0.01 and np.isfinite(cols["mean_arrival_s"][0])


def test_sweep_summary_does_not_depend_on_jobs(failing_sweep):
    (_, serial), (_, parallel) = failing_sweep[1], failing_sweep[2]
    assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()


@pytest.mark.parametrize("parameter, values, error", [
    ("bath.cutoff_ratio", [4.6, 0.5],
     "config error at sweep.values[1]: bath.cutoff_ratio: 0.5 is less than or equal to"),
    ("numerics.continuum.snapshots", [5.0, 2.5],
     "config error at sweep.values[1]: numerics.continuum.snapshots: 2.5 is not of type"),
    ("bath.cutoff_ratio", None, "config error at sweep.factors[1]: bath.cutoff_ratio: "),
], ids=["schema-bound", "integer", "factor"])
def test_sweep_legs_are_validated_before_any_runs(tmp_path, capsys, parameter, values, error):
    """Each leg is resolved as the sweep would run it: validate and sweep
    both exit 2 naming the leg, and no sub-run directory is made."""
    cfg = helpers.sweep_tradeoff_config()
    cfg["sweep"] = ({"parameter": parameter, "values": values, "run": "continuum"}
                    if values else {"parameter": parameter, "factors": [1.0, 0.1]})
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out), "--jobs", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert not (out / "run_000").exists()
