"""Run orchestration: turn a resolved config into physics objects, execute
the requested computation, and write manifest plus CSV/JSON artifacts.

Artifact names are part of the interface: w1_disc.csv, w1_cont.csv,
fields_cont.csv, comparison.json, rates.csv, w1_fluor.csv, w1_limit.csv,
fields_fluor.csv, summary.csv and manifest.json.  CSV numbers use the
shortest round-trip decimal form of the underlying binary64, so identical
configs produce byte-identical files.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import time as _time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import arrival_stats, compare_curves, mass_accounting
from .bath import RatesResult, RectangularBath, decay_rate_and_shift, markov_summary
from .conditional import (build_conditional_potential, one_channel_limit_potential,
                          propagate_conditional, propagate_two_channel, time_step,
                          two_channel_vmax, adiabaticity_ratio, norm_balance)
from .config import get_by_path, grid_steps, resolve_config, set_by_path
from .discrete import detection_density_discrete
from .errors import SpindetectError, checked_count
from .model import (Grid1D, HalfLineSensitivity, IntervalSensitivity, Sensitivity,
                    TabulatedSensitivity)
from .output import write_csv, write_json
from .packets import GaussianPacketSpec, free_evolved_packet
from .units import HBAR, UnitSystem

__all__ = ["Scene", "build_scene", "run_config"]


@dataclass
class Scene:
    """Physics objects of a run, built from the paths its kind reads:
    sensitivity is None without one, rates without a bath or rates_override;
    derived is the manifest's derived block, which rates.csv also lists."""

    units: UnitSystem
    packet: GaussianPacketSpec
    sensitivity: Sensitivity | None
    bath: RectangularBath | None
    rates: RatesResult | None
    derived: dict


def _build_sensitivity(sens: dict, units: UnitSystem):
    """The Sensitivity of a detector.sensitivity block or fluorescence region."""
    L0 = units.length_unit
    kind = sens["kind"]
    if kind == "half_line":
        return HalfLineSensitivity(start=sens["start_l0"] * L0)
    if kind == "interval":
        return IntervalSensitivity(width=sens["width_l0"] * L0, start=sens["start_l0"] * L0)
    # the table's abscissae are relative to the detector start
    x = (sens["start_l0"] + np.asarray(sens["x_l0"], dtype=float)) * L0
    return TabulatedSensitivity(x, np.asarray(sens["values"], dtype=float))


def build_scene(cfg: dict) -> Scene:
    pk = cfg["packet"]
    det = cfg["detector"]
    resonance = det["resonance_per_s"]
    units = UnitSystem(reference_frequency=resonance, mass=pk["mass_kg"])
    packet = GaussianPacketSpec(
        mass=pk["mass_kg"],
        mean_velocity=pk["mean_velocity_m_per_s"],
        momentum_width=HBAR * pk["momentum_width_hbar_per_m"],
        focus_time=pk["focus_time_s"],
        focus_position=pk["focus_position_m"])
    sensitivity = (_build_sensitivity(det["sensitivity"], units)
                   if "sensitivity" in det else None)

    bath = t_rec = tau_c = rates = None
    if "bath" in cfg:
        b = cfg["bath"]
        bath = RectangularBath(coupling=b["coupling_sqrt_per_s"],
                               cutoff=b["cutoff_ratio"] * resonance,
                               modes=b.get("modes"))
        if bath.modes:
            t_rec = bath.recurrence_time()

    if "rates_override" in cfg:
        ov = cfg["rates_override"]
        rates = RatesResult(ov["decay_per_s"], ov["shift_per_s"], "override")
    elif bath is not None and bath.coupling > 0.0:
        rates = decay_rate_and_shift(bath, resonance)
        tau_c = markov_summary(bath, resonance)
    elif bath is not None:
        rates = RatesResult(0.0, 0.0, "zero_coupling")

    derived = {"time_unit_s": units.time_unit, "length_unit_m": units.length_unit,
               "mean_wavenumber_per_m": packet.mean_wavenumber}
    if rates is not None:
        derived.update(decay_rate_per_s=rates.decay_rate, level_shift_per_s=rates.level_shift,
                       rates_method=rates.method)
    if "include_shift" in cfg:
        derived["shift_included"] = cfg["include_shift"]
    if rates is not None and rates.quadrature_decay_rate is not None:
        derived.update(quadrature_decay_rate_per_s=rates.quadrature_decay_rate,
                       quadrature_level_shift_per_s=rates.quadrature_level_shift)
    if tau_c is not None:
        derived["correlation_time_s"] = tau_c
    if t_rec is not None:
        derived["recurrence_time_s"] = t_rec
    return Scene(units=units, packet=packet, sensitivity=sensitivity, bath=bath,
                 rates=rates, derived=derived)


def _grid_steps(what: str, lo: float, hi: float, step: float, unit: str, *,
                keep_step: bool = False, even: bool = False) -> int:
    """config.grid_steps, which resolve_config keeps above the least point
    count; a step that does not fit warns with the grid."""
    n = grid_steps(lo, hi, step, even=even)
    if abs(lo + n * step - hi) > 1e-9 * max(abs(hi), step):
        end, used = (lo + n * step, step) if keep_step else (hi, (hi - lo) / n)
        warnings.warn(f"{what}: a {step:.12g} {unit} step does not fit [{lo:.12g}, {hi:.12g}] "
                      f"{unit}; the grid takes {n + 1} points at {used:.12g} {unit} over "
                      f"[{lo:.12g}, {end:.12g}] {unit}")
    return n


def _time_grid(num: dict, unit: float) -> np.ndarray:
    start, step = num["time_start_t0"], num["time_step_t0"]
    n = _grid_steps("time window", start, num["time_stop_t0"], step, "t0", keep_step=True)
    return (start + step * np.arange(n + 1)) * unit


# ---------------------------------------------------------------------------
# run kinds


# the columns of rates.csv, NaN where the derived block has no such key
RATES_COLUMNS = ("resonance_per_s", "decay_rate_per_s", "level_shift_per_s",
                 "quadrature_decay_rate_per_s", "quadrature_level_shift_per_s",
                 "correlation_time_s", "recurrence_time_s")


def _run_rates(cfg: dict, scene: Scene, out_dir: Path):
    row = {"resonance_per_s": float(cfg["detector"]["resonance_per_s"]), **scene.derived}
    write_csv(out_dir / "rates.csv", RATES_COLUMNS,
              [np.array([row.get(c, math.nan)]) for c in RATES_COLUMNS])
    return {"rates": "rates.csv"}, {}


def _run_discrete(cfg: dict, scene: Scene, out_dir: Path):
    num = cfg["numerics"]["discrete"]
    u = scene.units
    times = _time_grid(num, u.time_unit)
    x_min = num["x_min_l0"] * u.length_unit
    x_max = num["x_max_l0"] * u.length_unit
    right_points = _grid_steps("discrete right grid", 0.0, num["x_max_l0"],
                               num["right_spacing_l0"], "l0", even=True) + 1
    series = detection_density_discrete(
        scene.packet, cfg["detector"]["resonance_per_s"], scene.bath, times,
        x_min=x_min, x_max=x_max, right_points=right_points,
        k_nodes=num["k_nodes"])
    series.to_csv(out_dir / "w1_disc.csv")
    summary = {"discrete": {"flip_probability_final": float(series.flip_probability[-1]),
                            "arrival": arrival_stats(series.times, series.detection_density)}}
    return {"w1_disc": "w1_disc.csv"}, summary, series


def _continuum_setup(cfg: dict, scene: Scene):
    """Grid, time window, requested time step, launch packet and snapshot
    count of the continuum and fluorescence runs; the propagators refine
    the step.  A run that writes no fields keeps only the 2 snapshots every
    record holds, the launch and final fields.
    Returns (grid, t_span, dt, psi0, snapshots)."""
    num = cfg["numerics"]["continuum"]
    u = scene.units
    lo, hi = num["x_min_l0"], num["x_max_l0"]
    grid = Grid1D(lo * u.length_unit, hi * u.length_unit,
                  _grid_steps("continuum grid", lo, hi, num["grid_spacing_l0"], "l0") + 1)
    times = _time_grid(num, u.time_unit)
    t0, t1 = float(times[0]), float(times[-1])
    psi0 = free_evolved_packet(scene.packet, t0, grid)
    snapshots = num["snapshots"] if num["write_fields"] else 2
    return grid, (t0, t1), num["time_step_t0"] * u.time_unit, psi0, snapshots


def _run_continuum(cfg: dict, scene: Scene, out_dir: Path):
    grid, span, dt, psi0, snapshots = _continuum_setup(cfg, scene)
    shift = scene.rates.level_shift if cfg["include_shift"] else 0.0
    potential = build_conditional_potential(scene.rates.decay_rate, shift,
                                            scene.sensitivity, grid)
    traj = propagate_conditional(
        psi0, potential, span, dt, mass=scene.packet.mass,
        reference_frequency=scene.units.reference_frequency, snapshots=snapshots)
    traj.to_csv(out_dir / "w1_cont.csv")
    outputs = {"w1_cont": "w1_cont.csv"}
    if cfg["numerics"]["continuum"]["write_fields"]:
        traj.snapshots_to_csv(out_dir / "fields_cont.csv")
        outputs["fields_cont"] = "fields_cont.csv"
    summary = {"continuum": {
        "mass_split": mass_accounting(traj),
        "arrival": arrival_stats(traj.detection_density_times, traj.detection_density),
        "survival_final": traj.final_survival, "norm_balance": norm_balance(traj)}}
    return outputs, summary, traj


def _run_compare(cfg: dict, scene: Scene, out_dir: Path):
    out_d, sum_d, series = _run_discrete(cfg, scene, out_dir)
    out_c, sum_c, traj = _run_continuum(cfg, scene, out_dir)
    # a compare run reads bath.modes, so the recurrence time is set
    lo_f, hi_f = cfg["comparison"]["window_recurrence_fraction"]
    t_rec = scene.derived["recurrence_time_s"]
    cc = compare_curves(series.times, series.detection_density,
                        traj.detection_density_times, traj.detection_density,
                        window=(lo_f * t_rec, hi_f * t_rec),
                        n_resample=cfg["comparison"]["n_resample"])
    payload = {"comparison": cc,
               "window_recurrence_fraction": cfg["comparison"]["window_recurrence_fraction"],
               "discrete": sum_d["discrete"], "continuum": sum_c["continuum"]}
    write_json(out_dir / "comparison.json", payload)
    outputs = {**out_d, **out_c, "comparison": "comparison.json"}
    summary = {**sum_d, **sum_c, "comparison": cc}
    return outputs, summary


FORK_LEGS = sys.platform == "linux"    # Windows has no fork; macOS forks unsafely


@contextmanager
def _forked(leg):
    """Start leg() in a forked child; yield join(), which returns its value and
    re-raises its warnings, in order, and its exception.  An unjoined child is
    killed and reaped.  Without FORK_LEGS, join is leg, run in this process."""
    if not FORK_LEGS:
        yield leg
        return
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)    # fork beside threads
        pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)    # so a reader that is gone breaks the write, not blocks it
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                try:
                    result = True, leg()
                except BaseException as exc:
                    result = False, exc
            with open(write_fd, "wb") as pipe:
                pickle.dump((*result, [w.message for w in caught]), pipe, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    pipe, reaped = open(read_fd, "rb"), []

    def join():
        try:
            ok, value, messages = pickle.load(pipe)    # a bytes copy would cost RSS
        except (EOFError, pickle.UnpicklingError):
            ok = None
        reaped.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        if ok is None:
            raise SpindetectError(f"a forked leg ended without a result (exit status {reaped[0]})")
        for message in messages:
            warnings.warn(message)
        if not ok:
            raise value
        return value

    try:
        yield join
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_fluorescence(cfg: dict, scene: Scene, out_dir: Path):
    fl = cfg["fluorescence"]
    u = scene.units
    lit = _build_sensitivity({"kind": "interval", **fl["region"]}, u)
    rabi, detuning, linewidth = fl["rabi_per_s"], fl["detuning_per_s"], fl["linewidth_per_s"]
    grid, span, dt, psi0, snapshots = _continuum_setup(cfg, scene)
    potential = one_channel_limit_potential(rabi, lit, detuning, linewidth, grid)
    # the limit leg, beside the two-channel one, takes that leg's step, so
    # both densities share one time grid; the limit potential's |V|max is
    # below the two-channel one when Omega <= |2 detuning + i linewidth|, else
    # the limit leg refines further.  Its fields are never written, so it
    # keeps the default 2 snapshots
    step = time_step(dt, two_channel_vmax(rabi, lit, detuning, linewidth, grid))
    with _forked(lambda: propagate_conditional(
            psi0, potential, span, step, mass=scene.packet.mass,
            reference_frequency=u.reference_frequency)) as limit_leg:
        two = propagate_two_channel(psi0, np.zeros_like(psi0), rabi, lit, detuning, linewidth,
                                    grid, span, dt, mass=scene.packet.mass, snapshots=snapshots)
        two.to_csv(out_dir / "w1_fluor.csv")
        outputs = {"w1_fluor": "w1_fluor.csv", "w1_limit": "w1_limit.csv",
                   "comparison": "comparison.json"}
        if cfg["numerics"]["continuum"]["write_fields"]:
            two.snapshots_to_csv(out_dir / "fields_fluor.csv")
            outputs["fields_fluor"] = "fields_fluor.csv"
        traj = limit_leg()
    traj.to_csv(out_dir / "w1_limit.csv")

    kinetic = (HBAR * scene.packet.mean_wavenumber) ** 2 / (2.0 * scene.packet.mass)
    ratio = adiabaticity_ratio(rabi, detuning, linewidth, kinetic)
    t_two = two.detection_density_times
    t_one = traj.detection_density_times
    n_resample = cfg["comparison"]["n_resample"]
    raw = compare_curves(t_two, two.detection_density,
                         t_one, traj.detection_density, n_resample=n_resample)
    tot_two = float(np.trapezoid(two.detection_density, t_two))
    tot_one = float(np.trapezoid(traj.detection_density, t_one))
    norm = (compare_curves(t_two, two.detection_density / tot_two,
                           t_one, traj.detection_density / tot_one, n_resample=n_resample)
            if tot_two > 0.0 and tot_one > 0.0 else None)
    payload = {"adiabaticity_ratio": ratio,
               "raw_comparison": raw,
               "normalized_comparison": norm,
               "two_channel_detected": tot_two,
               "one_channel_detected": tot_one}
    write_json(out_dir / "comparison.json", payload)
    balance = {"two_channel": norm_balance(two), "one_channel": norm_balance(traj)}
    return outputs, {"fluorescence": {**payload, "norm_balance": balance}}


# ---------------------------------------------------------------------------
# sweeps


# the columns of a sweep's summary.csv, one row per sub-run
SWEEP_COLUMNS = ("value", "status_ok", "detected", "reflected",
                 "mean_arrival_s", "std_arrival_s")


def _sweep_subrun(args):
    """Worker entry: run one sub-config.  Returns (row, warnings, error), row
    being the sub-run's summary.csv row.  A compare run's row is its
    continuum leg; a failed run's row, and undefined moments, are NaN."""
    value, sub_cfg, sub_dir = args
    row = dict.fromkeys(SWEEP_COLUMNS, math.nan)
    row.update(value=value, status_ok=0.0)
    try:
        manifest = run_config(sub_cfg, Path(sub_dir), jobs=1)
    except SpindetectError as exc:
        return row, [], str(exc)
    except Exception as exc:  # keep the sweep alive, report at the end
        return row, [], f"{type(exc).__name__}: {exc}"
    summary = manifest["summary"]
    if "continuum" in summary:
        split = summary["continuum"]["mass_split"]
        row.update(detected=split["detected"], reflected=split["reflected"])
        arrival = summary["continuum"]["arrival"]
    else:
        row["detected"] = summary["discrete"]["flip_probability_final"]
        arrival = summary["discrete"]["arrival"]
    if arrival["mean_arrival_s"] is not None:
        row.update(mean_arrival_s=arrival["mean_arrival_s"],
                   std_arrival_s=arrival["std_arrival_s"])
    row["status_ok"] = 1.0
    return row, manifest["warnings"], None


def _run_sweep(cfg: dict, out_dir: Path, jobs: int):
    sw = cfg["sweep"]
    path = sw["parameter"]
    if "values" in sw:
        values = [float(v) for v in sw["values"]]
    else:
        base = float(get_by_path(cfg, path))
        values = [base * float(f) for f in sw["factors"]]

    tasks = []
    for i, value in enumerate(values):
        sub_cfg = set_by_path(cfg, path, value)
        sub_cfg.pop("sweep", None)
        sub_cfg["kind"] = sw["run"]
        sub_cfg["label"] = f"{cfg.get('label', 'sweep')}_{i:03d}"
        sub_dir = out_dir / f"run_{i:03d}"
        sub_dir.mkdir(parents=True, exist_ok=True)
        tasks.append((value, sub_cfg, str(sub_dir)))

    # pool.map and the serial list both keep the order of the tasks
    jobs = min(jobs, len(tasks))    # a pool starts all its workers at once
    if jobs > 1:
        # only parallel sweeps need the executor; serial runs skip its import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_subrun, tasks))
    else:
        results = [_sweep_subrun(t) for t in tasks]

    for i, (_, sub_warn, _) in enumerate(results):
        for w in sub_warn:
            warnings.warn(f"run_{i:03d}: {w}")
    write_csv(out_dir / "summary.csv", SWEEP_COLUMNS,
              [np.array([row[c] for row, _, _ in results]) for c in SWEEP_COLUMNS])
    runs = [{"index": i, "value": row["value"], "error": error}
            for i, (row, _, error) in enumerate(results)]
    failed = sum(error is not None for _, _, error in results)
    summary = {"sweep": {"parameter": path, "values": values,
                         "failed": failed, "runs": runs}}
    return {"summary": "summary.csv"}, summary, {}, failed


def _on_scene(run):
    """run(cfg, scene, out_dir) as a run kind: (outputs, summary, derived, 0).
    The series that the discrete and continuum runs also return, for compare, is dropped."""
    def scene_run(cfg: dict, out_dir: Path, jobs: int):
        scene = build_scene(cfg)
        return (*run(cfg, scene, out_dir)[:2], scene.derived, 0)
    return scene_run


# each kind of config.KIND_READS -> (outputs, summary, derived, failed sub-runs)
_RUNS = {"discrete": _on_scene(_run_discrete), "continuum": _on_scene(_run_continuum),
         "compare": _on_scene(_run_compare), "rates": _on_scene(_run_rates),
         "fluorescence": _on_scene(_run_fluorescence), "sweep": _run_sweep}


# ---------------------------------------------------------------------------
# entry point


def run_config(raw_cfg: dict, out_dir: Path, jobs: int = 1) -> dict:
    """Execute a config and write its artifacts under out_dir.  Returns the
    manifest dict (also written to out_dir/manifest.json).  jobs, at least
    1, caps a sweep's worker processes.  Sweep sub-run failures are recorded
    in the manifest, not raised.  Warnings raised during the run are listed
    in manifest["warnings"] instead of shown, each UserWarning as often as
    it is raised."""
    started = _time.perf_counter()
    cfg = resolve_config(raw_cfg)
    jobs = checked_count("jobs", jobs, 1)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = cfg["kind"]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        outputs, summary, derived, failed = _RUNS[kind](cfg, out_dir, jobs)

    manifest = {
        "tool": "spindetect",
        "version": __version__,
        "kind": kind,
        "label": cfg.get("label"),
        "config": cfg,
        "derived": derived,
        "outputs": outputs,
        "summary": summary,
        "warnings": [str(w.message) for w in caught],
        "failed_sub_runs": failed,
        "wall_clock_s": _time.perf_counter() - started,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest
