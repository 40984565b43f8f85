"""Run orchestration: turn a resolved config into physics objects, execute
the requested computation, and write manifest plus CSV/JSON artifacts.

Artifact names are part of the interface: w1_disc.csv, w1_cont.csv,
comparison.json, rates.csv, w1_fluor.csv, w1_limit.csv, summary.csv and
manifest.json.  CSV numbers use the shortest round-trip decimal form of
the underlying binary64, so identical configs produce byte-identical
files.
"""

from __future__ import annotations

import math
import time as _time
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analysis import arrival_stats, compare_curves, mass_accounting
from .bath import RatesResult, RectangularBath, decay_rate_and_shift, markov_summary
from .conditional import (build_conditional_potential, one_channel_limit_potential,
                          propagate_conditional, propagate_two_channel,
                          adiabaticity_ratio, norm_balance)
from .config import get_by_path, resolve_config, set_by_path
from .discrete import detection_density_discrete
from .errors import ConfigurationError, SpindetectError
from .model import (DetectorGeometry, Grid1D, HalfLineSensitivity,
                    IntervalSensitivity, TabulatedSensitivity, single_spin)
from .output import write_csv, write_json
from .packets import GaussianPacketSpec, free_evolved_packet
from .units import HBAR, UnitSystem

try:
    from importlib.metadata import version as _dist_version
    TOOL_VERSION = _dist_version("spindetect")
except Exception:
    TOOL_VERSION = "0+unknown"

__all__ = ["Scene", "build_scene", "run_config"]

# phase-per-step ceiling used when auto-refining dt against dt |V| / hbar < 0.1
PHASE_BUDGET = 0.09


@dataclass
class Scene:
    """Physics objects shared by the run kinds, built once per config."""

    units: UnitSystem
    packet: GaussianPacketSpec
    geometry: DetectorGeometry
    bath: RectangularBath | None
    rates: RatesResult
    correlation_time: float | None
    recurrence_time: float | None


def _build_sensitivity(cfg: dict, units: UnitSystem):
    sens = cfg["detector"]["sensitivity"]
    L0 = units.length_unit
    kind = sens["kind"]
    if kind == "half_line":
        return HalfLineSensitivity(start=sens.get("start_l0", 0.0) * L0)
    if kind == "interval":
        return IntervalSensitivity(width=sens["width_l0"] * L0,
                                   start=sens.get("start_l0", 0.0) * L0)
    x = np.asarray(sens["x_l0"], dtype=float) * L0
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
    geometry = single_spin(resonance, _build_sensitivity(cfg, units))

    bath = None
    t_rec = None
    if "bath" in cfg:
        b = cfg["bath"]
        cutoff = b.get("cutoff_per_s", b.get("cutoff_ratio", 0.0) * resonance)
        bath = RectangularBath(coupling=b["coupling_sqrt_per_s"], cutoff=cutoff,
                               modes=b.get("modes"))
        if bath.modes:
            t_rec = bath.recurrence_time()

    tau_c = None
    if "rates_override" in cfg:
        ov = cfg["rates_override"]
        rates = RatesResult(ov["decay_per_s"], ov.get("shift_per_s", 0.0), "override")
    elif bath is not None and bath.coupling > 0.0:
        rates = decay_rate_and_shift(bath, resonance)
        tau_c = markov_summary(bath, resonance).correlation_time
    else:
        rates = RatesResult(0.0, 0.0, "zero_coupling")

    return Scene(units=units, packet=packet, geometry=geometry, bath=bath,
                 rates=rates, correlation_time=tau_c, recurrence_time=t_rec)


def _derived_block(scene: Scene, cfg: dict) -> dict:
    u = scene.units
    rates = scene.rates
    out = {
        "time_unit_s": u.time_unit,
        "length_unit_m": u.length_unit,
        "mean_wavenumber_per_m": scene.packet.mean_wavenumber,
        "decay_rate_per_s": rates.decay_rate,
        "level_shift_per_s": rates.level_shift,
        "rates_method": rates.method,
        "shift_included": bool(cfg["include_shift"]),
    }
    if rates.quadrature_decay_rate is not None:
        out["quadrature_decay_rate_per_s"] = rates.quadrature_decay_rate
        out["quadrature_level_shift_per_s"] = rates.quadrature_level_shift
    if scene.correlation_time is not None:
        out["correlation_time_s"] = scene.correlation_time
    if scene.recurrence_time is not None:
        out["recurrence_time_s"] = scene.recurrence_time
    return out


def _time_grid(num: dict, unit: float) -> np.ndarray:
    """Times over the nearest whole number of steps; warns if that moves the
    end of the window."""
    start, stop, step = (num["time_start_t0"], num["time_stop_t0"],
                         num["time_step_t0"])
    n = int(round((stop - start) / step))
    if n < 2:
        raise ConfigurationError("time window spans fewer than two steps")
    end = start + n * step
    if abs(end - stop) > 1e-9 * max(abs(stop), step):
        warnings.warn(f"time window ends at {end:.12g} t0, not the configured {stop:.12g} "
                      f"t0: the span is not a whole number of {step:.12g} t0 steps")
    return (start + step * np.arange(n + 1)) * unit


def _space_grid(num: dict, unit: float) -> Grid1D:
    span = num["x_max_l0"] - num["x_min_l0"]
    n = int(round(span / num["grid_spacing_l0"])) + 1
    return Grid1D(num["x_min_l0"] * unit, num["x_max_l0"] * unit, n)


# ---------------------------------------------------------------------------
# run kinds


def _run_rates(cfg: dict, scene: Scene, out_dir: Path):
    rates = scene.rates
    values = (scene.geometry.resonance, rates.decay_rate, rates.level_shift,
              rates.quadrature_decay_rate, rates.quadrature_level_shift,
              scene.correlation_time, scene.recurrence_time)
    path = out_dir / "rates.csv"
    write_csv(path, ["resonance_per_s", "decay_rate_per_s", "level_shift_per_s",
                     "quadrature_decay_rate_per_s", "quadrature_level_shift_per_s",
                     "correlation_time_s", "recurrence_time_s"],
              [np.array([math.nan if v is None else v]) for v in values])
    return {"rates": "rates.csv"}, {}


def _run_discrete(cfg: dict, scene: Scene, out_dir: Path):
    num = cfg["numerics"]["discrete"]
    u = scene.units
    times = _time_grid(num, u.time_unit)
    x_min = num["x_min_l0"] * u.length_unit
    x_max = num["x_max_l0"] * u.length_unit
    right_points = int(round(num["x_max_l0"] / num["right_spacing_l0"])) + 1
    series = detection_density_discrete(
        scene.packet, scene.geometry, scene.bath, times,
        x_min=x_min, x_max=x_max, right_points=right_points,
        k_nodes=num["k_nodes"], k_window_sigmas=num["k_window_sigmas"])
    series.to_csv(out_dir / "w1_disc.csv")
    stats = arrival_stats(series.times, series.detection_density)
    summary = {"discrete": {"flip_probability_final": float(series.flip_probability[-1]),
                            "arrival": stats.as_dict()}}
    return {"w1_disc": "w1_disc.csv"}, summary, series


def _continuum_setup(cfg: dict, scene: Scene, detector):
    """Grid, time window, launch packet and the time step divided by the
    least integer keeping dt |V|max / hbar within PHASE_BUDGET, for the
    continuum and fluorescence runs.  detector(grid) returns the run's
    detector on the grid and its |V|max (joules).
    Returns (grid, t_span, dt, psi0, detector)."""
    num = cfg["numerics"]["continuum"]
    u = scene.units
    grid = _space_grid(num, u.length_unit)
    times = _time_grid(num, u.time_unit)
    t0, t1 = float(times[0]), float(times[-1])
    dt = num["time_step_t0"] * u.time_unit
    built, vmax = detector(grid)
    refine = max(1, math.ceil(dt * vmax / (HBAR * PHASE_BUDGET))) if vmax > 0.0 else 1
    if refine > 1:
        warnings.warn(f"time step refined x{refine} to respect the potential "
                      "phase bound dt|V|/hbar < 0.1")
    psi0 = free_evolved_packet(scene.packet, t0, grid)
    return grid, (t0, t1), dt / refine, psi0, built


def _run_continuum(cfg: dict, scene: Scene, out_dir: Path):
    num = cfg["numerics"]["continuum"]

    def detector(grid):
        potential = build_conditional_potential(
            scene.rates.decay_rate, scene.rates.level_shift,
            scene.geometry.sensitivity, grid, include_shift=cfg["include_shift"])
        return potential, potential.max_magnitude

    _, span, dt, psi0, potential = _continuum_setup(cfg, scene, detector)
    traj = propagate_conditional(
        psi0, potential, span, dt, mass=scene.packet.mass,
        reference_frequency=scene.units.reference_frequency,
        snapshots=num["snapshots"], kinetic_safety=num["kinetic_safety"])
    traj.to_csv(out_dir / "w1_cont.csv")
    outputs = {"w1_cont": "w1_cont.csv"}
    if num["write_fields"]:
        traj.snapshots_to_csv(out_dir / "fields_cont.csv")
        outputs["fields_cont"] = "fields_cont.csv"
    split = mass_accounting(traj)
    stats = arrival_stats(traj.detection_density_times, traj.detection_density)
    summary = {"continuum": {"mass_split": split, "arrival": stats.as_dict(),
                             "survival_final": traj.final_survival,
                             "norm_balance": norm_balance(traj)}}
    return outputs, summary, traj


def _comparison_window(cfg: dict, scene: Scene) -> tuple[float, float] | None:
    if scene.recurrence_time is None:
        return None
    lo_f, hi_f = cfg["comparison"]["window_recurrence_fraction"]
    return (lo_f * scene.recurrence_time, hi_f * scene.recurrence_time)


def _run_compare(cfg: dict, scene: Scene, out_dir: Path):
    out_d, sum_d, series = _run_discrete(cfg, scene, out_dir)
    out_c, sum_c, traj = _run_continuum(cfg, scene, out_dir)
    window = _comparison_window(cfg, scene)
    cc = compare_curves(series.times, series.detection_density,
                        traj.detection_density_times, traj.detection_density,
                        window=window, n_resample=cfg["comparison"]["n_resample"])
    payload = {"comparison": cc.as_dict(),
               "window_recurrence_fraction": cfg["comparison"]["window_recurrence_fraction"],
               "discrete": sum_d["discrete"], "continuum": sum_c["continuum"]}
    write_json(out_dir / "comparison.json", payload)
    outputs = {**out_d, **out_c, "comparison": "comparison.json"}
    summary = {**sum_d, **sum_c, "comparison": cc.as_dict()}
    return outputs, summary


def _run_fluorescence(cfg: dict, scene: Scene, out_dir: Path):
    num = cfg["numerics"]["continuum"]
    fl = cfg["fluorescence"]
    u = scene.units
    lo = fl["region"]["start_l0"] * u.length_unit
    hi = lo + fl["region"]["width_l0"] * u.length_unit
    detuning, linewidth = fl["detuning_per_s"], fl["linewidth_per_s"]

    def lit_region(grid):
        x = grid.points()
        rabi = np.where((x >= lo) & (x <= hi), fl["rabi_per_s"], 0.0)
        return rabi, HBAR * max(np.max(rabi) / 2.0,
                                0.5 * abs(2.0 * detuning + 1j * linewidth))

    grid, span, dt, psi0, rabi = _continuum_setup(cfg, scene, lit_region)
    two = propagate_two_channel(psi0, np.zeros_like(psi0), rabi, detuning, linewidth,
                                grid, span, dt, mass=scene.packet.mass,
                                snapshots=num["snapshots"],
                                kinetic_safety=num["kinetic_safety"])
    two.to_csv(out_dir / "w1_fluor.csv")

    potential = one_channel_limit_potential(rabi, detuning, linewidth, grid)
    traj = propagate_conditional(
        psi0, potential, span, dt, mass=scene.packet.mass,
        reference_frequency=u.reference_frequency, snapshots=num["snapshots"],
        kinetic_safety=num["kinetic_safety"])
    traj.to_csv(out_dir / "w1_limit.csv")

    kinetic = (HBAR * scene.packet.mean_wavenumber) ** 2 / (2.0 * scene.packet.mass)
    ratio = adiabaticity_ratio(fl["rabi_per_s"], detuning, linewidth, kinetic)
    t_two = two.detection_density_times
    t_one = traj.detection_density_times
    raw = compare_curves(t_two, two.detection_density,
                         t_one, traj.detection_density,
                         n_resample=cfg["comparison"]["n_resample"])
    tot_two = float(np.trapezoid(two.detection_density, t_two))
    tot_one = float(np.trapezoid(traj.detection_density, t_one))
    if tot_two > 0.0 and tot_one > 0.0:
        norm = compare_curves(t_two, two.detection_density / tot_two,
                              t_one, traj.detection_density / tot_one,
                              n_resample=cfg["comparison"]["n_resample"])
        norm_dict = norm.as_dict()
    else:
        norm_dict = None
    payload = {"adiabaticity_ratio": ratio,
               "raw_comparison": raw.as_dict(),
               "normalized_comparison": norm_dict,
               "two_channel_detected": tot_two,
               "one_channel_detected": tot_one}
    write_json(out_dir / "comparison.json", payload)
    outputs = {"w1_fluor": "w1_fluor.csv", "w1_limit": "w1_limit.csv",
               "comparison": "comparison.json"}
    return outputs, {"fluorescence": payload}


# ---------------------------------------------------------------------------
# sweeps


def _sweep_subrun(args):
    """Worker entry: run one sub-config, return its summary row."""
    index, sub_cfg, sub_dir = args
    try:
        manifest = run_config(sub_cfg, Path(sub_dir), jobs=1)
        row = _summary_row_from(manifest)
        return index, row, manifest.get("warnings", []), None
    except SpindetectError as exc:
        return index, None, [], str(exc)
    except Exception as exc:  # keep the sweep alive, report at the end
        return index, None, [], f"{type(exc).__name__}: {exc}"


def _summary_row_from(manifest: dict) -> dict:
    summary = manifest.get("summary", {})
    row = {"detected": math.nan, "reflected": math.nan,
           "mean_arrival_s": math.nan, "std_arrival_s": math.nan}
    cont = summary.get("continuum")
    disc = summary.get("discrete")
    if cont:
        row["detected"] = cont["mass_split"]["detected"]
        row["reflected"] = cont["mass_split"]["reflected"]
        arr = cont["arrival"]
    elif disc:
        row["detected"] = disc["flip_probability_final"]
        arr = disc["arrival"]
    else:
        return row
    if arr["mean_arrival_s"] is not None:
        row["mean_arrival_s"] = arr["mean_arrival_s"]
        row["std_arrival_s"] = arr["std_arrival_s"]
    return row


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
        tasks.append((i, sub_cfg, str(sub_dir)))

    if jobs > 1:
        # only parallel sweeps need the executor; serial runs skip its import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_subrun, tasks))
    else:
        results = [_sweep_subrun(t) for t in tasks]
    results.sort(key=lambda r: r[0])

    n = len(values)
    cols = {name: np.full(n, math.nan) for name in
            ("value", "status_ok", "detected", "reflected",
             "mean_arrival_s", "std_arrival_s")}
    sub_reports = []
    failed = 0
    for (i, row, sub_warn, error), value in zip(results, values):
        cols["value"][i] = value
        cols["status_ok"][i] = 0.0 if error else 1.0
        if error:
            failed += 1
            sub_reports.append({"index": i, "value": value, "error": error})
        else:
            for key in ("detected", "reflected", "mean_arrival_s", "std_arrival_s"):
                cols[key][i] = row[key]
            sub_reports.append({"index": i, "value": value, "error": None})
        for w in sub_warn:
            warnings.warn(f"run_{i:03d}: {w}")

    write_csv(out_dir / "summary.csv",
              ["value", "status_ok", "detected", "reflected",
               "mean_arrival_s", "std_arrival_s"],
              [cols[k] for k in ("value", "status_ok", "detected", "reflected",
                                 "mean_arrival_s", "std_arrival_s")])
    summary = {"sweep": {"parameter": path, "values": values,
                         "failed": failed, "runs": sub_reports}}
    return {"summary": "summary.csv"}, summary, failed


# ---------------------------------------------------------------------------
# entry point


def run_config(raw_cfg: dict, out_dir: Path, jobs: int = 1) -> dict:
    """Execute a config and write its artifacts under out_dir.  Returns the
    manifest dict (also written to out_dir/manifest.json).  Sweep sub-run
    failures are recorded in the manifest, not raised.  Warnings raised
    during the run are listed in manifest["warnings"] instead of shown, each
    UserWarning as often as it is raised."""
    started = _time.perf_counter()
    cfg = resolve_config(raw_cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = cfg["kind"]

    failed = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        if kind == "sweep":
            outputs, summary, failed = _run_sweep(cfg, out_dir, jobs)
            derived = {}
        else:
            scene = build_scene(cfg)
            derived = _derived_block(scene, cfg)
            if kind == "rates":
                outputs, summary = _run_rates(cfg, scene, out_dir)
            elif kind == "discrete":
                outputs, summary, _ = _run_discrete(cfg, scene, out_dir)
            elif kind == "continuum":
                outputs, summary, _ = _run_continuum(cfg, scene, out_dir)
            elif kind == "compare":
                outputs, summary = _run_compare(cfg, scene, out_dir)
            elif kind == "fluorescence":
                outputs, summary = _run_fluorescence(cfg, scene, out_dir)
            else:
                raise ConfigurationError(f"unhandled run kind {kind!r}")

    manifest = {
        "tool": "spindetect",
        "version": TOOL_VERSION,
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
