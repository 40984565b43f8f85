"""Benchmark workloads: config builders, seed jitter and output checks.

Each workload mirrors one reference run (the figure1 comparison, the
fluorescence pair, and a tabulated-detector continuum run that writes its
fields), with grids and windows coarsened so one run takes a few seconds
while each layer keeps its share of the reference run's time.  The seed
moves only the packet's mean velocity, within +-1 percent, so the work
done per run does not depend on it.

The acceptance coupling sweep is not a workload: within a fixed time for
all runs, a fourth workload would shorten every run until its wall time
is too noisy on a shared 2-core host, where host load moves one run's
median by 10-30 percent.

This module uses the standard library only: the benchmark's parent process
builds and checks configs without importing the program.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
import re
from pathlib import Path

HBAR = 1.054571817e-34
CESIUM_MASS_KG = 2.2069e-25
RESONANCE = 2.39e8
COUPLING = 2782.0

_PACKET = {"mass_kg": CESIUM_MASS_KG, "mean_velocity_m_per_s": 1.79,
           "momentum_width_hbar_per_m": 2.0e7}
_DETECTOR = {"resonance_per_s": RESONANCE}
_BATH = {"coupling_sqrt_per_s": COUPLING, "cutoff_ratio": 4.6, "modes": 40}


def _fig1_compare() -> dict:
    # the figure1 preset's physics; k-nodes, grids and window coarsened
    return {
        "kind": "compare", "label": "fig1-compare",
        "packet": dict(_PACKET),
        "detector": {**_DETECTOR, "sensitivity": {"kind": "half_line", "start_l0": 0.0}},
        "bath": dict(_BATH),
        "numerics": {
            "discrete": {
                "k_nodes": 201, "time_start_t0": -12.0, "time_stop_t0": 14.0,
                "time_step_t0": 0.25, "x_min_l0": -180.0, "x_max_l0": 180.0,
                "right_spacing_l0": 0.07},
            "continuum": {
                "x_min_l0": -180.0, "x_max_l0": 180.0, "grid_spacing_l0": 0.04,
                "time_start_t0": -14.0, "time_stop_t0": 14.0,
                "time_step_t0": 0.01, "snapshots": 33}},
        "comparison": {"window_recurrence_fraction": [0.0, 0.25]},
    }


def _fluor_pair() -> dict:
    # the acceptance fluorescence pair (condition ratio 40), coarsened
    length_unit = math.sqrt(HBAR / (CESIUM_MASS_KG * RESONANCE))
    k0_int, sigma_int = 0.5, 0.05
    return {
        "kind": "fluorescence", "label": "fluor-pair",
        "packet": {"mass_kg": CESIUM_MASS_KG,
                   "mean_velocity_m_per_s": HBAR * (k0_int / length_unit) / CESIUM_MASS_KG,
                   "momentum_width_hbar_per_m": sigma_int / length_unit},
        "detector": dict(_DETECTOR),
        "fluorescence": {"rabi_per_s": 0.25 * RESONANCE, "detuning_per_s": 0.0,
                         "linewidth_per_s": 10.0 * RESONANCE,
                         "region": {"start_l0": 0.0, "width_l0": 20.0}},
        "numerics": {"continuum": {
            "x_min_l0": -90.0, "x_max_l0": 100.0, "grid_spacing_l0": 0.15,
            "time_start_t0": -55.0, "time_stop_t0": 15.0,
            "time_step_t0": 0.02, "snapshots": 9}},
    }


def _tabulated_fields() -> dict:
    # continuum run on the acceptance sweep's grid, sensitivity ramping up over 4 l0
    return {
        "kind": "continuum", "label": "tabulated-fields",
        "packet": dict(_PACKET),
        "detector": {**_DETECTOR, "sensitivity": {
            "kind": "tabulated", "x_l0": [0.0, 4.0, 150.0], "values": [0.0, 1.0, 1.0]}},
        "bath": dict(_BATH),
        "numerics": {"continuum": {"x_min_l0": -150.0, "x_max_l0": 150.0,
                                   "grid_spacing_l0": 0.1, "time_start_t0": -6.0,
                                   "time_stop_t0": 4.0, "time_step_t0": 0.0015,
                                   "snapshots": 65,
                                   "write_fields": True}},
    }


BUILDERS = {
    "fig1-compare": _fig1_compare,
    "fluor-pair": _fluor_pair,
    "tabulated-fields": _tabulated_fields,
}


def build_config(workload: str, seed: int) -> dict:
    """The workload's config with the packet velocity jittered by the seed."""
    cfg = copy.deepcopy(BUILDERS[workload]())
    jitter = random.Random(seed).uniform(-0.01, 0.01)
    cfg["packet"]["mean_velocity_m_per_s"] *= 1.0 + jitter
    return cfg


# ---------------------------------------------------------------------------
# output checks


def _norm_balance_problems(balance: dict | None, where: str) -> list[str]:
    if not balance:
        return [f"{where}: no norm balance in manifest"]
    problems = []
    resid = balance["continuity_residual_relative"]
    gap = balance["detection_integral_gap"]
    if not resid < 1e-4:
        problems.append(f"{where}: continuity residual {resid!r} >= 1e-4")
    if not gap < 1e-6:
        problems.append(f"{where}: detection integral gap {gap!r} >= 1e-6")
    return problems


def _check_compare(out: Path, manifest: dict) -> list[str]:
    summary = manifest["summary"]
    linf = summary["comparison"]["linf_relative"]
    problems = [] if linf < 0.10 else [f"linf_relative {linf!r} >= 0.10"]
    return problems + _norm_balance_problems(summary["continuum"].get("norm_balance"),
                                             "continuum")


def _check_fluorescence(out: Path, manifest: dict) -> list[str]:
    payload = manifest["summary"]["fluorescence"]
    problems = []
    if not payload["adiabaticity_ratio"] >= 20.0:
        problems.append(f"adiabaticity ratio {payload['adiabaticity_ratio']!r} < 20")
    linf = payload["raw_comparison"]["linf_relative"]
    if not linf < 0.05:
        problems.append(f"raw linf_relative {linf!r} >= 0.05")
    return problems


def _check_continuum(out: Path, manifest: dict) -> list[str]:
    problems = _norm_balance_problems(manifest["summary"]["continuum"].get("norm_balance"),
                                      "continuum")
    if "fields_cont" not in manifest["outputs"]:
        problems.append("field snapshots were not written")
    return problems


CHECKS = {
    "fig1-compare": _check_compare,
    "fluor-pair": _check_fluorescence,
    "tabulated-fields": _check_continuum,
}


def check_outputs(workload: str, out: Path) -> list[str]:
    """Problems found in a run's output directory; empty when it passes."""
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        missing = [name for name in manifest["outputs"].values()
                   if not (out / name).is_file()]
        if missing:
            return [f"missing artifacts {missing}"]
        return CHECKS[workload](out, manifest)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def csv_digests(out: Path) -> dict[str, str]:
    """sha256 of every CSV artifact, keyed by its path under out."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


_REFINE = re.compile(r"refined x(\d+)")


def health(out: Path) -> dict[str, float]:
    """Health numbers the program already writes to its manifest."""
    manifest = json.loads((out / "manifest.json").read_text())
    refine, resid, gap, edge = 1, 0.0, 0.0, 0
    for warning in manifest["warnings"]:
        match = _REFINE.search(warning)
        if match:
            refine = max(refine, int(match.group(1)))
        if "edge mass" in warning or "window edges" in warning:
            edge += 1
    balance = manifest["summary"].get("continuum", {}).get("norm_balance")
    if balance:
        resid = balance["continuity_residual_relative"]
        gap = balance["detection_integral_gap"]
    return {"conditional.refine_max": refine,
            "conditional.norm_residual_max": resid,
            "conditional.norm_gap_max": gap,
            "runner.edge_mass_warnings": edge}
