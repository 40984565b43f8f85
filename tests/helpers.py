"""Shared builders and frozen reference numbers for the test suite.

The reference constants below were computed once with independent scripts
(mpmath quadrature for the rate integrals, closed-form algebra for the
rest) and are frozen here so regressions cannot hide behind a shared
implementation.
"""

import tracemalloc

import numpy as np
from hypothesis import settings

from spindetect import (
    CESIUM_MASS_KG,
    HBAR,
    GaussianPacketSpec,
    Grid1D,
    HalfLineSensitivity,
    RectangularBath,
    UnitSystem,
    single_spin,
)

# worked-example detector parameters used throughout
RESONANCE = 2.39e8        # rad/s
CUTOFF_RATIO = 4.6
COUPLING = 2782.0         # s^-1/2
MODES = 40

# frozen reference values for the parameters above
DECAY_RATE_REF = 10571492.061166039       # 1/s
LEVEL_SHIFT_REF = -19789403.75624606      # 1/s
RECURRENCE_REF = 2.2860415889319944e-07   # s
CORRELATION_TIME_REF = 1.8309816854605307e-07  # s

# one deterministic setting for every property test
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def make_units(resonance=RESONANCE, mass=CESIUM_MASS_KG):
    return UnitSystem(reference_frequency=resonance, mass=mass)


def fig1_packet(**override):
    base = dict(mass=CESIUM_MASS_KG, mean_velocity=1.79,
                momentum_width=2.0e7 * HBAR)
    base.update(override)
    return GaussianPacketSpec(**base)


def make_bath(coupling=COUPLING, modes=MODES, resonance=RESONANCE):
    return RectangularBath(coupling=coupling, cutoff=CUTOFF_RATIO * resonance,
                           modes=modes)


def fig1_geometry():
    return single_spin(RESONANCE, HalfLineSensitivity())


def slow_packet(k0_int=0.5, sigma_int=0.04, units=None):
    """Packet with given internal mean wavenumber and width (slow, so the
    grid resolves it easily and free-evolution errors stay tiny)."""
    u = units or make_units()
    velocity = HBAR * (k0_int / u.length_unit) / u.mass
    return GaussianPacketSpec(mass=u.mass, mean_velocity=velocity,
                              momentum_width=HBAR * sigma_int / u.length_unit)


def internal_grid(x_min_l0, x_max_l0, spacing_l0, units=None):
    u = units or make_units()
    n = int(round((x_max_l0 - x_min_l0) / spacing_l0)) + 1
    return Grid1D(x_min_l0 * u.length_unit, x_max_l0 * u.length_unit, n)


def two_channel_vmax(rabi_max, detuning, linewidth):
    """|V|max of the fluorescence block (hbar/2)[[0, Omega], [Omega,
    -2 detuning - i linewidth]], joules."""
    return HBAR * max(rabi_max / 2.0, 0.5 * abs(2.0 * detuning + 1j * linewidth))


def l2_distance(grid, a, b):
    """Discrete L2 distance sqrt(h sum |a - b|^2) on a shared grid."""
    return float(np.sqrt(grid.spacing * np.sum(np.abs(np.asarray(a)
                                                      - np.asarray(b)) ** 2)))


def peak_alloc_mb(fn):
    """(fn(), peak MB that Python and numpy allocated while fn ran), by
    tracemalloc: a guard against work buffers that grow with the problem."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


# ---------------------------------------------------------------------------
# run configurations


def rates_config():
    return {
        "kind": "rates",
        "packet": {"mass_kg": CESIUM_MASS_KG, "mean_velocity_m_per_s": 1.79,
                   "momentum_width_hbar_per_m": 2.0e7},
        "detector": {"resonance_per_s": RESONANCE},
        "bath": {"coupling_sqrt_per_s": COUPLING, "cutoff_ratio": CUTOFF_RATIO,
                 "modes": MODES},
    }


def small_compare_config():
    """Cheap (seconds, not minutes) compare run: coarse grids, short window."""
    return {
        "kind": "compare",
        "label": "small-compare",
        "packet": {"mass_kg": CESIUM_MASS_KG, "mean_velocity_m_per_s": 1.79,
                   "momentum_width_hbar_per_m": 2.0e7},
        "detector": {"resonance_per_s": RESONANCE},
        "bath": {"coupling_sqrt_per_s": COUPLING, "cutoff_ratio": CUTOFF_RATIO,
                 "modes": 12},
        "numerics": {
            "discrete": {
                "k_nodes": 301, "time_start_t0": -12.0, "time_stop_t0": 10.0,
                "time_step_t0": 0.5, "x_min_l0": -160.0, "x_max_l0": 160.0,
                "right_spacing_l0": 0.08},
            "continuum": {
                "x_min_l0": -160.0, "x_max_l0": 160.0, "grid_spacing_l0": 0.04,
                "time_start_t0": -12.0, "time_stop_t0": 10.0,
                "time_step_t0": 0.01, "snapshots": 5}},
        "comparison": {"window_recurrence_fraction": [0.0, 0.18],
                       "n_resample": 512},
    }


def small_discrete_config():
    cfg = small_compare_config()
    cfg["kind"] = "discrete"
    del cfg["numerics"]["continuum"], cfg["comparison"]
    return cfg


def small_continuum_config():
    cfg = small_compare_config()
    cfg["kind"] = "continuum"
    cfg["label"] = "small-continuum"
    del cfg["numerics"]["discrete"]
    del cfg["comparison"]
    return cfg


def fluorescence_config():
    """Strong-linewidth regime (condition ratio 40) on a slow packet."""
    u = make_units()
    k0_int, sigma_int = 0.5, 0.05
    return {
        "kind": "fluorescence",
        "label": "fluorescence-limit",
        "packet": {
            "mass_kg": CESIUM_MASS_KG,
            "mean_velocity_m_per_s": HBAR * (k0_int / u.length_unit) / CESIUM_MASS_KG,
            "momentum_width_hbar_per_m": sigma_int / u.length_unit,
        },
        "detector": {"resonance_per_s": RESONANCE},
        "fluorescence": {
            "rabi_per_s": 0.25 * RESONANCE,
            "detuning_per_s": 0.0,
            "linewidth_per_s": 10.0 * RESONANCE,
            "region": {"start_l0": 0.0, "width_l0": 20.0},
        },
        "numerics": {"continuum": {
            "x_min_l0": -150.0, "x_max_l0": 190.0, "grid_spacing_l0": 0.05,
            "time_start_t0": -90.0, "time_stop_t0": 160.0,
            "time_step_t0": 0.01, "snapshots": 9}},
    }


def refined_fluorescence_config():
    """The fluorescence pair on a coarse grid at dt = 0.05 t0, 2.8x the phase
    budget for |V|max = hbar linewidth / 2 = 5 hbar/t0: refined x3 (~1 s),
    writing its ground-channel field snapshots."""
    cfg = fluorescence_config()
    cfg["numerics"]["continuum"].update(
        x_min_l0=-90.0, x_max_l0=100.0, grid_spacing_l0=0.15, time_start_t0=-55.0,
        time_stop_t0=15.0, time_step_t0=0.05, write_fields=True)
    return cfg


def sweep_tradeoff_config():
    """Coupling sweep over {0.1x, 1x, 10x, 100x} the worked-example G."""
    return {
        "kind": "sweep",
        "label": "coupling-tradeoff",
        "packet": {"mass_kg": CESIUM_MASS_KG, "mean_velocity_m_per_s": 1.79,
                   "momentum_width_hbar_per_m": 2.0e7},
        "detector": {"resonance_per_s": RESONANCE},
        "bath": {"coupling_sqrt_per_s": COUPLING, "cutoff_ratio": CUTOFF_RATIO,
                 "modes": MODES},
        "numerics": {"continuum": {
            "x_min_l0": -180.0, "x_max_l0": 170.0, "grid_spacing_l0": 0.015,
            "time_start_t0": -12.0, "time_stop_t0": 20.0,
            "time_step_t0": 0.005, "snapshots": 5}},
        "sweep": {"parameter": "bath.coupling_sqrt_per_s",
                  "factors": [0.1, 1.0, 10.0, 100.0], "run": "continuum"},
    }
