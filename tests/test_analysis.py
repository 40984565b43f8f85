"""Arrival statistics, curve comparison, and the final mass ledger."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindetect import (
    ArrivalStats,
    IntervalSensitivity,
    arrival_stats,
    build_conditional_potential,
    compare_curves,
    free_evolved_packet,
    mass_accounting,
    propagate_conditional,
)
from spindetect.analysis import mass_fractions
from spindetect.conditional import ConditionalTrajectory
from spindetect.errors import ConfigurationError, NumericsError
from spindetect.runner import run_config

from helpers import (PROPERTY_SETTINGS, internal_grid, make_units, slow_packet,
                     small_continuum_config)


def test_flat_density_moments():
    t = np.linspace(0.0, 1.0, 2001)
    stats = arrival_stats(t, np.ones_like(t))
    assert stats.total_detection_probability == pytest.approx(1.0, rel=1e-12)
    assert stats.mean == pytest.approx(0.5, rel=1e-12)
    assert stats.std == pytest.approx(1.0 / np.sqrt(12.0), rel=1e-6)
    assert stats.window == (0.0, 1.0)


def test_gaussian_peak_moments():
    t = np.linspace(0.0, 4.0, 4001)
    sigma, center, mass = 0.1, 2.0, 0.4
    w = mass * np.exp(-0.5 * ((t - center) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    stats = arrival_stats(t, w)
    assert stats.total_detection_probability == pytest.approx(mass, rel=1e-9)
    assert stats.mean == pytest.approx(center, abs=1e-9)
    assert stats.std == pytest.approx(sigma, rel=1e-6)
    assert stats.mode == pytest.approx(center, abs=1e-3)
    d = stats.as_dict()
    assert d["mean_arrival_s"] == stats.mean
    assert d["window_s"] == [0.0, 4.0]


def test_window_restricts_the_mass():
    t = np.linspace(0.0, 4.0, 8001)
    sigma, center = 0.1, 2.0
    w = 0.4 * np.exp(-0.5 * ((t - center) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    half = arrival_stats(t, w, window=(1.5, 2.0))
    assert half.total_detection_probability == pytest.approx(0.2, rel=1e-3)
    # mean of the left half-Gaussian sits sigma*sqrt(2/pi) below the center
    assert half.mean == pytest.approx(center - sigma * np.sqrt(2.0 / np.pi), rel=1e-3)
    assert half.window == (1.5, 2.0)


def test_empty_density_has_undefined_moments():
    t = np.linspace(0.0, 1.0, 101)
    stats = arrival_stats(t, np.zeros_like(t))
    assert stats.total_detection_probability == 0.0
    assert stats.mean is None and stats.std is None and stats.mode is None


def test_negative_density_policy():
    t = np.linspace(0.0, 1.0, 101)
    w = np.exp(-0.5 * ((t - 0.5) / 0.05) ** 2)
    mild = w.copy()
    mild[0] = -1e-8
    stats = arrival_stats(t, mild)
    assert stats.total_detection_probability > 0.0
    bad = w.copy()
    bad[0] = -1e-3
    with pytest.raises(ConfigurationError, match="negative entries"):
        arrival_stats(t, bad)


def test_arrival_stats_input_validation():
    t = np.linspace(0.0, 1.0, 11)
    w = np.ones_like(t)
    with pytest.raises(ConfigurationError, match="matching"):
        arrival_stats(t, w[:-1])
    with pytest.raises(ConfigurationError, match="increasing"):
        arrival_stats(t[::-1], w)
    with pytest.raises(ConfigurationError, match="positive length"):
        arrival_stats(t, w, window=(0.5, 0.5))
    with pytest.raises(ConfigurationError, match="fewer than two"):
        arrival_stats(t, w, window=(0.42, 0.48))


def test_arrival_stats_record_guards():
    with pytest.raises(NumericsError, match="outside"):
        ArrivalStats(total_detection_probability=1.5, mean=0.0, std=0.0,
                     mode=0.0, window=(0.0, 1.0))
    with pytest.raises(NumericsError, match="finite"):
        ArrivalStats(total_detection_probability=0.5, mean=None, std=0.1,
                     mode=0.2, window=(0.0, 1.0))


def test_identical_curves_compare_to_zero():
    t = np.linspace(0.0, 1.0, 301)
    w = np.sin(np.pi * t) ** 2
    cmp = compare_curves(t, w, t, w)
    assert cmp.linf == 0.0 and cmp.l2 == 0.0
    assert cmp.linf_relative == 0.0 and cmp.l2_relative == 0.0
    # the peak is read off the resampled polyline, which undershoots the
    # true maximum by the chord error
    assert cmp.peak == pytest.approx(1.0, rel=1e-4)
    assert cmp.window == (0.0, 1.0)


def test_shifted_curve_distance_and_symmetry():
    sigma, delta = 0.1, 0.01
    ta = np.linspace(0.0, 2.0, 2001)
    tb = np.linspace(0.0, 2.0, 1501)   # different sampling on purpose
    a = np.exp(-0.5 * ((ta - 1.0) / sigma) ** 2)
    b = np.exp(-0.5 * ((tb - 1.0 - delta) / sigma) ** 2)
    ab = compare_curves(ta, a, tb, b)
    ba = compare_curves(tb, b, ta, a)
    assert ab.linf == ba.linf and ab.l2 == ba.l2
    # small shift: L_inf ~ delta * max|slope| = delta * exp(-1/2)/sigma
    assert ab.linf_relative == pytest.approx(delta * np.exp(-0.5) / sigma, rel=0.05)
    assert 0.0 < ab.l2_relative < ab.linf_relative


@st.composite
def unit_window_curves(draw):
    """One sampled curve on [0, 1]: 2 to 40 strictly increasing times with
    both ends fixed, values in [-1, 1]."""
    inner = sorted(set(draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), max_size=38))))
    times = np.array([0.0, *inner, 1.0])
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=times.size,
                           max_size=times.size))
    return times, np.array(values)


@PROPERTY_SETTINGS
@given(a=unit_window_curves(), b=unit_window_curves(), c=unit_window_curves(),
       n_resample=st.integers(2, 300))
def test_compare_curves_is_a_metric(a, b, c, n_resample):
    """Curves sampled differently on one window: the absolute distances are
    exactly symmetric and obey the triangle inequality up to rounding."""
    def dist(x, y):
        return compare_curves(*x, *y, n_resample=n_resample)

    ab, ba, bc, ac = dist(a, b), dist(b, a), dist(b, c), dist(a, c)
    assert (ab.window, ab.peak, ab.linf, ab.l2) == (ba.window, ba.peak, ba.linf, ba.l2)
    slack = 1e-12 * max(ab.peak, bc.peak)
    assert ac.linf <= ab.linf + bc.linf + slack
    assert ac.l2 <= ab.l2 + bc.l2 + slack


def test_compare_window_and_failure_modes():
    ta = np.linspace(0.0, 1.0, 101)
    tb = np.linspace(0.5, 1.5, 101)
    cmp = compare_curves(ta, np.ones_like(ta), tb, np.ones_like(tb),
                         window=(0.6, 0.9), n_resample=64)
    assert cmp.window == (0.6, 0.9)
    assert cmp.n_nodes == 64
    assert cmp.linf == 0.0
    with pytest.raises(ConfigurationError, match="no overlapping"):
        compare_curves(ta, np.ones_like(ta), ta + 5.0, np.ones_like(ta))
    with pytest.raises(ConfigurationError, match="at least 2"):
        compare_curves(ta, np.ones_like(ta), tb, np.ones_like(tb), n_resample=1)
    with pytest.raises(ConfigurationError, match="increasing"):
        compare_curves(ta[::-1], np.ones_like(ta), tb, np.ones_like(tb))


@pytest.fixture(scope="module")
def short_absorbing_run():
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-60.0, 60.0, 0.1)
    pot = build_conditional_potential(
        0.3 * u.reference_frequency, 0.0,
        IntervalSensitivity(10.0 * u.length_unit, start=-5.0 * u.length_unit), grid)
    psi0 = free_evolved_packet(packet, 0.0, grid)
    # the +-60 l0 grid cuts off the launch state's far tails
    with pytest.warns(UserWarning, match="initial norm"):
        return propagate_conditional(psi0, pot, (0.0, 1.0 * u.time_unit),
                                     0.01 * u.time_unit, mass=packet.mass)


def test_mass_accounting_matches_run_ledger(short_absorbing_run):
    traj = short_absorbing_run
    # the packet is still draining, so the ledger warns of a residual
    with pytest.warns(UserWarning, match="residual mass") as record:
        split = mass_accounting(traj)
    assert len(record) == 1
    assert split == mass_fractions(traj.final_fields[0], traj.grid, traj.region,
                                   traj.no_detection_prob, traj.detection_density)
    assert set(split) == {"reflected", "transmitted_undetected",
                          "residual_in_region", "detected"}
    assert sum(split.values()) == pytest.approx(1.0, abs=1e-7)


def test_mass_accounting_region_override(short_absorbing_run):
    traj = short_absorbing_run
    u = make_units()
    with pytest.warns(UserWarning, match="residual mass") as record:
        wide = mass_accounting(traj, region=(-30.0 * u.length_unit,
                                             30.0 * u.length_unit))
        base = mass_accounting(traj)
    assert len(record) == 2
    assert wide["residual_in_region"] > base["residual_in_region"]
    assert wide["reflected"] < base["reflected"]
    assert sum(wide.values()) == pytest.approx(1.0, abs=1e-7)


def test_mass_accounting_rejects_tampered_field(short_absorbing_run):
    traj = short_absorbing_run
    original = traj.final_fields.copy()
    try:
        traj.final_fields[0] *= 1.05
        with pytest.raises(NumericsError, match="mass ledger"):
            mass_accounting(traj)
    finally:
        traj.final_fields[:] = original


def test_mass_accounting_rejects_a_ledger_off_one():
    """A record whose final field and survival series disagree: half the
    mass transmitted plus 0.2 detected is not the launched 1."""
    grid = internal_grid(-2.0, 2.0, 0.5)
    field = np.zeros((1, grid.n_points), dtype=complex)
    field[0, -1] = np.sqrt(0.5 / grid.spacing)
    traj = ConditionalTrajectory(
        grid=grid, times=np.arange(3.0),
        norms={"no_detection_prob": np.array([1.0, 0.9, 0.8])},
        detection_density_times=np.array([0.5, 1.5]),
        detection_density=np.array([0.1, 0.1]),
        snapshot_times=np.array([0.0, 2.0]),
        snapshots=np.zeros((1, 2, grid.n_points), dtype=complex),
        final_fields=field, region=(0.0, 0.0))
    with pytest.raises(NumericsError, match="mass ledger sums to 0.7"):
        mass_accounting(traj)


@pytest.mark.parametrize("grid,edge_wall", [
    (dict(x_min_l0=-80.0, x_max_l0=60.0, grid_spacing_l0=0.1, time_start_t0=-6.0,
          time_stop_t0=11.0, time_step_t0=0.01), True),
    ({}, False),
], ids=["edge-wall", "default-grid"])
def test_edge_wall_run_keeps_one_ledger(tmp_path, grid, edge_wall):
    """A zero-decay run: the manifest's ledger (the one the trajectory
    keeps) totals 1 to roundoff and reports nothing detected.  P0 moves only
    by rounding, up on the edge-wall grid (P0(0) - P0(end) about -2e-13, a
    packet still touching the right wall, so an edge-mass warning) and down
    on the default grid (about +6e-13); neither is a detection."""
    cfg = small_continuum_config()
    del cfg["bath"]
    cfg["rates_override"] = {"decay_per_s": 0.0}
    cfg["numerics"]["continuum"].update(grid)
    manifest = run_config(cfg, tmp_path)
    assert sum("edge mass" in w for w in manifest["warnings"]) == edge_wall
    split = manifest["summary"]["continuum"]["mass_split"]
    assert split["detected"] == 0.0
    assert abs(sum(split.values()) - 1.0) <= 1e-12


def test_mass_fractions_clips_a_rounding_rise():
    grid = internal_grid(-2.0, 2.0, 0.5)
    field = np.zeros(grid.n_points, dtype=complex)
    field[0] = 1.0 / np.sqrt(grid.spacing)
    dark, lit = np.zeros(3), np.array([0.0, 1e-13, 0.0])
    split = mass_fractions(field, grid, (0.0, 1.0), np.array([1.0, 1.0 + 4e-14]), lit)
    assert split["detected"] == 0.0
    assert split["reflected"] == pytest.approx(1.0, rel=1e-15)
    # a drop of P0 is a detection only when the detection density is not zero
    drop = np.array([1.0, 1.0 - 4e-14])
    assert mass_fractions(field, grid, (0.0, 1.0), drop, dark)["detected"] == 0.0
    assert mass_fractions(field, grid, (0.0, 1.0), drop, lit)["detected"] == pytest.approx(
        4e-14, rel=1e-2)
