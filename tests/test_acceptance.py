"""End-to-end checks of the headline claims, one per criterion.

Each test prints a pass/fail line through the criterion_report fixture, so
`pytest -v` ends with a compact scoreboard of the eight checks.  The
expensive session fixtures (worked-example comparison, fluorescence pair,
coupling sweep) are shared with nothing else so their artifacts stay
representative of real CLI runs.
"""

import time

import numpy as np
import pytest

from spindetect import (
    CESIUM_MASS_KG,
    DetectorGeometry,
    DirectionalCoupling,
    DirectionalSpectrum3D,
    Grid1D,
    ScatteringSynthesis,
    SpinRegion3D,
    ball_region,
    build_conditional_potential,
    decay_rate_and_shift,
    free_evolved_packet,
    interior_eigenmodes,
    match_at_origin,
    one_channel_limit_potential,
    propagate_conditional,
    rate_map_3d,
    scaled_ensemble,
)
from spindetect.model import HalfLineSensitivity
from spindetect.output import read_csv

import helpers
from helpers import (
    fig1_packet,
    internal_grid,
    l2_distance,
    make_bath,
    make_units,
    slow_packet,
)


def test_mode_ladder_agrees_with_complex_potential(figure1_run, criterion_report):
    """The discrete-bath detection density tracks the complex-potential one
    over the first 80 percent of a recurrence period."""
    _, manifest = figure1_run
    cmp = manifest["summary"]["comparison"]
    window = manifest["config"]["comparison"]["window_recurrence_fraction"]
    ok = cmp["linf_relative"] < 0.10 and window == [0.0, 0.8]
    criterion_report(1, "mode ladder vs complex potential", ok,
                     f"relative Linf {cmp['linf_relative']:.4f} < 0.10 "
                     f"over fraction {window} of the recurrence")
    assert window == [0.0, 0.8]
    assert cmp["linf_relative"] < 0.10
    # the run interpreted the worked example as intended
    derived = manifest["derived"]
    assert derived["decay_rate_per_s"] == pytest.approx(
        helpers.DECAY_RATE_REF, rel=1e-12)
    assert derived["recurrence_time_s"] == pytest.approx(
        helpers.RECURRENCE_REF, rel=1e-12)


def test_rate_quadrature_matches_closed_forms_quickly(criterion_report):
    """Independent numerical quadrature reproduces the closed-form decay
    rate and level shift within 1e-6 relative, in under a second."""
    bath = make_bath()
    start = time.perf_counter()
    res = decay_rate_and_shift(bath, helpers.RESONANCE)
    elapsed = time.perf_counter() - start
    scale = max(abs(res.decay_rate), abs(res.level_shift))
    err_a = abs(res.quadrature_decay_rate - res.decay_rate) / scale
    err_d = abs(res.quadrature_level_shift - res.level_shift) / scale
    ok = err_a < 1e-6 and err_d < 1e-6 and elapsed < 1.0
    criterion_report(2, "rate quadrature cross-check", ok,
                     f"rel errors {err_a:.2e}/{err_d:.2e} < 1e-6, "
                     f"{elapsed * 1e3:.0f} ms < 1 s")
    assert err_a < 1e-6
    assert err_d < 1e-6
    assert elapsed < 1.0
    # and the worked-example magnitudes come out where they should
    assert res.decay_rate == pytest.approx(1.0572e7, rel=5e-4)
    assert res.level_shift == pytest.approx(-1.979e7, rel=5e-4)


def test_detection_balances_survival_budget(figure1_run, criterion_report):
    """w1 equals the survival drain pointwise, and its integral equals the
    total lost norm, both computed during the run itself."""
    _, manifest = figure1_run
    balance = manifest["summary"]["continuum"]["norm_balance"]
    resid = balance["continuity_residual_relative"]
    gap = balance["detection_integral_gap"]
    ok = resid < 1e-4 and gap < 1e-6
    criterion_report(3, "detection norm budget", ok,
                     f"continuity residual {resid:.2e} < 1e-4, "
                     f"integral gap {gap:.2e} < 1e-6")
    assert resid < 1e-4
    assert gap < 1e-6


def test_scattering_conserves_flux_across_band(criterion_report):
    """100 random incident wavenumbers across the packet band: outgoing flux
    matches incident flux to 1e-8 relative at every node."""
    rng = np.random.default_rng(20260823)
    lo, hi = fig1_packet().wavenumber_window()
    k = np.sort(rng.uniform(lo, hi, 100))
    basis = interior_eigenmodes(helpers.RESONANCE, make_bath())
    sol = match_at_origin(basis, CESIUM_MASS_KG, k)
    worst = float(np.max(sol.flux_defect))
    ok = (not sol.failed.any()) and worst < 1e-8
    criterion_report(4, "flux conservation across the band", ok,
                     f"worst relative defect {worst:.2e} < 1e-8 "
                     f"({len(k)} nodes, 0 failures)")
    assert not sol.failed.any()
    assert worst < 1e-8


def test_strong_damping_collapses_to_one_channel(fluorescence_run, criterion_report):
    """With the linewidth dominating every other scale the two-channel
    emission density matches the eliminated-channel model within 5 percent,
    and on resonance the effective potential is purely absorbing."""
    _, manifest = fluorescence_run
    payload = manifest["summary"]["fluorescence"]
    ratio = payload["adiabaticity_ratio"]
    linf = payload["raw_comparison"]["linf_relative"]

    grid = internal_grid(-5.0, 5.0, 0.5)
    resonant = one_channel_limit_potential(0.25 * helpers.RESONANCE,
                                           HalfLineSensitivity(grid.x_min), 0.0,
                                           10.0 * helpers.RESONANCE, grid)
    purely_absorbing = bool(np.all(resonant.values.real == 0.0)
                            and np.all(resonant.values.imag < 0.0))

    ok = ratio >= 20.0 and linf < 0.05 and purely_absorbing
    criterion_report(5, "fluorescence one-channel limit", ok,
                     f"condition ratio {ratio:.1f} >= 20, relative Linf "
                     f"{linf:.4f} < 0.05, resonant potential imaginary: "
                     f"{purely_absorbing}")
    assert ratio >= 20.0
    assert linf < 0.05
    assert purely_absorbing


def test_ensemble_square_root_scaling_invariance(criterion_report):
    """Replacing each spin by N copies with couplings / sqrt(N) leaves the
    3D rate map unchanged; couplings / N suppress it like 1/N."""
    regions = (
        SpinRegion3D(sensitivity=ball_region(np.zeros(3), 2.0),
                     multiplicity=3),
        SpinRegion3D(sensitivity=ball_region(np.array([4.0, 0.0, 0.0]), 1.5),
                     multiplicity=1),
    )
    exchange = np.array([[0.0, 0.05], [0.0, 0.0]])
    geometry = DetectorGeometry(resonances=(1.0, 1.3), exchange=exchange,
                                regions_3d=regions)
    spectrum = DirectionalSpectrum3D(
        dispersion=1.5,
        couplings=(
            DirectionalCoupling(lambda w, e: 0.3 + 0.1 * e[:, 2], 5.0),
            DirectionalCoupling(0.2, 5.0),
        ),
        spontaneous=(DirectionalCoupling(0.003, 5.0),
                     DirectionalCoupling(0.002, 5.0)))
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [4.0, 0.5, 0.0],
                    [2.9, 0.0, 0.0], [10.0, 10.0, 10.0]])
    base = rate_map_3d(geometry, spectrum, pts)
    assert np.all(base.decay_rate > 0.0)   # spontaneous floor everywhere

    hundred = scaled_ensemble(geometry, spectrum, pts, ensemble_size=100,
                              scaling_exponent=0.5)
    rel_gap = float(np.max(np.abs(hundred.decay_rate - base.decay_rate)
                           / base.decay_rate))
    shift_scale = float(np.max(np.abs(base.level_shift)))
    shift_gap = float(np.max(np.abs(hundred.level_shift - base.level_shift))
                      / shift_scale)

    million = scaled_ensemble(geometry, spectrum, pts, ensemble_size=10**6,
                              scaling_exponent=1.0)
    suppression = float(np.max(million.decay_rate / base.decay_rate))

    ok = rel_gap < 1e-12 and shift_gap < 1e-12 and suppression < 1e-5
    criterion_report(6, "ensemble square-root scaling", ok,
                     f"invariance gap {rel_gap:.2e} < 1e-12, linear-scaling "
                     f"suppression {suppression:.2e} < 1e-5")
    assert rel_gap < 1e-12
    assert shift_gap < 1e-12
    assert suppression < 1e-5


def test_coupling_strength_tradeoff(sweep_run, criterion_report):
    """Detected probability rises then falls with coupling strength, and the
    strongest coupling reflects far more than the reference one."""
    out, manifest = sweep_run
    cols = read_csv(out / "summary.csv")
    detected = cols["detected"]
    reflected = cols["reflected"]
    ok_runs = bool(np.all(cols["status_ok"] == 1.0))
    peak = int(np.argmax(detected))
    interior = 0 < peak < len(detected) - 1
    rises = bool(np.all(np.diff(detected[:peak + 1]) > 0.0))
    falls = bool(np.all(np.diff(detected[peak:]) < 0.0))
    more_reflection = bool(reflected[-1] > 10.0 * reflected[1])
    ok = ok_runs and interior and rises and falls and more_reflection
    criterion_report(7, "coupling strength tradeoff", ok,
                     f"detected {np.round(detected, 4).tolist()} peaks at "
                     f"index {peak}; reflected {reflected[-1]:.3f} vs "
                     f"{reflected[1]:.2e} at the reference coupling")
    assert ok_runs
    assert interior
    assert rises and falls
    assert more_reflection
    assert manifest["summary"]["sweep"]["failed"] == 0


def test_free_limits_recover_analytic_packet(criterion_report):
    """Both solvers reduce to the analytic free Gaussian when the detector
    is switched off."""
    units = make_units()
    t0u, l0u = units.time_unit, units.length_unit

    # complex-potential propagation with zero decay and zero shift
    packet_c = slow_packet(k0_int=0.5, sigma_int=0.04)
    grid_c = internal_grid(-110.0, 110.0, 0.004)
    pot = build_conditional_potential(0.0, 0.0, HalfLineSensitivity(), grid_c)
    psi0 = free_evolved_packet(packet_c, -2.5 * t0u, grid_c)
    traj = propagate_conditional(psi0, pot, (-2.5 * t0u, 2.5 * t0u),
                                 0.004 * t0u, mass=packet_c.mass)
    gap_cont = l2_distance(grid_c, traj.final_fields[0],
                           free_evolved_packet(packet_c, 2.5 * t0u, grid_c))

    # mode-ladder synthesis with the spin coupling switched off
    packet_d = fig1_packet()
    grid_d = Grid1D(-120.0 * l0u, 160.0 * l0u, 14001)
    t_d = 10.0 * t0u
    state = ScatteringSynthesis(packet_d, helpers.RESONANCE, make_bath(coupling=0.0, modes=8),
                                k_nodes=1201).state(t_d, grid_d)
    gap_disc = l2_distance(grid_d, state.no_flip,
                           free_evolved_packet(packet_d, t_d, grid_d))

    ok = gap_cont < 1e-6 and gap_disc < 1e-6
    criterion_report(8, "free-particle limits", ok,
                     f"continuum L2 gap {gap_cont:.2e}, discrete L2 gap "
                     f"{gap_disc:.2e}, both < 1e-6")
    assert gap_cont < 1e-6
    assert gap_disc < 1e-6
