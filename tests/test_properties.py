"""Property tests of both routes.  Conditional propagators: for random
detectors and steps inside the kinetic bound and up to about 4x the phase
budget, the step is refined exactly when it is over the budget, the step
used is within it, the survival probability never rises and the recorded
density balances its drain (norm_balance).  Mode ladder: for random (N, G,
cutoff) baths the interior eigenbasis is unitary and the matching at x = 0
conserves flux."""

import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from spindetect import (
    CESIUM_MASS_KG,
    HBAR,
    ComplexPotential,
    RectangularBath,
    TabulatedSensitivity,
    interior_eigenmodes,
    match_at_origin,
    norm_balance,
    propagate_conditional,
    propagate_two_channel,
)
from spindetect.conditional import KINETIC_SAFETY, PHASE_BUDGET

from helpers import (COUPLING, PROPERTY_SETTINGS, RESONANCE, fig1_packet,
                     internal_grid, make_units, two_channel_vmax)

U = make_units()
OMEGA = U.reference_frequency


@st.composite
def profiles(draw):
    """Grid of <= 400 points and a nonnegative profile on it with peak 1:
    random knots, one of them forced to 1, interpolated linearly."""
    n_points = draw(st.integers(50, 400))
    spacing_l0 = draw(st.floats(0.1, 0.5))
    grid = internal_grid(0.0, (n_points - 1) * spacing_l0, spacing_l0)
    knots = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
    knots.insert(draw(st.integers(0, len(knots))), 1.0)
    x = grid.points()
    profile = np.interp(x, np.linspace(x[0], x[-1], len(knots)), knots)
    return grid, profile


def _packet_on_peak(grid, profile, k0_int, width_cells):
    """Gaussian field centred where the profile peaks, unit plain-sum norm."""
    x = grid.points()
    x0 = x[int(np.argmax(profile))]
    sigma = width_cells * grid.spacing
    psi = np.exp(-((x - x0) / (2.0 * sigma)) ** 2 + 1j * k0_int * x / U.length_unit)
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.spacing)


def _step_within_bounds(grid, vmax, fraction):
    """fraction of the smaller of about 4x the phase budget and the kinetic
    bound: the draws reach steps the propagators refine."""
    phase_bound = 4.0 * PHASE_BUDGET * HBAR / vmax
    kinetic_bound = KINETIC_SAFETY * 2.0 * U.mass * grid.spacing ** 2 / HBAR * np.pi
    return fraction * min(phase_bound, kinetic_bound)


def _run_refined(propagate, dt, vmax):
    """propagate() at requested step dt: a refinement warning appears exactly
    when dt vmax / hbar exceeds PHASE_BUDGET, and the step used is within it
    (to the rounding of dividing by the refinement factor).  Random fields
    may reach the grid ends; that warning is beside the point here."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = propagate()
    messages = [str(w.message) for w in caught
                if not str(w.message).startswith("edge mass")]
    over = dt * vmax / (HBAR * PHASE_BUDGET) > 1.0
    assert len(messages) == int(over)
    assert all(m.startswith("time step refined x") for m in messages)
    assert traj.dt * vmax / HBAR <= PHASE_BUDGET * (1.0 + 4.0 * np.finfo(float).eps)
    return traj


def _assert_properties(traj, survival):
    """Survival never rises (beyond roundoff), and each midpoint density
    sample matches the survival drain within 1e-10 of the peak.  A drain
    -[P0(n+1) - P0(n)] cannot be resolved below the rounding of the two
    norms, so when the largest per-step loss is tiny (a one-step run that
    starts with an empty excited channel) the bound is that rounding floor.
    """
    eps = np.finfo(float).eps
    assert np.all(np.diff(survival) <= 64 * eps * survival[0])
    peak_loss = traj.dt * np.max(traj.detection_density)
    residual_loss = norm_balance(traj)["continuity_residual_relative"] * peak_loss
    assert residual_loss <= max(1e-10 * peak_loss, 16 * eps * survival[0])


@PROPERTY_SETTINGS
@given(shape=profiles(),
       decay=st.floats(0.01, 5.0), shift=st.floats(-5.0, 5.0),
       k0=st.floats(-2.0, 2.0), width=st.floats(3.0, 20.0),
       fraction=st.floats(0.05, 0.95), n_steps=st.integers(1, 200))
def test_one_channel_contracts_and_balances(shape, decay, shift, k0, width,
                                            fraction, n_steps):
    grid, profile = shape
    decay_profile = decay * OMEGA * profile
    shift_profile = shift * OMEGA * profile
    potential = ComplexPotential(grid=grid, decay_profile=decay_profile,
                                 shift_profile=shift_profile,
                                 region=(grid.x_min, grid.x_max))
    vmax = potential.max_magnitude
    dt = _step_within_bounds(grid, vmax, fraction)
    psi0 = _packet_on_peak(grid, profile, k0, width)
    traj = _run_refined(
        lambda: propagate_conditional(psi0, potential, (0.0, n_steps * dt), dt,
                                      mass=U.mass),
        dt, vmax)
    _assert_properties(traj, traj.no_detection_prob)


@PROPERTY_SETTINGS
@given(shape=profiles(),
       # a subnormal linewidth underflows the density itself
       rabi=st.floats(0.05, 2.0), linewidth=st.floats(0.0, 10.0, allow_subnormal=False),
       detuning=st.floats(-3.0, 3.0), k0=st.floats(-2.0, 2.0),
       width=st.floats(3.0, 20.0), fraction=st.floats(0.05, 0.95),
       n_steps=st.integers(1, 200))
def test_two_channel_contracts_and_balances(shape, rabi, linewidth, detuning, k0,
                                            width, fraction, n_steps):
    grid, profile = shape
    # the per-point Rabi profile is a table over the grid points
    lit = TabulatedSensitivity(grid.points(), profile)
    vmax = two_channel_vmax(np.max(rabi * OMEGA * profile), detuning * OMEGA,
                            linewidth * OMEGA)
    dt = _step_within_bounds(grid, vmax, fraction)
    ground0 = _packet_on_peak(grid, profile, k0, width)
    traj = _run_refined(
        lambda: propagate_two_channel(ground0, np.zeros_like(ground0), rabi * OMEGA, lit,
                                      detuning * OMEGA, linewidth * OMEGA, grid,
                                      (0.0, n_steps * dt), dt, mass=U.mass),
        dt, vmax)
    _assert_properties(traj, traj.no_detection_prob)


@PROPERTY_SETTINGS
@given(modes=st.integers(1, 80), coupling=st.floats(0.0, 30.0),
       cutoff_ratio=st.floats(1.05, 10.0),
       k_fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_ladder_basis_is_unitary_and_matching_conserves_flux(modes, coupling,
                                                             cutoff_ratio, k_fractions):
    """Random ladders up to 30x the worked-example coupling: the interior
    eigenvectors are unitary to 1e-12, and at incident k drawn across the
    worked-example packet's band the matching's flux defect stays < 1e-8."""
    bath = RectangularBath(coupling=coupling * COUPLING, cutoff=cutoff_ratio * RESONANCE,
                           modes=modes)
    basis = interior_eigenmodes(RESONANCE, bath)
    u = basis.vectors
    np.testing.assert_allclose(u.conj().T @ u, np.eye(modes + 1), rtol=0, atol=1e-12)
    lo, hi = fig1_packet().wavenumber_window()
    k = lo + (hi - lo) * np.array(k_fractions)
    sol = match_at_origin(basis, CESIUM_MASS_KG, k)
    assert not sol.failed.any()
    assert np.max(sol.flux_defect) < 1e-8
