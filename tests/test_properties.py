"""Property tests of the conditional propagators: for random detectors and
steps inside the phase and kinetic bounds, the survival probability never
rises and the recorded density balances its drain (norm_balance)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindetect import (
    HBAR,
    ComplexPotential,
    norm_balance,
    propagate_conditional,
    propagate_two_channel,
)

from helpers import internal_grid, make_units

U = make_units()
OMEGA = U.reference_frequency
KINETIC_SAFETY = 64.0

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
# random fields may reach the grid ends; the warning is beside the point here
QUIET_EDGES = pytest.mark.filterwarnings("ignore:edge mass")


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
    phase_bound = 0.1 * HBAR / vmax
    kinetic_bound = KINETIC_SAFETY * 2.0 * U.mass * grid.spacing ** 2 / HBAR * np.pi
    return fraction * min(phase_bound, kinetic_bound)


def _assert_properties(traj, survival):
    """Survival never rises (beyond roundoff), and each midpoint density
    sample matches the survival drain within 1e-10 of the peak.  A drain
    -[P0(n+1) - P0(n)] cannot be resolved below the rounding of the two
    norms, so when the largest per-step loss is tiny (a one-step run that
    starts with an empty excited channel) the bound is that rounding floor.
    """
    eps = np.finfo(float).eps
    assert np.all(np.diff(survival) <= 64 * eps * survival[0])
    dt = traj.times[1] - traj.times[0]
    peak_loss = dt * np.max(traj.detection_density)
    residual_loss = norm_balance(traj)["continuity_residual_relative"] * peak_loss
    assert residual_loss <= max(1e-10 * peak_loss, 16 * eps * survival[0])


@QUIET_EDGES
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
    potential = ComplexPotential(
        grid=grid, values=0.5 * HBAR * (shift_profile - 1j * decay_profile),
        decay_profile=decay_profile, shift_profile=shift_profile,
        region=(grid.x_min, grid.x_max))
    dt = _step_within_bounds(grid, potential.max_magnitude, fraction)
    psi0 = _packet_on_peak(grid, profile, k0, width)
    traj = propagate_conditional(psi0, potential, (0.0, n_steps * dt), dt,
                                 mass=U.mass, kinetic_safety=KINETIC_SAFETY)
    _assert_properties(traj, traj.no_detection_prob)


@QUIET_EDGES
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
    rabi_profile = rabi * OMEGA * profile
    vmax = HBAR * max(rabi * OMEGA / 2.0,
                      0.5 * abs(2.0 * detuning + 1j * linewidth) * OMEGA)
    dt = _step_within_bounds(grid, vmax, fraction)
    ground0 = _packet_on_peak(grid, profile, k0, width)
    traj = propagate_two_channel(ground0, np.zeros_like(ground0), rabi_profile,
                                 detuning * OMEGA, linewidth * OMEGA, grid,
                                 (0.0, n_steps * dt), dt, mass=U.mass,
                                 kinetic_safety=KINETIC_SAFETY)
    _assert_properties(traj, traj.survival_prob)
