"""Every physical scalar is checked where it enters the package: NaN and
+-inf fail at each public entry point, and so does a value of the wrong
sign where the physics fixes it, with a ConfigurationError whose message
starts with the argument's name."""

import functools
import re

import numpy as np
import pytest

from spindetect import (
    DetectorGeometry,
    DirectionalCoupling,
    DirectionalSpectrum3D,
    GaussianPacketSpec,
    GeneralBath,
    Grid1D,
    HalfLineSensitivity,
    IntervalSensitivity,
    RectangularBath,
    ScatteringSynthesis,
    SpinRegion3D,
    UnitSystem,
    adiabaticity_ratio,
    ball_region,
    build_conditional_potential,
    correlation_kernel,
    decay_rate_and_shift,
    free_evolved_packet,
    interior_eigenmodes,
    markov_summary,
    match_at_origin,
    one_channel_limit_potential,
    propagate_conditional,
    propagate_two_channel,
    scaled_ensemble,
)
from spindetect.conditional import time_step, two_channel_vmax
from spindetect.errors import ConfigurationError

from helpers import RESONANCE, fig1_packet, internal_grid, make_bath, make_units, slow_packet

U = make_units()
W0, M, T0 = U.reference_frequency, U.mass, U.time_unit
PACKET = slow_packet()
GRID = internal_grid(-10.0, 10.0, 0.2)
PSI = free_evolved_packet(PACKET, 0.0, GRID)
LIT = HalfLineSensitivity()
POTENTIAL = build_conditional_potential(0.0, 0.0, LIT, GRID)
BATH = make_bath(modes=8)
SPAN, DT = (0.0, 1.0 * T0), 0.01 * T0

# the bad values of each sign rule: NaN and +-inf always, then the wrong sign
BAD = {"": (np.nan, np.inf, -np.inf),
       "nonnegative": (np.nan, np.inf, -np.inf, -1.0),
       "positive": (np.nan, np.inf, -np.inf, 0.0, -1.0)}


def _packet(**field):
    return GaussianPacketSpec(**{"mass": M, "mean_velocity": PACKET.mean_velocity,
                                 "momentum_width": PACKET.momentum_width, **field})


@functools.cache
def _synthesis():
    return ScatteringSynthesis(fig1_packet(), RESONANCE, BATH, k_nodes=51)


def _scaled_ensemble(exponent):
    region = SpinRegion3D(sensitivity=ball_region(np.zeros(3), 1.0))
    geometry = DetectorGeometry(resonances=(1.0,), regions_3d=(region,))
    spectrum = DirectionalSpectrum3D(dispersion=2.0, couplings=(DirectionalCoupling(0.4, 5.0),))
    return scaled_ensemble(geometry, spectrum, np.zeros((1, 3)), 2, exponent)


def _conditional(span=SPAN, dt=DT, mass=M, reference_frequency=None):
    return propagate_conditional(PSI, POTENTIAL, span, dt, mass=mass,
                                 reference_frequency=reference_frequency)


def _two_channel(rabi=0.0, detuning=0.0, linewidth=W0, span=SPAN, dt=DT, mass=M):
    return propagate_two_channel(PSI, np.zeros_like(PSI), rabi, LIT, detuning, linewidth,
                                 GRID, span, dt, mass=mass)


# (case label, argument named in the error, sign rule, call with the argument v)
SCALARS = [
    ("UnitSystem", "reference_frequency", "positive", lambda v: UnitSystem(v, M)),
    ("UnitSystem", "mass", "positive", lambda v: UnitSystem(W0, v)),
    ("GaussianPacketSpec", "mass", "positive", lambda v: _packet(mass=v)),
    ("GaussianPacketSpec", "mean_velocity", "positive", lambda v: _packet(mean_velocity=v)),
    ("GaussianPacketSpec", "momentum_width", "positive", lambda v: _packet(momentum_width=v)),
    ("GaussianPacketSpec", "focus_time", "", lambda v: _packet(focus_time=v)),
    ("GaussianPacketSpec", "focus_position", "", lambda v: _packet(focus_position=v)),
    ("free_evolved_packet", "t", "", lambda v: free_evolved_packet(PACKET, v, GRID)),
    ("Grid1D", "x_min", "", lambda v: Grid1D(v, 1.0, 16)),
    ("Grid1D", "x_max", "", lambda v: Grid1D(-1.0, v, 16)),
    ("HalfLineSensitivity", "start", "", lambda v: HalfLineSensitivity(v)),
    ("IntervalSensitivity", "start", "", lambda v: IntervalSensitivity(1.0, start=v)),
    ("IntervalSensitivity", "width", "positive", lambda v: IntervalSensitivity(v)),
    ("ball_region", "radius", "positive", lambda v: ball_region(np.zeros(3), v)),
    ("interior_eigenmodes", "resonance", "positive", lambda v: interior_eigenmodes(v, BATH)),
    ("RectangularBath", "coupling", "nonnegative", lambda v: RectangularBath(v, 1.0)),
    ("RectangularBath", "cutoff", "positive", lambda v: RectangularBath(1.0, v)),
    ("GeneralBath", "cutoff", "positive", lambda v: GeneralBath(1.0, np.ones_like, v)),
    ("DirectionalCoupling", "cutoff", "positive", lambda v: DirectionalCoupling(1.0, v)),
    ("correlation_kernel", "resonance", "positive", lambda v: correlation_kernel(BATH, v, 0.0)),
    ("decay_rate_and_shift", "resonance", "positive",
     lambda v: decay_rate_and_shift(BATH, v)),
    ("markov_summary", "resonance", "positive", lambda v: markov_summary(BATH, v)),
    ("scaled_ensemble", "scaling_exponent", "", _scaled_ensemble),
    ("match_at_origin", "mass", "positive",
     lambda v: match_at_origin(interior_eigenmodes(RESONANCE, BATH), v, 1e7)),
    ("ScatteringSynthesis.state", "t_si", "", lambda v: _synthesis().state(v, GRID)),
    ("build_conditional_potential", "decay_rate", "nonnegative",
     lambda v: build_conditional_potential(v, 0.0, LIT, GRID)),
    ("build_conditional_potential", "level_shift", "",
     lambda v: build_conditional_potential(0.0, v, LIT, GRID)),
    ("propagate_conditional-start", "t_span", "", lambda v: _conditional(span=(v, T0))),
    ("propagate_conditional-stop", "t_span", "", lambda v: _conditional(span=(0.0, v))),
    ("propagate_conditional", "dt", "positive", lambda v: _conditional(dt=v)),
    ("propagate_conditional", "mass", "positive", lambda v: _conditional(mass=v)),
    ("propagate_conditional", "reference_frequency", "positive",
     lambda v: _conditional(reference_frequency=v)),
    ("propagate_two_channel", "rabi", "", lambda v: _two_channel(rabi=v)),
    ("propagate_two_channel", "detuning", "", lambda v: _two_channel(detuning=v)),
    ("propagate_two_channel", "linewidth", "nonnegative", lambda v: _two_channel(linewidth=v)),
    ("propagate_two_channel-start", "t_span", "", lambda v: _two_channel(span=(v, T0))),
    ("propagate_two_channel-stop", "t_span", "", lambda v: _two_channel(span=(0.0, v))),
    ("propagate_two_channel", "dt", "positive", lambda v: _two_channel(dt=v)),
    ("propagate_two_channel", "mass", "positive", lambda v: _two_channel(mass=v)),
    ("one_channel_limit_potential", "rabi", "",
     lambda v: one_channel_limit_potential(v, LIT, 0.0, W0, GRID)),
    ("one_channel_limit_potential", "detuning", "",
     lambda v: one_channel_limit_potential(W0, LIT, v, W0, GRID)),
    ("one_channel_limit_potential", "linewidth", "nonnegative",
     lambda v: one_channel_limit_potential(W0, LIT, W0, v, GRID)),
    ("two_channel_vmax", "rabi", "", lambda v: two_channel_vmax(v, LIT, 0.0, W0, GRID)),
    ("two_channel_vmax", "detuning", "", lambda v: two_channel_vmax(W0, LIT, v, W0, GRID)),
    ("two_channel_vmax", "linewidth", "nonnegative",
     lambda v: two_channel_vmax(W0, LIT, 0.0, v, GRID)),
    ("time_step", "dt", "positive", lambda v: time_step(v, 1e-30)),
    ("time_step", "vmax", "nonnegative", lambda v: time_step(DT, v)),
    ("adiabaticity_ratio", "rabi_max", "", lambda v: adiabaticity_ratio(v, 0.0, W0, 1.0)),
    ("adiabaticity_ratio", "detuning", "", lambda v: adiabaticity_ratio(W0, v, W0, 1.0)),
    ("adiabaticity_ratio", "linewidth", "nonnegative",
     lambda v: adiabaticity_ratio(W0, 0.0, v, 1.0)),
    ("adiabaticity_ratio", "kinetic_energy", "nonnegative",
     lambda v: adiabaticity_ratio(W0, 0.0, W0, v)),
]


@pytest.mark.parametrize("arg, call, value", [
    pytest.param(arg, call, value, id=f"{label}-{arg}-{value}")
    for label, arg, sign, call in SCALARS for value in BAD[sign]])
def test_physical_scalar_fails_where_it_enters(arg, call, value):
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(arg)} must be finite"):
        call(value)
