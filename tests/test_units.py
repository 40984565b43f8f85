"""Unit-system conversions: definitions, SI -> internal, failure modes."""

import pytest

from spindetect import CESIUM_MASS_KG, HBAR, UnitSystem
from spindetect.errors import ConfigurationError

from helpers import RESONANCE, make_units


def test_base_unit_definitions():
    u = make_units()
    assert u.time_unit == pytest.approx(1.0 / RESONANCE, rel=1e-15)
    # length unit is the harmonic-oscillator length for (mass, frequency)
    assert u.length_unit**2 * CESIUM_MASS_KG * RESONANCE == pytest.approx(
        HBAR, rel=1e-12)


def test_hbar_equals_mass_equals_one_internally():
    u = make_units()
    # with hbar = m = 1 a velocity v = hbar k/m, as length over time, has the
    # magnitude of k
    k_si = 3.7e8
    v_si = HBAR * k_si / CESIUM_MASS_KG
    assert u.length_in(v_si) / u.time_in(1.0) == pytest.approx(u.wavenumber_in(k_si),
                                                                rel=1e-13)
    # and the kinetic energy hbar^2 k^2/2m, over hbar/T0, is k^2/2
    e_si = (HBAR * k_si) ** 2 / (2.0 * CESIUM_MASS_KG)
    assert e_si / HBAR / u.time_in(1.0) == pytest.approx(0.5 * u.wavenumber_in(k_si) ** 2,
                                                         rel=1e-13)


def test_time_and_frequency_are_inverse():
    u = make_units()
    # the resonance is one internal frequency unit: one period of T0 is 1
    assert u.time_in(1.0 / RESONANCE) == pytest.approx(1.0, rel=1e-15)
    assert RESONANCE * u.time_unit == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("frequency,mass", [
    (0.0, CESIUM_MASS_KG),
    (-1.0, CESIUM_MASS_KG),
    (RESONANCE, 0.0),
    (RESONANCE, -2e-25),
    (float("nan"), CESIUM_MASS_KG),
])
def test_invalid_parameters_rejected(frequency, mass):
    with pytest.raises(ConfigurationError):
        UnitSystem(reference_frequency=frequency, mass=mass)
