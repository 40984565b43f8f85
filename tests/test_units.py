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
    assert u.energy_unit == pytest.approx(HBAR * RESONANCE, rel=1e-15)


def test_hbar_equals_mass_equals_one_internally():
    u = make_units()
    # with hbar = m = 1 a velocity and a wavenumber have equal magnitude
    k_si = 3.7e8
    v_si = HBAR * k_si / CESIUM_MASS_KG
    assert u.velocity_in(v_si) == pytest.approx(u.wavenumber_in(k_si), rel=1e-13)
    # and the kinetic energy is k^2/2
    e_si = (HBAR * k_si) ** 2 / (2.0 * CESIUM_MASS_KG)
    assert u.energy_in(e_si) == pytest.approx(0.5 * u.wavenumber_in(k_si) ** 2,
                                              rel=1e-13)


def test_time_and_frequency_are_inverse():
    u = make_units()
    assert u.frequency_in(RESONANCE) == pytest.approx(1.0, rel=1e-15)
    assert u.time_in(1.0 / RESONANCE) == pytest.approx(1.0, rel=1e-15)


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
