"""Geometry containers: grids, sensitivity profiles, detector layouts."""

import numpy as np
import pytest

from spindetect import (
    DetectorGeometry,
    Grid1D,
    HalfLineSensitivity,
    IntervalSensitivity,
    SpinRegion3D,
    TabulatedSensitivity,
    ball_region,
    single_spin,
)
from spindetect.errors import ConfigurationError


def test_grid_points_and_spacing():
    g = Grid1D(-1.0, 3.0, 9)
    np.testing.assert_allclose(g.points(), np.linspace(-1.0, 3.0, 9))
    assert g.spacing == pytest.approx(0.5)
    assert g.points()[0] == -1.0 and g.points()[-1] == 3.0


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid1D(1.0, -1.0, 9)
    with pytest.raises(ConfigurationError):
        Grid1D(0.0, 1.0, 4)


def test_half_line_sensitivity():
    chi = HalfLineSensitivity()
    x = np.array([-2.0, -1e-12, 0.0, 1e-12, 5.0])
    np.testing.assert_array_equal(chi(x), [0.0, 0.0, 1.0, 1.0, 1.0])
    lo, hi = chi.support
    assert lo == 0.0 and hi == np.inf


def test_interval_sensitivity():
    chi = IntervalSensitivity(width=2.0, start=1.0)
    x = np.array([0.0, 1.0, 2.0, 3.0, 3.5])
    np.testing.assert_array_equal(chi(x), [0.0, 1.0, 1.0, 1.0, 0.0])
    assert chi.support == (1.0, 3.0)
    with pytest.raises(ConfigurationError):
        IntervalSensitivity(width=0.0)


def test_tabulated_sensitivity_interpolates_and_clips():
    chi = TabulatedSensitivity([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])
    assert chi(np.array([0.5]))[0] == pytest.approx(0.5)
    assert chi(np.array([1.5]))[0] == pytest.approx(0.75)
    # outside the table the profile is zero
    np.testing.assert_array_equal(chi(np.array([-1.0, 3.0])), [0.0, 0.0])
    assert chi.support == (0.0, 2.0)


def test_tabulated_sensitivity_validation():
    with pytest.raises(ConfigurationError):
        TabulatedSensitivity([0.0, 1.0], [0.0, 1.5])   # above 1
    with pytest.raises(ConfigurationError):
        TabulatedSensitivity([1.0, 0.0], [0.5, 0.5])   # not increasing


@pytest.mark.parametrize("start", [0.0, -3.7, 1e-300, 2.5e-6])
def test_step_profiles_are_the_indicators_bit_for_bit(start):
    """The half line and the interval are tables; at each edge, one ulp
    either side of it and far away they equal the indicator arithmetic."""
    width = 1.3e-6
    end = start + width
    x = np.array([-1e30, start - 1.0, np.nextafter(start, -np.inf), start,
                  np.nextafter(start, np.inf), 0.5 * (start + end),
                  np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf),
                  end + 1.0, 1e30, np.inf, -np.inf])
    half, interval = HalfLineSensitivity(start), IntervalSensitivity(width, start=start)
    expected_half = (x >= start).astype(float)
    expected_interval = ((x >= start) & (x <= start + width)).astype(float)
    assert half(x).tobytes() == expected_half.tobytes()
    assert interval(x).tobytes() == expected_interval.tobytes()
    assert half.support == (start, np.inf)
    assert interval.support == (start, start + width)


def test_tabulated_abscissae_are_finite_except_a_flat_last_inf():
    # np.interp reads 1.0 at x = -1 on the segment from -inf, where this table reads 0
    with pytest.raises(ConfigurationError, match="must be finite, except a last"):
        TabulatedSensitivity([-np.inf, 0.0, 1.0], [0.0, 1.0, 1.0])
    with pytest.raises(ConfigurationError, match="must be finite, except a last"):
        TabulatedSensitivity([0.0, 1.0, np.inf], [0.0, 1.0, 0.5])   # sloped to +inf
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        TabulatedSensitivity([0.0, np.nan], [1.0, 1.0])
    with pytest.raises(ConfigurationError, match=r"lie in \[0, 1\]"):
        TabulatedSensitivity([0.0, 1.0], [np.nan, 1.0])
    ramp = TabulatedSensitivity([0.0, 1.0, np.inf], [0.0, 0.5, 0.5])
    np.testing.assert_array_equal(ramp(np.array([-1.0, 0.5, 1.0, 1e300])),
                                  [0.0, 0.25, 0.5, 0.5])
    assert ramp.support == (0.0, np.inf)


def test_ball_region_indicator():
    chi = ball_region(np.array([1.0, 0.0, 0.0]), 2.0)
    pts = np.array([[1.0, 0.0, 0.0], [2.9, 0.0, 0.0], [3.1, 0.0, 0.0],
                    [1.0, 1.9, 0.0]])
    np.testing.assert_array_equal(chi(pts), [1.0, 1.0, 0.0, 1.0])


def test_single_spin_geometry():
    geo = single_spin(2.39e8, HalfLineSensitivity())
    assert geo.spin_count == 1
    assert geo.resonance == pytest.approx(2.39e8)
    assert geo.exchange is None


def test_geometry_validation():
    chi = HalfLineSensitivity()
    with pytest.raises(ConfigurationError):
        DetectorGeometry(resonances=(0.0,), sensitivity=chi)
    with pytest.raises(ConfigurationError):
        DetectorGeometry(resonances=(1.0, 2.0), sensitivity=chi,
                         exchange=np.zeros((3, 3)))  # wrong shape


def test_spin_region_multiplicity_positive():
    chi = ball_region(np.zeros(3), 1.0)
    with pytest.raises(ConfigurationError):
        SpinRegion3D(sensitivity=chi, multiplicity=0)
