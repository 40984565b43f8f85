"""Bath spectra, memory kernel, decay rate / level shift, 3D rate maps.

The sharp-cutoff numbers are checked against values frozen in helpers.py
and against the defining formulas evaluated inline, so the library cannot
drift without a test noticing.
"""

import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import dawsn, exp1

from spindetect import (
    DetectorGeometry,
    DirectionalCoupling,
    DirectionalSpectrum3D,
    GeneralBath,
    RateMap,
    RectangularBath,
    SpinRegion3D,
    ball_region,
    correlation_kernel,
    decay_rate_and_shift,
    interior_eigenmodes,
    markov_summary,
    modified_frequencies,
    rate_map_3d,
    scaled_ensemble,
)
from spindetect.bath import (
    GL_ORDER,
    _exp1,
    _gauss_legendre,
    _kernel_quadrature,
    _legendre_rule,
    _pv_transform,
)
from spindetect.errors import ConfigurationError, NumericsError

from helpers import (
    COUPLING,
    CUTOFF_RATIO,
    DECAY_RATE_REF,
    LEVEL_SHIFT_REF,
    MODES,
    PROPERTY_SETTINGS,
    RECURRENCE_REF,
    RESONANCE,
    CORRELATION_TIME_REF,
    make_bath,
    peak_alloc_mb,
)

CUTOFF = CUTOFF_RATIO * RESONANCE
# 1/e half-width, of the support, of the narrowest Gaussian line that the
# docstring of bath._converged_integral says the composite rule resolves
NARROWEST_LINE = 1e-3


# ---------------------------------------------------------------------------
# spectra and discrete ladder


def test_rectangular_density_profile():
    bath = make_bath()
    w = np.array([-1.0, 0.0, 0.3 * CUTOFF, CUTOFF, 1.01 * CUTOFF])
    f = bath.density(w)
    assert f[0] == 0.0 and f[1] == 0.0 and f[-1] == 0.0
    assert f[2] == pytest.approx(2.0 * np.pi * COUPLING**2 * 0.3, rel=1e-14)
    assert f[3] == pytest.approx(2.0 * np.pi * COUPLING**2, rel=1e-14)


def test_mode_ladder_and_couplings():
    bath = make_bath()
    w = bath.mode_frequencies()
    assert w.shape == (MODES,)
    np.testing.assert_allclose(w, CUTOFF * np.arange(1, MODES + 1) / MODES,
                               rtol=1e-15)
    g = bath.mode_couplings()
    # purely imaginary with |g_l|^2 = G^2 omega_l / N
    assert np.all(g.real == 0.0)
    np.testing.assert_allclose(np.abs(g) ** 2, COUPLING**2 * w / MODES,
                               rtol=1e-14)


def test_recurrence_time_frozen_value():
    bath = make_bath()
    assert bath.recurrence_time() == pytest.approx(RECURRENCE_REF, rel=1e-14)
    assert bath.recurrence_time() == pytest.approx(
        2.0 * np.pi * MODES / CUTOFF, rel=1e-15)


def test_continuum_bath_has_no_ladder():
    bath = RectangularBath(coupling=COUPLING, cutoff=CUTOFF, modes=None)
    with pytest.raises(ConfigurationError):
        bath.mode_frequencies()
    with pytest.raises(ConfigurationError):
        bath.recurrence_time()
    with pytest.raises(ConfigurationError, match="no discrete mode ladder"):
        interior_eigenmodes(RESONANCE, bath)


# ---------------------------------------------------------------------------
# correlation kernel


def test_kernel_at_zero_delay():
    bath = make_bath()
    # kappa(0) = (1/2pi) integral of the density = G^2 omega_M / 2
    k0 = correlation_kernel(bath, RESONANCE, 0.0)
    assert k0 == pytest.approx(COUPLING**2 * CUTOFF / 2.0, rel=1e-12)


@pytest.mark.parametrize("centre", [0.1, 0.2371, 0.5, 0.7777, 0.9])
def test_kernel_at_zero_delay_resolves_the_narrowest_line(centre):
    """A Gaussian line NARROWEST_LINE of the support wide over a flat floor,
    f = omega (e^{-((omega - wc)/s)^2} + 1) on (0, 1]: kappa(0), the plain
    integral of f over 2 pi, must equal (wc s sqrt(pi) + 1/2)/(2 pi), exact
    up to the Gaussian's tails beyond 100 s (e^-10^4)."""
    s = NARROWEST_LINE
    bath = GeneralBath(dispersion=1.0, cutoff=1.0, coupling=lambda w: np.sqrt(
        np.exp(-(((np.asarray(w) - centre) / s) ** 2)) + 1.0))
    k0 = correlation_kernel(bath, 0.5, 0.0)
    assert k0 == pytest.approx((centre * s * np.sqrt(np.pi) + 0.5) / (2.0 * np.pi),
                              rel=1e-13)


def test_kernel_closed_form_matches_quadrature():
    bath = make_bath()
    tau = np.array([1e-12, 1e-10, 5e-10, 3e-9, 2e-8, 1e-7])
    closed = correlation_kernel(bath, RESONANCE, tau)
    quad = _kernel_quadrature(bath, RESONANCE, tau)
    np.testing.assert_allclose(closed, quad, rtol=1e-8,
                               atol=1e-10 * abs(closed[0]))


def _sharp_cutoff_copy(g2=0.01, cutoff=4.6):
    """The sharp-cutoff density rebuilt as a GeneralBath, and the
    RectangularBath whose closed forms it must reproduce (resonance 1)."""
    amp = np.sqrt(2.0 * np.pi * g2 / cutoff)
    return (GeneralBath(dispersion=1.0, cutoff=cutoff,
                        coupling=lambda w: np.full(np.shape(w), amp)),
            RectangularBath(coupling=np.sqrt(g2), cutoff=cutoff))


@pytest.mark.parametrize("tau", [
    1e2, 1e4, 21950.0, 27320.0, 3e4, 43900.0, 45880.0, 5e4, 1e5, 2e5,
    pytest.param(1e6 / 4.6, id="scan-top")])
def test_kernel_quadrature_resolves_up_to_its_cap(tau):
    """Up to the top of markov_summary's scan, 1e6/cutoff.  A rule of 20,000
    fixed segments was 2-4e-8 off at 21,950 to 45,880, 18.5 |kappa| at 2e5."""
    general, sharp = _sharp_cutoff_copy()
    quad = correlation_kernel(general, 1.0, tau)
    closed = correlation_kernel(sharp, 1.0, tau)
    assert abs(quad - closed) < 1e-8 * abs(closed)


def test_kernel_quadrature_converges_delay_by_delay():
    """A vector of delays in one call: each converges at its own level, none
    is left at a coarser level than it needs.  With 20,000 fixed segments
    one delay of this grid was 5.5e-8 off."""
    general, sharp = _sharp_cutoff_copy()
    tau = np.concatenate([[0.0, 1.0], np.linspace(2e4, 5e4, 97)])
    quad = correlation_kernel(general, 1.0, tau)
    closed = correlation_kernel(sharp, 1.0, tau)
    assert np.max(np.abs(quad - closed) / np.abs(closed)) < 1e-8


@pytest.mark.parametrize("tau", [1e6, 2e6])
def test_kernel_quadrature_raises_past_its_cap(tau):
    """Past what the finest level resolves the kernel refuses, also when the
    other delays of the call resolve."""
    general, _ = _sharp_cutoff_copy()
    with pytest.raises(NumericsError, match="not resolved by 32768 segments"):
        correlation_kernel(general, 1.0, np.array([1.0, tau]))


def test_markov_summary_of_a_quadrature_kernel_ends_where_it_resolves():
    """The whole 600-delay scan, up to 1e6/cutoff, is resolved, so the
    sharp-cutoff copy finds the closed form's correlation time (43.76 at
    resonance 1) on the same scan step."""
    general, sharp = _sharp_cutoff_copy()
    quad = markov_summary(general, 1.0)
    closed = markov_summary(sharp, 1.0)
    assert closed == pytest.approx(43.76, abs=5e-3)
    assert quad == closed


def test_kernel_series_continuous_at_switch():
    bath = make_bath()
    # the small-x series hands over to the closed form near x = 1e-4
    x_switch = 1e-4 / CUTOFF
    below = correlation_kernel(bath, RESONANCE, 0.999e0 * x_switch)
    above = correlation_kernel(bath, RESONANCE, 1.001e0 * x_switch)
    assert abs(below - above) < 1e-7 * abs(below)


def test_kernel_rejects_negative_delay():
    with pytest.raises(ConfigurationError):
        correlation_kernel(make_bath(), RESONANCE, -1.0e-9)


# ---------------------------------------------------------------------------
# special functions and rules, against scipy.special (which the package does
# not import)


def test_exp1_matches_scipy_on_the_imaginary_axis():
    # the sharp-cutoff tail evaluates E1 at +-i y; both branches of _exp1
    # (series below |z| = 2, continued fraction above) are covered
    y = np.geomspace(1e-8, 1.2e4, 2001)
    for sign in (1.0, -1.0):
        ours = np.array([_exp1(sign * 1j * v) for v in y])
        np.testing.assert_allclose(ours, exp1(sign * 1j * y), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("order", [10, 12, 24, 64])
def test_gauss_legendre_is_exact_to_its_degree(order):
    # 64 is the composite rule of every bath integral, 24 the default polar
    # order of the sphere rule; 10 and 12 are generic cases
    degree = 2 * order - 1
    x, w = _legendre_rule(order)
    for lo, hi in ((0.0, 1.0), (0.5, 2.0)):
        exact = (hi**(degree + 1) - lo**(degree + 1)) / (degree + 1)
        nodes = lo + 0.5 * (hi - lo) * (x + 1.0)
        assert np.sum(0.5 * (hi - lo) * w * nodes**degree) == pytest.approx(
            exact, rel=1e-14, abs=0.0)
    if order == GL_ORDER:
        x, w = _gauss_legendre(0.5, 2.0, 3)
        assert np.sum(w * x**degree) == pytest.approx(
            (2.0**(degree + 1) - 0.5**(degree + 1)) / (degree + 1), rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# decay rate and level shift


def test_closed_form_rates_frozen_values():
    res = decay_rate_and_shift(make_bath(), RESONANCE)
    assert res.method == "closed_form"
    assert res.decay_rate == pytest.approx(DECAY_RATE_REF, rel=1e-12)
    assert res.level_shift == pytest.approx(LEVEL_SHIFT_REF, rel=1e-12)
    # and against the defining formulas, evaluated inline
    a_inline = 2.0 * np.pi * COUPLING**2 * RESONANCE / CUTOFF
    d_inline = 2.0 * COUPLING**2 * (
        (RESONANCE / CUTOFF) * np.log(RESONANCE / (CUTOFF - RESONANCE)) - 1.0)
    assert res.decay_rate == pytest.approx(a_inline, rel=1e-14)
    assert res.level_shift == pytest.approx(d_inline, rel=1e-14)


def test_quadrature_route_agrees_with_closed_form():
    res = decay_rate_and_shift(make_bath(), RESONANCE)
    scale = max(abs(res.decay_rate), abs(res.level_shift))
    assert res.quadrature_decay_rate is not None
    assert abs(res.quadrature_decay_rate - res.decay_rate) < 1e-6 * scale
    assert abs(res.quadrature_level_shift - res.level_shift) < 1e-6 * scale


def test_zero_coupling_rates():
    res = decay_rate_and_shift(make_bath(coupling=0.0), RESONANCE)
    assert res.decay_rate == 0.0 and res.level_shift == 0.0
    silent = GeneralBath(dispersion=1.0, cutoff=3.0,
                         coupling=lambda w: np.zeros(np.shape(w)))
    res = decay_rate_and_shift(silent, 1.0)
    assert res.decay_rate == 0.0 and res.level_shift == 0.0


def test_resonance_above_cutoff_rejected():
    with pytest.raises(ConfigurationError):
        decay_rate_and_shift(make_bath(), 1.2 * CUTOFF)


def test_generic_bath_gaussian_bump():
    """Smooth bump spectrum f = omega a^2 exp(-(omega-1)^2/s^2): A equals
    f at the resonance; the shift oracle -a^2 s/sqrt(pi) follows from the
    principal value (the even part of f drops, the linear part survives).
    The bump is 20 widths from both ends of (0, 3], so the oracle is exact
    to e^-400."""
    s = 0.05
    amp = 0.7

    def coupling(w):
        w = np.asarray(w, dtype=float)
        return amp * np.exp(-((w - 1.0) ** 2) / (2.0 * s**2))

    bath = GeneralBath(dispersion=1.0, coupling=coupling, cutoff=3.0)
    # density = omega |Gamma|^2 / c with c = 1
    f_res = float(bath.density(np.array([1.0]))[0])
    assert f_res == pytest.approx(amp**2, rel=1e-12)
    res = decay_rate_and_shift(bath, 1.0)
    assert res.method == "frequency_pv"
    assert res.decay_rate == pytest.approx(f_res, rel=1e-12)
    shift_ref = -(amp**2) * s * np.sqrt(np.pi) / np.pi
    assert res.level_shift == pytest.approx(shift_ref, rel=1e-10)


@PROPERTY_SETTINGS
@given(cutoff=st.floats(0.5, 20.0), width=st.floats(NARROWEST_LINE, 0.05),
       line=st.floats(0.0, 1.0), pole=st.floats(0.02, 0.98),
       a=st.floats(0.1, 2.0), b=st.floats(0.0, 1.0))
# the line falls between the nodes of 1 and 2 segments on [0.04, 1]
@example(cutoff=1.0, width=0.001, line=0.1953125, pole=0.02, a=1.0, b=1.0)
# poles 1e-7 of the support from either end
@example(cutoff=4.6, width=0.01, line=0.5, pole=1e-7, a=1.0, b=1.0)
@example(cutoff=4.6, width=0.01, line=0.5, pole=1.0 - 1e-7, a=1.0, b=1.0)
def test_frequency_route_matches_dawson_oracle(cutoff, width, line, pole, a, b):
    """A Gaussian line over a flat floor, f = omega (a^2 e^{-(omega-wc)^2/s^2}
    + b^2) on (0, M] with the line at least 8 s inside the support, s no
    narrower than NARROWEST_LINE.  The shift has a closed form through
    Dawson's integral D:
    -pi delta = a^2 (s sqrt(pi) - 2 sqrt(pi) w0 D((w0 - wc)/s))
                + b^2 (M + w0 ln((M - w0)/w0)),
    exact up to the Gaussian's tails beyond 8 s (e^-64)."""
    s = width * cutoff
    wc = 8.0 * s + line * (cutoff - 16.0 * s)
    w0 = pole * cutoff
    bath = GeneralBath(dispersion=1.0, cutoff=cutoff, coupling=lambda w: np.sqrt(
        a**2 * np.exp(-(((np.asarray(w) - wc) / s) ** 2)) + b**2))
    res = decay_rate_and_shift(bath, w0)
    f0 = w0 * (a**2 * np.exp(-(((w0 - wc) / s) ** 2)) + b**2)
    shift = -(a**2 * (s * np.sqrt(np.pi) - 2.0 * np.sqrt(np.pi) * w0 * dawsn((w0 - wc) / s))
              + b**2 * (cutoff + w0 * np.log((cutoff - w0) / w0))) / np.pi
    assert res.method == "frequency_pv"
    assert res.decay_rate == pytest.approx(f0, rel=1e-14)
    assert res.level_shift == pytest.approx(shift, rel=1e-11)


def test_unresolved_density_raises():
    """A density oscillating ~4.8 million times over its support, ~100 times
    a segment at the finest level, cannot be resolved: the shift raises
    instead of returning a number."""
    bath = GeneralBath(dispersion=1.0, cutoff=3.0, coupling=lambda w: np.sqrt(
        1.0 + 0.5 * np.sin(1e7 * np.asarray(w))))
    with pytest.raises(NumericsError, match="not resolved"):
        decay_rate_and_shift(bath, 1.0)


def test_frequency_pv_route_matches_sharp_cutoff_closed_forms():
    """The sharp-cutoff density rebuilt as a GeneralBath: the frequency
    route, A = f(w0) and the principal-value shift, must equal the closed
    forms, and stay far from the 773 MB that an earlier kernel-decay scan
    took on this bath.  The second resonance, 1e-5 below the cutoff, once
    raised: the pole sat next to the end of a piece of the support."""
    g2, cutoff = 0.01, 4.6
    amp = np.sqrt(2.0 * np.pi * g2 / cutoff)
    bath = GeneralBath(dispersion=1.0, cutoff=cutoff,
                       coupling=lambda w: np.full(np.shape(w), amp))
    for w0 in (1.0, 0.99999 * cutoff):
        res, peak_mb = peak_alloc_mb(lambda: decay_rate_and_shift(bath, w0))
        assert peak_mb < 128.0
        assert res.method == "frequency_pv"
        a_ref = 2.0 * np.pi * g2 * w0 / cutoff
        d_ref = 2.0 * g2 * ((w0 / cutoff) * np.log(w0 / (cutoff - w0)) - 1.0)
        assert res.decay_rate == pytest.approx(a_ref, rel=1e-12)
        assert res.level_shift == pytest.approx(d_ref, rel=1e-12)


@pytest.mark.parametrize("pole", [0.0, 4.6])
def test_principal_value_with_a_pole_at_an_end_raises_at_once(pole):
    """f(pole) / (omega - pole) is not integrable at an end of the support:
    the transform refuses it from f(pole) alone, without a quadrature."""
    calls = []

    def flat(w):
        calls.append(np.size(w))
        return np.ones(np.shape(w))

    with pytest.raises(NumericsError, match="diverges"):
        _pv_transform(flat, pole, 4.6)
    assert calls == [1]


def test_principal_value_beyond_the_support():
    """A pole past the support needs no principal value: f = omega on (0, 2]
    about 2.5 gives -(2 + 2.5 ln(0.5/2.5))/pi."""
    pv = _pv_transform(lambda w: np.asarray(w, dtype=float), 2.5, 2.0)
    assert pv == pytest.approx(-(2.0 + 2.5 * np.log(0.2)) / np.pi, rel=1e-15)


def test_callable_dispersion_density_1d_and_3d():
    """c = c0 + c1 w gives c - w c' = c0: the 1D density is c0 w |Gamma|^2/c^2
    and the isotropic 3D rate m w^3 c0/c^4 |Gamma|^2/pi."""
    c0, c1, gamma0 = 2.0, 0.3, 0.4
    speed = lambda w: c0 + c1 * w
    slope = lambda w: c1
    rtol = 1e-13
    bath = GeneralBath(dispersion=speed, dispersion_derivative=slope, cutoff=5.0,
                       coupling=lambda w: np.full(np.shape(w), gamma0))
    w = np.array([0.2, 1.0, 3.7, 5.0])
    np.testing.assert_allclose(bath.density(w), c0 * w * gamma0**2 / speed(w) ** 2,
                               rtol=rtol)

    w0 = 1.3
    geo = _ball_geometry(multiplicity=3, resonance=w0)
    spec = DirectionalSpectrum3D(dispersion=speed, dispersion_derivative=slope,
                                 couplings=(DirectionalCoupling(gamma0, 5.0),))
    rm = rate_map_3d(geo, spec, np.zeros((1, 3)))
    expected = 3.0 * w0**3 * c0 / speed(w0) ** 4 * gamma0**2 / np.pi
    assert rm.decay_rate[0] == pytest.approx(expected, rel=rtol)


def test_unphysical_dispersion_rejected():
    """c = w^2 has c - w c' = -w^2 < 0 everywhere in the support."""
    speed, slope = (lambda w: w**2), (lambda w: 2 * w)
    bath = GeneralBath(dispersion=speed, dispersion_derivative=slope, cutoff=5.0,
                       coupling=lambda w: np.ones(np.shape(w)))
    with pytest.raises(ConfigurationError, match="unphysical dispersion"):
        bath.density(np.array([0.5, 1.0]))
    spec = DirectionalSpectrum3D(dispersion=speed, dispersion_derivative=slope,
                                 couplings=(DirectionalCoupling(0.4, 5.0),))
    with pytest.raises(ConfigurationError, match="unphysical dispersion"):
        rate_map_3d(_ball_geometry(), spec, np.zeros((1, 3)))


def test_dispersion_with_a_negative_phase_speed_rejected():
    """c = 1 - w/3 has c - w c' = 1 > 0 everywhere, but c = 0 at w = 3 and
    c < 0 beyond: the first such frequency is rejected, in 1D and in 3D,
    instead of an infinite density or a principal value that never
    converges."""
    speed, slope = (lambda w: 1.0 - w / 3.0), (lambda w: np.full(np.shape(w), -1.0 / 3.0))
    bath = GeneralBath(dispersion=speed, dispersion_derivative=slope, cutoff=5.0,
                       coupling=lambda w: np.full(np.shape(w), 0.4))
    np.testing.assert_allclose(bath.density(np.array([1.0, 2.0])), [0.36, 2.88], rtol=1e-14)
    with pytest.raises(ConfigurationError, match="unphysical dispersion.* omega = 3$"):
        bath.density(np.array([1.0, 3.0, 4.0]))
    with pytest.raises(ConfigurationError, match="unphysical dispersion.* omega = 4$"):
        decay_rate_and_shift(bath, 4.0)
    spec = DirectionalSpectrum3D(dispersion=speed, dispersion_derivative=slope,
                                 couplings=(DirectionalCoupling(0.4, 5.0),))
    with pytest.raises(ConfigurationError, match="unphysical dispersion"):
        rate_map_3d(_ball_geometry(), spec, np.zeros((1, 3)))
    with pytest.raises(ConfigurationError, match="unphysical dispersion.* omega = 3.5$"):
        rate_map_3d(_ball_geometry(resonance=3.5), spec, np.zeros((1, 3)))


@pytest.mark.parametrize("make", [
    lambda speed, slope: GeneralBath(dispersion=speed, dispersion_derivative=slope,
                                     cutoff=5.0, coupling=lambda w: np.ones(np.shape(w))),
    lambda speed, slope: DirectionalSpectrum3D(dispersion=speed, dispersion_derivative=slope,
                                               couplings=(DirectionalCoupling(0.4, 5.0),)),
], ids=["1d", "3d"])
def test_callable_dispersion_needs_its_derivative(make):
    """c' is exact or absent: a callable c without dispersion_derivative
    fails at construction, a constant c needs none."""
    with pytest.raises(ConfigurationError, match="dispersion_derivative"):
        make(lambda w: 2.0 + 0.3 * w, None)
    make(2.0, None)


def test_rate_map_calls_each_callable_once_per_level():
    """A 3D rate map with its shift takes c, c' and Gamma on whole arrays of
    frequencies: a handful of calls, not one per quadrature node."""
    calls = {"c": 0, "c'": 0, "Gamma": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    spec = DirectionalSpectrum3D(
        dispersion=counted("c", lambda w: 1.5 + 0.2 * w),
        dispersion_derivative=counted("c'", lambda w: np.full(np.shape(w), 0.2)),
        couplings=(DirectionalCoupling(counted("Gamma", lambda w, e: 0.3 + 0.1 * e[:, 2]),
                                       5.0),))
    rm = rate_map_3d(_ball_geometry(multiplicity=1), spec, np.zeros((1, 3)))
    assert rm.level_shift[0] != 0.0
    assert 0 < max(calls.values()) <= 8, calls


@pytest.mark.parametrize("amplitude", [0.3 - 0.2j, lambda w, e: w * (1.0 + e[:, 2])],
                         ids=["constant", "callable"])
def test_directional_coupling_on_the_frequency_direction_grid(amplitude):
    """Gamma(omega, e) is an (m, n) array, 0 at omega <= 0 and beyond the
    cutoff; a callable amplitude gets omega as an (m, 1) column."""
    e = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    omega = np.array([-1.0, 0.0, 0.5, 2.0, 2.5])
    gamma = DirectionalCoupling(amplitude, 2.0)(omega, e)
    assert gamma.shape == (5, 3) and gamma.dtype == complex
    np.testing.assert_array_equal(gamma[[0, 1, 4]], 0.0)
    if callable(amplitude):
        np.testing.assert_array_equal(gamma[2:4], [[1.0, 0.5, 0.0], [4.0, 2.0, 0.0]])
    else:
        np.testing.assert_array_equal(gamma[2:4], amplitude)


def test_markov_summary_correlation_time():
    bath = make_bath()
    tau_c = markov_summary(bath, RESONANCE)
    # pinned output of the 1% suffix-envelope scan (regression guard)
    assert tau_c == pytest.approx(CORRELATION_TIME_REF, rel=1e-12)
    # physical sanity: tens of resonance periods, envelope well decayed
    assert 20.0 / RESONANCE < tau_c < 100.0 / RESONANCE
    kappa = np.abs(correlation_kernel(bath, RESONANCE, np.array([0.0, 50.0 / RESONANCE])))
    assert 0.0 < kappa[1] < 0.02 * kappa[0]


# ---------------------------------------------------------------------------
# multi-spin effective resonances and 3D maps


def test_modified_frequencies_pairwise_lowering():
    regions = (SpinRegion3D(sensitivity=ball_region(np.zeros(3), 1.0)),) * 2
    ex = np.array([[0.0, 1.0], [0.0, 0.0]])
    geo = DetectorGeometry(resonances=(10.0, 20.0), regions_3d=regions, exchange=ex)
    np.testing.assert_allclose(modified_frequencies(geo), [9.0, 19.0])
    # driving a resonance to zero is rejected
    ex_bad = np.array([[0.0, 10.0], [0.0, 0.0]])
    geo_bad = DetectorGeometry(resonances=(10.0, 20.0), regions_3d=regions,
                               exchange=ex_bad)
    with pytest.raises(ConfigurationError):
        modified_frequencies(geo_bad)


def _ball_geometry(multiplicity=3, radius=2.0, resonance=1.0):
    region = SpinRegion3D(sensitivity=ball_region(np.zeros(3), radius),
                          multiplicity=multiplicity)
    return DetectorGeometry(resonances=(resonance,), regions_3d=(region,))


def test_rate_map_isotropic_analytic():
    geo = _ball_geometry()
    gamma0 = 0.4
    c = 2.0
    spec = DirectionalSpectrum3D(dispersion=c,
                                 couplings=(DirectionalCoupling(gamma0, 5.0),))
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [3.0, 0.0, 0.0]])
    rm = rate_map_3d(geo, spec, pts)
    # stimulated rate omega^3 |Gamma|^2 / (pi c^3) per spin, times multiplicity
    expected = 3.0 * gamma0**2 / (np.pi * c**3)
    assert rm.decay_rate[0] == pytest.approx(expected, rel=1e-12)
    assert rm.decay_rate[1] == pytest.approx(expected, rel=1e-12)
    assert rm.decay_rate[2] == 0.0   # outside the ball, no spontaneous floor


def test_rate_map_level_shift_analytic():
    geo = _ball_geometry(multiplicity=1)
    gamma0, c, cutoff, w0 = 0.4, 2.0, 5.0, 1.0
    spec = DirectionalSpectrum3D(dispersion=c,
                                 couplings=(DirectionalCoupling(gamma0, cutoff),))
    rm = rate_map_3d(geo, spec, np.zeros((1, 3)))
    # -(C/pi) PV int_0^M w^3/(w - w0) dw with C = |Gamma|^2/(pi c^3)
    big_m = cutoff
    pv = (big_m**3 / 3.0 + w0 * big_m**2 / 2.0 + w0**2 * big_m
          + w0**3 * np.log((big_m - w0) / w0))
    expected = -(gamma0**2 / (np.pi * c**3)) * pv / np.pi
    assert rm.level_shift[0] == pytest.approx(expected, rel=1e-9)


def test_rate_map_narrow_line_shift_analytic():
    """Isotropic Gamma = a exp(-(w - 1)^2/(2 s^2)) at w0 = 1 and constant c:
    f3 = m a^2 w^3 e^{-(w-1)^2/s^2}/(pi c^3), and only the even part of
    w^3/(w - 1) about the pole survives the principal value, so
    delta = -(m a^2/(pi^2 c^3)) s sqrt(pi) (3 + s^2/2).  The line is 20
    widths from both ends of (0, 2]."""
    amp, s, c = 0.7, 0.05, 1.5
    coupling = DirectionalCoupling(
        lambda w, e: amp * np.exp(-((w - 1.0) ** 2) / (2.0 * s**2)), 2.0)
    spec = DirectionalSpectrum3D(dispersion=c, couplings=(coupling,))
    rm = rate_map_3d(_ball_geometry(multiplicity=3), spec, np.zeros((1, 3)))
    expected = -(3.0 * amp**2 / (np.pi**2 * c**3)) * s * np.sqrt(np.pi) * (3.0 + s**2 / 2.0)
    assert rm.level_shift[0] == pytest.approx(expected, rel=1e-11)


def test_rate_map_spontaneous_floor():
    geo = _ball_geometry(multiplicity=2)
    spec = DirectionalSpectrum3D(
        dispersion=1.0,
        couplings=(DirectionalCoupling(1.0, 5.0),),
        spontaneous=(DirectionalCoupling(0.05, 5.0),))
    rm = rate_map_3d(geo, spec, np.array([[10.0, 0.0, 0.0]]))
    # outside the ball only the position-independent channel contributes
    expected = 2.0 * 0.05**2 / np.pi
    assert rm.decay_rate[0] == pytest.approx(expected, rel=1e-12)


def test_rate_map_rejects_strong_spontaneous():
    geo = _ball_geometry()
    spec = DirectionalSpectrum3D(
        dispersion=1.0,
        couplings=(DirectionalCoupling(1.0, 5.0),),
        spontaneous=(DirectionalCoupling(0.5, 5.0),))
    with pytest.raises(ConfigurationError):
        rate_map_3d(geo, spec, np.zeros((1, 3)))



def test_non_finite_integrand_fails_at_the_first_level():
    """A NaN coupling fails at the first composite level (two segments) of
    the rates, the kernel and a 3D rate map, instead of refining to
    MAX_SEGMENTS."""
    samples = []

    def nan_coupling(w):
        samples.append(w.size)
        return np.full(w.shape, np.nan)

    bath = GeneralBath(dispersion=1.0, cutoff=3.0, coupling=nan_coupling)
    for run in (lambda: decay_rate_and_shift(bath, 1.0),
                lambda: correlation_kernel(bath, 1.0, np.array([0.0, 1.0]))):
        samples.clear()
        with pytest.raises(NumericsError, match="integrand is not finite"):
            run()
        # the rates sample the resonance twice before the first level
        assert sum(samples) <= 2 + 2 * GL_ORDER
    spec = DirectionalSpectrum3D(dispersion=1.0,
                                 couplings=(DirectionalCoupling(np.nan, 5.0),))
    start = time.perf_counter()
    with pytest.raises(NumericsError, match="integrand is not finite"):
        rate_map_3d(_ball_geometry(multiplicity=1), spec, np.zeros((1, 3)))
    assert time.perf_counter() - start < 1.0

def test_scaled_ensemble_square_root_invariance():
    geo = _ball_geometry()
    spec = DirectionalSpectrum3D(
        dispersion=1.5,
        couplings=(DirectionalCoupling(0.3 + 0.1j, 5.0),),
        spontaneous=(DirectionalCoupling(0.002, 5.0),))
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    base = rate_map_3d(geo, spec, pts)
    quad = scaled_ensemble(geo, spec, pts, ensemble_size=4,
                           scaling_exponent=0.5)
    np.testing.assert_allclose(quad.decay_rate, base.decay_rate, rtol=1e-13)
    np.testing.assert_allclose(quad.level_shift, base.level_shift, rtol=1e-13)


def test_scaled_ensemble_linear_exponent_suppresses():
    geo = _ball_geometry()
    spec = DirectionalSpectrum3D(
        dispersion=1.5,
        couplings=(DirectionalCoupling(0.3, 5.0),),
        spontaneous=(DirectionalCoupling(0.002, 5.0),))
    pts = np.zeros((1, 3))
    base = rate_map_3d(geo, spec, pts)
    lin = scaled_ensemble(geo, spec, pts, ensemble_size=100,
                          scaling_exponent=1.0)
    # every channel scales by N^(1-2p) = 1/N
    assert lin.decay_rate[0] == pytest.approx(base.decay_rate[0] / 100.0,
                                              rel=1e-10)


def test_scaled_ensemble_of_one_keeps_every_other_field():
    """N = 1 scales nothing (1 ** -p = 1), so the exchange, the dispersion
    derivative and an absent spontaneous channel carried over unchanged give
    the bare rate map bit for bit."""
    regions = (SpinRegion3D(sensitivity=ball_region(np.zeros(3), 2.0), multiplicity=3),
               SpinRegion3D(sensitivity=ball_region(np.array([3.0, 0.0, 0.0]), 1.0)))
    geo = DetectorGeometry(resonances=(1.0, 1.3), exchange=np.array([[0.0, 0.05], [0.0, 0.0]]),
                           regions_3d=regions)
    spec = DirectionalSpectrum3D(
        dispersion=lambda w: 1.5 + 0.2 * w, dispersion_derivative=lambda w: 0.2,
        couplings=(DirectionalCoupling(lambda w, e: 0.3 + 0.1 * e[:, 2], 5.0),
                   DirectionalCoupling(0.2, 5.0)),
        spontaneous=(None, DirectionalCoupling(0.002, 5.0)))
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [3.0, 0.5, 0.0], [9.0, 0.0, 0.0]])
    base = rate_map_3d(geo, spec, pts)
    one = scaled_ensemble(geo, spec, pts, ensemble_size=1, scaling_exponent=0.7)
    np.testing.assert_array_equal(one.decay_rate, base.decay_rate)
    np.testing.assert_array_equal(one.level_shift, base.level_shift)


def test_rate_map_validation():
    with pytest.raises(ConfigurationError):
        RateMap(points=np.zeros((2, 3)), decay_rate=np.array([1.0, -0.5]),
                level_shift=np.zeros(2))
    with pytest.raises(ConfigurationError):
        RateMap(points=np.zeros((2, 3)), decay_rate=np.zeros(3),
                level_shift=np.zeros(3))
