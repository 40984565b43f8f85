"""Bath correlation kernels, decay rates, level shifts, and 3D rate maps.

A detector spin with resonance omega0 couples to a continuum of bath modes
described by a one-sided spectral density

    f(omega) = [(c(omega) - omega c'(omega))/c(omega)^2] * omega * |Gamma(omega)|^2

(dimension 1/s). The memory kernel of the reduced dynamics is

    kappa(tau) = (1/2 pi) * integral_0^inf f(omega) exp(-i (omega - omega0) tau) domega

and the Markov-limit rate and level shift are A = 2 Re I and
delta_shift = 2 Im I with I = integral_0^inf kappa(tau) dtau. Equivalently
A = f(omega0) and delta_shift = -(1/pi) PV integral_0^inf f/(omega - omega0)
(Cohen-Tannoudji, Dupont-Roc, Grynberg, Atom-Photon Interactions, ch. III);
every user-supplied spectrum takes this frequency-domain route, and the same
transform gives the 3D shift. Every integral along a line is one
converge-or-raise rule: composite GL_ORDER-point Gauss-Legendre on 2, 4, 8,
... segments until two levels agree, a NumericsError past MAX_SEGMENTS.

The worked example (sharp cutoff omega_M, Gamma(omega) = -i G sqrt(2 pi
c0/omega_M) up to the cutoff) has closed forms for everything:

    kappa(tau) = (|G|^2/omega_M) [(1 + i omega_M tau) e^{-i (omega_M - omega0) tau}
                 - e^{i omega0 tau}] / tau^2
    A          = 2 pi |G|^2 omega0/omega_M
    delta      = 2 |G|^2 [(omega0/omega_M) ln(omega0/(omega_M - omega0)) - 1]

Its discrete-N realization (mode ladder omega_l = omega_M l/N, couplings
g_l = -i G sqrt(omega_l/N)) feeds the exact scattering model.

The 3D multi-spin map sums, over spins j with modified resonances
omega_j (bare resonance minus the ferromagnetic couplings to all partners),

    A(x) = sum_j m_j omega_j^3 [(c - omega_j c')/c^4] *
           ∫ dOmega_e/(2 pi)^2 (|Gamma_j(omega_j, e)|^2 chi_j(x)^2 + |Gamma_spon_j|^2)

with multiplicity m_j, and the analogous principal-value expression for
delta_shift(x) (the constant spontaneous part of the shift is a global
phase and is dropped).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericsError, checked_count, checked_scalar
from .model import DetectorGeometry

TWO_PI = 2.0 * np.pi
GL_ORDER = 64            # nodes a segment of the composite rule
MAX_SEGMENTS = 2**15     # finest level of the composite rule
TOLERANCE = 1e-13        # level-to-level agreement, relative to the scale
SPHERE_POLAR_NODES = 24    # Gauss-Legendre nodes in cos(theta) of the 3D rate map
SPHERE_AZIMUTH_NODES = 48  # trapezoid nodes in phi of the 3D rate map


# ---------------------------------------------------------------------------
# 1D spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RectangularBath:
    """Sharp-cutoff bath of the worked example.

    coupling: G in s^(-1/2); cutoff: omega_M in rad/s; modes: mode count N
    of the discrete realization (None for the pure continuum).  The
    dispersion c0 cancels from the density, so it is not a field.
    """

    coupling: float       # G, s^-1/2
    cutoff: float         # omega_M, rad/s
    modes: int | None = None

    def __post_init__(self):
        checked_scalar("coupling", self.coupling, "nonnegative")
        checked_scalar("cutoff", self.cutoff, "positive")
        if self.modes is not None:
            checked_count("modes", self.modes, 1)

    def density(self, omega) -> np.ndarray:
        """f(omega) = 2 pi G^2 omega/omega_M on (0, omega_M], else 0."""
        omega = np.asarray(omega, dtype=float)
        inside = (omega > 0) & (omega <= self.cutoff)
        return np.where(inside, TWO_PI * self.coupling**2 * omega / self.cutoff, 0.0)

    # --- discrete block ------------------------------------------------
    def mode_frequencies(self) -> np.ndarray:
        """omega_l = omega_M l/N, l = 1..N."""
        if self.modes is None:
            raise ConfigurationError("this bath has no discrete mode ladder (modes=None)")
        return self.cutoff * np.arange(1, self.modes + 1) / self.modes

    def mode_couplings(self) -> np.ndarray:
        """g_l = -i G sqrt(omega_l/N), rad/s."""
        return -1j * self.coupling * np.sqrt(self.mode_frequencies() / self.modes)

    def recurrence_time(self) -> float:
        """2 pi N/omega_M: the discrete ladder revives on this time scale."""
        if self.modes is None:
            raise ConfigurationError("recurrence time needs a discrete mode ladder")
        return TWO_PI * self.modes / self.cutoff


@dataclass(frozen=True)
class GeneralBath:
    """User-supplied 1D spectrum: dispersion c(omega) and coupling Gamma(omega).

    dispersion: constant (float), or callable with its exact derivative as
    dispersion_derivative; coupling maps omega -> complex amplitude with
    |Gamma|^2 in m/s; each callable takes an array of omega and returns
    values that broadcast to it.  cutoff bounds the support of the
    principal-value shift integral.  Spectral lines down to a Gaussian 1/e
    half-width of 1e-3 of the support are resolved; a narrower line can
    fall between the nodes of two levels and be missed.
    """

    dispersion: float | Callable[[np.ndarray], np.ndarray]
    coupling: Callable[[np.ndarray], np.ndarray]
    cutoff: float
    dispersion_derivative: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        checked_scalar("cutoff", self.cutoff, "positive")
        _check_dispersion(self)

    def density(self, omega) -> np.ndarray:
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        out = np.zeros_like(omega)
        inside = (omega > 0) & (omega <= self.cutoff)
        w = omega[inside]
        bracket = _dispersion_factor(self.dispersion, self.dispersion_derivative, w, 2)
        out[inside] = bracket * w * np.abs(self.coupling(w)) ** 2
        return out


BathSpectrum = RectangularBath | GeneralBath


def _check_dispersion(spectrum) -> None:
    if callable(spectrum.dispersion) and spectrum.dispersion_derivative is None:
        raise ConfigurationError("a callable dispersion needs dispersion_derivative, its c'")


def _dispersion_factor(dispersion, derivative, omega: np.ndarray, power: int) -> np.ndarray:
    """(c - omega c')/c^power on an array of omega, c' = 0 for a constant c.
    A non-finite c or c', c <= 0 or c - omega c' <= 0 is unphysical."""
    c, cp = ((dispersion(omega), derivative(omega)) if callable(dispersion)
             else (np.full_like(omega, dispersion), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = (c - omega * cp) / c**power
    bad = ~((c > 0) & (factor > 0) & np.isfinite(factor))
    if np.any(bad):
        raise ConfigurationError(f"unphysical dispersion: c <= 0, c - omega c' <= 0 or a "
                                 f"non-finite c or c' at omega = {omega[bad][0]:.6g}")
    return factor


@functools.lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the order-point Gauss-Legendre rule on
    [-1, 1]: Newton's method on the three-term recurrence, then symmetrised.
    At order 64 the weights are within 6e-14 relative of an
    extended-precision rule."""
    x = np.cos(np.pi * (np.arange(order, 0, -1) - 0.25) / (order + 0.5))
    converged = False
    for _ in range(50):
        p_prev, p = np.ones_like(x), x
        for k in range(2, order + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        slope = order * (p_prev - x * p) / one_minus_x2
        if converged:       # the weights take the slope at the final nodes
            break
        step = p / slope
        x = x - step
        converged = np.max(np.abs(step)) < 1e-15
    else:
        raise NumericsError(f"Gauss-Legendre nodes of order {order} did not converge")
    w = 2.0 / (one_minus_x2 * slope**2)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(lo: float, hi: float, n_seg: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GL_ORDER-point Gauss-Legendre rule on each of
    n_seg equal segments of [lo, hi], segment by segment."""
    x, wx = _legendre_rule(GL_ORDER)
    half = 0.5 * (hi - lo) / n_seg
    mid = lo + half * (2 * np.arange(n_seg) + 1)
    return (mid[:, None] + half * x).ravel(), np.tile(half * wx, n_seg)


def _converged_integral(integrand, lo: float, hi: float, what: str,
                        size: int = 1) -> np.ndarray:
    """size integrals over [lo, hi] by the composite rule on 2, 4, ...,
    MAX_SEGMENTS segments, each done at the first level that agrees with the
    one before to TOLERANCE x its scale; only the open ones go on, and one
    still open at MAX_SEGMENTS is a NumericsError, as is a level whose sums
    or scales are not finite.  The first level has two segments: a
    comparison of one against two let a line 1/960 of [lo, hi] wide fall
    between the nodes of both and agree.  Spectral lines down to a Gaussian
    1/e half-width of 1e-3 of [lo, hi] are resolved; a narrower line can
    fall between the nodes of two levels and be missed.  integrand(x, w, rows)
    returns, for the open integrals rows, the sums of g w and their scales:
    the sums of the magnitudes g w is computed from, which bound its rounding.
    """
    out = np.full(size, np.nan, dtype=complex)     # the last level of each
    rows = np.arange(size)
    for n_seg in 2 ** np.arange(1, MAX_SEGMENTS.bit_length()):
        total, scale = integrand(*_gauss_legendre(lo, hi, n_seg), rows)
        if not (np.all(np.isfinite(total)) and np.all(np.isfinite(scale))):
            raise NumericsError(f"{what}: the integrand is not finite")
        # nan on the first level; tiny: a subnormal sum has no relative precision
        excess = np.abs(total - out[rows]) / (TOLERANCE * scale + np.finfo(float).tiny)
        out[rows] = total
        rows = rows[~(excess <= 1.0)]
        if rows.size == 0:
            return out
    raise NumericsError(
        f"{what} not resolved by {MAX_SEGMENTS} segments of {GL_ORDER} nodes: {rows.size} "
        f"of {size} open, the last two levels {np.max(excess):.3g} tolerances apart")


# ---------------------------------------------------------------------------
# Correlation kernel
# ---------------------------------------------------------------------------

def _kernel_quadrature(spectrum, resonance: float, tau: np.ndarray) -> np.ndarray:
    """kappa(tau) by the converged composite rule over the support, each
    delay on its own.  e^{-i tau (omega - omega0)} is the phase at each
    segment's first node times that of the offsets from it, which all
    segments share: n_seg + GL_ORDER exponentials a delay and level."""

    def sums(omega, weight, rows):
        fw = (spectrum.density(omega) * weight).reshape(-1, GL_ORDER)
        anchors = omega[::GL_ORDER] - resonance
        offsets = omega[:GL_ORDER] - omega[0]
        total = np.empty(len(rows), dtype=complex)
        # delays per block: (delays, segments) arrays of 2^21 elements (32 MB)
        step = max(1, 2**21 // len(anchors))
        for lo in range(0, len(rows), step):
            t = tau[rows[lo:lo + step]]
            inner = np.exp(-1j * np.outer(t, offsets)) @ fw.T
            total[lo:lo + step] = np.einsum(
                "ij,ij->i", np.exp(-1j * np.outer(t, anchors)), inner)
        return total, np.sum(np.abs(fw))

    what = f"kernel quadrature at delays up to {np.max(tau, initial=0.0):.6g} s"
    return _converged_integral(sums, 0.0, spectrum.cutoff, what, len(tau)) / TWO_PI


def _kernel_closed_form(bath: RectangularBath, resonance: float, tau: np.ndarray) -> np.ndarray:
    """Closed form for the sharp-cutoff example, series-protected near 0."""
    g2 = bath.coupling**2
    m = bath.cutoff
    out = np.empty(tau.shape, dtype=complex)
    x = m * tau
    small = np.abs(x) < 1e-4
    if np.any(~small):
        t = tau[~small]
        out[~small] = (g2 / m) * (
            (1.0 + 1j * m * t) * np.exp(-1j * (m - resonance) * t)
            - np.exp(1j * resonance * t)) / t**2
    if np.any(small):
        # [(1+ix)e^{-ix} - 1]/x^2 = sum_{n>=2} (-i)^n (1-n)/n! x^{n-2}
        xs = x[small]
        series = np.zeros(xs.shape, dtype=complex)
        term_coeffs = [(1.0 / 2.0), (-1j / 3.0), (-1.0 / 8.0), (1j / 30.0), (1.0 / 144.0)]
        for p, cf in enumerate(term_coeffs):
            series = series + cf * xs**p
        out[small] = g2 * m * series * np.exp(1j * resonance * tau[small])
    return out


def correlation_kernel(spectrum: BathSpectrum, resonance: float, tau) -> np.ndarray:
    """Memory kernel kappa(tau); closed form for the sharp-cutoff example.

    tau may be scalar or array, must be >= 0 (the kernel enters the reduced
    dynamics only at non-negative delays).
    """
    checked_scalar("resonance", resonance, "positive")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(tau_arr < 0):
        raise ConfigurationError("kernel delays must be >= 0")
    if isinstance(spectrum, RectangularBath):
        out = _kernel_closed_form(spectrum, resonance, tau_arr)
    else:
        out = _kernel_quadrature(spectrum, resonance, tau_arr)
    return out[0] if np.isscalar(tau) or np.ndim(tau) == 0 else out


# ---------------------------------------------------------------------------
# Decay rate and level shift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatesResult:
    """A and delta_shift with provenance of the evaluation route."""

    decay_rate: float        # A, 1/s
    level_shift: float       # delta_shift, 1/s
    # "closed_form" | "frequency_pv"; runner.build_scene also makes
    # "override" and "zero_coupling" results
    method: str
    quadrature_decay_rate: float | None = None
    quadrature_level_shift: float | None = None


def _closed_form_rates(bath: RectangularBath, resonance: float) -> tuple[float, float]:
    if resonance >= bath.cutoff:
        raise ConfigurationError(
            f"closed forms need resonance < cutoff (log singularity at equality); "
            f"got resonance {resonance} >= cutoff {bath.cutoff}")
    g2 = bath.coupling**2
    a = TWO_PI * g2 * resonance / bath.cutoff
    shift = 2.0 * g2 * ((resonance / bath.cutoff)
                        * np.log(resonance / (bath.cutoff - resonance)) - 1.0)
    return a, shift


def _tau_integral_finite(bath: RectangularBath, resonance: float, t_upper: float) -> complex:
    """integral_0^T kappa dtau of the closed-form kernel, converged."""

    def sums(tau, w, rows):
        g = _kernel_closed_form(bath, resonance, tau) * w
        return np.sum(g, keepdims=True), np.sum(np.abs(g), keepdims=True)

    return complex(_converged_integral(sums, 0.0, t_upper, "kernel time integral")[0])


def _rectangular_tail(bath: RectangularBath, resonance: float, t_upper: float) -> complex:
    """Exact integral_T^inf kappa dtau for the sharp-cutoff kernel.

    With a = omega_M - omega0, b = omega0:
        tail = (G^2/omega_M) [ (e^{-iaT} - e^{ibT})/T + i b (E1(iaT) - E1(-ibT)) ]
    (integration by parts of the 1/tau^2 terms; E1 is the exponential
    integral, principal branch, valid on the imaginary axis).
    """
    a = bath.cutoff - resonance
    b = resonance
    g2 = bath.coupling**2
    t = t_upper
    return (g2 / bath.cutoff) * ((np.exp(-1j * a * t) - np.exp(1j * b * t)) / t
                                 + 1j * b * (_exp1(1j * a * t) - _exp1(-1j * b * t)))


def _exp1(z: complex) -> complex:
    """Exponential integral E1(z), principal branch, for complex z != 0 off
    the negative real axis: the power series for |z| <= 2, else the
    continued fraction e^{-z}/(z + 1 - 1/(z + 3 - 4/(z + 5 - ...))) by the
    modified Lentz method."""
    if abs(z) <= 2.0:
        # E1(z) = -gamma - ln z - sum_{k>=1} (-z)^k / (k k!); 40 terms reach
        # 2^40/40! < 1e-30 at |z| = 2
        total, term = 0.0, 1.0
        for k in range(1, 41):
            term *= -z / k
            total += term / k
        return -np.euler_gamma - cmath.log(z) - total
    b = z + 1.0
    c = 1e300           # 1/tiny, the modified Lentz start
    d = h = 1.0 / b
    for k in range(1, 1001):
        b += 2.0
        d = 1.0 / (b - k * k * d)
        c = b - k * k / c
        step = c * d
        h *= step
        if abs(step - 1.0) < 1e-16:
            break
    else:
        raise NumericsError(f"E1 continued fraction did not converge at z = {z}")
    return h * cmath.exp(-z)


def _pv_transform(fn: Callable[[np.ndarray], np.ndarray], pole: float, hi: float) -> float:
    """-(1/pi) PV integral_0^hi fn(omega)/(omega - pole) domega, fn vectorised.

    Singularity subtraction over all of [0, hi]: (fn - fn(pole))/(omega - pole)
    is smooth and takes the converged composite rule, scaled by the sum of
    (|fn| + |fn(pole)|) w/|omega - pole|, the magnitudes its rounding comes
    from; fn(pole)/(omega - pole) integrates to fn(pole) ln|(hi - pole)/pole|,
    for a pole beyond hi too.  A pole at 0 or hi with fn(pole) != 0 diverges:
    a NumericsError.
    """
    f_p = float(fn(np.array([pole]))[0])
    if f_p != 0.0 and pole in (0.0, hi):
        raise NumericsError(f"principal value diverges: pole {pole:.6g} at an end "
                            f"of [0, {hi:.6g}] with f(pole) = {f_p:.6g}")

    def sums(x, w, rows):
        f = fn(x)
        w_pole = w / (x - pole)
        return (np.sum((f - f_p) * w_pole, keepdims=True),
                np.sum((np.abs(f) + abs(f_p)) * np.abs(w_pole), keepdims=True))

    total = _converged_integral(sums, 0.0, hi, f"principal-value integral about {pole:.6g}")
    log_term = f_p * np.log(abs((hi - pole) / pole)) if f_p else 0.0
    return -(total[0].real + log_term) / np.pi


def decay_rate_and_shift(spectrum: BathSpectrum, resonance: float) -> RatesResult:
    """Markov-limit decay rate A and level shift.

    For the sharp-cutoff example the closed forms are returned, after a
    cross-check by the kernel's time integral: the converged composite rule
    on [0, T] plus the exact exponential-integral tail (the kernel decays
    only like 1/tau, so a naive truncation cannot converge), which must be
    stable under doubling the split point and agree with the closed forms
    to 1e-6 relative. Generic spectra are evaluated in the frequency domain:
    A = f(omega0) and the principal-value shift (method "frequency_pv").
    """
    checked_scalar("resonance", resonance, "positive")
    if isinstance(spectrum, RectangularBath):
        if spectrum.coupling == 0.0:
            return RatesResult(0.0, 0.0, "closed_form", 0.0, 0.0)
        a_cf, d_cf = _closed_form_rates(spectrum, resonance)
        t_upper = 512.0 / spectrum.cutoff
        total, check = (_tau_integral_finite(spectrum, resonance, t)
                        + _rectangular_tail(spectrum, resonance, t)
                        for t in (t_upper, 2.0 * t_upper))
        if abs(total - check) > 1e-9 * max(abs(total), spectrum.coupling**2):
            raise NumericsError(
                f"kernel time integral not stable under doubling the split point: "
                f"{total} vs {check}")
        a_q, d_q = 2.0 * total.real, 2.0 * total.imag
        scale = max(abs(a_cf), abs(d_cf))
        if abs(a_q - a_cf) > 1e-6 * scale or abs(d_q - d_cf) > 1e-6 * scale:
            raise NumericsError(
                f"quadrature route (A={a_q:.9e}, shift={d_q:.9e}) disagrees with "
                f"closed forms (A={a_cf:.9e}, shift={d_cf:.9e}) beyond 1e-6")
        return RatesResult(a_cf, d_cf, "closed_form", a_q, d_q)
    a = float(spectrum.density(np.array([resonance]))[0])
    return RatesResult(a, _pv_transform(spectrum.density, resonance, spectrum.cutoff),
                       "frequency_pv")


def markov_summary(spectrum: BathSpectrum, resonance: float) -> float:
    """The kernel's correlation time in s, for reporting only (it never
    chooses dt): the first tau of a 600-delay geometric scan from which the
    kernel envelope stays < 1% of kappa(0) (inf if it never does)."""
    kappa0 = abs(correlation_kernel(spectrum, resonance, 0.0))
    if kappa0 == 0.0:
        return 0.0
    tau = np.geomspace(1e-3 / spectrum.cutoff, 1e6 / spectrum.cutoff, 600)
    env = np.abs(correlation_kernel(spectrum, resonance, tau))
    below = np.maximum.accumulate(env[::-1])[::-1] < 0.01 * kappa0
    return float(tau[np.argmax(below)]) if np.any(below) else float("inf")


# ---------------------------------------------------------------------------
# Rate maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateMap:
    """Sampled decay rate A(x) and level shift on spatial points (1D or 3D)."""

    points: np.ndarray       # (n,) meters or (n, 3)
    decay_rate: np.ndarray   # (n,), 1/s
    level_shift: np.ndarray  # (n,), 1/s

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        a = np.asarray(self.decay_rate, dtype=float)
        d = np.asarray(self.level_shift, dtype=float)
        if a.shape != d.shape or a.shape[0] != pts.shape[0]:
            raise ConfigurationError("rate map arrays must share their leading dimension")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(d))):
            raise ConfigurationError("rate map fields must be finite")
        if np.any(a < 0):
            raise ConfigurationError("decay rate must be >= 0 everywhere")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "decay_rate", a)
        object.__setattr__(self, "level_shift", d)


def modified_frequencies(geometry: DetectorGeometry) -> np.ndarray:
    """Effective resonances: bare ones lowered by all pairwise couplings.

    omega_j_eff = omega_j - (sum_{k<j} J[k, j] + sum_{k>j} J[j, k]).
    Raises when a modified frequency is driven to zero or below.
    """
    bare = np.asarray(geometry.resonances, dtype=float)
    if geometry.exchange is None:
        return bare.copy()
    ex = np.asarray(geometry.exchange, dtype=float)
    upper = np.triu(ex, k=1)
    eff = bare - (upper.sum(axis=0) + upper.sum(axis=1))
    if np.any(eff <= 0):
        raise ConfigurationError(
            f"pairwise couplings drive a modified resonance to <= 0: {eff}")
    return eff


class DirectionalCoupling:
    """3D coupling amplitude Gamma(omega, e) over emission directions.

    Called on an (m,) array omega and an (n, 3) array e of unit vectors, it
    returns Gamma as an (m, n) array, 0 outside (0, cutoff].  amplitude:
    complex constant, or callable (omega, e) -> complex array broadcasting
    to (m, n), given omega as an (m, 1) column.  |Gamma|^2 carries m^3/s.
    """

    def __init__(self, amplitude, cutoff: float):
        self.amplitude = amplitude
        self.cutoff = checked_scalar("cutoff", cutoff, "positive")

    def __call__(self, omega: np.ndarray, e: np.ndarray) -> np.ndarray:
        out = np.zeros((omega.size, e.shape[0]), dtype=complex)
        inside = (omega > 0) & (omega <= self.cutoff)
        amplitude = self.amplitude
        out[inside] = amplitude(omega[inside, None], e) if callable(amplitude) else amplitude
        return out

    def scaled(self, factor: float) -> "DirectionalCoupling":
        amplitude = self.amplitude
        return DirectionalCoupling((lambda w, e: factor * np.asarray(amplitude(w, e)))
                                   if callable(amplitude) else factor * complex(amplitude),
                                   self.cutoff)


@dataclass(frozen=True)
class DirectionalSpectrum3D:
    """Per-spin directional couplings and the shared dispersion law.

    couplings[j] is Gamma_j(omega, e); spontaneous[j] the always-on channel
    Gamma_spon_j (or None). dispersion and dispersion_derivative as in
    GeneralBath: a constant, or a callable on arrays with its exact c'.
    """

    dispersion: float | Callable[[np.ndarray], np.ndarray]
    couplings: tuple[DirectionalCoupling, ...]
    spontaneous: tuple[DirectionalCoupling | None, ...] | None = None
    dispersion_derivative: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        _check_dispersion(self)
        if self.spontaneous is not None and len(self.spontaneous) != len(self.couplings):
            raise ConfigurationError("need one spontaneous entry per coupling (or None)")


def _sphere_quadrature(n_polar: int, n_azimuth: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule on the unit sphere: Gauss-Legendre in cos(theta),
    trapezoid in phi (periodic, hence spectrally accurate)."""
    mu, w_mu = _legendre_rule(n_polar)
    phi = np.arange(n_azimuth) * (TWO_PI / n_azimuth)
    w_phi = TWO_PI / n_azimuth
    sin_t = np.sqrt(1.0 - mu**2)
    e = np.empty((n_polar * n_azimuth, 3))
    e[:, 0] = np.outer(sin_t, np.cos(phi)).ravel()
    e[:, 1] = np.outer(sin_t, np.sin(phi)).ravel()
    e[:, 2] = np.repeat(mu, n_azimuth)
    w = np.repeat(w_mu, n_azimuth) * w_phi
    return e, w


def _angle_integrated_density(spectrum: DirectionalSpectrum3D,
                              channel: DirectionalCoupling | None,
                              e: np.ndarray, w: np.ndarray):
    """f3(omega) = omega^3 [(c - omega c')/c^4] ∫ dOmega |Gamma|^2/(2 pi)^2 of
    one channel (0 for an absent one), as a function vectorised in omega;
    |Gamma|^2 in (frequencies, directions) blocks of 2^21 elements (32 MB)."""
    rows = max(1, 2**21 // len(e))

    def density(omega) -> np.ndarray:
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        if channel is None:
            return np.zeros_like(omega)
        bracket = _dispersion_factor(spectrum.dispersion, spectrum.dispersion_derivative,
                                     omega, 4)
        solid = np.concatenate([np.sum(np.abs(channel(omega[lo:lo + rows], e)) ** 2 * w, axis=1)
                                for lo in range(0, omega.size, rows)])
        return omega**3 * bracket * solid / TWO_PI**2

    return density


def rate_map_3d(geometry: DetectorGeometry, spectrum: DirectionalSpectrum3D,
                points: np.ndarray) -> RateMap:
    """Decay-rate and level-shift maps for a 3D multi-spin detector.

    Additive over spins; each spin contributes its multiplicity times the
    stimulated term (weighted by chi_j(x)^2) plus the position-independent
    spontaneous floor. The spontaneous part of the level shift is a global
    phase and is omitted.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise ConfigurationError(f"3D rate map needs (n, 3) points, got {pts.shape}")
    if len(spectrum.couplings) != geometry.spin_count:
        raise ConfigurationError("need one directional coupling per spin")
    eff = modified_frequencies(geometry)
    e, w = _sphere_quadrature(SPHERE_POLAR_NODES, SPHERE_AZIMUTH_NODES)
    a_map = np.zeros(pts.shape[0])
    d_map = np.zeros(pts.shape[0])
    spontaneous = spectrum.spontaneous or (None,) * len(spectrum.couplings)
    for j, region in enumerate(geometry.regions_3d):
        omega_j = float(eff[j])
        stim = _angle_integrated_density(spectrum, spectrum.couplings[j], e, w)
        stim_j = float(stim(omega_j)[0])
        spon_j = float(_angle_integrated_density(spectrum, spontaneous[j], e, w)(omega_j)[0])
        if spon_j > 0 and stim_j < 100.0 * spon_j:
            raise ConfigurationError(
                f"spontaneous channel too strong for spin {j}: stimulated/spontaneous "
                f"= {stim_j / spon_j:.3g} < 100")
        chi = np.asarray(region.sensitivity(pts), dtype=float)
        mult = float(region.multiplicity)
        a_map += mult * (stim_j * chi**2 + spon_j)
        d_map += mult * _pv_transform(stim, omega_j, spectrum.couplings[j].cutoff) * chi**2
    return RateMap(points=pts, decay_rate=a_map, level_shift=d_map)


def scaled_ensemble(geometry: DetectorGeometry, spectrum: DirectionalSpectrum3D,
                    points: np.ndarray, ensemble_size: int,
                    scaling_exponent: float = 0.5) -> RateMap:
    """Rate map of N co-located spins per region with couplings / N^p.

    Every spin's multiplicity is multiplied by ensemble_size and every
    coupling amplitude (spontaneous channel included) divided by
    ensemble_size**scaling_exponent; the effective resonances are held
    fixed (fixed ferromagnetic load per spin). p = 1/2 leaves the map
    exactly invariant; any other exponent sends it to 0 or infinity with N.
    """
    checked_count("ensemble_size", ensemble_size, 1)
    factor = float(ensemble_size) ** -checked_scalar("scaling_exponent", scaling_exponent)
    regions = tuple(replace(r, multiplicity=r.multiplicity * ensemble_size)
                    for r in geometry.regions_3d)
    couplings = tuple(c.scaled(factor) for c in spectrum.couplings)
    spont = (None if spectrum.spontaneous is None else
             tuple(None if s is None else s.scaled(factor) for s in spectrum.spontaneous))
    return rate_map_3d(replace(geometry, regions_3d=regions),
                       replace(spectrum, couplings=couplings, spontaneous=spont), points)
