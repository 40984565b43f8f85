"""Gaussian wave packets: momentum amplitudes and free evolution.

The incident particle is a minimum-uncertainty Gaussian moving in +x with
momentum-space amplitude

    psi(k) = (hbar/(dp*sqrt(2 pi)))^(1/2) * exp(-hbar^2 (k - k0)^2/(4 dp^2))

normalized so that integral |psi(k)|^2 dk = 1, with k0 = m v0/hbar and dp
the momentum-width parameter. focus_time/focus_position place the
minimum-width instant: at t = focus_time the real-space packet is an
unchirped Gaussian centered at focus_position. The free evolution is known
in closed form (chirped Gaussian) and doubles as the propagation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, checked_scalar
from .model import Grid1D
from .units import HBAR

# half-width of the wavenumber window, in momentum widths sigma_k: the
# Gaussian amplitude there is exp(-WINDOW_SIGMAS^2/4) ~ 1e-7 of its peak
WINDOW_SIGMAS = 8.0


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Incident Gaussian packet, all fields SI."""

    mass: float                 # kg
    mean_velocity: float        # m/s, > 0 (incidence from the left)
    momentum_width: float       # kg m/s (dp)
    focus_time: float = 0.0     # s
    focus_position: float = 0.0  # m

    def __post_init__(self):
        for name in ("mass", "mean_velocity", "momentum_width"):
            checked_scalar(name, getattr(self, name), "positive")
        for name in ("focus_time", "focus_position"):
            checked_scalar(name, getattr(self, name))

    @property
    def mean_wavenumber(self) -> float:
        """k0 = m v0/hbar, 1/m."""
        return self.mass * self.mean_velocity / HBAR

    @property
    def wavenumber_width(self) -> float:
        """sigma_k = dp/hbar, 1/m."""
        return self.momentum_width / HBAR

    @property
    def position_width(self) -> float:
        """Minimal real-space std dev sigma_x = hbar/(2 dp), m."""
        return HBAR / (2.0 * self.momentum_width)

    def wavenumber_window(self) -> tuple[float, float]:
        """Synthesis window k0 -/+ WINDOW_SIGMAS*sigma_k.

        The scattering basis assumes incidence from the left, so the window
        must stay strictly positive; k0/sigma_k > WINDOW_SIGMAS is required.
        """
        k0, sk = self.mean_wavenumber, self.wavenumber_width
        lo = k0 - WINDOW_SIGMAS * sk
        if lo <= 0.0:
            raise ConfigurationError(
                f"momentum window reaches k <= 0 (k0/sigma_k = {k0 / sk:.3g} "
                f"<= {WINDOW_SIGMAS:.3g}); narrow the packet")
        return (lo, k0 + WINDOW_SIGMAS * sk)

    def quadrature_nodes(self, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """Uniform trapezoid nodes and weights over the synthesis window."""
        if n_nodes < 9:
            raise ConfigurationError(f"need at least 9 quadrature nodes, got {n_nodes}")
        lo, hi = self.wavenumber_window()
        k = np.linspace(lo, hi, n_nodes)
        w = np.full(n_nodes, k[1] - k[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return k, w


def momentum_amplitude(spec: GaussianPacketSpec, k) -> np.ndarray:
    """psi(k) in m^(1/2), including focus phases.

    The phase factors exp(-i k x_f) exp(i E_k t_f/hbar) translate the
    minimum-width instant to (focus_time, focus_position).
    """
    k = np.asarray(k, dtype=float)
    dp = spec.momentum_width
    k0 = spec.mean_wavenumber
    amp = np.sqrt(HBAR / (dp * np.sqrt(2.0 * np.pi))) * np.exp(
        -HBAR**2 * (k - k0) ** 2 / (4.0 * dp**2))
    phase = (-k * spec.focus_position
             + (HBAR * k**2 / (2.0 * spec.mass)) * spec.focus_time)
    return amp * np.exp(1j * phase)


def free_evolved_packet(spec: GaussianPacketSpec, t: float, grid: Grid1D) -> np.ndarray:
    """Closed-form freely evolved packet psi(x, t) on the grid, m^(-1/2).

    Chirped Gaussian: with sigma_k = dp/hbar, b = 1/(4 sigma_k^2) + i theta/2,
    theta = hbar (t - t_f)/m, X = x - x_f,

        psi = (2 pi sigma_k^2)^(-1/4) (2 b)^(-1/2)
              * exp(-(X - theta k0)^2/(4 b)) * exp(i k0 X - i theta k0^2/2)

    The grid must resolve k_max = k0 + WINDOW_SIGMAS sigma_k: spacing <
    pi/k_max.  A broad packet is fine here; only the discrete route needs
    the window's lower end positive.
    """
    sk = spec.wavenumber_width
    k0 = spec.mean_wavenumber
    k_hi = k0 + WINDOW_SIGMAS * sk
    if grid.spacing >= np.pi / k_hi:
        raise ConfigurationError(
            f"grid spacing {grid.spacing:.3e} m does not resolve the packet "
            f"(needs < pi/k_max = {np.pi / k_hi:.3e} m)")
    x = grid.points()
    theta = HBAR * (checked_scalar("t", t) - spec.focus_time) / spec.mass
    big_x = x - spec.focus_position
    b = 1.0 / (4.0 * sk**2) + 0.5j * theta
    return ((2.0 * np.pi * sk**2) ** -0.25 / np.sqrt(2.0 * b)
            * np.exp(-((big_x - theta * k0) ** 2) / (4.0 * b))
            * np.exp(1j * (k0 * big_x - 0.5 * theta * k0**2)))
