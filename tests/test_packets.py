"""Gaussian packet kinematics against closed-form moments."""

import numpy as np
import pytest

from spindetect import (
    HBAR,
    Grid1D,
    free_evolved_packet,
    momentum_amplitude,
)
from spindetect.errors import ConfigurationError

from helpers import fig1_packet


def test_wavenumber_and_width_definitions():
    p = fig1_packet()
    assert p.mean_wavenumber == pytest.approx(p.mass * 1.79 / HBAR, rel=1e-15)
    assert p.wavenumber_width == pytest.approx(2.0e7, rel=1e-12)
    # minimum-uncertainty product sigma_x * dp = hbar/2
    assert p.position_width * p.momentum_width == pytest.approx(HBAR / 2.0,
                                                               rel=1e-15)


def test_momentum_amplitude_normalized():
    p = fig1_packet()
    lo, hi = p.wavenumber_window()
    k = np.linspace(lo, hi, 20001)
    total = np.trapezoid(np.abs(momentum_amplitude(p, k)) ** 2, k)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_wavenumber_window_positive():
    p = fig1_packet()
    lo, hi = p.wavenumber_window()
    assert 0.0 < lo < p.mean_wavenumber < hi
    # a packet too wide for its carrier cannot come purely from the left
    slow = fig1_packet(mean_velocity=1e-3)
    with pytest.raises(ConfigurationError):
        slow.wavenumber_window()


def test_quadrature_nodes_cover_window():
    p = fig1_packet()
    k, w = p.quadrature_nodes(201)
    lo, hi = p.wavenumber_window()
    assert k[0] == pytest.approx(lo) and k[-1] == pytest.approx(hi)
    assert np.sum(w) == pytest.approx(hi - lo, rel=1e-12)


def test_free_packet_normalization_and_moments():
    p = fig1_packet()
    sigma_x = p.position_width
    grid = Grid1D(-40.0 * sigma_x, 40.0 * sigma_x, 40001)
    x = grid.points()
    for t in (0.0, 3.0e-8, -2.0e-8):
        psi = free_evolved_packet(p, t, grid)
        dens = np.abs(psi) ** 2
        total = np.trapezoid(dens, x)
        assert total == pytest.approx(1.0, abs=1e-9)
        mean = np.trapezoid(x * dens, x)
        assert mean == pytest.approx(p.mean_velocity * t, abs=1e-6 * sigma_x)
        var = np.trapezoid(x * x * dens, x) - mean**2
        sigma_v = HBAR * p.wavenumber_width / p.mass
        expected = sigma_x**2 + (sigma_v * t) ** 2
        assert var == pytest.approx(expected, rel=1e-8)


def test_focus_shifts_packet():
    p = fig1_packet(focus_time=1.0e-8, focus_position=3.0e-8)
    grid = Grid1D(-2.0e-6, 2.0e-6, 30001)
    x = grid.points()
    dens = np.abs(free_evolved_packet(p, 1.0e-8, grid)) ** 2
    mean = np.trapezoid(x * dens, x) / np.trapezoid(dens, x)
    assert mean == pytest.approx(3.0e-8, abs=1e-12)
    # at the focus instant the width is minimal
    var0 = np.trapezoid(x * x * dens, x) - mean**2
    assert np.sqrt(var0) == pytest.approx(p.position_width, rel=1e-9)


def test_resolution_check_rejects_coarse_grid():
    p = fig1_packet()
    coarse = Grid1D(-1e-6, 1e-6, 64)
    with pytest.raises(ConfigurationError, match="does not resolve"):
        free_evolved_packet(p, 0.0, coarse)
    # a broad packet, k0/sigma_k = 5, has no discrete momentum window
    # (k0 - 8 sigma_k <= 0); the grid need only resolve k0 + 8 sigma_k
    broad = fig1_packet(momentum_width=HBAR * p.mean_wavenumber / 5.0)
    with pytest.raises(ConfigurationError, match="momentum window"):
        broad.wavenumber_window()
    cells = 4e-8 * 13.0 * broad.wavenumber_width / np.pi
    fine = Grid1D(-2e-8, 2e-8, int(cells) + 2)
    dens = np.abs(free_evolved_packet(broad, 0.0, fine)) ** 2
    assert np.sum(dens) * fine.spacing == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ConfigurationError, match="does not resolve"):
        free_evolved_packet(broad, 0.0, Grid1D(-2e-8, 2e-8, int(cells)))


def test_invalid_packets_rejected():
    with pytest.raises(ConfigurationError):
        fig1_packet(mean_velocity=-1.0)
    with pytest.raises(ConfigurationError):
        fig1_packet(momentum_width=0.0)
    with pytest.raises(ConfigurationError):
        fig1_packet(mass=-1e-25)
