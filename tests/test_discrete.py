"""Discrete-bath scattering: eigenbasis, channel matching, packet synthesis."""

import numpy as np
import pytest

from spindetect import (
    Grid1D,
    HalfLineSensitivity,
    IntervalSensitivity,
    ScatteringSynthesis,
    TabulatedSensitivity,
    detection_density_discrete,
    free_evolved_packet,
    interior_eigenmodes,
    match_at_origin,
    single_spin,
)
from spindetect.discrete import CHUNK_ROWS, PHASE_BLOCK
from spindetect.errors import ConfigurationError
from spindetect.output import read_csv

from helpers import (
    CESIUM_MASS_KG,
    MODES,
    fig1_geometry,
    fig1_packet,
    l2_distance,
    make_bath,
    make_units,
    peak_alloc_mb,
    slow_packet,
)


@pytest.fixture(scope="module")
def fig1_basis():
    return interior_eigenmodes(fig1_geometry(), make_bath())


def test_eigenbasis_unitary(fig1_basis):
    u = fig1_basis.vectors
    assert u.shape == (MODES + 1, MODES + 1)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(MODES + 1), atol=1e-12)


def test_eigenbasis_levels(fig1_basis):
    lam = fig1_basis.levels
    assert np.all(np.diff(lam) > 0)
    # weak coupling barely moves the bare sector levels -1/2 + l/N * 4.6
    assert lam[0] == pytest.approx(-0.5 + 4.6 / MODES, abs=2e-3)
    assert lam[-1] == pytest.approx(-0.5 + 4.6, abs=2e-3)


def test_channel_wavenumbers_consistent(fig1_basis):
    mass = CESIUM_MASS_KG
    k1 = np.array([fig1_packet().mean_wavenumber])
    k2 = 1.3 * k1
    sol1 = match_at_origin(fig1_basis, mass, k1)
    sol2 = match_at_origin(fig1_basis, mass, k2)
    kl1, qm1 = sol1.flipped_wavenumbers, sol1.interior_wavenumbers
    kl2, qm2 = sol2.flipped_wavenumbers, sol2.interior_wavenumbers
    # the offset k^2 - k_l^2 is a property of the channel, not of k
    np.testing.assert_allclose(k1**2 - kl1**2, k2**2 - kl2**2, rtol=1e-10)
    np.testing.assert_allclose(k1**2 - qm1**2, k2**2 - qm2**2, rtol=1e-10)
    # open channels have real positive wavenumbers, closed ones decay
    for arr in (kl1, qm1):
        open_part = arr[np.abs(arr.imag) == 0.0]
        closed = arr[np.abs(arr.imag) > 0.0]
        assert np.all(open_part.real > 0.0)
        assert np.all(closed.imag > 0.0)


def test_matching_flux_conservation(fig1_basis):
    rng = np.random.default_rng(11)
    lo, hi = fig1_packet().wavenumber_window()
    k = np.sort(rng.uniform(lo, hi, 40))
    sol = match_at_origin(fig1_basis, CESIUM_MASS_KG, k)
    assert not sol.failed.any()
    assert np.max(sol.flux_defect) < 1e-10
    assert np.max(sol.matching_residual) < 1e-10
    assert sol.reflection_detected.shape == (40, MODES)
    assert sol.interior_amplitudes.shape == (40, MODES + 1)


@pytest.mark.parametrize("closing", ["flipped", "interior"])
def test_matching_at_channel_thresholds(fig1_basis, closing):
    """At each k where a flipped channel k_l, or an interior q_mu, closes
    (k^2 = 2(omega_l/omega0 - 1), or 2 level_mu - 1, internal units), the
    channel-space system (K + U diag(q) U^H) v = 2k e_0 stays solvable:
    one closed channel alone does not bring 0 into its numerical range."""
    lu = make_units().length_unit
    if closing == "flipped":
        w = fig1_basis.mode_frequencies / fig1_basis.resonance
        k = np.sqrt(2.0 * (w[w > 1.0] - 1.0)) / lu
    else:
        lam = fig1_basis.levels
        k = np.sqrt(2.0 * lam[lam > 0.5] - 1.0) / lu
    sol = match_at_origin(fig1_basis, CESIUM_MASS_KG, k)
    closing_k = sol.flipped_wavenumbers if closing == "flipped" else sol.interior_wavenumbers
    closed = np.min(np.abs(closing_k), axis=1)
    assert np.all(closed * lu < 1e-7) and np.any(closed == 0.0)
    assert not sol.failed.any()
    assert np.max(sol.flux_defect) < 1e-8
    assert np.max(sol.matching_residual) < 1e-10


def test_zero_coupling_is_transparent():
    basis = interior_eigenmodes(fig1_geometry(), make_bath(coupling=0.0))
    k = np.linspace(0.8, 1.2, 7) * fig1_packet().mean_wavenumber
    sol = match_at_origin(basis, CESIUM_MASS_KG, k)
    assert np.max(np.abs(sol.reflection_undetected)) < 1e-10
    # the flux balance with no reflected flux leaves all of it transmitted
    assert np.max(sol.flux_defect) < 1e-10
    # no boson can be emitted, so nothing comes back in a flipped channel
    assert np.max(np.abs(sol.reflection_detected)) < 1e-10


@pytest.mark.parametrize("k", [0.0, -1.0e7, [1.0e7, 0.0]], ids=["zero", "negative", "array"])
def test_matching_rejects_nonpositive_wavenumbers(fig1_basis, k):
    with pytest.raises(ConfigurationError, match="incident wavenumbers must be positive"):
        match_at_origin(fig1_basis, CESIUM_MASS_KG, k)


@pytest.mark.parametrize("sensitivity", [
    TabulatedSensitivity([0.0, np.inf], [0.5, 0.5]),
    TabulatedSensitivity([0.0, 1.0, np.inf], [1.0, 0.5, 0.5]),
    IntervalSensitivity(1.0), HalfLineSensitivity(1e-9)],
    ids=["half-strength", "step-down", "interval", "shifted"])
def test_ladder_takes_only_the_half_line(sensitivity):
    """A profile with the support of Theta(x) but other values is not Theta."""
    with pytest.raises(ConfigurationError, match="requires the half-line sensitivity"):
        interior_eigenmodes(single_spin(2.39e8, sensitivity), make_bath(modes=4))
    theta = TabulatedSensitivity([0.0, 7.0, np.inf], [1.0, 1.0, 1.0])
    assert interior_eigenmodes(single_spin(2.39e8, theta), make_bath(modes=4)).n_modes == 4


def test_failed_matching_node_is_dropped_from_the_synthesis(monkeypatch):
    """A node that match_at_origin marks failed, its amplitudes NaN as in a
    real failure, is dropped from every per-node array of the synthesis:
    it holds k_nodes - 1 finite nodes, and its series and fields are
    finite."""
    from spindetect import discrete

    solve = discrete.match_at_origin

    def first_node_fails(*args, **kwargs):
        solution = solve(*args, **kwargs)
        solution.failed[0] = True
        for amplitudes in (solution.reflection_undetected, solution.reflection_detected,
                           solution.interior_amplitudes):
            amplitudes[0] = np.nan
        return solution

    monkeypatch.setattr(discrete, "match_at_origin", first_node_fails)
    units = make_units()
    lu, tu = units.length_unit, units.time_unit
    with pytest.warns(UserWarning, match="dropping 1 failed matching nodes from synthesis"):
        synth = ScatteringSynthesis(fig1_packet(), fig1_geometry(), make_bath(modes=6),
                                    k_nodes=101)
    assert len(synth.solution.k) == 101
    for per_node in (synth.k_int, synth.coeff, synth.energies_int, synth.k_l_int,
                     synth.q_mu_int, synth.r0, synth.r_l, synth.alpha, synth.beta):
        assert len(per_node) == 100
        assert np.all(np.isfinite(per_node))
    times = np.array([-4.0, 0.0, 4.0]) * tu
    series = synth.no_flip_norm_series(times, x_min=-150.0 * lu, x_max=150.0 * lu,
                                       right_points=2001)
    assert all(np.all(np.isfinite(v)) for v in series.values())
    state = synth.state(0.0, Grid1D(-50.0 * lu, 50.0 * lu, 201))
    assert np.all(np.isfinite(state.no_flip)) and np.all(np.isfinite(state.flipped))


def test_free_synthesis_matches_analytic_packet():
    """With zero coupling the synthesized no-flip field is the free packet."""
    units = make_units()
    packet = fig1_packet()
    geometry = fig1_geometry()
    bath = make_bath(coupling=0.0, modes=8)
    lu = units.length_unit
    grid = Grid1D(-80.0 * lu, 120.0 * lu, 4001)
    t = 5.0 * units.time_unit
    state = ScatteringSynthesis(packet, geometry, bath, k_nodes=801).state(t, grid)
    exact = free_evolved_packet(packet, t, grid)
    assert l2_distance(grid, state.no_flip, exact) < 1e-6
    assert np.max(np.abs(state.flipped)) < 1e-10 * np.max(np.abs(exact))


def test_series_agrees_with_direct_state_norm():
    """Independent integration routes: the closed-form/Simpson series against
    a trapezoid over an explicitly synthesized field (grid-limited)."""
    units = make_units()
    packet = fig1_packet()
    geometry = fig1_geometry()
    bath = make_bath(modes=6)
    synth = ScatteringSynthesis(packet, geometry, bath, k_nodes=401)
    lu, tu = units.length_unit, units.time_unit
    times = np.array([-4.0, 0.0, 4.0]) * tu
    series = synth.no_flip_norm_series(times, x_min=-250.0 * lu,
                                       x_max=250.0 * lu, right_points=12501)
    grid = Grid1D(-250.0 * lu, 250.0 * lu, 25001)
    x = grid.points()
    for i, t in enumerate(times):
        state = synth.state(float(t), grid)
        direct = np.trapezoid(np.abs(state.no_flip) ** 2, x)
        assert direct == pytest.approx(series["no_flip_mass"][i], abs=1e-3)


def _per_mode_right_mass(synth, times, x_max, right_points):
    """The interior (x > 0) Simpson mass by one (rows x nk) @ (nk x nt)
    matmul per mode: the synthesis before the mode sum was taken first."""
    c_mat = synth.time_phases(times)
    nt = c_mat.shape[1]
    h = float(synth.units.length_in(x_max)) / (right_points - 1)
    simpson = np.full(right_points, 2.0)
    simpson[1::2] = 4.0
    simpson[0] = simpson[-1] = 1.0
    simpson *= h / 3.0
    right = np.zeros(nt)
    u_step = np.exp(1j * synth.q_mu_int * h)
    for start in range(0, right_points, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, right_points)
        rows = stop - start
        fields = np.zeros((rows, nt), dtype=complex)
        for mu in range(synth.q_mu_int.shape[1]):
            buf = np.empty((rows, len(synth.k_int)), dtype=complex)
            buf[0, :] = np.exp(1j * synth.q_mu_int[:, mu] * (start * h))
            buf[1:, :] = u_step[:, mu][None, :]
            np.cumprod(buf, axis=0, out=buf)
            fields += (buf * synth.beta[:, mu][None, :]) @ c_mat
        right += simpson[start:stop] @ (np.abs(fields) ** 2 / (2.0 * np.pi))
    return right


def test_mode_sum_first_matches_per_mode_synthesis():
    """Summing the modes before the matmul to times is a reordering of the
    same sum: equal to the per-mode synthesis to rounding, over several
    blocks."""
    units = make_units()
    lu, tu = units.length_unit, units.time_unit
    synth = ScatteringSynthesis(fig1_packet(), fig1_geometry(), make_bath(modes=6),
                                k_nodes=201)
    times = np.linspace(-6.0, 6.0, 13) * tu
    right_points = CHUNK_ROWS + 905
    series = synth.no_flip_norm_series(times, x_min=-150.0 * lu, x_max=150.0 * lu,
                                       right_points=right_points)
    reference = _per_mode_right_mass(synth, times, 150.0 * lu, right_points)
    peak = np.max(reference)
    assert peak > 0.1
    assert np.max(np.abs(series["right_mass"] - reference)) < 1e-13 * peak


def _direct_fields(synth, t, x):
    """(psi, x) for time t, with psi = (no_flip, flipped...) as a (N+1, nx)
    array, every phase by its own exp at the points x (internal units)."""
    c_t = synth.time_phases(np.array([t]))[:, 0]
    u_mat = synth.basis.vectors
    fields = np.zeros((synth.basis.n_modes + 1, len(x)), dtype=complex)
    neg = x < 0.0
    xl, xr = x[neg], x[~neg]
    fields[0, neg] = (np.exp(1j * np.outer(xl, synth.k_int)) @ c_t
                      + np.exp(-1j * np.outer(xl, synth.k_int)) @ (synth.r0 * c_t))
    for ell in range(synth.basis.n_modes):
        fields[ell + 1, neg] = np.exp(-1j * np.outer(xl, synth.k_l_int[:, ell])) \
            @ (synth.r_l[:, ell] * c_t)
    for mu in range(synth.basis.n_modes + 1):
        mode = np.exp(1j * np.outer(xr, synth.q_mu_int[:, mu])) @ (synth.alpha[:, mu] * c_t)
        fields[:, ~neg] += u_mat[:, mu][:, None] * mode[None, :]
    return fields / (np.sqrt(2.0 * np.pi) * np.sqrt(synth.units.length_unit))


@pytest.mark.parametrize("packet,bounds_l0,points", [
    # fast packet, every channel open; a 1e-13 relative error in the spacing
    # shifts the far phases by ~1e-11
    (fig1_packet(), (-41.3, 52.9), 1501),
    # slow packet: evanescent flipped channels, on a grid so coarse that
    # e^{Im k_l * PHASE_BLOCK * h} overflows
    (slow_packet(), (-433.0, 377.0), 82),
])
def test_state_matches_direct_exponentials(packet, bounds_l0, points):
    """The factorized synthesis equals per-point direct exponentials, with
    the x < 0 / x >= 0 split and both grid ends inside blocks."""
    units = make_units()
    lu, tu = units.length_unit, units.time_unit
    synth = ScatteringSynthesis(packet, fig1_geometry(), make_bath(modes=5), k_nodes=151)
    grid = Grid1D(bounds_l0[0] * lu, bounds_l0[1] * lu, points)
    n_neg = int(np.sum(grid.points() < 0.0))
    assert n_neg % PHASE_BLOCK and (points - n_neg) % PHASE_BLOCK
    state = synth.state(1.5 * tu, grid)
    direct = _direct_fields(synth, 1.5 * tu, np.asarray(units.length_in(grid.points())))
    got = np.vstack([state.no_flip[None, :], state.flipped])
    assert np.all(np.isfinite(got))
    peak = np.max(np.abs(direct), axis=1)
    assert np.all(peak > 0.0)
    assert np.all(np.max(np.abs(got - direct), axis=1) < 1e-12 * peak)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
def test_right_mass_matches_extended_precision_reference():
    """The interior Simpson mass against the same sum in clongdouble with a
    direct exp per phase: the synthesis error stays at a few ulp of the
    peak (the cumprod recurrence reached 5.8e-15)."""
    units = make_units()
    lu, tu = units.length_unit, units.time_unit
    synth = ScatteringSynthesis(fig1_packet(), fig1_geometry(), make_bath(modes=6),
                                k_nodes=201)
    times = np.linspace(-6.0, 6.0, 13) * tu
    right_points = 5001
    series = synth.no_flip_norm_series(times, x_min=-150.0 * lu, x_max=150.0 * lu,
                                       right_points=right_points)
    h = float(units.length_in(150.0 * lu)) / (right_points - 1)
    x = np.arange(right_points, dtype=np.longdouble) * np.longdouble(h)
    q = synth.q_mu_int.astype(np.clongdouble)
    beta = synth.beta.astype(np.clongdouble)
    c_mat = synth.time_phases(times).astype(np.clongdouble)
    synthesis = np.zeros((right_points, q.shape[0]), dtype=np.clongdouble)
    for mu in range(q.shape[1]):
        synthesis += np.exp(1j * np.outer(x, q[:, mu])) * beta[:, mu]
    fields = synthesis @ c_mat
    simpson = np.full(right_points, 2.0, dtype=np.longdouble)
    simpson[1::2] = 4.0
    simpson[0] = simpson[-1] = 1.0
    density = (fields.real ** 2 + fields.imag ** 2) / (2.0 * np.pi)
    reference = (simpson * np.longdouble(h) / 3.0) @ density
    peak = float(np.max(reference))
    assert peak > 0.1
    assert float(np.max(np.abs(series["right_mass"] - reference))) < 2e-15 * peak


def test_edge_density_covers_last_five_rows_across_blocks():
    """The right edge density is the maximum over the last five grid rows
    also when the last block holds fewer than five of them."""
    units = make_units()
    lu, tu = units.length_unit, units.time_unit
    synth = ScatteringSynthesis(fig1_packet(), fig1_geometry(), make_bath(modes=6),
                                k_nodes=201)
    times = np.array([4.0, 6.0]) * tu
    right_points = 2 * CHUNK_ROWS + 3
    x_max = 40.0 * lu
    series = synth.no_flip_norm_series(times, x_min=-150.0 * lu, x_max=x_max,
                                       right_points=right_points)
    h = float(units.length_in(x_max)) / (right_points - 1)
    x = h * np.arange(right_points - 5, right_points)
    fields = np.zeros((5, len(times)), dtype=complex)
    for mu in range(synth.q_mu_int.shape[1]):
        fields += (np.exp(1j * np.outer(x, synth.q_mu_int[:, mu]))
                   * synth.beta[:, mu]) @ synth.time_phases(times)
    right_edge = np.max(np.abs(fields) ** 2) / (2.0 * np.pi)
    x_lo = float(units.length_in(-150.0 * lu))
    phi = np.exp(1j * synth.k_int * x_lo) + synth.r0 * np.exp(-1j * synth.k_int * x_lo)
    left_edge = np.max(np.abs(phi @ synth.time_phases(times)) ** 2) / (2.0 * np.pi)
    assert right_edge > 10.0 * left_edge
    assert series["edge_density_internal"] == pytest.approx(right_edge, rel=1e-9)


def test_series_work_buffers_stay_bounded():
    """A figure1-compare-sized series (201 k-nodes, 41 modes, 2573 interior
    rows, 105 times) allocates well under the 21.4 MB that full-width
    (rows x k-nodes) cumprod buffers took."""
    units = make_units()
    lu, tu = units.length_unit, units.time_unit
    synth = ScatteringSynthesis(fig1_packet(), fig1_geometry(), make_bath(), k_nodes=201)
    times = np.arange(-12.0, 14.0 + 1e-9, 0.25) * tu
    series, peak_mb = peak_alloc_mb(lambda: synth.no_flip_norm_series(
        times, x_min=-180.0 * lu, x_max=180.0 * lu, right_points=2573))
    assert np.all(np.isfinite(series["no_flip_mass"]))
    assert peak_mb < 16.0


def test_detection_series_shape_and_monotonicity(tmp_path):
    units = make_units()
    lu, tu = units.length_unit, units.time_unit
    times = np.arange(-10.0, 8.0 + 1e-9, 0.5) * tu
    series = detection_density_discrete(
        fig1_packet(), fig1_geometry(), make_bath(modes=12), times,
        x_min=-160.0 * lu, x_max=160.0 * lu, right_points=4001, k_nodes=301)
    p = series.flip_probability
    assert np.all(p > -1e-9) and np.all(p < 1.0 + 1e-9)
    # the finite mode ladder allows small wiggles, not real backflow
    assert np.all(np.diff(p) > -1e-4)
    assert p[-1] > 100.0 * max(p[0], 1e-12)
    w1 = series.detection_density
    assert np.min(w1) > -1e-3 * np.max(w1)
    series.to_csv(tmp_path / "disc.csv")
    cols = read_csv(tmp_path / "disc.csv")
    assert list(cols) == ["t_s", "detection_density_per_s", "flip_probability"]
    np.testing.assert_array_equal(cols["t_s"], times)


def test_detection_series_validation():
    units = make_units()
    lu, tu = units.length_unit, units.time_unit
    packet, geometry, bath = fig1_packet(), fig1_geometry(), make_bath(modes=6)
    with pytest.raises(ConfigurationError):
        detection_density_discrete(packet, geometry, bath,
                                   np.array([0.0, 1.0, 2.0]) * tu,
                                   x_min=-100 * lu, x_max=100 * lu)
    bad = np.array([0.0, 1.0, 2.0, 4.0, 8.0]) * tu
    with pytest.raises(ConfigurationError):
        detection_density_discrete(packet, geometry, bath, bad,
                                   x_min=-100 * lu, x_max=100 * lu)



@pytest.mark.parametrize("bounds_l0", [(-50.0, np.inf), (-np.inf, 50.0)])
def test_infinite_series_window_is_rejected(bounds_l0):
    """An infinite window end is a configuration error, not an all-NaN
    flip probability."""
    units = make_units()
    lu = units.length_unit
    times = np.arange(0.0, 2.0 + 1e-9, 0.5) * units.time_unit
    with pytest.raises(ConfigurationError, match="finite and straddle"):
        detection_density_discrete(fig1_packet(), fig1_geometry(), make_bath(modes=8),
                                   times, x_min=bounds_l0[0] * lu,
                                   x_max=bounds_l0[1] * lu, k_nodes=51)

def test_window_beyond_recurrence_warns():
    units = make_units()
    bath = make_bath(modes=2)   # tiny ladder: recurrence after ~2.7 periods
    times = np.arange(-4.0, 8.0 + 1e-9, 0.5) * units.time_unit
    # +-200 l0 holds the packet over the whole window (no edge warning)
    with pytest.warns(UserWarning, match="recurrence") as record:
        detection_density_discrete(
            fig1_packet(), fig1_geometry(), bath, times,
            x_min=-200 * units.length_unit, x_max=200 * units.length_unit,
            right_points=3335, k_nodes=301)
    assert len(record) == 1
