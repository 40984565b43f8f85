"""Conditional propagation: complex potential, Cayley stepping, norm drain,
and the two-channel fluorescence analog."""

import warnings

import numpy as np
import pytest

from spindetect import (
    ComplexPotential,
    Grid1D,
    HBAR,
    HalfLineSensitivity,
    IntervalSensitivity,
    TabulatedSensitivity,
    adiabaticity_ratio,
    build_conditional_potential,
    free_evolved_packet,
    mass_accounting,
    one_channel_limit_potential,
    propagate_conditional,
    propagate_two_channel,
)
from spindetect.conditional import (PHASE_BUDGET, ConditionalTrajectory, CrankNicolson1D,
                                    norm_balance)
from spindetect.errors import ConfigurationError, NumericsError
from spindetect.output import read_csv

from helpers import internal_grid, l2_distance, make_units, slow_packet, two_channel_vmax


T0 = make_units().time_unit
L0 = make_units().length_unit


# ---------------------------------------------------------------------------
# potential assembly


def test_potential_values_follow_profile():
    grid = internal_grid(-5.0, 5.0, 0.5)
    decay, shift = 3.0e6, -7.0e6
    pot = build_conditional_potential(decay, shift,
                                      IntervalSensitivity(2.0 * L0, start=0.0),
                                      grid)
    chi2 = ((grid.points() >= 0.0) & (grid.points() <= 2.0 * L0)).astype(float)
    np.testing.assert_allclose(pot.values,
                               0.5 * HBAR * (shift - 1j * decay) * chi2, rtol=0, atol=0)
    np.testing.assert_allclose(pot.decay_profile, decay * chi2)
    assert pot.region == (0.0, 2.0 * L0)
    assert pot.max_magnitude == pytest.approx(
        0.5 * HBAR * np.hypot(shift, decay), rel=1e-15)


def test_potential_shift_can_be_dropped():
    grid = internal_grid(-5.0, 5.0, 0.5)
    pot = build_conditional_potential(3.0e6, -7.0e6, HalfLineSensitivity(), grid,
                                      include_shift=False)
    assert np.all(pot.values.real == 0.0)
    assert np.min(pot.values.imag) < 0.0


def test_potential_accepts_sampled_profiles():
    """Profiles sampled on the grid (a rate map along the axis) build a
    ComplexPotential directly; the builder takes scalar rates only."""
    grid = internal_grid(-2.0, 2.0, 0.5)
    decay = np.linspace(0.0, 4.0e6, grid.n_points)
    shift = np.linspace(-1.0e6, 1.0e6, grid.n_points)
    pot = ComplexPotential(grid, decay, shift, region=(0.0, np.inf))
    np.testing.assert_allclose(pot.values, 0.5 * HBAR * (shift - 1j * decay))
    with pytest.raises(TypeError):
        build_conditional_potential(decay, 0.0, HalfLineSensitivity(), grid)


def test_potential_rejects_gain_and_bad_shapes():
    grid = internal_grid(-2.0, 2.0, 0.5)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        build_conditional_potential(-1.0, 0.0, HalfLineSensitivity(), grid)
    ok = np.zeros(grid.n_points)
    bad = np.full(grid.n_points, np.nan)
    for decay, shift, error in (
            (np.full(grid.n_points, -2.0), ok, "decay profile must be nonnegative"),
            (np.ones(3), ok, rf"decay_profile must have shape \({grid.n_points},\)"),
            (bad, ok, "decay_profile must be finite"),
            (ok, bad, "shift_profile must be finite")):
        with pytest.raises(ConfigurationError, match=error):
            ComplexPotential(grid, decay, shift, region=(0.0, np.inf))


# ---------------------------------------------------------------------------
# the Cayley step against a dense reference


def test_step_matches_dense_solve():
    """step is the solve (1 + iB)^{-1} psi, the step midpoint, and the
    Cayley update 2 step(psi) - psi is the Crank-Nicolson step."""
    rng = np.random.default_rng(3)
    n, h, dt = 16, 0.7, 0.13
    v = rng.normal(size=n) - 1j * rng.uniform(0.0, 0.5, size=n)
    ham = np.diag(1.0 / h**2 + v) + np.diag(np.full(n - 1, -0.5 / h**2), 1) \
        + np.diag(np.full(n - 1, -0.5 / h**2), -1)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    stepper = CrankNicolson1D(n, h, v, dt)
    forward = np.eye(n) + 0.5j * dt * ham
    mid = stepper.step(psi)
    np.testing.assert_allclose(mid, np.linalg.solve(forward, psi), atol=1e-13)
    expected = np.linalg.solve(forward, (np.eye(n) - 0.5j * dt * ham) @ psi)
    np.testing.assert_allclose(2.0 * mid - psi, expected, atol=1e-13)


def test_density_on_decay_support_matches_full_grid():
    """The density is summed over the first-to-last nonzero decay entries
    only; on a profile that is zero at both ends and in an interior gap it
    equals the full-grid midpoint formula, step by step."""
    u = make_units()
    packet = slow_packet(k0_int=2.0, sigma_int=0.2)
    grid = internal_grid(-30.0, 30.0, 0.1)
    x = grid.points() / L0
    decay = np.where(((x >= -6.0) & (x <= -2.0)) | ((x >= 1.0) & (x <= 5.0)),
                     0.2 * u.reference_frequency, 0.0)
    pot = ComplexPotential(grid, decay, np.zeros_like(decay), region=(-6.0 * L0, 5.0 * L0))
    psi0 = free_evolved_packet(packet, 0.0, grid)
    traj = propagate_conditional(psi0, pot, (0.0, 1.0 * T0), 0.01 * T0,
                                 mass=packet.mass, snapshots=101)
    snaps = traj.snapshots[0]
    assert snaps.shape[0] == traj.times.size
    full = np.array([np.sum(decay * grid.spacing * np.abs(0.5 * (a + b)) ** 2)
                     for a, b in zip(snaps[:-1], snaps[1:])])
    peak = np.max(full)
    assert peak > 0.0
    assert np.max(np.abs(traj.detection_density - full)) < 1e-13 * peak


def test_two_channel_step_matches_dense_solve():
    """One step of the two-channel propagator against the dense Cayley map
    (1 + iB)^-1 (1 - iB) of the interleaved SI Hamiltonian."""
    rng = np.random.default_rng(5)
    u = make_units()
    mass = slow_packet().mass
    grid = internal_grid(-3.0, 3.0, 0.5)
    n = grid.n_points
    # a per-point Rabi profile: a table over the grid points
    peak = 0.3 * u.reference_frequency
    lit = TabulatedSensitivity(grid.points(), rng.uniform(0.0, 1.0, n))
    rabi = peak * lit.values
    detuning, linewidth = 0.1 * u.reference_frequency, 0.5 * u.reference_frequency
    dt = 0.1 * T0
    ground = rng.normal(size=n) + 1j * rng.normal(size=n)
    excited = rng.normal(size=n) + 1j * rng.normal(size=n)
    # random fields are launched off norm 1
    with pytest.warns(UserWarning, match="initial norm"):
        traj = propagate_two_channel(ground, excited, peak, lit, detuning, linewidth,
                                     grid, (0.0, dt), dt, mass=mass)
    # H / hbar on the interleaved (ground, excited) grid, in 1/s
    kin = HBAR / (2.0 * mass * grid.spacing ** 2)
    diag = np.full(2 * n, 2.0 * kin, dtype=complex)
    diag[1::2] += -detuning - 0.5j * linewidth
    off1 = np.zeros(2 * n - 1)
    off1[0::2] = 0.5 * rabi
    ham = (np.diag(diag) + np.diag(off1, 1) + np.diag(off1, -1)
           + np.diag(np.full(2 * n - 2, -kin), 2) + np.diag(np.full(2 * n - 2, -kin), -2))
    y = np.empty(2 * n, dtype=complex)
    y[0::2], y[1::2] = ground, excited
    ident = np.eye(2 * n)
    expected = np.linalg.solve(ident + 0.5j * dt * ham, (ident - 0.5j * dt * ham) @ y)
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(traj.final_fields[0], expected[0::2], rtol=0,
                               atol=1e-13 * scale)
    np.testing.assert_allclose(traj.final_fields[1], expected[1::2], rtol=0,
                               atol=1e-13 * scale)



def test_only_the_one_channel_loop_calls_the_cn_step(monkeypatch):
    """The one-channel loop calls CrankNicolson1D.step once per step and the
    two-channel loop never does: per-step timings taken by wrapping that
    method count on both."""
    calls = []
    original = CrankNicolson1D.step

    def counted(self, psi):
        calls.append(psi.size)
        return original(self, psi)

    monkeypatch.setattr(CrankNicolson1D, "step", counted)
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-90.0, 90.0, 0.1)
    psi0 = free_evolved_packet(packet, -1.0 * T0, grid)
    pot = build_conditional_potential(0.2 * u.reference_frequency, 0.0,
                                      HalfLineSensitivity(), grid)
    traj = propagate_conditional(psi0, pot, (-1.0 * T0, 1.0 * T0), 0.02 * T0,
                                 mass=packet.mass)
    assert len(calls) == len(traj.times) - 1
    calls.clear()
    propagate_two_channel(psi0, np.zeros_like(psi0), 0.3 * u.reference_frequency,
                          _lit(0.0, 20.0), 0.1 * u.reference_frequency,
                          0.5 * u.reference_frequency, grid, (-1.0 * T0, 1.0 * T0),
                          0.02 * T0, mass=packet.mass)
    assert calls == []

# ---------------------------------------------------------------------------
# propagation: free limit, drain identity, convergence


def _free_run(dt_t0=0.01, span=(-1.0, 1.0)):
    packet = slow_packet()
    # 7 sigma of clearance: the analytic tail the grid cannot hold is ~1e-13
    # of the mass; h = 0.025 puts the Laplacian dispersion error near 4e-6
    grid = internal_grid(-90.0, 90.0, 0.025)
    pot = build_conditional_potential(0.0, 0.0, HalfLineSensitivity(), grid)
    psi0 = free_evolved_packet(packet, span[0] * T0, grid)
    traj = propagate_conditional(psi0, pot, (span[0] * T0, span[1] * T0),
                                 dt_t0 * T0, mass=packet.mass)
    return packet, grid, traj


def test_free_propagation_matches_analytic():
    packet, grid, traj = _free_run()
    exact = free_evolved_packet(packet, 1.0 * T0, grid)
    assert l2_distance(grid, traj.final_fields[0], exact) < 1e-5
    assert traj.final_survival == pytest.approx(1.0, abs=1e-9)
    assert np.all(traj.detection_density == 0.0)
    # zero-decay run: the checker has nothing to compare and reports 0
    assert norm_balance(traj)["continuity_residual_relative"] == 0.0


@pytest.fixture(scope="module")
def absorbing_run():
    packet = slow_packet()
    grid = internal_grid(-90.0, 90.0, 0.05)
    units = make_units()
    pot = build_conditional_potential(0.2 * units.reference_frequency,
                                      -0.3 * units.reference_frequency,
                                      IntervalSensitivity(20.0 * L0, start=-10.0 * L0),
                                      grid)
    psi0 = free_evolved_packet(packet, 0.0, grid)
    traj = propagate_conditional(psi0, pot, (0.0, 2.0 * T0), 0.005 * T0,
                                 mass=packet.mass)
    return packet, grid, pot, traj


def test_drain_identity_is_exact(absorbing_run):
    """w1 at midpoints equals the per-step survival drop to roundoff; this is
    a property of the Cayley step, not of small dt."""
    _, _, _, traj = absorbing_run
    dt = traj.times[1] - traj.times[0]
    drain = -np.diff(traj.no_detection_prob) / dt
    peak = np.max(traj.detection_density)
    assert peak > 0.0
    assert np.max(np.abs(traj.detection_density - drain)) < 1e-12 * peak
    budget = traj.no_detection_prob[0] - traj.no_detection_prob[-1]
    assert np.sum(traj.detection_density) * dt == pytest.approx(budget, abs=1e-13)
    balance = norm_balance(traj)
    assert balance["continuity_residual_relative"] < 1e-12
    # the gap against 1 also carries the launch norm's truncated tail
    assert balance["detection_integral_gap"] == pytest.approx(
        1.0 - traj.no_detection_prob[0], abs=1e-13)


def test_mass_split_is_consistent(absorbing_run):
    _, _, _, traj = absorbing_run
    with pytest.warns(UserWarning, match="residual mass"):
        split = mass_accounting(traj)
    assert set(split) == {"reflected", "transmitted_undetected",
                          "residual_in_region", "detected"}
    assert sum(split.values()) == pytest.approx(1.0, abs=1e-9)
    # ledger entries are fractions of the launched norm, which differs from
    # 1 by the truncated analytic tail
    norm0 = traj.no_detection_prob[0]
    assert split["detected"] == pytest.approx(
        (norm0 - traj.final_survival) / norm0, rel=1e-12)
    assert split["detected"] == pytest.approx(1.0 - traj.final_survival, abs=1e-7)
    assert all(v > -1e-12 for v in split.values())


def test_tampered_density_is_caught(absorbing_run):
    _, _, pot, traj = absorbing_run
    w1 = traj.detection_density.copy()
    try:
        idx = int(np.argmax(traj.detection_density))
        traj.detection_density[idx] *= 1.01
        with pytest.raises(NumericsError, match="disagrees"):
            norm_balance(traj)
    finally:
        traj.detection_density[:] = w1


def test_roundoff_drain_is_not_an_imbalance(absorbing_run):
    """A detector too weak to drain more than roundoff per step: the
    residual is reported, not raised."""
    packet, grid, _, _ = absorbing_run
    weak = build_conditional_potential(1e-12 * make_units().reference_frequency, 0.0,
                                       IntervalSensitivity(20.0 * L0, start=-10.0 * L0),
                                       grid)
    traj = propagate_conditional(free_evolved_packet(packet, 0.0, grid), weak,
                                 (0.0, 0.2 * T0), 0.005 * T0, mass=packet.mass)
    dt = traj.times[1] - traj.times[0]
    peak_loss = dt * np.max(traj.detection_density)
    assert 0.0 < peak_loss < 1e-14
    resid_loss = norm_balance(traj)["continuity_residual_relative"] * peak_loss
    assert resid_loss <= 64 * np.finfo(float).eps * traj.no_detection_prob[0]


def test_dt_refinement_is_converged(absorbing_run):
    packet, grid, pot, traj = absorbing_run
    psi0 = free_evolved_packet(packet, 0.0, grid)
    fine = propagate_conditional(psi0, pot, (0.0, 2.0 * T0), 0.0025 * T0,
                                 mass=packet.mass)
    assert abs(fine.final_survival - traj.final_survival) < 1e-6
    assert l2_distance(grid, fine.final_fields[0], traj.final_fields[0]) < 1e-4


def _assert_refined(run, dt, vmax):
    """run() at requested step dt over the phase budget: one refinement
    warning, and the step used is dt/N for the least N within the budget."""
    with pytest.warns(UserWarning) as record:
        traj = run()
    refined = [str(w.message) for w in record if "time step refined" in str(w.message)]
    n = int(np.ceil(dt * vmax / (HBAR * PHASE_BUDGET)))
    assert n > 1
    assert refined == [f"time step refined x{n} to respect the potential phase bound "
                       "dt|V|/hbar < 0.1"]
    assert traj.dt == dt / n
    return traj


def _assert_same_run(a, b):
    for name in ("times", "detection_density_times", "detection_density",
                 "snapshot_times", "snapshots"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.norms.keys() == b.norms.keys()
    for key in a.norms:
        np.testing.assert_array_equal(a.norms[key], b.norms[key])


def test_step_over_the_budget_is_the_run_at_the_refined_step(absorbing_run):
    """Requested at 2.4x the phase budget, the step is divided by 3 with one
    warning, and the run equals the direct run at dt/3 bit for bit."""
    packet, grid, pot, _ = absorbing_run
    psi0 = free_evolved_packet(packet, 0.0, grid)
    dt = 2.4 * PHASE_BUDGET * HBAR / pot.max_magnitude
    span = (0.0, 4.0 * dt)
    coarse = _assert_refined(
        lambda: propagate_conditional(psi0, pot, span, dt, mass=packet.mass), dt,
        pot.max_magnitude)
    fine = propagate_conditional(psi0, pot, span, dt / 3, mass=packet.mass)
    assert coarse.dt == fine.dt == dt / 3
    _assert_same_run(coarse, fine)


def test_two_channel_step_over_the_budget_is_the_run_at_the_refined_step():
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-90.0, 90.0, 0.2)
    rabi = 0.3 * u.reference_frequency
    detuning, linewidth = 0.1 * u.reference_frequency, 0.5 * u.reference_frequency
    vmax = two_channel_vmax(rabi, detuning, linewidth)
    ground0 = free_evolved_packet(packet, -2.0 * T0, grid)

    def run(dt):
        return propagate_two_channel(ground0, np.zeros_like(ground0), rabi, _lit(0.0, 20.0),
                                     detuning, linewidth, grid,
                                     (-2.0 * T0, -2.0 * T0 + 4.0 * dt0), dt, mass=packet.mass)

    dt0 = 2.4 * PHASE_BUDGET * HBAR / vmax
    coarse = _assert_refined(lambda: run(dt0), dt0, vmax)
    fine = run(dt0 / 3)
    assert fine.dt == dt0 / 3
    _assert_same_run(coarse, fine)


def test_snapshots_and_csv(absorbing_run, tmp_path):
    packet, grid, pot, traj = absorbing_run
    psi0 = free_evolved_packet(packet, 0.0, grid)
    short = propagate_conditional(psi0, pot, (0.0, 1.0 * T0), 0.005 * T0,
                                  mass=packet.mass, snapshots=5)
    assert short.snapshot_times.shape == (5,)
    assert short.snapshots.shape == (1, 5, grid.n_points)
    assert short.final_fields.shape == (1, grid.n_points)
    # first snapshot round trips through the internal rescaling
    np.testing.assert_allclose(short.snapshots[0, 0], psi0, rtol=1e-14, atol=1e-12)
    np.testing.assert_array_equal(short.snapshots[0, -1], short.final_fields[0])
    short.to_csv(tmp_path / "run.csv")
    cols = read_csv(tmp_path / "run.csv")
    assert list(cols) == ["t_s", "no_detection_prob", "detection_density_per_s"]
    np.testing.assert_array_equal(cols["t_s"], short.detection_density_times)
    short.snapshots_to_csv(tmp_path / "snaps.csv")
    snap_cols = read_csv(tmp_path / "snaps.csv")
    assert len(snap_cols) == 1 + 2 * 5
    np.testing.assert_array_equal(snap_cols["x_m"], grid.points())


def test_initial_norm_mismatch_is_flagged(absorbing_run):
    packet, grid, pot, _ = absorbing_run
    # a deliberately under-normalized launch state (an over-normalized one
    # would put the survival series above 1, which is rejected outright)
    psi0 = 0.9 * free_evolved_packet(packet, 0.0, grid)
    with pytest.warns(UserWarning, match="renormalized"):
        traj = propagate_conditional(psi0, pot, (0.0, 0.1 * T0), 0.005 * T0,
                                     mass=packet.mass)
    with pytest.warns(UserWarning, match="residual mass"):
        assert sum(mass_accounting(traj).values()) == pytest.approx(1.0, abs=1e-9)


def test_over_normalized_launch_fails_before_the_first_step(absorbing_run, monkeypatch):
    """A launch norm above 1 would put P0 above 1: it is a configuration
    error before any step, not a warning and then a NumericsError after the
    whole run."""
    packet, grid, pot, _ = absorbing_run
    psi0 = np.sqrt(1.01) * free_evolved_packet(packet, 0.0, grid)
    calls = []
    original = CrankNicolson1D.step

    def counted(self, psi):
        calls.append(psi.size)
        return original(self, psi)

    monkeypatch.setattr(CrankNicolson1D, "step", counted)
    with (warnings.catch_warnings(record=True) as caught,
          pytest.raises(ConfigurationError, match=r"^initial norm .* exceeds 1$")):
        warnings.simplefilter("always")
        propagate_conditional(psi0, pot, (0.0, 0.1 * T0), 0.005 * T0, mass=packet.mass)
    assert calls == [] and caught == []


def test_edge_mass_triggers_warning():
    """The packet reaches the ends of a +-20 l0 grid, which also cuts off
    its launch tails: one edge-mass and one initial-norm warning."""
    packet = slow_packet()
    grid = internal_grid(-20.0, 20.0, 0.05)
    pot = build_conditional_potential(0.0, 0.0, HalfLineSensitivity(), grid)
    psi0 = free_evolved_packet(packet, 0.0, grid)
    with pytest.warns(UserWarning) as record:
        propagate_conditional(psi0, pot, (0.0, 0.5 * T0), 0.01 * T0, mass=packet.mass)
    first, second = sorted(str(w.message) for w in record)
    assert first.startswith("edge mass reached") and second.startswith("initial norm")


def test_propagation_guards():
    packet = slow_packet()
    grid = internal_grid(-10.0, 10.0, 0.1)
    pot = build_conditional_potential(0.0, 0.0, HalfLineSensitivity(), grid)
    psi0 = free_evolved_packet(packet, 0.0, grid)
    hot = build_conditional_potential(1.0e12, 0.0, HalfLineSensitivity(), grid)
    # a step over the phase budget is refined, not rejected
    _assert_refined(lambda: propagate_conditional(psi0, hot, (0.0, 0.1 * T0), 0.01 * T0,
                                                  mass=packet.mass),
                    0.01 * T0, hot.max_magnitude)
    # an infinite shift is an error, not an unbounded refinement
    with np.errstate(invalid="ignore"), pytest.raises(ConfigurationError, match="finite"):
        unbounded = build_conditional_potential(0.0, np.inf, HalfLineSensitivity(), grid)
        propagate_conditional(psi0, unbounded, (0.0, 1.0 * T0), 0.01 * T0,
                              mass=packet.mass)
    with pytest.raises(ConfigurationError, match="kinetic"):
        propagate_conditional(psi0, pot, (0.0, 16.0 * T0), 8.0 * T0,
                              mass=packet.mass)
    with pytest.raises(ConfigurationError, match="integer number"):
        propagate_conditional(psi0, pot, (0.0, 1.0 * T0), 0.3 * T0,
                              mass=packet.mass)
    with pytest.raises(ConfigurationError, match="shape"):
        propagate_conditional(psi0[:-1], pot, (0.0, 1.0 * T0), 0.01 * T0,
                              mass=packet.mass)
    with pytest.raises(ConfigurationError, match="increasing"):
        propagate_conditional(psi0, pot, (1.0 * T0, 0.0), 0.01 * T0,
                              mass=packet.mass)
    with pytest.raises(ConfigurationError, match="positive"):
        propagate_conditional(psi0, pot, (0.0, 1.0 * T0), -0.01 * T0,
                              mass=packet.mass)
    with pytest.raises(ConfigurationError, match="zero norm"):
        propagate_conditional(np.zeros(grid.n_points, dtype=complex), pot,
                              (0.0, 0.1 * T0), 0.01 * T0, mass=packet.mass)


def _fake_trajectory(p0, norms=()):
    grid = internal_grid(-2.0, 2.0, 0.5)
    n = len(p0) - 1
    return ConditionalTrajectory(
        grid=grid, times=np.arange(n + 1, dtype=float), dt=1.0,
        norms={"no_detection_prob": np.asarray(p0, dtype=float), **dict(norms)},
        detection_density_times=np.arange(n) + 0.5,
        detection_density=np.zeros(n),
        snapshot_times=np.array([0.0, float(n)]),
        snapshots=np.zeros((1, 2, grid.n_points), dtype=complex),
        region=(0.0, 1.0))


def test_trajectory_record_rejects_bad_histories():
    with pytest.raises(NumericsError, match="increased"):
        _fake_trajectory([1.0, 0.9, 0.95, 0.9])
    with pytest.raises(NumericsError, match=r"left \[0, 1\]"):
        _fake_trajectory([1.2, 1.1, 1.0])
    # NaN compares false both ways: the checks must fail it, not pass it
    for p0 in ([1.0, np.nan, 0.8], [np.nan] * 3):
        with pytest.raises(NumericsError, match=r"left \[0, 1\]"):
            _fake_trajectory(p0)
    # only the lead norm is checked: the excited mass of a two-channel run
    # may rise
    _fake_trajectory([1.0, 0.9, 0.8], norms={"excited_mass": [0.0, 0.1, 0.2]})


def test_record_csv_columns_follow_the_norms(tmp_path):
    """One writer for both models: t_s, every norm averaged onto the
    midpoints in order, then the density."""
    traj = _fake_trajectory([1.0, 0.9, 0.8],
                            norms={"excited_mass": np.array([0.0, 0.1, 0.2])})
    traj.to_csv(tmp_path / "run.csv")
    cols = read_csv(tmp_path / "run.csv")
    assert list(cols) == ["t_s", "no_detection_prob", "excited_mass",
                          "detection_density_per_s"]
    np.testing.assert_allclose(cols["no_detection_prob"], [0.95, 0.85], rtol=1e-15)
    np.testing.assert_allclose(cols["excited_mass"], [0.05, 0.15], rtol=1e-15)


# ---------------------------------------------------------------------------
# two-channel fluorescence analog


def _lit(start_l0, width_l0):
    return IntervalSensitivity(width_l0 * L0, start=start_l0 * L0)


def test_two_channel_balance_and_drain():
    u = make_units()
    packet = slow_packet()
    # the packet spans ~+-80 l0 (7 sigma): a narrower grid reflects its tails
    grid = internal_grid(-90.0, 90.0, 0.1)
    ground0 = free_evolved_packet(packet, -2.0 * T0, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = propagate_two_channel(ground0, np.zeros_like(ground0),
                                     0.3 * u.reference_frequency, _lit(0.0, 20.0),
                                     0.1 * u.reference_frequency,
                                     0.5 * u.reference_frequency,
                                     grid, (-2.0 * T0, 2.0 * T0), 0.02 * T0,
                                     mass=packet.mass)
    dt = traj.times[1] - traj.times[0]
    p0 = traj.no_detection_prob
    drain = -np.diff(p0) / dt
    peak = np.max(traj.detection_density)
    assert peak > 0.0
    assert np.max(np.abs(traj.detection_density - drain)) < 1e-10 * peak
    emitted = np.sum(traj.detection_density) * dt
    assert p0[0] - p0[-1] == pytest.approx(emitted, abs=1e-12)
    assert np.all(traj.norms["excited_mass"] <= p0 + 1e-15)
    # the ledger counts the excited channel's mass too (0.055 of it here)
    assert traj.norms["excited_mass"][-1] > 0.05
    with pytest.warns(UserWarning, match="residual mass"):
        split = mass_accounting(traj)
    assert sum(split.values()) == pytest.approx(1.0, abs=1e-9)


def test_two_channel_with_dark_drive_is_free():
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-90.0, 90.0, 0.025)
    lit = _lit(0.0, 20.0)
    ground0 = free_evolved_packet(packet, -1.0 * T0, grid)
    traj = propagate_two_channel(ground0, np.zeros_like(ground0), 0.0, lit,
                                 0.3 * u.reference_frequency,
                                 1.0 * u.reference_frequency,
                                 grid, (-1.0 * T0, 1.0 * T0), 0.01 * T0,
                                 mass=packet.mass)
    exact = free_evolved_packet(packet, 1.0 * T0, grid)
    assert l2_distance(grid, traj.final_fields[0], exact) < 1e-5
    assert np.max(np.abs(traj.final_fields[1])) == 0.0
    assert np.max(traj.detection_density) == 0.0
    assert traj.final_survival == pytest.approx(1.0, abs=1e-9)
    # the region is the lit support, whether or not the drive is on
    assert traj.region == lit.support


def test_rabi_sign_is_a_phase_convention():
    """-rabi flips the excited channel's sign and nothing else: the same
    refinement, emission density and ground field, the same limit and the
    same adiabaticity ratio."""
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-90.0, 90.0, 0.2)
    ground0 = free_evolved_packet(packet, 0.0, grid)
    rabi, lit, linewidth = 0.3 * u.reference_frequency, _lit(0.0, 10.0), u.reference_frequency
    plus, minus = [propagate_two_channel(ground0, np.zeros_like(ground0), sign * rabi, lit,
                                         0.1 * u.reference_frequency, linewidth, grid,
                                         (0.0, 0.5 * T0), 0.02 * T0, mass=packet.mass)
                   for sign in (1.0, -1.0)]
    assert plus.dt == minus.dt
    peak = np.max(plus.detection_density)
    assert peak > 0.0
    np.testing.assert_allclose(minus.detection_density, plus.detection_density,
                               rtol=0, atol=1e-12 * peak)
    np.testing.assert_allclose(minus.final_fields * [[1.0], [-1.0]], plus.final_fields,
                               rtol=0, atol=1e-12 * np.max(np.abs(plus.final_fields)))
    for name in ("decay_profile", "shift_profile"):
        np.testing.assert_array_equal(
            getattr(one_channel_limit_potential(-rabi, lit, 0.1, 1.0, grid), name),
            getattr(one_channel_limit_potential(rabi, lit, 0.1, 1.0, grid), name))
    assert (adiabaticity_ratio(-1e9, 0.0, 1e8, 0.0) == adiabaticity_ratio(1e9, 0.0, 1e8, 0.0)
            == pytest.approx(0.1, rel=1e-15))


def test_two_channel_csv_and_snapshots(tmp_path):
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-90.0, 90.0, 0.2)
    ground0 = free_evolved_packet(packet, 0.0, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = propagate_two_channel(ground0, np.zeros_like(ground0),
                                     0.2 * u.reference_frequency, _lit(0.0, 10.0),
                                     0.0, 2.0 * u.reference_frequency, grid,
                                     (0.0, 1.0 * T0), 0.02 * T0,
                                     mass=packet.mass, snapshots=4)
    assert traj.snapshots.shape == (2, 4, grid.n_points)
    assert traj.final_fields.shape == (2, grid.n_points)
    np.testing.assert_array_equal(traj.snapshots[:, -1], traj.final_fields)
    traj.to_csv(tmp_path / "two.csv")
    cols = read_csv(tmp_path / "two.csv")
    assert list(cols) == ["t_s", "no_detection_prob", "excited_mass",
                          "detection_density_per_s"]


def test_both_propagators_keep_launch_and_final_fields_by_default():
    """Called without `snapshots`, either propagator keeps exactly two field
    snapshots: the launch field at t0 and the final field at t1."""
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-90.0, 90.0, 0.2)
    psi0 = free_evolved_packet(packet, 0.0, grid)
    span = (0.0, 1.0 * T0)
    pot = build_conditional_potential(2.0 * u.reference_frequency, 0.0, _lit(0.0, 10.0), grid)
    one = propagate_conditional(psi0, pot, span, 0.02 * T0, mass=packet.mass)
    two = propagate_two_channel(psi0, np.zeros_like(psi0), 0.2 * u.reference_frequency,
                                _lit(0.0, 10.0), 0.0, 2.0 * u.reference_frequency, grid,
                                span, 0.02 * T0, mass=packet.mass)
    for traj in (one, two):
        assert traj.times.size > 3
        np.testing.assert_array_equal(traj.snapshot_times, [traj.times[0], traj.times[-1]])
        assert traj.snapshot_times[-1] == pytest.approx(span[1], rel=1e-12)
        np.testing.assert_array_equal(traj.snapshots[:, -1], traj.final_fields)
    np.testing.assert_allclose(one.snapshots[0, 0], psi0, rtol=1e-14, atol=1e-12)
    # the final fields do not depend on how many snapshots are kept
    more = propagate_conditional(psi0, pot, span, 0.02 * T0, mass=packet.mass, snapshots=5)
    np.testing.assert_array_equal(more.final_fields, one.final_fields)


def test_two_channel_validation():
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-10.0, 10.0, 0.2)
    psi = free_evolved_packet(packet, 0.0, grid)
    zeros = np.zeros_like(psi)
    lit = HalfLineSensitivity()
    with pytest.raises(ConfigurationError, match="match the grid"):
        propagate_two_channel(psi[:-1], zeros[:-1], 0.0, lit, 0.0, u.reference_frequency,
                              grid, (0.0, 1.0 * T0), 0.01 * T0, mass=packet.mass)
    with pytest.raises(ConfigurationError, match="finite"):
        propagate_two_channel(psi, zeros, np.nan, lit, 0.0, u.reference_frequency,
                              grid, (0.0, 1.0 * T0), 0.01 * T0, mass=packet.mass)
    with pytest.raises(ConfigurationError, match="finite"):
        one_channel_limit_potential(np.nan, lit, 0.0, u.reference_frequency, grid)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        propagate_two_channel(psi, zeros, 0.0, lit, 0.0, -1.0, grid,
                              (0.0, 1.0 * T0), 0.01 * T0, mass=packet.mass)
    # a step over the phase budget is refined, not rejected
    _assert_refined(lambda: propagate_two_channel(
        psi, zeros, 0.0, lit, 0.0, 100.0 * u.reference_frequency, grid, (0.0, 1.0 * T0),
        0.05 * T0, mass=packet.mass),
        0.05 * T0, two_channel_vmax(0.0, 0.0, 100.0 * u.reference_frequency))


def test_two_channel_record_bounds_the_survival():
    """The two-channel run shares the check that P0 stays in [0, 1]: an
    over-normalized launch is rejected, in the shared core before any step,
    without a warning."""
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-90.0, 90.0, 0.2)
    psi = 1.2 * free_evolved_packet(packet, 0.0, grid)
    with (warnings.catch_warnings(record=True) as caught,
          pytest.raises(ConfigurationError, match=r"^initial norm .* exceeds 1$")):
        warnings.simplefilter("always")
        propagate_two_channel(psi, np.zeros_like(psi), 0.0, HalfLineSensitivity(), 0.0,
                              u.reference_frequency, grid, (0.0, 0.1 * T0), 0.01 * T0,
                              mass=packet.mass)
    assert caught == []


def test_two_channel_guards():
    """The same input checks as test_propagation_guards, through the shared
    propagation core."""
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-10.0, 10.0, 0.1)
    psi0 = free_evolved_packet(packet, 0.0, grid)
    zeros = np.zeros_like(psi0)
    lit = HalfLineSensitivity()
    lw = u.reference_frequency

    def run(ground=psi0, linewidth=lw, span=(0.0, 1.0 * T0), dt=0.01 * T0, **kw):
        return propagate_two_channel(ground, zeros, 0.0, lit, 0.0, linewidth, grid, span,
                                     dt, mass=packet.mass, **kw)

    _assert_refined(lambda: run(linewidth=1.0e12, span=(0.0, 0.1 * T0)),
                    0.01 * T0, two_channel_vmax(0.0, 0.0, 1.0e12))
    with pytest.raises(ConfigurationError, match="kinetic"):
        run(span=(0.0, 16.0 * T0), dt=8.0 * T0, linewidth=0.0)
    with pytest.raises(ConfigurationError, match="integer number"):
        run(dt=0.3 * T0, linewidth=0.0)
    with pytest.raises(ConfigurationError, match="shape"):
        run(ground=psi0[:-1])
    with pytest.raises(ConfigurationError, match="increasing"):
        run(span=(1.0 * T0, 0.0))
    with pytest.raises(ConfigurationError, match="positive"):
        run(dt=0.0)
    with pytest.raises(ConfigurationError, match="positive"):
        run(dt=-0.01 * T0)
    with pytest.raises(ConfigurationError, match="positive"):
        run(dt=np.nan)
    with pytest.raises(ConfigurationError, match="finite"):
        run(linewidth=np.inf)
    with pytest.raises(ConfigurationError, match="zero norm"):
        run(ground=zeros, span=(0.0, 0.1 * T0))
    with pytest.raises(ConfigurationError, match="mass"):
        propagate_two_channel(psi0, zeros, 0.0, lit, 0.0, lw, grid, (0.0, 1.0 * T0),
                              0.01 * T0, mass=0.0)


# ---------------------------------------------------------------------------
# one-channel reduction


def test_one_channel_potential_hand_values():
    grid = internal_grid(-2.0, 2.0, 0.5)
    pot = one_channel_limit_potential(2.0, HalfLineSensitivity(grid.x_min), 3.0, 4.0, grid)
    denom = 4.0 * 9.0 + 16.0
    np.testing.assert_allclose(pot.decay_profile, 4.0 * 4.0 / denom, rtol=1e-15)
    np.testing.assert_allclose(pot.shift_profile, 2.0 * 3.0 * 4.0 / denom, rtol=1e-15)
    np.testing.assert_allclose(
        pot.values, 0.5 * HBAR * (24.0 / denom - 1j * 16.0 / denom), rtol=1e-15)


def test_one_channel_potential_limits():
    grid = internal_grid(-2.0, 2.0, 0.5)
    ramp = TabulatedSensitivity(grid.points(), np.linspace(0.0, 1.0, grid.n_points))
    rabi = 2.0 * ramp.values
    resonant = one_channel_limit_potential(2.0, ramp, 0.0, 4.0, grid)
    assert np.all(resonant.values.real == 0.0)
    np.testing.assert_allclose(resonant.decay_profile, rabi ** 2 / 4.0, rtol=1e-15)
    lossless = one_channel_limit_potential(2.0, ramp, 3.0, 0.0, grid)
    assert np.all(lossless.values.imag == 0.0)
    np.testing.assert_allclose(lossless.shift_profile, rabi ** 2 / 6.0, rtol=1e-15)
    with pytest.raises(ConfigurationError, match="both vanish"):
        one_channel_limit_potential(2.0, ramp, 0.0, 0.0, grid)


def test_one_channel_region_defaults_to_lit_extent():
    """The limit potential's region is the lit sensitivity's support, as
    for any detector potential."""
    grid = internal_grid(-2.0, 2.0, 0.5)
    lit = IntervalSensitivity(1.2 * L0, start=-0.7 * L0)
    pot = one_channel_limit_potential(1.0, lit, 0.0, 1.0, grid)
    assert pot.region == lit.support == (-0.7 * L0, -0.7 * L0 + 1.2 * L0)


@pytest.mark.parametrize("lit, rtol", [
    (IntervalSensitivity(3.3 * L0, start=-1.1 * L0), 0.0),
    # (rabi^2 rates) lit^2 rounds five times, (rabi lit)^2 rates four times
    (TabulatedSensitivity([-4.0 * L0, 0.5 * L0, 3.0 * L0], [0.0, 1.0, 0.2]),
     4 * np.finfo(float).eps),
], ids=["interval", "tabulated-ramp"])
def test_one_channel_potential_is_the_rate_form_on_lit(lit, rtol):
    """The two-level rates times lit(x)^2 reproduce the profile formula
    linewidth (Omega chi)^2 / denom and 2 detuning (Omega chi)^2 / denom:
    bit for bit on an indicator, to rounding on a ramp."""
    grid = internal_grid(-5.0, 5.0, 0.01)
    rabi, detuning, linewidth = 0.7e8, -0.3e8, 1.9e9
    omega = rabi * lit(grid.points())
    denom = 4.0 * detuning ** 2 + linewidth ** 2
    pot = one_channel_limit_potential(rabi, lit, detuning, linewidth, grid)
    for got, want in ((pot.decay_profile, linewidth * omega ** 2 / denom),
                      (pot.shift_profile, 2.0 * detuning * omega ** 2 / denom)):
        if rtol:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0)
        else:
            np.testing.assert_array_equal(got, want)


def test_two_channel_region_is_the_lit_support():
    """The two-channel record, and the limit potential on the same lit
    region, carry the sensitivity's support as their region."""
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-90.0, 90.0, 0.2)
    lit = _lit(3.05, 9.93)
    ground0 = free_evolved_packet(packet, 0.0, grid)
    traj = propagate_two_channel(ground0, np.zeros_like(ground0), 0.2 * u.reference_frequency,
                                 lit, 0.0, 2.0 * u.reference_frequency, grid,
                                 (0.0, 0.1 * T0), 0.02 * T0, mass=packet.mass)
    limit = one_channel_limit_potential(0.2 * u.reference_frequency, lit, 0.0,
                                        2.0 * u.reference_frequency, grid)
    assert traj.region == lit.support == limit.region


@pytest.mark.parametrize("norm", [0.99, 1.01])
def test_two_channel_initial_norm_mismatch_is_flagged(norm):
    """The two-channel launch warns of an initial norm below 1 as the
    one-channel one does, at the caller's line; over 1, it fails before the
    first step."""
    u = make_units()
    packet = slow_packet()
    grid = internal_grid(-90.0, 90.0, 0.2)
    ground0 = np.sqrt(norm) * free_evolved_packet(packet, 0.0, grid)
    outcome = (pytest.raises(ConfigurationError, match=r"^initial norm .* exceeds 1$")
               if norm > 1.0 else
               pytest.warns(UserWarning, match="initial norm .* differs from 1"))
    with outcome as record:
        propagate_two_channel(ground0, np.zeros_like(ground0), 0.0, _lit(0.0, 10.0), 0.0,
                              u.reference_frequency, grid, (0.0, 0.1 * T0), 0.02 * T0,
                              mass=packet.mass)
    if norm < 1.0:
        assert [w.filename for w in record] == [__file__]


def test_adiabaticity_ratio_definition():
    ek = 0.2 * HBAR
    expected = 0.5 * HBAR * abs(2.0 * 3.0 + 1j * 4.0) / max(0.5 * HBAR * 2.0, ek)
    assert adiabaticity_ratio(2.0, 3.0, 4.0, ek) == pytest.approx(expected, rel=1e-15)
    assert adiabaticity_ratio(0.0, 3.0, 4.0, 0.0) == np.inf


def test_strong_damping_reduction_tracks_two_channel():
    """Condition ratio ~40: the eliminated-channel density agrees with the
    full pair of fields to a few percent."""
    u = make_units()
    packet = slow_packet(k0_int=0.5, sigma_int=0.05)
    grid = internal_grid(-95.0, 95.0, 0.1)
    rabi, lit = 0.25 * u.reference_frequency, _lit(0.0, 15.0)
    linewidth = 10.0 * u.reference_frequency
    # launch 4.5 sigma short of the lit region: the excited field rings up
    # as the packet enters instead of jumping at t0
    span = (-80.0 * T0, 60.0 * T0)
    dt = 0.01 * T0
    ground0 = free_evolved_packet(packet, span[0], grid)
    two = propagate_two_channel(ground0, np.zeros_like(ground0), rabi, lit, 0.0,
                                linewidth, grid, span, dt, mass=packet.mass)
    pot = one_channel_limit_potential(rabi, lit, 0.0, linewidth, grid)
    one = propagate_conditional(ground0, pot, span, dt, mass=packet.mass)
    ek = packet.mass * packet.mean_velocity ** 2 / 2.0
    assert adiabaticity_ratio(0.25 * u.reference_frequency, 0.0, linewidth, ek) >= 20.0
    np.testing.assert_array_equal(two.detection_density_times,
                                  one.detection_density_times)
    peak = np.max(two.detection_density)
    assert peak > 0.0
    gap = np.max(np.abs(two.detection_density - one.detection_density))
    assert gap / peak < 0.08
    # both runs drain a comparable total
    emitted_two = 1.0 - two.final_survival
    emitted_one = 1.0 - one.final_survival
    assert emitted_two == pytest.approx(emitted_one, rel=0.05)
