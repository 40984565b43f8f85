"""Conditional (no-detection) wave packet propagation on a 1D grid.

The no-detection branch of the dynamics is generated by a non-Hermitian
Hamiltonian

    H = p^2 / (2m) + V(x),   V(x) = (hbar/2) * (shift(x) - i * decay(x)),

with decay(x) >= 0, so the norm of the evolving field can only shrink.
The lost norm is the cumulative detection probability and its rate

    w1(t) = integral decay(x) |psi(x, t)|^2 dx = -d/dt ||psi||^2

is the arrival-time density.  Time stepping uses the Cayley form of
Crank-Nicolson,

    (1 + i dt H / 2) psi_{n+1} = (1 - i dt H / 2) psi_n,

with the kinetic term discretized by the standard 3-point Laplacian.  For
Im V <= 0 the scheme is contractive at any dt: with B = dt (H_h + H_a)/2
split into Hermitian and anti-Hermitian discrete parts, the step map is
(1 + iB)^{-1} (1 - iB) and ||(1 - iB)y||^2 - ||(1 + iB)y||^2 =
4 Im<y|B y> <= 0.  Equality holds exactly when the field does not overlap
the decay profile.  Since 1 - iB = 2 - (1 + iB), the step is

    mid = (1 + iB)^{-1} psi_n,   psi_{n+1} = 2 mid - psi_n,

one solve and no explicit product; the solve output mid is the step
midpoint (psi_n + psi_{n+1})/2, where the density is sampled.

The same stepper, on an interleaved two-channel grid, propagates the
fluorescence analog

    H = p^2/(2m) x 1 + (hbar/2) [[0, Omega(x)], [Omega(x), -2*detuning - i*linewidth]],

with Omega(x) = rabi * lit(x) on a lit Sensitivity.  Its strong-damping
limit is the detector's potential form with two-level rates on lit
(one_channel_limit_potential).

Both propagators share one core (_propagate: validation, units, step loop,
density, norms, edge mass, initial norm) that returns one record,
ConditionalTrajectory; they supply only their solve y -> (1 + iB)^{-1} y
(LAPACK zgttrs for one channel, SuperLU on the interleaved pair), the
decay rates of their draining channel (the detector's decay profile, or
the linewidth on the excited channel) and their region.  The core reads
the density off the solve's output and applies the Cayley update once.
Norms are plain (pairwise) sums h * sum |psi|^2, as is the mass ledger
(analysis.mass_accounting), and norm_balance checks the drain identity on
either model's record.  The norms are computed from the field alone, never
from the density, so that check stays a real test.  Edge mass and an
initial norm below 1 raise UserWarnings; an initial norm above 1 is a
ConfigurationError.  LAPACK is imported with the module, in a run's set-up;
scipy.sparse only by the two-channel run, its one user.

dt is the requested step.  time_step divides it to keep the potential phase
per step within PHASE_BUDGET, and the core warns when it divides; the step
used is the record's dt.

All public inputs and outputs are SI; internally fields and operators are
rescaled to detector units (see units.UnitSystem) before factoring the
step matrices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigurationError, NumericsError, checked_count, checked_scalar
from .model import Grid1D, Sensitivity
from .units import HBAR, UnitSystem

__all__ = [
    "ComplexPotential",
    "ConditionalTrajectory",
    "CrankNicolson1D",
    "build_conditional_potential",
    "propagate_conditional",
    "norm_balance",
    "propagate_two_channel",
    "two_channel_vmax",
    "time_step",
    "one_channel_limit_potential",
    "adiabaticity_ratio",
]

# Fraction of total mass tolerated near the grid edges before the run is
# flagged as contaminated by boundary reflections.
EDGE_MASS_WARN = 1e-6
EDGE_CELLS = 5
# largest potential phase per step, dt |V|max / hbar; a larger requested
# step is divided down to it
PHASE_BUDGET = 0.09
# largest step used, in units of the grid kinetic time 2 m dx^2 pi / hbar:
# a blunt guard against grossly unresolved kinetic phases
KINETIC_SAFETY = 64.0
# rounding of a per-step survival drop P0(n) - P0(n+1), relative to P0(0):
# plain sums of up to ~1e5 terms each carry a few ulp
DRAIN_ROUNDOFF = 64 * np.finfo(float).eps
# largest drain-identity residual of a run, relative to the peak density
DRAIN_TOLERANCE = 1e-3


@dataclass(frozen=True)
class ComplexPotential:
    """Complex detector potential sampled on a grid: the decay and shift
    profiles (1/s), from which values (joules) follows.  A nonnegative
    decay profile is Im V <= 0 everywhere.
    """

    grid: Grid1D
    decay_profile: np.ndarray
    shift_profile: np.ndarray
    region: tuple[float, float]

    def __post_init__(self):
        n = self.grid.n_points
        for name in ("decay_profile", "shift_profile"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ConfigurationError(f"{name} must have shape ({n},)")
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"{name} must be finite")
        if np.any(self.decay_profile < 0.0):
            raise ConfigurationError("decay profile must be nonnegative")

    @property
    def values(self) -> np.ndarray:
        """V[j] = (hbar/2) * (shift_profile[j] - 1j * decay_profile[j])."""
        return 0.5 * HBAR * (self.shift_profile - 1j * self.decay_profile)

    @property
    def max_magnitude(self) -> float:
        return float(np.max(np.abs(self.values)))


def build_conditional_potential(decay_rate: float, level_shift: float,
                                sensitivity: Sensitivity, grid: Grid1D) -> ComplexPotential:
    """Assemble V(x) = (hbar/2)(shift - i decay) * chi(x)^2 on the grid.

    decay_rate and level_shift are scalars (1/s) multiplying the squared
    sensitivity profile; a negative decay rate is rejected, as gain is
    outside the model.  A profile already sampled on the grid (a rate map
    evaluated along the axis) builds a ComplexPotential directly.
    """
    chi2 = np.asarray(sensitivity(grid.points()), dtype=float) ** 2
    decay = checked_scalar("decay_rate", decay_rate, "nonnegative") * chi2
    shift = checked_scalar("level_shift", level_shift) * chi2
    lo, hi = sensitivity.support
    return ComplexPotential(grid=grid, decay_profile=decay,
                            shift_profile=shift, region=(float(lo), float(hi)))


class CrankNicolson1D:
    """Prefactored Crank-Nicolson step for one field on a uniform grid.

    Works in dimensionless detector units: the caller supplies the
    potential as V / (hbar * omega_ref) and the time step as dt * omega_ref;
    the grid spacing must already be in units of the associated length.
    The forward matrix 1 + iB is tridiagonal, factored by LAPACK zgttrf.
    step(psi) is one zgttrs solve, (1 + iB)^{-1} psi: the midpoint
    (psi + next)/2 of the Crank-Nicolson step from psi, whose next state is
    2 step(psi) - psi.
    """

    def __init__(self, n_points: int, spacing: float, potential: np.ndarray, dt: float):
        h2 = spacing * spacing
        z = 0.5j * dt
        # H psi = -(psi'' )/2 + V psi with the 3-point Laplacian
        diag = 1.0 + z * (1.0 / h2 + potential.astype(complex))
        dl = np.full(n_points - 1, z * (-0.5 / h2), dtype=complex)
        *self._factors, info = lapack.zgttrf(dl, diag, dl.copy())
        if info != 0:
            raise NumericsError(f"step matrix factorization failed (info={info})")

    def step(self, psi: np.ndarray) -> np.ndarray:
        out, info = lapack.zgttrs(*self._factors, psi)
        if info != 0:
            raise NumericsError(f"tridiagonal solve failed (info={info})")
        return out


@dataclass
class ConditionalTrajectory:
    """Record of one conditional run of either propagator: norm series,
    detection density and sparse field snapshots.

    norms maps CSV column names to series on the step boundaries (`times`),
    led by no_detection_prob, the survival probability P0; the two-channel
    run adds excited_mass.  The detection density lives on the step
    midpoints (`detection_density_times`), where the scheme satisfies
    [P0(n) - P0(n+1)]/dt = w1(midpoint) exactly.  Sampling it at the nodes
    instead would bias it against the P0 drain by the factor 1 + (E dt)^2/4
    from the fast kinetic phase.  dt is the step used, the requested one
    divided down to PHASE_BUDGET.  snapshots are (channel, index, x), in SI,
    the last being final_fields; channel 0 is the ground field.  region
    is the support of the detector's sensitivity (of the lit region, for the
    two-channel run), which the mass ledger splits the final field around.
    """

    grid: Grid1D
    times: np.ndarray
    dt: float
    norms: dict[str, np.ndarray]
    detection_density_times: np.ndarray
    detection_density: np.ndarray
    snapshot_times: np.ndarray
    snapshots: np.ndarray
    region: tuple[float, float]

    def __post_init__(self):
        p0 = self.no_detection_prob
        if not np.all((p0 >= -1e-12) & (p0 <= 1.0 + 1e-8)):
            raise NumericsError("survival probability left [0, 1]")
        if not np.all(np.diff(p0) <= 1e-10):
            raise NumericsError("survival probability increased between steps")

    @property
    def no_detection_prob(self) -> np.ndarray:
        """The survival probability P0, the lead norm series."""
        return self.norms["no_detection_prob"]

    @property
    def final_survival(self) -> float:
        return float(self.no_detection_prob[-1])

    @property
    def final_fields(self) -> np.ndarray:
        """The fields at the end of the run, the last snapshot (channel, x)."""
        return self.snapshots[:, -1]

    def to_csv(self, path) -> None:
        """Rows on the midpoint grid; every norm is averaged onto it."""
        from .output import write_csv
        mids = [0.5 * (v[:-1] + v[1:]) for v in self.norms.values()]
        write_csv(path, ["t_s", *self.norms, "detection_density_per_s"],
                  [self.detection_density_times, *mids, self.detection_density])

    def snapshots_to_csv(self, path) -> None:
        """Channel 0's snapshots, one real and one imaginary column each."""
        from .output import write_csv
        header = ["x_m"]
        cols = [self.grid.points()]
        for i, snap in enumerate(self.snapshots[0]):
            header += [f"re_psi_t{i}", f"im_psi_t{i}"]
            cols += [snap.real, snap.imag]
        write_csv(path, header, cols)


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 without the square root of np.abs."""
    return z.real * z.real + z.imag * z.imag


def _edge_mass(y: np.ndarray, channels: int, spacing: float) -> float:
    """Mass within EDGE_CELLS of either grid end, summed over the channels."""
    k = EDGE_CELLS * channels
    return float((np.sum(_abs2(y[:k])) + np.sum(_abs2(y[-k:]))) * spacing)


def time_step(dt: float, vmax: float) -> float:
    """The step taken for a requested dt: dt / N, N the least whole number
    keeping the phase dt vmax / hbar within PHASE_BUDGET (vmax: |V|max, J)."""
    dt = checked_scalar("dt", dt, "positive")
    vmax = checked_scalar("vmax", vmax, "nonnegative")
    return dt / max(1, math.ceil(dt * vmax / (HBAR * PHASE_BUDGET)))


def _propagate(fields, grid: Grid1D, t_span: tuple[float, float], dt: float, *,
               mass: float, vmax: float, reference_frequency, snapshots: int,
               stepper, decay: np.ndarray, norm_names,
               region: tuple[float, float]) -> ConditionalTrajectory:
    """Shared core of the conditional propagators; checks every input first.

    The channel fields (SI) are interleaved into one state y, channel c at
    y[c::len(fields)].  dt is the requested step, which time_step divides
    for vmax, |V|max in joules, with a UserWarning when it divides.  The
    record's dt is the step used; the kinetic and whole-step checks apply
    to it.  Without a reference_frequency the internal unit is the grid
    frequency hbar / (m h^2); dt H / hbar does not depend on it.  stepper(h_int,
    dt_int, omega) returns the solve y -> (1 + iB)^{-1} y, whose output mid
    is the step midpoint; the next state is 2 mid - y.  decay (1/s, one per
    grid point) drains the last channel and no other, so the midpoint
    density is w1 = sum decay |mid|^2 h over that channel.  With
    the channel masses h sum |y_c|^2, the norms recorded under norm_names
    are their sum P0, then each mass after the first.  Edge mass above
    EDGE_MASS_WARN and an initial norm more than 1e-6 below 1 raise
    UserWarnings; an initial norm above 1 + 1e-8, the record's bound on P0,
    is a ConfigurationError before the first step.
    """
    n = grid.n_points
    if any(np.shape(f) != (n,) for f in fields):
        raise ConfigurationError("initial field shape does not match the grid")
    t0, t1 = (checked_scalar("t_span", t) for t in t_span)
    if not t1 > t0:
        raise ConfigurationError("t_span must be increasing")
    mass = checked_scalar("mass", mass, "positive")
    snapshots = checked_count("snapshots", snapshots, 2)
    step = time_step(dt, vmax)
    if step < dt:
        warnings.warn(f"time step refined x{round(dt / step)} to respect the potential "
                      "phase bound dt|V|/hbar < 0.1", stacklevel=3)
    dt = step
    kinetic_scale = 2.0 * mass * grid.spacing ** 2 / HBAR * np.pi
    if dt >= KINETIC_SAFETY * kinetic_scale:
        raise ConfigurationError(
            f"dt = {dt:.3g} s exceeds {KINETIC_SAFETY:g} x the grid kinetic time "
            f"{kinetic_scale:.3g} s; reduce dt")
    n_steps = int(round((t1 - t0) / dt))
    if abs(t0 + n_steps * dt - t1) > 1e-9 * max(abs(t1), dt):
        raise ConfigurationError("t_span length must be an integer number of dt steps")
    if n_steps < 1:
        raise ConfigurationError("t_span shorter than one step")

    if reference_frequency is None:
        # the grid-scale frequency makes the internal spacing exactly 1
        reference_frequency = HBAR / (mass * grid.spacing ** 2)
    units = UnitSystem(reference_frequency=reference_frequency, mass=mass)
    h_int = grid.spacing / units.length_unit
    solve = stepper(h_int, dt * reference_frequency, reference_frequency)
    channels = len(fields)
    # the density only needs the detector: first to last nonzero decay
    lo, hi = np.flatnonzero(decay)[[0, -1]] + (0, 1) if np.any(decay) else (0, 0)
    span = slice(lo * channels + channels - 1, hi * channels, channels)
    decay_w = decay[lo:hi] * h_int

    def norms(y):
        dens = _abs2(y)
        masses = [np.sum(dens[c::channels]) * h_int for c in range(channels)]
        return (sum(masses), *masses[1:])

    # internal field: y_int = y_SI * sqrt(L0) keeps ||.||^2 dimensionless
    scale = np.sqrt(units.length_unit)
    y = np.stack(fields, axis=1).reshape(-1).astype(complex) * scale
    first = norms(y)
    if not first[0] > 0.0:
        raise ConfigurationError("initial field has zero norm")
    if first[0] > 1.0 + 1e-8:
        raise ConfigurationError(f"initial norm {float(first[0])!r} exceeds 1")

    times = t0 + dt * np.arange(n_steps + 1)
    recorded = np.empty((len(first), n_steps + 1))
    recorded[:, 0] = first
    w1 = np.empty(n_steps)
    n_snap = min(snapshots, n_steps + 1)
    snap_idx = np.unique(np.round(np.linspace(0, n_steps, n_snap)).astype(int))
    snaps = np.empty((channels, snap_idx.size, n), dtype=complex)
    snaps[:, 0] = y.reshape(n, channels).T
    snap_pos = 1
    edge_max = 0.0
    for k in range(1, n_steps + 1):
        mid = solve(y)
        w1[k - 1] = np.sum(decay_w * _abs2(mid[span]))
        mid *= 2.0
        mid -= y
        y = mid
        recorded[:, k] = norms(y)
        if snap_pos < snap_idx.size and k == snap_idx[snap_pos]:
            snaps[:, snap_pos] = y.reshape(n, channels).T
            snap_pos += 1
        if k % 32 == 0 or k == n_steps:
            edge_max = max(edge_max, _edge_mass(y, channels, h_int))

    if edge_max > EDGE_MASS_WARN:
        warnings.warn(f"edge mass reached {edge_max:.3e} (> {EDGE_MASS_WARN:g}); "
                      "boundary reflections may contaminate the run", stacklevel=3)
    if first[0] < 1.0 - 1e-6:
        warnings.warn(f"initial norm {float(first[0])!r} differs from 1; mass ledger is "
                      "renormalized", stacklevel=3)
    snaps /= scale
    return ConditionalTrajectory(
        grid=grid, times=times, dt=dt, norms=dict(zip(norm_names, recorded)),
        detection_density_times=times[:-1] + 0.5 * dt, detection_density=w1,
        snapshot_times=times[snap_idx], snapshots=snaps, region=region)


def propagate_conditional(psi0: np.ndarray, potential: ComplexPotential,
                          t_span: tuple[float, float], dt: float, *, mass: float,
                          reference_frequency: float | None = None,
                          snapshots: int = 2) -> ConditionalTrajectory:
    """Propagate psi0 (SI, units m^-1/2) under p^2/2m + V from t_span[0] to
    t_span[1] in uniform steps, recording the survival probability at
    every step boundary and the detection density at every step midpoint.

    dt is the requested step, divided by time_step for |V|max with a
    UserWarning when it is divided; the step used is traj.dt.  Preconditions
    enforced as configuration errors, on the step used: it must stay below
    KINETIC_SAFETY grid kinetic times (2 m dx^2 / hbar) * pi and must divide
    t_span into whole steps.
    Mass accumulating within EDGE_CELLS of either grid end above 1e-6, and
    an initial norm below 1 by more than 1e-6, raise a UserWarning, not an
    error; an initial norm above 1 is a configuration error.
    snapshots, at least 2, is the number of field snapshots kept, evenly
    spaced in steps; the default 2 keeps the launch and final fields only.
    """
    grid = potential.grid
    return _propagate(
        (psi0,), grid, t_span, dt, mass=mass, vmax=potential.max_magnitude,
        reference_frequency=reference_frequency, snapshots=snapshots,
        stepper=lambda h_int, dt_int, omega: CrankNicolson1D(
            grid.n_points, h_int, potential.values / (HBAR * omega), dt_int).step,
        decay=potential.decay_profile, norm_names=("no_detection_prob",),
        region=potential.region)


def norm_balance(trajectory) -> dict[str, float]:
    """Check a conditional run (either model) against the drain
    identity w1 = -dP0/dt and return its two balance numbers.

    continuity_residual_relative is the largest gap between a midpoint
    density sample and -[P0(n+1) - P0(n)]/dt, over the peak density (0 when
    nothing is detected); above DRAIN_TOLERANCE it is a NumericsError,
    unless within DRAIN_ROUNDOFF * P0(0) per step, which two rounded norms
    cannot resolve.  w1 comes from the decay-weighted field and P0 from the
    norm, so this is the discrete continuity statement, not a tautology.
    detection_integral_gap, |sum(w1) dt - (1 - P0(end))|, also carries any
    launch-norm deficit.
    """
    w1 = trajectory.detection_density
    p0 = trajectory.no_detection_prob
    times = trajectory.times
    # the whole span resolves dt far better than one rounded difference
    dt = float(times[-1] - times[0]) / (times.size - 1)
    drain = -np.diff(p0) / dt
    peak = float(np.max(w1))
    resid = float(np.max(np.abs(w1 - drain)))
    floor = DRAIN_ROUNDOFF * float(p0[0]) / dt
    if peak > 0.0 and resid > max(DRAIN_TOLERANCE * peak, floor):
        raise NumericsError(
            f"detection density disagrees with -dP0/dt: residual {resid:.3e} "
            f"exceeds {DRAIN_TOLERANCE:g} x peak {peak:.3e}")
    return {"continuity_residual_relative": resid / peak if peak > 0.0 else 0.0,
            "detection_integral_gap": float(abs(np.sum(w1) * dt - (1.0 - p0[-1])))}


# ---------------------------------------------------------------------------
# two-channel fluorescence analog


def _two_channel_matrix(n: int, h_int: float, dt_int: float, rabi_int: np.ndarray,
                        excited_diag_int: complex):
    """Forward matrix 1 + i dt H / 2 of the interleaved (ground, excited)
    Hamiltonian in internal units: a pentadiagonal CSC matrix of size 2n."""
    import scipy.sparse as sp
    z = 0.5j * dt_int
    m = 2 * n
    diag = np.full(m, 1.0 / h_int ** 2, dtype=complex)
    diag[1::2] += excited_diag_int
    off1 = np.zeros(m - 1, dtype=complex)
    off1[0::2] = 0.5 * rabi_int          # couples site j ground <-> excited
    off2 = np.full(m - 2, -0.5 / h_int ** 2, dtype=complex)
    return sp.diags([z * off2, z * off1, 1.0 + z * diag, z * off1, z * off2],
                    [-2, -1, 0, 1, 2], format="csc")


def propagate_two_channel(ground0: np.ndarray, excited0: np.ndarray, rabi: float,
                          lit: Sensitivity, detuning: float, linewidth: float,
                          grid: Grid1D, t_span: tuple[float, float], dt: float, *,
                          mass: float, snapshots: int = 2) -> ConditionalTrajectory:
    """Propagate the coupled ground/excited fields of the fluorescence model.

    The conditional generator is kinetic energy on both channels plus the
    block (hbar/2) [[0, Omega(x)], [Omega(x), -2*detuning - i*linewidth]],
    Omega(x) = rabi * lit(x) for a peak Rabi frequency rabi (1/s), whose
    sign is a phase convention of the excited channel.  Spontaneous
    emission drains the excited channel at rate linewidth, and the emission
    density is w1 = linewidth * ||excited||^2, balancing the combined norm
    loss.  dt is the requested step, refined to PHASE_BUDGET and checked as
    in propagate_conditional (the step used is traj.dt), with |V|max from
    two_channel_vmax.  The record's norms are the combined norm P0 and the
    excited mass; its region is lit.support.  snapshots is as in
    propagate_conditional (default 2, the launch and final fields).
    """
    n = grid.n_points
    vmax = two_channel_vmax(rabi, lit, detuning, linewidth, grid)    # checks the rates
    omega_x = rabi * lit(grid.points())
    excited_diag = 0.5 * (-2.0 * detuning - 1j * linewidth)   # 1/s

    def stepper(h_int, dt_int, omega):
        from scipy.sparse.linalg import splu
        # the interleaved matrix is already a pentadiagonal band: no reordering;
        # one-column panels shrink the factorization's workspace and peak RSS
        matrix = _two_channel_matrix(n, h_int, dt_int, omega_x / omega, excited_diag / omega)
        return splu(matrix, permc_spec="NATURAL", panel_size=1).solve

    return _propagate((ground0, excited0), grid, t_span, dt, mass=mass, vmax=vmax,
                      reference_frequency=None, snapshots=snapshots, stepper=stepper,
                      decay=np.broadcast_to(linewidth, n),
                      norm_names=("no_detection_prob", "excited_mass"), region=lit.support)


def two_channel_vmax(rabi: float, lit: Sensitivity, detuning: float, linewidth: float,
                     grid: Grid1D) -> float:
    """|V|max (joules) of the fluorescence block on the grid: the larger of
    hbar|Omega(x)|/2 and hbar|2*detuning + i*linewidth|/2."""
    rabi, detuning = checked_scalar("rabi", rabi), checked_scalar("detuning", detuning)
    linewidth = checked_scalar("linewidth", linewidth, "nonnegative")
    excited_diag = 0.5 * (-2.0 * detuning - 1j * linewidth)
    return HBAR * max(np.max(np.abs(rabi * lit(grid.points()))) / 2.0, abs(excited_diag))


def one_channel_limit_potential(rabi: float, lit: Sensitivity, detuning: float,
                                linewidth: float, grid: Grid1D) -> ComplexPotential:
    """Adiabatically eliminated excited channel: the ground field then moves
    in the conditional potential of build_conditional_potential on lit, with
    the two-level rates

        decay = linewidth * rabi^2 / (4 detuning^2 + linewidth^2),
        shift = 2 detuning * rabi^2 / (4 detuning^2 + linewidth^2),

    so V(x) = (hbar/2)(shift - i decay) lit(x)^2.  Requires (detuning,
    linewidth) != (0, 0).  At detuning = 0 the result is the purely
    absorbing -i hbar Omega^2 / (2 linewidth); at linewidth = 0 it is the
    real light shift hbar Omega^2 / (4 detuning).
    """
    rabi, detuning = checked_scalar("rabi", rabi), checked_scalar("detuning", detuning)
    linewidth = checked_scalar("linewidth", linewidth, "nonnegative")
    denom = 4.0 * detuning ** 2 + linewidth ** 2
    if denom == 0.0:
        raise ConfigurationError("detuning and linewidth cannot both vanish")
    om2 = rabi ** 2
    return build_conditional_potential(linewidth * om2 / denom,
                                       2.0 * detuning * om2 / denom, lit, grid)


def adiabaticity_ratio(rabi_max: float, detuning: float, linewidth: float,
                       kinetic_energy: float) -> float:
    """Ratio of the excited-channel energy scale hbar|2*detuning + i*linewidth|/2
    to the larger of the coupling hbar*Omega/2 and the kinetic energy.  The
    one-channel reduction is trustworthy when this is large (>= 20)."""
    gap = 0.5 * HBAR * abs(2.0 * checked_scalar("detuning", detuning)
                           + 1j * checked_scalar("linewidth", linewidth, "nonnegative"))
    drive = max(0.5 * HBAR * abs(checked_scalar("rabi_max", rabi_max)),
                checked_scalar("kinetic_energy", kinetic_energy, "nonnegative"))
    if drive <= 0.0:
        return np.inf
    return gap / drive
