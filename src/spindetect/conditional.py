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

    psi_{n+1} = 2 (1 + iB)^{-1} psi_n - psi_n,

one solve and no explicit product; the solve output (1 + iB)^{-1} psi_n is
the step midpoint (psi_n + psi_{n+1})/2, where the density is sampled.

The same stepper, on an interleaved two-channel grid, propagates the
fluorescence analog

    H = p^2/(2m) x 1 + (hbar/2) [[0, Omega(x)], [Omega(x), -2*detuning - i*linewidth]],

whose strong-damping limit collapses to the single-channel complex
potential returned by one_channel_limit_potential.

Both propagators share one core (_propagate: validation, units, step loop,
edge mass) that returns one record, ConditionalTrajectory; they supply only
their solver (LAPACK zgttrs for one channel, SuperLU on the interleaved
pair), density and norm formulas, and detector region.  Norms are plain
(pairwise) sums h * sum |psi|^2, as is the mass ledger
(analysis.mass_accounting), and norm_balance checks the drain identity on
either model's record.  The norms are computed from the field alone, never
from the density, so that check stays a real test.  Edge mass and an
initial norm off 1 raise UserWarnings.

All public inputs and outputs are SI; internally fields and operators are
rescaled to detector units (see units.UnitSystem) before factoring the
step matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, NumericsError
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
    "one_channel_limit_potential",
    "adiabaticity_ratio",
]

# Fraction of total mass tolerated near the grid edges before the run is
# flagged as contaminated by boundary reflections.
EDGE_MASS_WARN = 1e-6
EDGE_CELLS = 5
# rounding of a per-step survival drop P0(n) - P0(n+1), relative to P0(0):
# plain sums of up to ~1e5 terms each carry a few ulp
DRAIN_ROUNDOFF = 64 * np.finfo(float).eps
# largest drain-identity residual of a run, relative to the peak density
DRAIN_TOLERANCE = 1e-3


@dataclass(frozen=True)
class ComplexPotential:
    """Complex detector potential sampled on a grid.

    values[j] = (hbar/2) * (shift_profile[j] - 1j * decay_profile[j]) in
    joules; decay_profile (1/s) is kept separately because the detection
    density needs it without the factor hbar/2.
    """

    grid: Grid1D
    values: np.ndarray
    decay_profile: np.ndarray
    shift_profile: np.ndarray
    region: tuple[float, float]

    def __post_init__(self):
        n = self.grid.n_points
        for name in ("values", "decay_profile", "shift_profile"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ConfigurationError(f"{name} must have shape ({n},)")
        if not np.all(np.isfinite(self.decay_profile)):
            raise ConfigurationError("decay profile must be finite")
        if np.any(self.decay_profile < 0.0):
            raise ConfigurationError("decay profile must be nonnegative")
        if np.any(self.values.imag > 1e-300):
            raise ConfigurationError("Im V must be <= 0 everywhere")

    @property
    def max_magnitude(self) -> float:
        return float(np.max(np.abs(self.values)))


def build_conditional_potential(decay_rate, level_shift, sensitivity: Sensitivity,
                                grid: Grid1D, *, include_shift: bool = True) -> ComplexPotential:
    """Assemble V(x) = (hbar/2)(shift - i decay) * chi(x)^2 on the grid.

    decay_rate and level_shift are scalars (1/s) multiplying the squared
    sensitivity profile, or arrays already sampled on the grid (a rate map
    evaluated along the axis).  A negative scalar decay rate, or any
    negative entry of an array one, is rejected: gain is outside the model.
    """
    x = grid.points()
    chi2 = np.asarray(sensitivity(x), dtype=float) ** 2
    decay = np.asarray(decay_rate, dtype=float)
    shift = np.asarray(level_shift, dtype=float)
    if decay.ndim == 0:
        if decay < 0.0:
            raise ConfigurationError("decay rate must be nonnegative")
        decay = float(decay) * chi2
    elif decay.shape == (grid.n_points,):
        if np.any(decay < 0.0):
            raise ConfigurationError("decay rate profile must be nonnegative")
        decay = decay.copy()
    else:
        raise ConfigurationError("decay rate must be scalar or one value per grid point")
    if shift.ndim == 0:
        shift = float(shift) * chi2
    elif shift.shape != (grid.n_points,):
        raise ConfigurationError("level shift must be scalar or one value per grid point")
    else:
        shift = shift.copy()
    if not include_shift:
        shift = np.zeros_like(shift)
    values = 0.5 * HBAR * (shift - 1j * decay)
    lo, hi = sensitivity.support
    return ComplexPotential(grid=grid, values=values, decay_profile=decay,
                            shift_profile=shift, region=(float(lo), float(hi)))


class CrankNicolson1D:
    """Prefactored Crank-Nicolson step for one field on a uniform grid.

    Works in dimensionless detector units: the caller supplies the
    potential as V / (hbar * omega_ref) and the time step as dt * omega_ref;
    the grid spacing must already be in units of the associated length.
    The forward matrix 1 + iB is tridiagonal, factored by LAPACK zgttrf; a
    step is the Cayley identity 2 (1 + iB)^{-1} psi - psi, one zgttrs solve
    whose output is the midpoint (psi + next)/2.
    """

    def __init__(self, n_points: int, spacing: float, potential: np.ndarray, dt: float):
        h2 = spacing * spacing
        z = 0.5j * dt
        # H psi = -(psi'' )/2 + V psi with the 3-point Laplacian
        diag = 1.0 + z * (1.0 / h2 + potential.astype(complex))
        dl = np.full(n_points - 1, z * (-0.5 / h2), dtype=complex)
        dlf, df, duf, du2, ipiv, info = lapack.zgttrf(dl, diag, dl.copy())
        if info != 0:
            raise NumericsError(f"step matrix factorization failed (info={info})")
        self._factors = (dlf, df, duf, du2, ipiv)

    def step(self, psi: np.ndarray) -> np.ndarray:
        dlf, df, duf, du2, ipiv = self._factors
        out, info = lapack.zgttrs(dlf, df, duf, du2, ipiv, psi)
        if info != 0:
            raise NumericsError(f"tridiagonal solve failed (info={info})")
        out *= 2.0
        out -= psi
        return out


@dataclass
class ConditionalTrajectory:
    """Record of one conditional run of either propagator: norm series,
    detection density, sparse field snapshots and the final fields.

    norms maps CSV column names to series on the step boundaries (`times`),
    led by no_detection_prob, the survival probability P0; the two-channel
    run adds excited_mass.  The detection density lives on the step
    midpoints (`detection_density_times`), where the scheme satisfies
    [P0(n) - P0(n+1)]/dt = w1(midpoint) exactly.  Sampling it at the nodes
    instead would bias it against the P0 drain by the factor 1 + (E dt)^2/4
    from the fast kinetic phase.  snapshots are (channel, index, x) and
    final_fields (channel, x), in SI; channel 0 is the ground field.  region
    is the detector's extent, which the mass ledger splits the final field
    around.
    """

    grid: Grid1D
    times: np.ndarray
    norms: dict[str, np.ndarray]
    detection_density_times: np.ndarray
    detection_density: np.ndarray
    snapshot_times: np.ndarray
    snapshots: np.ndarray
    final_fields: np.ndarray
    region: tuple[float, float]

    def __post_init__(self):
        p0 = self.no_detection_prob
        if np.any(p0 < -1e-12) or np.any(p0 > 1.0 + 1e-8):
            raise NumericsError("survival probability left [0, 1]")
        if np.any(np.diff(p0) > 1e-10):
            raise NumericsError("survival probability increased between steps")

    @property
    def no_detection_prob(self) -> np.ndarray:
        """The survival probability P0, the lead norm series."""
        return self.norms["no_detection_prob"]

    @property
    def final_survival(self) -> float:
        return float(self.no_detection_prob[-1])

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


def _propagate(fields, grid: Grid1D, t_span: tuple[float, float], dt: float, *,
               mass: float, vmax: float, frequency_scales, reference_frequency,
               snapshots: int, kinetic_safety: float, solver, norm_names,
               region: tuple[float, float]) -> ConditionalTrajectory:
    """Shared core of the conditional propagators; checks every input first.

    The channel fields (SI) are interleaved into one state y, channel c at
    y[c::len(fields)].  vmax (joules) meets the phase bound; positive
    frequency_scales (1/s) may raise the default reference frequency.
    solver(h_int, dt_int, omega) returns (step, density, norms): the next
    state, the midpoint detection density (1/s), and a tuple of norms led
    by the survival probability, recorded under norm_names.  Edge mass
    above EDGE_MASS_WARN raises a UserWarning.
    """
    n = grid.n_points
    if any(np.shape(f) != (n,) for f in fields):
        raise ConfigurationError("initial field shape does not match the grid")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ConfigurationError("t_span must be increasing")
    if dt <= 0.0:
        raise ConfigurationError("dt must be positive")
    if mass <= 0.0:
        raise ConfigurationError("mass must be positive")
    if vmax > 0.0 and dt * vmax / HBAR >= 0.1:
        raise ConfigurationError(
            f"dt*|V|max/hbar = {dt * vmax / HBAR:.3g} >= 0.1: reduce dt")
    kinetic_scale = 2.0 * mass * grid.spacing ** 2 / HBAR * np.pi
    if dt >= kinetic_safety * kinetic_scale:
        raise ConfigurationError(
            f"dt = {dt:.3g} s exceeds {kinetic_safety:g} x the grid kinetic time "
            f"{kinetic_scale:.3g} s; reduce dt or relax kinetic_safety")
    n_steps = int(round((t1 - t0) / dt))
    if abs(t0 + n_steps * dt - t1) > 1e-9 * max(abs(t1), dt):
        raise ConfigurationError("t_span length must be an integer number of dt steps")
    if n_steps < 1:
        raise ConfigurationError("t_span shorter than one step")

    if reference_frequency is None:
        # the grid-scale frequency makes the internal spacing exactly 1
        reference_frequency = max([s for s in frequency_scales if s > 0.0]
                                  + [HBAR / (mass * grid.spacing ** 2)])
    units = UnitSystem(reference_frequency=reference_frequency, mass=mass)
    h_int = grid.spacing / units.length_unit
    step, density, norms = solver(h_int, dt * reference_frequency, reference_frequency)
    # internal field: y_int = y_SI * sqrt(L0) keeps ||.||^2 dimensionless
    scale = np.sqrt(units.length_unit)
    channels = len(fields)
    y = np.stack(fields, axis=1).reshape(-1).astype(complex) * scale
    first = norms(y)
    if not first[0] > 0.0:
        raise ConfigurationError("initial field has zero norm")

    times = t0 + dt * np.arange(n_steps + 1)
    recorded = np.empty((len(first), n_steps + 1))
    recorded[:, 0] = first
    w1 = np.empty(n_steps)
    n_snap = max(2, min(snapshots, n_steps + 1))
    snap_idx = np.unique(np.round(np.linspace(0, n_steps, n_snap)).astype(int))
    snaps = np.empty((channels, snap_idx.size, n), dtype=complex)
    snaps[:, 0] = y.reshape(n, channels).T
    snap_pos = 1
    edge_max = 0.0
    for k in range(1, n_steps + 1):
        y_next = step(y)
        w1[k - 1] = density(y, y_next)
        y = y_next
        recorded[:, k] = norms(y)
        if snap_pos < snap_idx.size and k == snap_idx[snap_pos]:
            snaps[:, snap_pos] = y.reshape(n, channels).T
            snap_pos += 1
        if k % 32 == 0 or k == n_steps:
            edge_max = max(edge_max, _edge_mass(y, channels, h_int))

    if edge_max > EDGE_MASS_WARN:
        warnings.warn(f"edge mass reached {edge_max:.3e} (> {EDGE_MASS_WARN:g}); "
                      "boundary reflections may contaminate the run", stacklevel=3)
    snaps /= scale
    return ConditionalTrajectory(
        grid=grid, times=times, norms=dict(zip(norm_names, recorded)),
        detection_density_times=times[:-1] + 0.5 * dt, detection_density=w1,
        snapshot_times=times[snap_idx], snapshots=snaps,
        final_fields=y.reshape(n, channels).T / scale, region=region)


def propagate_conditional(psi0: np.ndarray, potential: ComplexPotential,
                          t_span: tuple[float, float], dt: float, *, mass: float,
                          reference_frequency: float | None = None,
                          snapshots: int = 512, kinetic_safety: float = 64.0
                          ) -> ConditionalTrajectory:
    """Propagate psi0 (SI, units m^-1/2) under p^2/2m + V from t_span[0] to
    t_span[1] in uniform steps dt, recording the survival probability at
    every step boundary and the detection density at every step midpoint.

    Preconditions enforced as configuration errors: dt must resolve the
    potential phase (dt |V|_max / hbar < 0.1), must not exceed
    kinetic_safety * (2 m dx^2 / hbar) * pi, a blunt guard against grossly
    unresolved kinetic phases, and must divide t_span into whole steps.
    Mass accumulating within EDGE_CELLS of either grid end above 1e-6, and
    an initial norm off 1 by more than 1e-6, raise a UserWarning, not an
    error.
    """
    grid = potential.grid

    def solver(h_int, dt_int, omega):
        stepper = CrankNicolson1D(grid.n_points, h_int, potential.values / (HBAR * omega),
                                  dt_int)
        # the density only needs the detector: first to last nonzero decay
        lit = np.flatnonzero(potential.decay_profile)
        span = slice(lit[0], lit[-1] + 1) if lit.size else slice(0, 0)
        decay_w = potential.decay_profile[span] * (0.25 * h_int)
        return (stepper.step,
                lambda y, y_next: np.sum(decay_w * _abs2(y[span] + y_next[span])),
                lambda y: (np.sum(_abs2(y)) * h_int,))

    traj = _propagate((psi0,), grid, t_span, dt, mass=mass, vmax=potential.max_magnitude,
                      frequency_scales=(), reference_frequency=reference_frequency,
                      snapshots=snapshots, kinetic_safety=kinetic_safety, solver=solver,
                      norm_names=("no_detection_prob",), region=potential.region)
    norm0 = float(traj.no_detection_prob[0])
    if abs(norm0 - 1.0) > 1e-6:
        warnings.warn(f"initial norm {norm0!r} differs from 1; mass ledger is "
                      "renormalized", stacklevel=2)
    return traj


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


def _rabi_on(grid: Grid1D, rabi_profile) -> np.ndarray:
    rabi = np.asarray(rabi_profile, dtype=float)
    if rabi.shape != (grid.n_points,):
        raise ConfigurationError("Rabi profile must have one value per grid point")
    if np.any(rabi < 0.0):
        raise ConfigurationError("Rabi profile must be nonnegative")
    return rabi


def _lit_span(grid: Grid1D, rabi: np.ndarray) -> tuple[float, float]:
    """First to last grid point where the Rabi profile is nonzero;
    (x_max, x_max) for a dark profile."""
    lit = np.flatnonzero(rabi > 0.0)
    if not lit.size:
        return (grid.x_max, grid.x_max)
    x = grid.points()
    return (float(x[lit[0]]), float(x[lit[-1]]))


def _two_channel_matrix(n: int, h_int: float, rabi_int: np.ndarray,
                        excited_diag_int: complex) -> sp.csc_matrix:
    """Interleaved (ground, excited) Hamiltonian in internal units; returns
    a pentadiagonal sparse matrix of size 2n."""
    kin_diag = 1.0 / h_int ** 2
    kin_off = -0.5 / h_int ** 2
    m = 2 * n
    diag = np.empty(m, dtype=complex)
    diag[0::2] = kin_diag
    diag[1::2] = kin_diag + excited_diag_int
    off1 = np.zeros(m - 1, dtype=complex)
    off1[0::2] = 0.5 * rabi_int          # couples site j ground <-> excited
    off2 = np.full(m - 2, kin_off, dtype=complex)
    return sp.diags([off2, off1, diag, off1, off2], [-2, -1, 0, 1, 2],
                    format="csc")


def propagate_two_channel(ground0: np.ndarray, excited0: np.ndarray,
                          rabi_profile: np.ndarray, detuning: float, linewidth: float,
                          grid: Grid1D, t_span: tuple[float, float], dt: float, *,
                          mass: float, reference_frequency: float | None = None,
                          snapshots: int = 128, kinetic_safety: float = 64.0
                          ) -> ConditionalTrajectory:
    """Propagate the coupled ground/excited fields of the fluorescence model.

    The conditional generator is kinetic energy on both channels plus the
    block (hbar/2) [[0, Omega(x)], [Omega(x), -2*detuning - i*linewidth]];
    spontaneous emission drains the excited channel at rate linewidth, and
    the emission density is w1 = linewidth * ||excited||^2, balancing the
    combined norm loss.  dt is checked as in propagate_conditional, with
    |V|max the larger of hbar*Omega/2 and hbar|2*detuning + i*linewidth|/2.
    The record's norms are the combined norm P0 and the excited mass; its
    region is the lit span of the Rabi profile.
    """
    n = grid.n_points
    rabi = _rabi_on(grid, rabi_profile)
    if linewidth < 0.0:
        raise ConfigurationError("linewidth must be nonnegative")
    excited_diag = 0.5 * (-2.0 * detuning - 1j * linewidth)   # 1/s
    half_rabi = np.max(rabi) / 2.0

    def solver(h_int, dt_int, omega):
        ham = _two_channel_matrix(n, h_int, rabi / omega, excited_diag / omega)
        forward = sp.identity(2 * n, dtype=complex, format="csc") + 0.5j * dt_int * ham
        # the interleaved matrix is already a pentadiagonal band: no reordering
        lu = splu(forward.tocsc(), permc_spec="NATURAL")

        def step(y):
            # Cayley identity, as in CrankNicolson1D.step
            out = lu.solve(y)
            out *= 2.0
            out -= y
            return out

        def norms(y):
            dens = _abs2(y)
            excited = np.sum(dens[1::2]) * h_int
            return np.sum(dens[0::2]) * h_int + excited, excited

        return (step,
                lambda y, y_next: 0.25 * linewidth * np.sum(
                    _abs2(y[1::2] + y_next[1::2])) * h_int,
                norms)

    return _propagate((ground0, excited0), grid, t_span, dt, mass=mass,
                      vmax=HBAR * max(half_rabi, abs(excited_diag)),
                      frequency_scales=(half_rabi, abs(detuning), linewidth / 2.0),
                      reference_frequency=reference_frequency, snapshots=snapshots,
                      kinetic_safety=kinetic_safety, solver=solver,
                      norm_names=("no_detection_prob", "excited_mass"),
                      region=_lit_span(grid, rabi))


def one_channel_limit_potential(rabi_profile: np.ndarray, detuning: float,
                                linewidth: float, grid: Grid1D) -> ComplexPotential:
    """Adiabatically eliminated excited channel: the ground field then moves in

        V(x) = (hbar * detuning * Omega(x)^2 - i hbar * linewidth * Omega(x)^2 / 2)
               / (4 detuning^2 + linewidth^2).

    Requires (detuning, linewidth) != (0, 0).  At detuning = 0 the result is
    the purely absorbing -i hbar Omega^2 / (2 linewidth); at linewidth = 0 it
    is the real light shift hbar Omega^2 / (4 detuning).  The potential's
    region is the lit span of the Rabi profile.
    """
    denom = 4.0 * detuning ** 2 + linewidth ** 2
    if denom == 0.0:
        raise ConfigurationError("detuning and linewidth cannot both vanish")
    rabi = _rabi_on(grid, rabi_profile)
    om2 = rabi ** 2
    decay = linewidth * om2 / denom
    shift = 2.0 * detuning * om2 / denom
    values = 0.5 * HBAR * (shift - 1j * decay)
    return ComplexPotential(grid=grid, values=values, decay_profile=decay,
                            shift_profile=shift, region=_lit_span(grid, rabi))


def adiabaticity_ratio(rabi_max: float, detuning: float, linewidth: float,
                       kinetic_energy: float) -> float:
    """Ratio of the excited-channel energy scale hbar|2*detuning + i*linewidth|/2
    to the larger of the coupling hbar*Omega/2 and the kinetic energy.  The
    one-channel reduction is trustworthy when this is large (>= 20)."""
    gap = 0.5 * HBAR * abs(2.0 * detuning + 1j * linewidth)
    drive = max(0.5 * HBAR * rabi_max, kinetic_energy)
    if drive <= 0.0:
        return np.inf
    return gap / drive
