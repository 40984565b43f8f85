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
the decay profile.

The same stepper, on an interleaved two-channel grid, propagates the
fluorescence analog

    H = p^2/(2m) x 1 + (hbar/2) [[0, Omega(x)], [Omega(x), -2*detuning - i*linewidth]],

whose strong-damping limit collapses to the single-channel complex
potential returned by one_channel_limit_potential.

Both propagators share one core (_propagate: validation, units, step loop,
records, edge mass) and supply only their solver (LAPACK zgttrs for one
channel, SuperLU on the interleaved pair) and density and norm formulas.
Norms are plain sums h * sum |psi|^2, as is the mass ledger
(analysis.mass_fractions); norm_balance checks either trajectory type.

All public inputs and outputs are SI; internally fields and operators are
rescaled to detector units (see units.UnitSystem) before factoring the
step matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .analysis import mass_fractions
from .errors import ConfigurationError, NumericsError
from .model import Grid1D, Sensitivity
from .units import HBAR, UnitSystem

__all__ = [
    "ComplexPotential",
    "ConditionalTrajectory",
    "TwoChannelTrajectory",
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
    The factored forward matrix is tridiagonal, solved by LAPACK zgttrs.
    """

    def __init__(self, n_points: int, spacing: float, potential: np.ndarray, dt: float):
        h2 = spacing * spacing
        # H psi = -(psi'' )/2 + V psi with the 3-point Laplacian
        diag = 1.0 / h2 + potential.astype(complex)
        off = -0.5 / h2
        z = 0.5j * dt
        self._bp_diag = 1.0 + z * diag
        self._bp_off = z * off
        self._bm_diag = 1.0 - z * diag
        self._bm_off = -z * off
        n = n_points
        dl = np.full(n - 1, self._bp_off, dtype=complex)
        du = dl.copy()
        dlf, df, duf, du2, ipiv, info = lapack.zgttrf(dl, self._bp_diag.copy(), du)
        if info != 0:
            raise NumericsError(f"step matrix factorization failed (info={info})")
        self._factors = (dlf, df, duf, du2, ipiv)

    def apply_explicit(self, psi: np.ndarray) -> np.ndarray:
        out = self._bm_diag * psi
        out[:-1] += self._bm_off * psi[1:]
        out[1:] += self._bm_off * psi[:-1]
        return out

    def step(self, psi: np.ndarray) -> np.ndarray:
        rhs = self.apply_explicit(psi)
        dlf, df, duf, du2, ipiv = self._factors
        out, info = lapack.zgttrs(dlf, df, duf, du2, ipiv, rhs)
        if info != 0:
            raise NumericsError(f"tridiagonal solve failed (info={info})")
        return out


@dataclass
class ConditionalTrajectory:
    """Record of one conditional run: survival series, detection density,
    sparse field snapshots, and the final mass ledger.

    Sampling is staggered: no_detection_prob lives on the step boundaries
    (`times`) while detection_density lives on the step midpoints
    (`detection_density_times`), where the scheme satisfies
    [P0(n) - P0(n+1)]/dt = w1(midpoint) exactly.  Sampling the density at
    the nodes instead would bias it against the P0 drain by the factor
    1 + (E dt)^2/4 from the fast kinetic phase.
    """

    grid: Grid1D
    times: np.ndarray
    no_detection_prob: np.ndarray
    detection_density_times: np.ndarray
    detection_density: np.ndarray
    snapshot_times: np.ndarray
    snapshots: np.ndarray
    final_field: np.ndarray
    region: tuple[float, float]
    mass_split: dict[str, float]
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        p0 = self.no_detection_prob
        if np.any(p0 < -1e-12) or np.any(p0 > 1.0 + 1e-8):
            raise NumericsError("survival probability left [0, 1]")
        if np.any(np.diff(p0) > 1e-10):
            raise NumericsError("survival probability increased between steps")
        total = sum(self.mass_split.values())
        if abs(total - 1.0) > 1e-6:
            raise NumericsError(f"mass ledger sums to {total!r}, not 1")

    @property
    def final_survival(self) -> float:
        return float(self.no_detection_prob[-1])

    def to_csv(self, path) -> None:
        """Rows on the midpoint grid; P0 is averaged onto it."""
        from .output import write_csv
        p0_mid = 0.5 * (self.no_detection_prob[:-1] + self.no_detection_prob[1:])
        write_csv(path, ["t_s", "no_detection_prob", "detection_density_per_s"],
                  [self.detection_density_times, p0_mid, self.detection_density])

    def snapshots_to_csv(self, path) -> None:
        from .output import write_csv
        x = self.grid.points()
        header = ["x_m"]
        cols = [x]
        for i, t in enumerate(self.snapshot_times):
            header += [f"re_psi_t{i}", f"im_psi_t{i}"]
            cols += [self.snapshots[i].real, self.snapshots[i].imag]
        write_csv(path, header, cols)


def _edge_mass(y: np.ndarray, channels: int, spacing: float) -> float:
    """Mass within EDGE_CELLS of either grid end, summed over the channels."""
    k = EDGE_CELLS * channels
    return float((np.sum(np.abs(y[:k]) ** 2) + np.sum(np.abs(y[-k:]) ** 2)) * spacing)


@dataclass
class _Run:
    """The core's record, in SI: norms[0] is the survival probability, further
    rows follow the model's norm formula; snapshots are (channel, index, x)."""

    times: np.ndarray
    norms: np.ndarray
    density_times: np.ndarray
    density: np.ndarray
    snapshot_times: np.ndarray
    snapshots: np.ndarray
    final: list[np.ndarray]
    warnings: list[str]


def _propagate(fields, grid: Grid1D, t_span: tuple[float, float], dt: float, *,
               mass: float, vmax: float, frequency_scales, reference_frequency,
               snapshots: int, kinetic_safety: float, solver) -> _Run:
    """Shared core of the conditional propagators; checks every input first.

    The channel fields (SI) are interleaved into one state y, channel c at
    y[c::len(fields)].  vmax (joules) meets the phase bound; positive
    frequency_scales (1/s) may raise the default reference frequency.
    solver(h_int, dt_int, omega) returns (step, density, norms): the next
    state, the midpoint detection density (1/s), and a tuple of norms led
    by the survival probability.  Edge mass above EDGE_MASS_WARN warns.
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

    warn_list = []
    if edge_max > EDGE_MASS_WARN:
        msg = (f"edge mass reached {edge_max:.3e} (> {EDGE_MASS_WARN:g}); "
               "boundary reflections may contaminate the run")
        warn_list.append(msg)
        warnings.warn(msg, stacklevel=3)
    snaps /= scale
    return _Run(times=times, norms=recorded, density_times=times[:-1] + 0.5 * dt,
                density=w1, snapshot_times=times[snap_idx], snapshots=snaps,
                final=[y[c::channels] / scale for c in range(channels)],
                warnings=warn_list)


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
    Mass accumulating within EDGE_CELLS of either grid end above 1e-6 is
    reported as a warning on the trajectory, not an error.
    """
    grid = potential.grid

    def solver(h_int, dt_int, omega):
        stepper = CrankNicolson1D(grid.n_points, h_int, potential.values / (HBAR * omega),
                                  dt_int)
        decay_w = potential.decay_profile * h_int
        return (stepper.step,
                lambda y, y_next: np.sum(decay_w * np.abs(0.5 * (y + y_next)) ** 2),
                lambda y: (np.sum(np.abs(y) ** 2) * h_int,))

    run = _propagate((psi0,), grid, t_span, dt, mass=mass, vmax=potential.max_magnitude,
                     frequency_scales=(), reference_frequency=reference_frequency,
                     snapshots=snapshots, kinetic_safety=kinetic_safety, solver=solver)
    p0 = run.norms[0]
    norm0 = float(p0[0])
    warn_list = []
    if abs(norm0 - 1.0) > 1e-6:
        warn_list.append(f"initial norm {norm0!r} differs from 1; mass ledger is renormalized")
    return ConditionalTrajectory(
        grid=grid, times=run.times, no_detection_prob=p0,
        detection_density_times=run.density_times, detection_density=run.density,
        snapshot_times=run.snapshot_times, snapshots=run.snapshots[0],
        final_field=run.final[0], region=potential.region,
        mass_split=mass_fractions(run.final[0], grid, potential.region, p0),
        warnings=warn_list + run.warnings)


def norm_balance(trajectory, *, check_tolerance: float = 1e-3) -> dict[str, float]:
    """Check a conditional run (either trajectory type) against the drain
    identity w1 = -dP0/dt and return its two balance numbers.

    continuity_residual_relative is the largest gap between a midpoint
    density sample and -[P0(n+1) - P0(n)]/dt, over the peak density (0 when
    nothing is detected); above check_tolerance it is a NumericsError,
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
    if peak > 0.0 and resid > max(check_tolerance * peak, floor):
        raise NumericsError(
            f"detection density disagrees with -dP0/dt: residual {resid:.3e} "
            f"exceeds {check_tolerance:g} x peak {peak:.3e}")
    return {"continuity_residual_relative": resid / peak if peak > 0.0 else 0.0,
            "detection_integral_gap": float(abs(np.sum(w1) * dt - (1.0 - p0[-1])))}


# ---------------------------------------------------------------------------
# two-channel fluorescence analog


@dataclass
class TwoChannelTrajectory:
    """Conditional run of the driven two-level system: ground and excited
    channel fields, combined survival probability, and the photon-emission
    density w1 = linewidth * ||excited||^2, sampled at step midpoints like
    ConditionalTrajectory.detection_density."""

    grid: Grid1D
    times: np.ndarray
    survival_prob: np.ndarray
    excited_mass: np.ndarray
    detection_density_times: np.ndarray
    detection_density: np.ndarray
    snapshot_times: np.ndarray
    ground_snapshots: np.ndarray
    excited_snapshots: np.ndarray
    final_ground: np.ndarray
    final_excited: np.ndarray
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        if np.any(np.diff(self.survival_prob) > 1e-10):
            raise NumericsError("combined norm increased between steps")

    @property
    def no_detection_prob(self) -> np.ndarray:
        """The combined norm, under the name ConditionalTrajectory uses."""
        return self.survival_prob

    def to_csv(self, path) -> None:
        from .output import write_csv
        p0_mid = 0.5 * (self.survival_prob[:-1] + self.survival_prob[1:])
        exc_mid = 0.5 * (self.excited_mass[:-1] + self.excited_mass[1:])
        write_csv(path, ["t_s", "no_detection_prob", "excited_mass",
                         "detection_density_per_s"],
                  [self.detection_density_times, p0_mid, exc_mid,
                   self.detection_density])


def _rabi_on(grid: Grid1D, rabi_profile) -> np.ndarray:
    rabi = np.asarray(rabi_profile, dtype=float)
    if rabi.shape != (grid.n_points,):
        raise ConfigurationError("Rabi profile must have one value per grid point")
    if np.any(rabi < 0.0):
        raise ConfigurationError("Rabi profile must be nonnegative")
    return rabi


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
                          ) -> TwoChannelTrajectory:
    """Propagate the coupled ground/excited fields of the fluorescence model.

    The conditional generator is kinetic energy on both channels plus the
    block (hbar/2) [[0, Omega(x)], [Omega(x), -2*detuning - i*linewidth]];
    spontaneous emission drains the excited channel at rate linewidth, and
    the emission density is w1 = linewidth * ||excited||^2, balancing the
    combined norm loss.  dt is checked as in propagate_conditional, with
    |V|max the larger of hbar*Omega/2 and hbar|2*detuning + i*linewidth|/2.
    """
    n = grid.n_points
    rabi = _rabi_on(grid, rabi_profile)
    if linewidth < 0.0:
        raise ConfigurationError("linewidth must be nonnegative")
    excited_diag = 0.5 * (-2.0 * detuning - 1j * linewidth)   # 1/s
    half_rabi = np.max(rabi) / 2.0

    def solver(h_int, dt_int, omega):
        ham = _two_channel_matrix(n, h_int, rabi / omega, excited_diag / omega)
        z = 0.5j * dt_int
        ident = sp.identity(2 * n, dtype=complex, format="csc")
        backward = (ident - z * ham).tocsr()
        lu = splu((ident + z * ham).tocsc())

        def norms(y):
            excited = np.sum(np.abs(y[1::2]) ** 2) * h_int
            return np.sum(np.abs(y[0::2]) ** 2) * h_int + excited, excited

        return (lambda y: lu.solve(backward @ y),
                lambda y, y_next: linewidth * np.sum(
                    np.abs(0.5 * (y[1::2] + y_next[1::2])) ** 2) * h_int,
                norms)

    run = _propagate((ground0, excited0), grid, t_span, dt, mass=mass,
                     vmax=HBAR * max(half_rabi, abs(excited_diag)),
                     frequency_scales=(half_rabi, abs(detuning), linewidth / 2.0),
                     reference_frequency=reference_frequency, snapshots=snapshots,
                     kinetic_safety=kinetic_safety, solver=solver)
    survival, excited = run.norms
    return TwoChannelTrajectory(
        grid=grid, times=run.times, survival_prob=survival, excited_mass=excited,
        detection_density_times=run.density_times, detection_density=run.density,
        snapshot_times=run.snapshot_times,
        ground_snapshots=run.snapshots[0], excited_snapshots=run.snapshots[1],
        final_ground=run.final[0], final_excited=run.final[1],
        warnings=run.warnings)


def one_channel_limit_potential(rabi_profile: np.ndarray, detuning: float,
                                linewidth: float, grid: Grid1D,
                                region: tuple[float, float] | None = None) -> ComplexPotential:
    """Adiabatically eliminated excited channel: the ground field then moves in

        V(x) = (hbar * detuning * Omega(x)^2 - i hbar * linewidth * Omega(x)^2 / 2)
               / (4 detuning^2 + linewidth^2).

    Requires (detuning, linewidth) != (0, 0).  At detuning = 0 the result is
    the purely absorbing -i hbar Omega^2 / (2 linewidth); at linewidth = 0 it
    is the real light shift hbar Omega^2 / (4 detuning).
    """
    denom = 4.0 * detuning ** 2 + linewidth ** 2
    if denom == 0.0:
        raise ConfigurationError("detuning and linewidth cannot both vanish")
    rabi = _rabi_on(grid, rabi_profile)
    om2 = rabi ** 2
    decay = linewidth * om2 / denom
    shift = 2.0 * detuning * om2 / denom
    values = 0.5 * HBAR * (shift - 1j * decay)
    if region is None:
        lit = np.nonzero(rabi > 0.0)[0]
        if lit.size:
            x = grid.points()
            region = (float(x[lit[0]]), float(x[lit[-1]]))
        else:
            region = (grid.x_max, grid.x_max)
    return ComplexPotential(grid=grid, values=values, decay_profile=decay,
                            shift_profile=shift, region=region)


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
