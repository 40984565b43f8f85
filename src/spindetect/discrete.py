"""Exact one-spin, N-mode scattering model of the detector.

On the half line x > 0 the particle couples a single detector spin to N
bath modes. In the one-excitation sector spanned by |up, vac> and
|down, 1_l> the interior Hamiltonian minus the kinetic term is the
(N+1) x (N+1) Hermitian matrix

    M = hbar * [[ omega0/2,   g_1,  ...,  g_N   ],
                [ g_1*,  omega_1 - omega0/2, 0  ],
                [ ...                            ],
                [ g_N*,  0, ..., omega_N - omega0/2 ]]

whose eigenpairs (hbar Omega_mu/2, |mu>) define the interior modes. A
stationary scattering state at incident wavenumber k > 0 is, up to the
overall 1/sqrt(2 pi),

    x < 0:  (e^{ikx} + R0 e^{-ikx}) |up, vac> + sum_l R_l e^{-i k_l x} |down, 1_l>
    x > 0:  sum_mu alpha_mu e^{i q_mu x} |mu>

with channel wavenumbers fixed by energy conservation,

    k_l = sqrt(k^2 + (2m/hbar)(omega0 - omega_l))
    q_mu = sqrt(k^2 + (m/hbar)(omega0 - Omega_mu)),

principal branches, so closed channels decay away from the interface
(Im k_l > 0 makes e^{-i k_l x} -> 0 for x -> -inf, Im q_mu > 0 makes
e^{i q_mu x} -> 0 for x -> +inf). Matching is solved for the bare-channel
values v of the field at x = 0: value continuity gives R0 = v_0 - 1,
R_l = v_l, alpha = U^H v (U the eigenvectors), and derivative continuity
reads (K + Q) v = 2k e_0, K = diag(k, k_1, ..., k_N), Q = U diag(q) U^H:
one (N+1) x (N+1) system per k. Every term of v^H (K + Q) v =
k|v_0|^2 + sum_l k_l |v_l|^2 + sum_mu q_mu |(U^H v)_mu|^2 lies in the
closed first quadrant (principal roots), so with k > 0 it vanishes for
v != 0 only if some k_l and some q_mu are exactly 0 at once; otherwise
0 is outside the numerical range and the system is nonsingular.

Wave packets are synthesized from these states on a fixed k-quadrature;
the flip probability is P_flip(t) = 1 - |no-flip component|^2 and the
detection density its time derivative. On a uniform grid x_r = x0 + r h
every plane-wave sum is factorized (_plane_wave_blocks): with r = m B + j,
e^{iqx_r} = e^{iq(x0 + mBh)} e^{iqjh}, a coarse factor per B rows times a
fine table built once, so the sum over wavenumbers is one batched matmul
per block of rows. Each phase is the product of two directly computed
exponentials; no phase error accumulates along x.

The mode ladder is discrete, so everything revives after
t_rec = 2 pi N/omega_M; results are physical only well before that.

All computation happens in natural units (see units.py); the public
surface is SI.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bath import RectangularBath
from .errors import ConfigurationError, NumericsError, checked_scalar
from .model import DetectorGeometry, Grid1D
from .output import write_csv
from .packets import GaussianPacketSpec, momentum_amplitude
from .units import UnitSystem

ROOT_2PI = np.sqrt(2.0 * np.pi)
# grid rows per block of a plane-wave sum (bounds the (batch, rows) work
# buffers); a multiple of PHASE_BLOCK
CHUNK_ROWS = 256
# length of the fine phase table e^{i q j h}, j < PHASE_BLOCK
PHASE_BLOCK = 32


# ---------------------------------------------------------------------------
# Interior eigenmodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteriorEigenbasis:
    """Eigenmodes of the interior (x > 0) spin-bath block.

    levels: eigenvalues of M/(hbar omega0), ascending; the physical mode
    frequencies are Omega_mu = 2 * levels * omega0. vectors: unitary matrix
    with eigenvector mu in column mu, bare basis ordered
    [up/vac, down/1_1, ..., down/1_N].
    """

    resonance: float             # omega0, rad/s
    mode_frequencies: np.ndarray  # (N,), rad/s
    levels: np.ndarray           # (N+1,), internal energy units
    vectors: np.ndarray          # (N+1, N+1) complex

    @property
    def n_modes(self) -> int:
        return len(self.mode_frequencies)


def interior_eigenmodes(geometry: DetectorGeometry,
                        bath: RectangularBath) -> InteriorEigenbasis:
    """Diagonalize the interior block for a half-line single-spin detector."""
    omega0 = geometry.resonance
    chi = geometry.sensitivity
    if chi is not None and not (chi.support == (0.0, np.inf) and np.all(chi.values == 1.0)):
        raise ConfigurationError("the discrete model requires the half-line sensitivity Theta(x)")
    if bath.modes is None:
        raise ConfigurationError("discrete model needs a bath with a mode ladder")
    freqs = bath.mode_frequencies()
    coups = bath.mode_couplings()
    n = bath.modes
    m_int = np.zeros((n + 1, n + 1), dtype=complex)
    m_int[0, 0] = 0.5
    m_int[np.arange(1, n + 1), np.arange(1, n + 1)] = freqs / omega0 - 0.5
    m_int[0, 1:] = coups / omega0
    m_int[1:, 0] = np.conj(coups) / omega0
    levels, vectors = np.linalg.eigh(m_int)
    residual = np.linalg.norm(m_int @ vectors - vectors * levels[None, :])
    scale = np.linalg.norm(m_int)
    if residual > 1e-12 * max(scale, 1.0):
        raise NumericsError(f"eigen decomposition residual {residual:.3e} too large")
    unit_err = np.max(np.abs(vectors.conj().T @ vectors - np.eye(n + 1)))
    if unit_err > 1e-12:
        raise NumericsError(f"eigenvector matrix not unitary to 1e-12 ({unit_err:.3e})")
    return InteriorEigenbasis(resonance=omega0, mode_frequencies=freqs,
                              levels=levels, vectors=vectors)


# ---------------------------------------------------------------------------
# Channel kinematics
# ---------------------------------------------------------------------------

def _wavenumbers_internal(basis: InteriorEigenbasis, k_int: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Internal-unit (k_l, q_mu) for internal incident k; principal sqrt
    puts Im > 0 on closed channels, which is the decaying branch on both
    sides."""
    k2 = np.atleast_1d(k_int)[:, None] ** 2
    w = basis.mode_frequencies / basis.resonance
    k_l = np.sqrt((k2 + 2.0 * (1.0 - w[None, :])).astype(complex))
    q_mu = np.sqrt((k2 + (1.0 - 2.0 * basis.levels[None, :])).astype(complex))
    return k_l, q_mu


# ---------------------------------------------------------------------------
# Matching at the interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringSolution:
    """Per-k matching amplitudes and diagnostics (wavenumbers in SI)."""

    k: np.ndarray                    # (nk,) incident wavenumbers, 1/m
    flipped_wavenumbers: np.ndarray  # (nk, N) complex k_l, 1/m
    interior_wavenumbers: np.ndarray  # (nk, N+1) complex q_mu, 1/m
    reflection_undetected: np.ndarray  # R0 (nk,)
    reflection_detected: np.ndarray    # R_l (nk, N)
    interior_amplitudes: np.ndarray    # alpha_mu (nk, N+1)
    flux_defect: np.ndarray          # (nk,) relative defect
    matching_residual: np.ndarray    # (nk,) relative residual
    failed: np.ndarray               # (nk,) bool, nodes with no solution


def _matching_residual(basis, k_int, k_l, q_mu, r0, r_l, alpha) -> np.ndarray:
    """Continuity mismatch re-evaluated from the solution amplitudes."""
    u_mat = basis.vectors
    right_val = alpha @ u_mat.T                      # (nk, N+1) channel values
    right_der = (alpha * (1j * q_mu)) @ u_mat.T
    left_val = np.concatenate([(1.0 + r0)[:, None], r_l], axis=1)
    left_der = np.concatenate([(1j * k_int * (1.0 - r0))[:, None],
                               -1j * k_l * r_l], axis=1)
    val_scale = np.maximum(np.max(np.abs(left_val), axis=1),
                           np.max(np.abs(right_val), axis=1))
    der_scale = np.maximum(np.max(np.abs(left_der), axis=1),
                           np.max(np.abs(right_der), axis=1))
    val_res = np.max(np.abs(left_val - right_val), axis=1) / np.maximum(val_scale, 1e-300)
    der_res = np.max(np.abs(left_der - right_der), axis=1) / np.maximum(der_scale, 1e-300)
    return np.maximum(val_res, der_res)


def match_at_origin(basis: InteriorEigenbasis, mass: float, k) -> ScatteringSolution:
    """Solve the value+derivative matching for each incident k (SI, > 0).

    One (N+1) x (N+1) channel-space solve per node, batched; it can be
    singular only where some k_l and some q_mu are exactly 0 together (see
    the module docstring). A singular node is retried at k(1+1e-12); a node
    failing both attempts is marked in `failed`, its amplitudes NaN.
    """
    units = UnitSystem(reference_frequency=basis.resonance, mass=mass)
    k_si = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(k_si <= 0):
        raise ConfigurationError("incident wavenumbers must be positive")
    k_int = np.asarray(units.wavenumber_in(k_si))
    n = basis.n_modes
    u_mat = basis.vectors

    def solve_block(k_block: np.ndarray):
        """Channel values v at x = 0 from (K + U diag(q) U^H) v = 2k e_0."""
        k_l, q_mu = _wavenumbers_internal(basis, k_block)
        a = (u_mat[None, :, :] * q_mu[:, None, :]) @ u_mat.conj().T
        diag = np.arange(n + 1)
        a[:, diag, diag] += np.concatenate([k_block[:, None], k_l], axis=1)
        b = np.zeros((len(k_block), n + 1, 1), dtype=complex)
        b[:, 0, 0] = 2.0 * k_block
        return k_l, q_mu, np.linalg.solve(a, b)[..., 0]

    try:
        k_l, q_mu, sol = solve_block(k_int)
        bad = ~np.all(np.isfinite(sol), axis=1)
    except np.linalg.LinAlgError:
        k_l, q_mu = _wavenumbers_internal(basis, k_int)
        sol = np.full((len(k_int), n + 1), np.nan, dtype=complex)
        bad = np.ones(len(k_int), dtype=bool)
    failed = bad.copy()
    for idx in np.nonzero(bad)[0]:
        for attempt in (k_int[idx], k_int[idx] * (1.0 + 1e-12)):
            try:
                kl_i, qm_i, sol_i = solve_block(np.array([attempt]))
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(sol_i)):
                k_l[idx], q_mu[idx], sol[idx] = kl_i[0], qm_i[0], sol_i[0]
                failed[idx] = False
                break

    r0 = sol[:, 0] - 1.0
    r_l = sol[:, 1:]
    alpha = sol @ u_mat.conj()
    with np.errstate(invalid="ignore"):
        residual = _matching_residual(basis, k_int, k_l, q_mu, r0, r_l, alpha)
        open_l = np.abs(k_l.imag) == 0.0
        open_mu = np.abs(q_mu.imag) == 0.0
        out_flux = (k_int * np.abs(r0) ** 2
                    + np.sum(np.where(open_l, k_l.real, 0.0) * np.abs(r_l) ** 2, axis=1)
                    + np.sum(np.where(open_mu, q_mu.real, 0.0) * np.abs(alpha) ** 2, axis=1))
        defect = np.abs(k_int - out_flux) / k_int
    lu = units.length_unit
    return ScatteringSolution(
        k=k_si, flipped_wavenumbers=k_l / lu, interior_wavenumbers=q_mu / lu,
        reflection_undetected=r0, reflection_detected=r_l,
        interior_amplitudes=alpha, flux_defect=defect,
        matching_residual=residual, failed=failed)


# ---------------------------------------------------------------------------
# Wave-packet synthesis
# ---------------------------------------------------------------------------

def _plane_wave_blocks(q: np.ndarray, amp: np.ndarray, x0: float, h: float, n: int):
    """Row blocks of S[b, r] = sum_p amp[b, p] e^{i q[b, p] x_r}, x_r = x0 + r h.

    q and amp are (batch, terms). Yields (start, stop, S[:, start:stop]) for
    consecutive blocks of at most CHUNK_ROWS rows. With r = m B + j
    (B = PHASE_BLOCK), e^{i q x_r} = e^{i q (x0 + m B h)} e^{i q j h}: the
    coarse factor, times amp, is computed per block, the fine table once,
    and the sum over p is one matmul batched over b. Both factors are
    bounded by 1 when Im(q h) >= 0 and Im(q x_r) >= 0; callers orient h so.
    """
    fine = np.exp(1j * q[:, :, None] * (h * np.arange(PHASE_BLOCK)))
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        anchors = x0 + h * np.arange(start, stop, PHASE_BLOCK)
        coarse = amp[:, None, :] * np.exp(1j * q[:, None, :] * anchors[None, :, None])
        block = np.matmul(coarse, fine).reshape(len(q), -1)
        yield start, stop, block[:, :stop - start]


def _half_line_overlap(a_vals: np.ndarray, x_lo: float) -> np.ndarray:
    """integral_{x_lo}^0 e^{i a x} dx = (1 - e^{i a x_lo})/(i a), series at small a."""
    a_vals = np.asarray(a_vals)
    small = np.abs(a_vals * x_lo) < 1e-8
    safe = np.where(small, 1.0, a_vals)
    out = (1.0 - np.exp(1j * safe * x_lo)) / (1j * safe)
    return np.where(small, -x_lo * (1.0 + 0.5j * a_vals * x_lo), out)


@dataclass
class SectorState:
    """All channel fields at one time on a shared grid (SI)."""

    grid: Grid1D
    no_flip: np.ndarray        # psi in |up, vac>, m^-1/2
    flipped: np.ndarray        # (N, nx) fields in |down, 1_l>


class ScatteringSynthesis:
    """Shared machinery: quadrature, matching solutions, packet coefficients.

    Heavy pieces (matching solve, overlap Gram matrix) are built once and
    reused by both the time series and the field snapshots. Only the matched
    k-nodes are kept: a node that `match_at_origin` marks failed is dropped,
    with a warning, from every per-node array (`solution` keeps all nodes).
    """

    def __init__(self, packet: GaussianPacketSpec, geometry: DetectorGeometry,
                 bath: RectangularBath, *, k_nodes: int = 2001):
        self.basis = interior_eigenmodes(geometry, bath)
        self.units = UnitSystem(reference_frequency=geometry.resonance, mass=packet.mass)
        k_si, w_si = packet.quadrature_nodes(k_nodes)
        psi = momentum_amplitude(packet, k_si)
        self.solution = sol = match_at_origin(self.basis, packet.mass, k_si)
        n_failed = int(np.sum(sol.failed))
        if n_failed:
            warnings.warn(f"dropping {n_failed} failed matching nodes from synthesis")
        # the matched nodes; a slice when all matched, so that indexing
        # takes views of the solution instead of copies
        ok = ~sol.failed if n_failed else slice(None)
        lu = self.units.length_unit
        self.k_int = np.asarray(self.units.wavenumber_in(k_si[ok]))
        # combined coefficient w * psi in internal units
        self.coeff = (w_si * psi * np.sqrt(lu))[ok]
        self.energies_int = 0.5 * self.k_int**2
        self.k_l_int = sol.flipped_wavenumbers[ok] * lu
        self.q_mu_int = sol.interior_wavenumbers[ok] * lu
        self.r0 = sol.reflection_undetected[ok]
        self.r_l = sol.reflection_detected[ok]
        self.alpha = sol.interior_amplitudes[ok]
        # no-flip interior amplitudes: beta_mu = U[0, mu] * alpha_mu
        self.beta = self.alpha * self.basis.vectors[0, :][None, :]

    def time_phases(self, times_si: np.ndarray) -> np.ndarray:
        """(nk, nt) coefficient matrix c_k(t), spin-energy offset dropped
        (global phase in the one-excitation sector)."""
        t_int = np.asarray(self.units.time_in(np.asarray(times_si, dtype=float)))
        return self.coeff[:, None] * np.exp(-1j * np.outer(self.energies_int, t_int))

    # --- survival series ---------------------------------------------
    def no_flip_norm_series(self, times_si: np.ndarray, *, x_min: float,
                            x_max: float, right_points: int = 20001) -> dict:
        """|no-flip|^2 mass over [x_min, x_max] for each time.

        The x < 0 part integrates in closed form (Gram matrix of finite
        oscillatory integrals). The x > 0 part is synthesized on a uniform
        grid, one block of rows at a time: the N+1 interior modes are summed
        on the k-nodes by the coarse x fine factorization (amplitudes beta,
        phases exact to a few ulp, no accumulation along x), one matmul takes
        the block to all times, and composite Simpson weights integrate
        |field|^2. Returns the series plus edge-mass diagnostics; the right
        edge density is the maximum over the last five grid rows.
        """
        if not (-np.inf < x_min < 0.0 < x_max < np.inf):
            raise ConfigurationError("series window must be finite and straddle 0")
        if right_points < 3 or right_points % 2 == 0:
            raise ConfigurationError(f"fewer than 3 Simpson points over [0, x_max], or an "
                                     f"even count: {right_points}")
        x_lo = float(self.units.length_in(x_min))
        x_hi = float(self.units.length_in(x_max))
        c_mat = self.time_phases(times_si)
        nt = c_mat.shape[1]

        # left: Gram matrix of (e^{ikx} + R0 e^{-ikx}) pairs over [x_lo, 0]
        k = self.k_int
        diff = k[None, :] - k[:, None]
        total = k[None, :] + k[:, None]
        e_diff = _half_line_overlap(diff, x_lo)
        e_sum = _half_line_overlap(-total, x_lo)
        r0_row = self.r0[None, :]
        r0_col = np.conj(self.r0)[:, None]
        gram = e_diff + e_sum * r0_row + np.conj(e_sum) * r0_col \
            + np.conj(e_diff) * (r0_col * r0_row)
        left = np.sum(np.conj(c_mat) * (gram @ c_mat), axis=0).real / (2.0 * np.pi)
        del e_diff, e_sum, gram, diff, total

        # right: Simpson weights over [0, x_hi]
        h = x_hi / (right_points - 1)
        simpson = np.full(right_points, 2.0)
        simpson[1::2] = 4.0
        simpson[0] = simpson[-1] = 1.0
        simpson *= h / 3.0
        right = np.zeros(nt)
        edge_density = 0.0
        for start, stop, synth in _plane_wave_blocks(self.q_mu_int, self.beta, 0.0, h,
                                                     right_points):
            density = np.abs(synth.T @ c_mat) ** 2 / (2.0 * np.pi)
            right += simpson[start:stop] @ density
            # the last five grid rows, wherever the block boundaries fall
            tail = right_points - 5 - start
            if tail < stop - start:
                edge_density = max(edge_density, float(np.max(density[max(tail, 0):])))
        # left-edge mass density (closed-form basis evaluated at x_lo)
        phi_at_edge = np.exp(1j * k * x_lo) + self.r0 * np.exp(-1j * k * x_lo)
        left_edge = np.max(np.abs(phi_at_edge @ c_mat) ** 2) / (2.0 * np.pi)
        return {
            "no_flip_mass": left + right,
            "right_mass": right,
            "edge_density_internal": max(edge_density, left_edge),
        }

    # --- fields -------------------------------------------------------
    def state(self, t_si: float, grid: Grid1D) -> SectorState:
        """All channel fields at time t_si on grid.

        Three factorized plane-wave sums on x_r = x_min + r h, with x_min and
        h taken from the grid's definition (not from differences of its
        points): on x < 0 the no-flip pair e^{ikx}, R0 e^{-ikx} and the
        flipped channels R_l e^{-i k_l x}; on x >= 0 the interior modes
        alpha_mu e^{i q_mu x}, mapped to the bare channels by the
        eigenvectors. Each phase is exact to a few ulp. The x < 0 side is
        walked leftward from the last negative point, so that both factors
        of an evanescent e^{-i k_l x} decay instead of overflowing.
        """
        x0 = float(self.units.length_in(grid.x_min))
        h = float(self.units.length_in(grid.spacing))
        nx = grid.n_points
        n_neg = int(np.count_nonzero(x0 + h * np.arange(nx) < 0.0))
        c_t = self.time_phases(np.array([checked_scalar("t_si", t_si)]))[:, 0]
        no_flip = np.empty(nx, dtype=complex)
        flipped = np.empty((self.basis.n_modes, nx), dtype=complex)
        if n_neg:
            x_last = x0 + (n_neg - 1) * h
            k = self.k_int
            left = _plane_wave_blocks(np.concatenate([k, -k])[None, :],
                                      np.concatenate([c_t, self.r0 * c_t])[None, :],
                                      x_last, -h, n_neg)
            for start, stop, block in left:
                no_flip[n_neg - stop:n_neg - start] = block[0, ::-1]
            left = _plane_wave_blocks(-self.k_l_int.T, (self.r_l * c_t[:, None]).T,
                                      x_last, -h, n_neg)
            for start, stop, block in left:
                flipped[:, n_neg - stop:n_neg - start] = block[:, ::-1]
        if n_neg < nx:
            u_mat = self.basis.vectors
            right = _plane_wave_blocks(self.q_mu_int.T, (self.alpha * c_t[:, None]).T,
                                       x0 + n_neg * h, h, nx - n_neg)
            for start, stop, block in right:
                no_flip[n_neg + start:n_neg + stop] = u_mat[0] @ block
                flipped[:, n_neg + start:n_neg + stop] = u_mat[1:] @ block
        scale = 1.0 / (ROOT_2PI * np.sqrt(self.units.length_unit))
        return SectorState(grid=grid, no_flip=no_flip * scale, flipped=flipped * scale)


# ---------------------------------------------------------------------------
# Detection density
# ---------------------------------------------------------------------------

@dataclass
class DiscreteDetectionSeries:
    """Flip probability and detection density on a uniform time grid (SI)."""

    times: np.ndarray
    flip_probability: np.ndarray      # P_flip(t)
    detection_density: np.ndarray     # dP_flip/dt, 1/s

    def to_csv(self, path) -> None:
        write_csv(path, ["t_s", "detection_density_per_s", "flip_probability"],
                  [self.times, self.detection_density, self.flip_probability])


def detection_density_discrete(packet: GaussianPacketSpec,
                               geometry: DetectorGeometry,
                               bath: RectangularBath,
                               times: np.ndarray, *,
                               x_min: float, x_max: float,
                               right_points: int = 20001,
                               k_nodes: int = 2001
                               ) -> DiscreteDetectionSeries:
    """P_flip and its time derivative for the discrete model.

    times must be uniform (centered differences assume it). x_min/x_max
    bound the region that carries all probability over the window; edge
    leakage beyond 1e-6, and a window longer than twice the recurrence
    time, raise a UserWarning.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 5:
        raise ConfigurationError("need at least 5 time samples")
    steps = np.diff(times)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise ConfigurationError("time grid must be uniform")
    synthesis = ScatteringSynthesis(packet, geometry, bath, k_nodes=k_nodes)
    series = synthesis.no_flip_norm_series(times, x_min=x_min, x_max=x_max,
                                           right_points=right_points)
    p_flip = 1.0 - series["no_flip_mass"]
    w1 = np.gradient(p_flip, times)
    t_rec = bath.recurrence_time()
    window = times[-1] - times[0]
    if window > 2.0 * t_rec:
        warnings.warn(f"time window {window:.3e} s exceeds twice the recurrence "
                      f"time {t_rec:.3e} s; late samples are unphysical")
    sigma_x = packet.position_width
    edge_mass = series["edge_density_internal"] * float(
        synthesis.units.length_in(sigma_x))
    if edge_mass > 1e-6:
        warnings.warn(f"probability density at the window edges reaches "
                      f"~{edge_mass:.2e} (fraction scale); widen [x_min, x_max]")
    return DiscreteDetectionSeries(times=times, flip_probability=p_flip,
                                   detection_density=w1)
