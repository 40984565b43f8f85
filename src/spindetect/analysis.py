"""Post-run analysis: arrival-time statistics, curve comparison, mass ledger.

The detection density w1(t) is in general not normalized: part of the
packet is reflected without ever flipping a spin, so the integral of w1
is the total detection probability, not 1.  Statistics (mean, spread,
mode) are therefore taken against w1 renormalized by plain division with
its own integral over the analysis window.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericsError

__all__ = [
    "ArrivalStats",
    "CurveComparison",
    "arrival_stats",
    "compare_curves",
    "mass_accounting",
]

# w1 entries may go slightly negative through finite differencing; clip
# below this (relative to the peak) and reject anything worse.
NEGATIVE_DENSITY_TOL = 1e-6
UNDEFINED_MASS = 1e-9
# mass still inside the sensitive region at the end of a run, above which
# mass_accounting warns that the run stopped too early
RESIDUAL_WARN = 1e-3


@dataclass(frozen=True)
class ArrivalStats:
    """Summary of an arrival-time density over a window.  mean/std/mode are
    None when the captured probability is too small to support them."""

    total_detection_probability: float
    mean: float | None
    std: float | None
    mode: float | None
    window: tuple[float, float]

    def __post_init__(self):
        if not -1e-12 <= self.total_detection_probability <= 1.0 + 1e-6:
            raise NumericsError(
                f"total detection probability {self.total_detection_probability!r} "
                "outside [0, 1]")
        if self.total_detection_probability > UNDEFINED_MASS:
            for name in ("mean", "std", "mode"):
                v = getattr(self, name)
                if v is None or not np.isfinite(v):
                    raise NumericsError(f"{name} must be finite when mass is captured")

    def as_dict(self) -> dict:
        return {
            "total_detection_probability": self.total_detection_probability,
            "mean_arrival_s": self.mean,
            "std_arrival_s": self.std,
            "mode_arrival_s": self.mode,
            "window_s": list(self.window),
        }


def arrival_stats(times: np.ndarray, density: np.ndarray,
                  window: tuple[float, float] | None = None) -> ArrivalStats:
    """Total detection probability and renormalized moments of density(t).

    times must be strictly increasing.  Entries of density more negative
    than NEGATIVE_DENSITY_TOL times the peak are an error; milder negatives
    are treated as zero.  When the window captures less than UNDEFINED_MASS
    of probability the moments are undefined and returned as None.
    """
    t = np.asarray(times, dtype=float)
    w = np.asarray(density, dtype=float).copy()
    if t.ndim != 1 or t.shape != w.shape or t.size < 2:
        raise ConfigurationError("times and density must be matching 1D arrays")
    if np.any(np.diff(t) <= 0.0):
        raise ConfigurationError("times must be strictly increasing")
    peak = float(np.max(np.abs(w))) if w.size else 0.0
    if peak > 0.0 and float(np.min(w)) < -NEGATIVE_DENSITY_TOL * peak:
        raise ConfigurationError(
            f"density has negative entries below -{NEGATIVE_DENSITY_TOL:g} x peak")
    np.clip(w, 0.0, None, out=w)

    if window is None:
        window = (float(t[0]), float(t[-1]))
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ConfigurationError("analysis window must have positive length")
    sel = (t >= lo) & (t <= hi)
    if np.count_nonzero(sel) < 2:
        raise ConfigurationError("analysis window contains fewer than two samples")
    ts, ws = t[sel], w[sel]

    total = float(np.trapezoid(ws, ts))
    if total <= UNDEFINED_MASS:
        return ArrivalStats(total_detection_probability=max(total, 0.0),
                            mean=None, std=None, mode=None, window=(lo, hi))
    mean = float(np.trapezoid(ts * ws, ts) / total)
    second = float(np.trapezoid(ts * ts * ws, ts) / total)
    var = max(second - mean * mean, 0.0)
    mode = float(ts[np.argmax(ws)])
    return ArrivalStats(total_detection_probability=total, mean=mean,
                        std=float(np.sqrt(var)), mode=mode, window=(lo, hi))


@dataclass(frozen=True)
class CurveComparison:
    """Distance between two time series resampled to a shared uniform grid.
    Relative numbers are against the larger peak of the two curves."""

    window: tuple[float, float]
    n_nodes: int
    peak: float
    linf: float
    l2: float
    linf_relative: float
    l2_relative: float

    def as_dict(self) -> dict:
        return {
            "window_s": list(self.window),
            "n_nodes": self.n_nodes,
            "peak": self.peak,
            "linf": self.linf,
            "l2_rms": self.l2,
            "linf_relative": self.linf_relative,
            "l2_relative": self.l2_relative,
        }


def compare_curves(times_a: np.ndarray, curve_a: np.ndarray,
                   times_b: np.ndarray, curve_b: np.ndarray,
                   window: tuple[float, float] | None = None,
                   n_resample: int = 2048) -> CurveComparison:
    """Resample both curves onto a uniform grid over the overlap of their
    time ranges (optionally intersected with an explicit window) and report
    absolute and peak-relative L_inf and RMS distances.

    Disjoint time ranges are an error.  The metric is symmetric in the two
    inputs and obeys the triangle inequality for curves sharing a window.
    """
    ta = np.asarray(times_a, dtype=float)
    tb = np.asarray(times_b, dtype=float)
    a = np.asarray(curve_a, dtype=float)
    b = np.asarray(curve_b, dtype=float)
    for t_arr, c_arr, name in ((ta, a, "a"), (tb, b, "b")):
        if t_arr.ndim != 1 or t_arr.shape != c_arr.shape or t_arr.size < 2:
            raise ConfigurationError(f"curve {name}: times and values must be matching 1D arrays")
        if np.any(np.diff(t_arr) <= 0.0):
            raise ConfigurationError(f"curve {name}: times must be strictly increasing")
    lo = max(ta[0], tb[0])
    hi = min(ta[-1], tb[-1])
    if window is not None:
        lo = max(lo, float(window[0]))
        hi = min(hi, float(window[1]))
    if not hi > lo:
        raise ConfigurationError("curves have no overlapping time window")
    if n_resample < 2:
        raise ConfigurationError("n_resample must be at least 2")
    grid = np.linspace(lo, hi, n_resample)
    ra = np.interp(grid, ta, a)
    rb = np.interp(grid, tb, b)
    diff = np.abs(ra - rb)
    peak = float(max(np.max(np.abs(ra)), np.max(np.abs(rb))))
    linf = float(np.max(diff))
    l2 = float(np.sqrt(np.trapezoid(diff * diff, grid) / (hi - lo)))
    if peak > 0.0:
        rel_inf, rel_2 = linf / peak, l2 / peak
    else:
        rel_inf, rel_2 = 0.0, 0.0
    return CurveComparison(window=(float(lo), float(hi)), n_nodes=n_resample,
                           peak=peak, linf=linf, l2=l2,
                           linf_relative=rel_inf, l2_relative=rel_2)


def mass_fractions(fields: np.ndarray, grid, region: tuple[float, float],
                   no_detection_prob: np.ndarray,
                   detection_density: np.ndarray) -> dict[str, float]:
    """The one mass ledger of a conditional run, behind mass_accounting:
    the final mass left of, right of and inside region, and
    P0(0) - P0(end), over P0(0).  fields is one field (x,) or a channel
    stack (channel, x).  The mass is h * sum |psi|^2 summed over channels,
    the inner product of P0 (a two-channel run's P0 is the combined norm),
    so the four total 1 to roundoff.  P0 moves by rounding only when
    detection_density is identically zero, so detected is 0 then; a drop
    below zero is rounding too (ConditionalTrajectory rejects a real rise
    of P0) and is reported as 0.
    """
    lo, hi = float(region[0]), float(region[1])
    x = grid.points()
    dens = np.sum(np.abs(np.atleast_2d(fields)) ** 2, axis=0)
    left = x < lo
    right = x > hi
    inside = ~(left | right)
    h = grid.spacing
    norm0 = float(no_detection_prob[0])
    drop = norm0 - float(no_detection_prob[-1]) if np.any(detection_density) else 0.0
    return {
        "reflected": float(np.sum(dens[left]) * h) / norm0,
        "transmitted_undetected": float(np.sum(dens[right]) * h) / norm0,
        "residual_in_region": float(np.sum(dens[inside]) * h) / norm0,
        "detected": max(0.0, drop) / norm0,
    }


def mass_accounting(trajectory, region: tuple[float, float] | None = None
                    ) -> dict[str, float]:
    """Where did the launched packet end up: reflected (left of the sensitive
    region), transmitted without detection (right of it), still inside it,
    or detected: mass_fractions of a conditional run's final fields (every
    channel of a two-channel run), optionally against another region.  This
    is the run's only ledger and the only check that it sums to 1; a ledger
    that does not is a NumericsError.

    A residual inside the region above RESIDUAL_WARN means the run stopped
    before the packet cleared the detector, and raises a UserWarning; the
    trajectory is left unchanged.
    """
    split = mass_fractions(trajectory.final_fields, trajectory.grid,
                           trajectory.region if region is None else region,
                           trajectory.no_detection_prob, trajectory.detection_density)
    total = sum(split.values())
    if abs(total - 1.0) > 1e-6:
        raise NumericsError(f"mass ledger sums to {total!r}, not 1")
    if split["residual_in_region"] > RESIDUAL_WARN:
        warnings.warn(f"residual mass {split['residual_in_region']:.3e} still inside "
                      "the sensitive region at the final time; extend the run to "
                      "drain it", stacklevel=2)
    return split
