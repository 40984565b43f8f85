"""Post-run analysis: arrival-time statistics, curve comparison, mass ledger.

The detection density w1(t) is in general not normalized: part of the
packet is reflected without ever flipping a spin, so the integral of w1
is the total detection probability, not 1.  Statistics (mean, spread,
mode) are therefore taken against w1 renormalized by plain division with
its own integral over the analysis window.

arrival_stats, compare_curves and mass_accounting return plain dicts whose
keys, in order, are the ones the manifest and comparison.json store, so a
run writes their results as they are.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigurationError, NumericsError

__all__ = [
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


def arrival_stats(times: np.ndarray, density: np.ndarray,
                  window: tuple[float, float] | None = None) -> dict:
    """Total detection probability and renormalized moments of density(t).

    times must be strictly increasing.  Entries of density more negative
    than NEGATIVE_DENSITY_TOL times the peak are an error; milder negatives
    are treated as zero.  When the window captures less than UNDEFINED_MASS
    of probability the moments are undefined and returned as None.  A total
    outside [-1e-12, 1 + 1e-6], or a moment that is not finite when mass is
    captured, is a NumericsError.  Keys: total_detection_probability,
    mean_arrival_s, std_arrival_s, mode_arrival_s and window_s [lo, hi].
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
    if not -1e-12 <= total <= 1.0 + 1e-6:
        raise NumericsError(f"total detection probability {total!r} outside [0, 1]")
    stats = {"total_detection_probability": total, "mean_arrival_s": None,
             "std_arrival_s": None, "mode_arrival_s": None, "window_s": [lo, hi]}
    if total <= UNDEFINED_MASS:
        return stats
    mean = float(np.trapezoid(ts * ws, ts) / total)
    second = float(np.trapezoid(ts * ts * ws, ts) / total)
    var = max(second - mean * mean, 0.0)
    stats.update(mean_arrival_s=mean, std_arrival_s=float(np.sqrt(var)),
                 mode_arrival_s=float(ts[np.argmax(ws)]))
    for key in ("mean_arrival_s", "std_arrival_s", "mode_arrival_s"):
        if not np.isfinite(stats[key]):
            raise NumericsError(f"{key} must be finite when mass is captured")
    return stats


def compare_curves(times_a: np.ndarray, curve_a: np.ndarray,
                   times_b: np.ndarray, curve_b: np.ndarray,
                   window: tuple[float, float] | None = None,
                   n_resample: int = 2048) -> dict:
    """Resample both curves onto a uniform grid over the overlap of their
    time ranges (optionally intersected with an explicit window) and report
    absolute and peak-relative L_inf and RMS (l2_rms) distances.

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
    return {"window_s": [float(lo), float(hi)], "n_nodes": n_resample, "peak": peak,
            "linf": linf, "l2_rms": l2,
            "linf_relative": linf / peak if peak > 0.0 else 0.0,
            "l2_relative": l2 / peak if peak > 0.0 else 0.0}


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


def mass_accounting(trajectory) -> dict[str, float]:
    """Where did the launched packet end up: reflected (left of the sensitive
    region), transmitted without detection (right of it), still inside it,
    or detected: mass_fractions of a conditional run's final fields (every
    channel of a two-channel run) around the trajectory's region.  This
    is the run's only ledger and the only check that it sums to 1; a ledger
    that does not is a NumericsError.

    A residual inside the region above RESIDUAL_WARN means the run stopped
    before the packet cleared the detector, and raises a UserWarning; the
    trajectory is left unchanged.  A half-line region (start, inf) has
    nothing right of it, so transmitted_undetected is 0 and
    residual_in_region is the undetected mass still travelling inside the
    detector: the warning then says that w1 has not drained.
    """
    split = mass_fractions(trajectory.final_fields, trajectory.grid, trajectory.region,
                           trajectory.no_detection_prob, trajectory.detection_density)
    total = sum(split.values())
    if abs(total - 1.0) > 1e-6:
        raise NumericsError(f"mass ledger sums to {total!r}, not 1")
    if split["residual_in_region"] > RESIDUAL_WARN:
        warnings.warn(f"residual mass {split['residual_in_region']:.3e} still inside "
                      "the sensitive region at the final time; extend the run to "
                      "drain it", stacklevel=2)
    return split
