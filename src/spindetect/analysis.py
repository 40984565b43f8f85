"""Post-run analysis: arrival-time statistics, curve comparison, mass ledger.

The detection density w1(t) is in general not normalized: part of the
packet is reflected without ever flipping a spin, so the integral of w1
is the total detection probability, not 1.  Statistics (mean, spread,
mode) are therefore taken against w1 renormalized by plain division with
its own integral over the series.

arrival_stats, compare_curves and mass_accounting return plain dicts whose
keys, in order, are the ones the manifest and comparison.json store, so a
run writes their results as they are.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigurationError, NumericsError, checked_count, checked_scalar

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


def _curve(times, values, what: str) -> tuple[np.ndarray, np.ndarray]:
    """times and values as float arrays, or a ConfigurationError that starts
    with what: matching 1D arrays of at least 2 finite samples, the times
    strictly increasing."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 2:
        raise ConfigurationError(f"{what}: times and values must be matching 1D arrays "
                                 "of at least 2 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ConfigurationError(f"{what}: times and values must be finite")
    if not np.all(np.diff(t) > 0.0):
        raise ConfigurationError(f"{what}: times must be strictly increasing")
    return t, v


def arrival_stats(times: np.ndarray, density: np.ndarray) -> dict:
    """Total detection probability and renormalized moments of density(t).

    times and density pass _curve.  Entries of density more negative than
    NEGATIVE_DENSITY_TOL times the peak are an error; milder negatives are
    treated as zero.  When the series captures less than UNDEFINED_MASS of
    probability the moments are undefined and returned as None.  A total
    outside [-1e-12, 1 + 1e-6], or a moment that is not finite when mass is
    captured, is a NumericsError.  Keys: total_detection_probability,
    mean_arrival_s, std_arrival_s, mode_arrival_s and window_s, the span
    [times[0], times[-1]] of the series.
    """
    t, w = _curve(times, density, "density")
    peak = float(np.max(np.abs(w)))
    if peak > 0.0 and float(np.min(w)) < -NEGATIVE_DENSITY_TOL * peak:
        raise ConfigurationError(
            f"density has negative entries below -{NEGATIVE_DENSITY_TOL:g} x peak")
    w = np.clip(w, 0.0, None)

    total = float(np.trapezoid(w, t))
    if not -1e-12 <= total <= 1.0 + 1e-6:
        raise NumericsError(f"total detection probability {total!r} outside [0, 1]")
    stats = {"total_detection_probability": total, "mean_arrival_s": None,
             "std_arrival_s": None, "mode_arrival_s": None,
             "window_s": [float(t[0]), float(t[-1])]}
    if total <= UNDEFINED_MASS:
        return stats
    mean = float(np.trapezoid(t * w, t) / total)
    second = float(np.trapezoid(t * t * w, t) / total)
    var = max(second - mean * mean, 0.0)
    stats.update(mean_arrival_s=mean, std_arrival_s=float(np.sqrt(var)),
                 mode_arrival_s=float(t[np.argmax(w)]))
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

    Each curve passes _curve; disjoint time ranges are an error.  The
    metric is symmetric in the two inputs and obeys the triangle inequality
    for curves sharing a window.
    """
    ta, a = _curve(times_a, curve_a, "curve a")
    tb, b = _curve(times_b, curve_b, "curve b")
    n_resample = checked_count("n_resample", n_resample, 2)
    lo = max(ta[0], tb[0])
    hi = min(ta[-1], tb[-1])
    if window is not None:
        lo = max(lo, checked_scalar("window", window[0]))
        hi = min(hi, checked_scalar("window", window[1]))
    if not hi > lo:
        raise ConfigurationError("curves have no overlapping time window")
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
