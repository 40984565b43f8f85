"""Detector geometry: spatial grids, sensitivity profiles, spin layout.

The detector is a region of space where a moving particle can flip one or
more localized spins. A sensitivity profile chi(x) in [0, 1] weights the
spin-flip coupling. In 1D every profile is one piecewise-linear table,
zero outside its range: the half line Theta(x - s) is the table
[s, +inf] -> [1, 1] and the interval [s, s + d] the table
[s, s + d] -> [1, 1], so each edge of a detector follows one rule. In 3D
each spin carries its own region and sensitivity chi_j(x), a bare
resonance, an optional multiplicity (number of co-located identical
spins), and pairwise ferromagnetic couplings between spins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, checked_scalar


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid on [x_min, x_max], SI meters."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        for name in ("x_min", "x_max"):
            checked_scalar(name, getattr(self, name))
        if not self.x_max > self.x_min:
            raise ConfigurationError(
                f"grid needs x_max > x_min, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 8:
            raise ConfigurationError(f"grid needs at least 8 points, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


# ---------------------------------------------------------------------------
# 1D sensitivity profiles
# ---------------------------------------------------------------------------

class TabulatedSensitivity:
    """chi from a table, linearly interpolated, zero outside the table range.

    Values must lie in [0, 1]; abscissae must be strictly increasing and
    finite, except a last +inf that ends a flat segment (a profile that
    stays at its last value for good, like the half line).
    """

    def __init__(self, x_table: Sequence[float], values: Sequence[float]):
        x_table = np.asarray(x_table, dtype=float)
        values = np.asarray(values, dtype=float)
        if x_table.ndim != 1 or x_table.shape != values.shape or x_table.size < 2:
            raise ConfigurationError("tabulated sensitivity needs matching 1D tables, >= 2 rows")
        if not np.all(np.diff(x_table) > 0):
            raise ConfigurationError("tabulated sensitivity abscissae must be strictly increasing")
        # increasing abscissae can be non-finite only at the ends
        if np.isinf(x_table[0]) or (np.isinf(x_table[-1]) and values[-2] != values[-1]):
            raise ConfigurationError(
                "tabulated sensitivity abscissae must be finite, except a last +inf"
                " after a flat segment")
        if not np.all((values >= 0) & (values <= 1)):
            raise ConfigurationError("sensitivity values must lie in [0, 1]")
        self.x_table = x_table
        self.values = values

    @property
    def support(self) -> tuple[float, float]:
        return (float(self.x_table[0]), float(self.x_table[-1]))

    def __call__(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.x_table, self.values,
                         left=0.0, right=0.0)


Sensitivity = TabulatedSensitivity


def HalfLineSensitivity(start: float = 0.0) -> Sensitivity:
    """chi(x) = Theta(x - start): detector occupies [start, +inf)."""
    return TabulatedSensitivity([checked_scalar("start", start), np.inf], [1.0, 1.0])


def IntervalSensitivity(width: float, start: float = 0.0) -> Sensitivity:
    """chi(x) = 1 on [start, start + width], 0 elsewhere."""
    start = checked_scalar("start", start)
    width = checked_scalar("width", width, "positive")
    return TabulatedSensitivity([start, start + width], [1.0, 1.0])


# ---------------------------------------------------------------------------
# 3D spin layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinRegion3D:
    """One spin species in 3D: region sensitivity, optional multiplicity.

    sensitivity maps an (n, 3) array of SI positions to weights in [0, 1].
    multiplicity counts identical co-located spins sharing this region
    (ensembles are represented by weight, not by object count).
    """

    sensitivity: Callable[[np.ndarray], np.ndarray]
    multiplicity: int = 1

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ConfigurationError(f"multiplicity must be >= 1, got {self.multiplicity}")


def ball_region(center, radius: float) -> Callable[[np.ndarray], np.ndarray]:
    """Indicator sensitivity of a ball, for building SpinRegion3D objects."""
    center = np.asarray(center, dtype=float).reshape(3)
    radius = checked_scalar("radius", radius, "positive")

    def chi(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return (np.linalg.norm(points - center, axis=-1) <= radius).astype(float)

    return chi


@dataclass(frozen=True)
class DetectorGeometry:
    """Spin resonances, sensitivity, and pairwise couplings.

    resonances: bare level splittings omega_0^(j), rad/s, one per spin
    species. sensitivity: the 1D profile chi(x) (single-spin 1D models).
    exchange: pairwise ferromagnetic couplings, rad/s; entry [k, j] with
    k < j refers to the unordered pair (k, j); must be >= 0. regions_3d:
    per-spin 3D regions for rate maps (same order as resonances).
    """

    resonances: tuple[float, ...]
    sensitivity: Sensitivity | None = None
    exchange: np.ndarray | None = None
    regions_3d: tuple[SpinRegion3D, ...] | None = None

    def __post_init__(self):
        if len(self.resonances) < 1:
            raise ConfigurationError("geometry needs at least one spin")
        for w in self.resonances:
            checked_scalar("resonance", w, "positive")
        if self.exchange is not None:
            ex = np.asarray(self.exchange, dtype=float)
            d = len(self.resonances)
            if ex.shape != (d, d):
                raise ConfigurationError(
                    f"exchange matrix must be ({d}, {d}), got {ex.shape}")
            if np.any(ex < 0):
                raise ConfigurationError("exchange couplings must be >= 0")
            object.__setattr__(self, "exchange", ex)
        if self.regions_3d is not None and len(self.regions_3d) != len(self.resonances):
            raise ConfigurationError("one 3D region per spin resonance required")

    @property
    def spin_count(self) -> int:
        return len(self.resonances)

    @property
    def resonance(self) -> float:
        """The single-spin resonance; errors out for multi-spin layouts."""
        if len(self.resonances) != 1:
            raise ConfigurationError("resonance is only defined for single-spin geometry")
        return self.resonances[0]


def single_spin(resonance: float, sensitivity: Sensitivity) -> DetectorGeometry:
    """Convenience constructor for the 1D one-spin detector."""
    return DetectorGeometry(resonances=(float(resonance),), sensitivity=sensitivity)
