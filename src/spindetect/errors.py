"""Exception types shared across the package, and the physical-scalar check."""

import math


class SpindetectError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SpindetectError):
    """Invalid physical or numerical configuration (bad field values,
    under-resolved grids, unreachable preconditions)."""


class NumericsError(SpindetectError):
    """A numerical routine failed to meet its contract (singular matching
    system after retry, non-convergent quadrature, unphysical dispersion)."""


def checked_scalar(name: str, value, sign: str = "") -> float:
    """value as a float, or a ConfigurationError naming it.  NaN and +-inf
    always fail; sign "nonnegative" or "positive" also fixes the sign."""
    x = float(value)
    if not (math.isfinite(x) and {"": True, "nonnegative": x >= 0.0, "positive": x > 0.0}[sign]):
        raise ConfigurationError(f"{name} must be finite{sign and ' and ' + sign}, got {value}")
    return x
