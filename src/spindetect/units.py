"""Internal unit system for the detector models.

All public interfaces of this package use SI. Internally every solver works
in natural units with hbar = mass = 1, built from a reference angular
frequency omega_ref (the spin resonance for the detector models):

    time unit    T0 = 1/omega_ref
    length unit  L0 = sqrt(hbar/(mass*omega_ref))
    energy unit  E0 = hbar*omega_ref

This keeps every matrix entry within a few orders of magnitude of unity
instead of mixing hbar ~ 1e-34 with wavenumbers ~ 1e9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import checked_scalar

HBAR = 1.054571817e-34  # J s
CESIUM_MASS_KG = 2.2069e-25  # cesium-133 atom


@dataclass(frozen=True)
class UnitSystem:
    """Conversion factors between SI and the internal natural units."""

    reference_frequency: float  # rad/s
    mass: float  # kg

    def __post_init__(self):
        checked_scalar("reference_frequency", self.reference_frequency, "positive")
        checked_scalar("mass", self.mass, "positive")

    @property
    def time_unit(self) -> float:
        """T0 in seconds."""
        return 1.0 / self.reference_frequency

    @property
    def length_unit(self) -> float:
        """L0 in meters."""
        return np.sqrt(HBAR / (self.mass * self.reference_frequency))

    # --- SI -> internal -------------------------------------------------
    def time_in(self, t_si):
        return np.asarray(t_si) * self.reference_frequency

    def length_in(self, x_si):
        return np.asarray(x_si) / self.length_unit

    def wavenumber_in(self, k_si):
        return np.asarray(k_si) * self.length_unit
