"""spindetect: arrival-time statistics of matter waves at a spin-flip detector.

A slow particle crosses a region of spins coupled to a bosonic field; the
first spin flip marks its arrival.  The package computes the resulting
arrival-time density two ways and compares them:

  * exact scattering in the one-excitation sector of a discrete N-mode
    bath (valid up to the recurrence time),
  * conditional evolution under the equivalent complex potential
    (hbar/2)(shift - i decay) chi(x)^2 in the memoryless limit,

plus the bath decay rate / level shift in closed form and by quadrature,
a two-channel fluorescence analog with its one-channel limit, and 3D
multi-spin rate maps with ensemble scaling.
"""

from .analysis import arrival_stats, compare_curves, mass_accounting
from .bath import (DirectionalCoupling, DirectionalSpectrum3D, GeneralBath,
                   MarkovSummary, RateMap, RatesResult, RectangularBath,
                   correlation_kernel, decay_rate_and_shift, markov_summary,
                   modified_frequencies, rate_map_3d, scaled_ensemble)
from .conditional import (ComplexPotential, ConditionalTrajectory,
                          adiabaticity_ratio, build_conditional_potential,
                          norm_balance, one_channel_limit_potential,
                          propagate_conditional, propagate_two_channel)
from .config import load_preset, preset_names, resolve_config
from .discrete import (DiscreteDetectionSeries, InteriorEigenbasis, ScatteringSolution,
                       ScatteringSynthesis, SectorState, detection_density_discrete,
                       interior_eigenmodes, match_at_origin)
from .errors import ConfigurationError, NumericsError, SpindetectError
from .model import (DetectorGeometry, Grid1D, HalfLineSensitivity, IntervalSensitivity,
                    SpinRegion3D, TabulatedSensitivity, ball_region, single_spin)
from .packets import GaussianPacketSpec, free_evolved_packet, momentum_amplitude
from .runner import build_scene, run_config
from .units import CESIUM_MASS_KG, HBAR, UnitSystem

__version__ = "0.1.0"

__all__ = [
    "arrival_stats", "compare_curves", "mass_accounting",
    "DirectionalCoupling", "DirectionalSpectrum3D", "GeneralBath", "MarkovSummary",
    "RateMap", "RatesResult", "RectangularBath", "correlation_kernel",
    "decay_rate_and_shift", "markov_summary", "modified_frequencies",
    "rate_map_3d", "scaled_ensemble",
    "ComplexPotential", "ConditionalTrajectory",
    "adiabaticity_ratio", "build_conditional_potential", "norm_balance",
    "one_channel_limit_potential", "propagate_conditional", "propagate_two_channel",
    "load_preset", "preset_names", "resolve_config",
    "DiscreteDetectionSeries", "InteriorEigenbasis", "ScatteringSolution",
    "ScatteringSynthesis", "SectorState", "detection_density_discrete",
    "interior_eigenmodes", "match_at_origin",
    "ConfigurationError", "NumericsError", "SpindetectError",
    "DetectorGeometry", "Grid1D", "HalfLineSensitivity", "IntervalSensitivity",
    "SpinRegion3D", "TabulatedSensitivity", "ball_region", "single_spin",
    "GaussianPacketSpec", "free_evolved_packet", "momentum_amplitude",
    "build_scene", "run_config",
    "CESIUM_MASS_KG", "HBAR", "UnitSystem",
]
