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

Importing the package loads none of its modules: a public name is imported
from its module when first read, and a submodule is an attribute once imported.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the module that defines it
_MODULE_OF = {name: module for module, names in {
    "analysis": ("arrival_stats", "compare_curves", "mass_accounting"),
    "bath": ("DirectionalCoupling", "DirectionalSpectrum3D", "GeneralBath", "MarkovSummary",
             "RateMap", "RatesResult", "RectangularBath", "correlation_kernel",
             "decay_rate_and_shift", "markov_summary", "modified_frequencies",
             "rate_map_3d", "scaled_ensemble"),
    "conditional": ("ComplexPotential", "ConditionalTrajectory", "adiabaticity_ratio",
                    "build_conditional_potential", "norm_balance",
                    "one_channel_limit_potential", "propagate_conditional",
                    "propagate_two_channel"),
    "config": ("load_preset", "preset_names", "resolve_config"),
    "discrete": ("DiscreteDetectionSeries", "InteriorEigenbasis", "ScatteringSolution",
                 "ScatteringSynthesis", "SectorState", "detection_density_discrete",
                 "interior_eigenmodes", "match_at_origin"),
    "errors": ("ConfigurationError", "NumericsError", "SpindetectError"),
    "model": ("DetectorGeometry", "Grid1D", "HalfLineSensitivity", "IntervalSensitivity",
              "SpinRegion3D", "TabulatedSensitivity", "ball_region"),
    "packets": ("GaussianPacketSpec", "free_evolved_packet", "momentum_amplitude"),
    "runner": ("build_scene", "run_config"),
    "units": ("CESIUM_MASS_KG", "HBAR", "UnitSystem"),
}.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name from its module on first use (PEP 562), then keep it."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return globals()[name]
