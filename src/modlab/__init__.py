"""Simulation of frequency-domain correlations of modulated photon pairs.

Modules by concern: crystal propagation (``spdc_core``), modulator
coefficient algebra (``modulation``), singles and coincidence models
(``correlator``), experiment bundles, presets, synthetic data and fitting
(``scenario``), the invariant suite behind ``modlab validate``
(``checks``), and the command-line front end (``cli``).
"""

__version__ = "0.1.0"

from .correlator import (CorrelationTrace, GaussianFilter, H2Profile, LazyTrace,
                         SidebandModel, coincidence_full, coincidence_trace, h2_profile,
                         intensity_filter, lazy_trace, sideband_areas, singles_rate)
from .errors import (ConfigParseError, ConfigurationError, ConvergenceError,
                     DomainError, FitError, ModlabError, ResolutionError)
from .modulation import (ModulatorSpectrum, bessel_j_sequence, bessel_j_series,
                         coeffs_from_waveform, compose_nonlocal, read_phase_waveform,
                         sinusoidal_coeffs)
from .scenario import (ExperimentScenario, FitResult, RegimeReport, figure_preset,
                       fit_scale, reference_scenario, regime_report, synthesize_counts)
from .spdc_core import (CrystalProfile, FrequencyGrid, SpectralAmplitudes,
                        amplitudes_from_rate, analytic_amplitudes, propagate_envelopes)

__all__ = [
    "__version__",
    "ConfigParseError", "ConfigurationError", "ConvergenceError", "DomainError",
    "FitError", "ModlabError", "ResolutionError",
    "FrequencyGrid", "CrystalProfile", "SpectralAmplitudes",
    "propagate_envelopes", "analytic_amplitudes", "amplitudes_from_rate",
    "ModulatorSpectrum", "bessel_j_sequence",
    "bessel_j_series", "sinusoidal_coeffs", "coeffs_from_waveform",
    "read_phase_waveform", "compose_nonlocal",
    "GaussianFilter", "H2Profile", "SidebandModel", "CorrelationTrace", "LazyTrace",
    "singles_rate", "h2_profile", "coincidence_trace", "lazy_trace", "coincidence_full",
    "sideband_areas", "intensity_filter",
    "ExperimentScenario", "FitResult", "RegimeReport", "figure_preset",
    "reference_scenario", "regime_report", "synthesize_counts", "fit_scale",
]
