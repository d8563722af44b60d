"""Delay characterisation, exp-channel fitting and eta-coverage analysis."""

from .characterize import (
    CharacterizationDriver,
    DelayMeasurement,
    DelaySample,
    extract_delay_samples,
)
from .eta_coverage import (
    DeviationAnalysis,
    DeviationSample,
    compute_deviations,
    eta_band,
)
from .exp_fit import ExpFitResult, exp_delay_model, fit_exp_channel

__all__ = [
    "DelaySample",
    "DelayMeasurement",
    "CharacterizationDriver",
    "extract_delay_samples",
    "ExpFitResult",
    "fit_exp_channel",
    "exp_delay_model",
    "DeviationSample",
    "DeviationAnalysis",
    "compute_deviations",
    "eta_band",
]
