"""Experiment FIG9: fitting an exp-channel to measured delay data.

Fig. 9 of the paper evaluates question (c) of Section V: can the behaviour
of the real inverter be matched with a (suitably parametrised) simple
exp-channel instead of the full measured delay function?  The answer is
"only near T = 0": the fitted exp-channel mispredicts mildly for small
``T`` (the region relevant for faithfulness) but its deviation grows with
``T`` and exceeds the admissible eta band there.

This driver characterises the stage, fits the exp-channel, and evaluates
the deviation of the fitted model against the measured samples together
with the eta band of the *fitted* pair (as in the paper, where the band is
derived from the delay function used for prediction).  It is the
registered ``fig9`` experiment kind
(``repro.api.experiment("fig9", {...})``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analog.chain import AnalogInverterChain
from ..analog.technology import as_technology
from ..fitting.characterize import CharacterizationDriver, DelayMeasurement
from ..fitting.eta_coverage import DeviationAnalysis, compute_deviations, eta_band
from ..fitting.exp_fit import ExpFitResult, fit_exp_channel
from ..specs import register_experiment_kind
from .base import ExperimentContext, ExperimentOutcome, _number_or_null
from .fig8 import _default_widths

__all__ = ["Fig9Result"]


@dataclass
class Fig9Result:
    """Outcome of the exp-channel fitting experiment."""

    fit: ExpFitResult
    measurement: DelayMeasurement
    analysis: DeviationAnalysis
    summary: Dict[str, float]

    def rows(self):
        """Single-row table for reporting."""
        row = {
            "tau": self.fit.tau,
            "t_p": self.fit.t_p,
            "v_th": self.fit.v_th,
            "rms_residual": self.fit.rms_residual,
            "max_residual": self.fit.max_residual,
        }
        row.update(self.summary)
        return [row]


def _fig9(params: dict, context: ExperimentContext) -> ExperimentOutcome:
    """The ``fig9`` kind: characterise a stage, fit an exp-channel and
    analyse its deviations."""
    technology = as_technology(params["technology"])
    eta_plus = _number_or_null(params, "eta_plus")
    widths = _default_widths(technology, params["n_widths"])
    chain = AnalogInverterChain(technology, stages=params["stages"])
    driver = CharacterizationDriver(chain, stage_index=params["stage_index"])
    measurement = driver.measure(widths, label="nominal")
    fit = fit_exp_channel(measurement, fit_threshold=params["fit_threshold"])
    fitted_pair = fit.pair()
    if eta_plus is None:
        eta_plus = 0.2 * fitted_pair.delta_min
    band = eta_band(fitted_pair, eta_plus)
    analysis = compute_deviations(measurement, fitted_pair, eta=band, label="exp fit")
    result = Fig9Result(
        fit=fit,
        measurement=measurement,
        analysis=analysis,
        summary=analysis.summary(),
    )
    return ExperimentOutcome(
        rows=result.rows(),
        summary={
            "tau": fit.tau,
            "t_p": fit.t_p,
            "v_th": fit.v_th,
            "n_fit_samples": fit.n_samples,
        },
        raw=result,
    )


register_experiment_kind(
    "fig9",
    _fig9,
    description=(
        "Exp-channel fit (Fig. 9): fit tau/t_p/v_th to the measured delay "
        "samples and analyse the fitted model's deviations against its "
        "own eta band"
    ),
    defaults={
        "technology": "UMC90",
        "stages": 3,
        "stage_index": 1,
        "n_widths": 24,
        "eta_plus": None,
        "fit_threshold": True,
    },
)
