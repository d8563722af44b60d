"""Experiment FIG8: eta-band coverage of deviations under variations.

Fig. 8 of the paper plots the deviation ``D`` between the crossings
predicted by a reference (nominal) involution delay function and the actual
crossings of the circuit under three kinds of variation:

* (a) 1 % sine ripple on the supply voltage with random phase per pulse,
* (b) transistor widths increased by 10 %,
* (c) transistor widths decreased by 10 %,

together with the admissible eta band (``eta_plus`` chosen, ``eta_minus``
maximal under constraint (C)).  The qualitative findings to reproduce:

* small variations (a, b) are fully covered by the band, at least for
  small ``T``,
* the 10 % narrower transistors (c) exceed the band as ``T`` grows,
* the absolute deviation grows with ``T`` in all cases, so coverage is
  best exactly in the small-``T`` region relevant for faithfulness.

The registered ``fig8`` experiment kind runs this analysis declaratively
(``repro.api.experiment("fig8", {...})``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..analog.chain import AnalogInverterChain
from ..analog.technology import Technology, as_technology
from ..analog.variations import VariationScenario, standard_variations
from ..core.involution import InvolutionPair
from ..fitting.characterize import CharacterizationDriver
from ..fitting.eta_coverage import DeviationAnalysis, compute_deviations, eta_band
from ..specs import SpecError, register_experiment_kind
from .base import ExperimentContext, ExperimentOutcome, _check_param, _number_or_null

__all__ = ["Fig8Scenario", "Fig8Result", "DEFAULT_SCENARIOS"]

#: The three variation scenarios of Fig. 8.
DEFAULT_SCENARIOS = ("supply_1pct", "width_plus10", "width_minus10")


@dataclass
class Fig8Scenario:
    """One deviation analysis (one subplot of Fig. 8)."""

    name: str
    analysis: DeviationAnalysis
    summary: Dict[str, float]


@dataclass
class Fig8Result:
    """All scenarios plus the reference pair and band used."""

    scenarios: Dict[str, Fig8Scenario]
    reference: InvolutionPair
    eta_plus: float

    def rows(self) -> List[Dict[str, object]]:
        """Flat table (one row per scenario) for reporting."""
        rows = []
        for name in sorted(self.scenarios):
            entry = dict(self.scenarios[name].summary)
            entry["scenario"] = name
            rows.append(entry)
        return rows


def _default_widths(technology: Technology, n_widths: int) -> np.ndarray:
    """Pulse-width sweep biased towards narrow pulses.

    Narrow pulses probe the small-``T`` (pulse-attenuation) region of the
    delay function, which dominates both the ``delta_min`` estimate of the
    reference pair and the faithfulness-relevant part of the eta band, so
    well over half of the sweep is spent there.  Fewer than three widths
    leave a polarity with a single sample, which neither a delay table
    (fig8) nor an exp fit (fig9) can be built from.
    """
    _check_param(n_widths >= 3, "n_widths", n_widths, "must be at least 3")
    unit = technology.intrinsic_delay + max(
        technology.tau_pull_up(technology.vdd_nominal),
        technology.tau_pull_down(technology.vdd_nominal),
    )
    narrow = np.linspace(0.3 * unit, 1.6 * unit, (2 * n_widths) // 3)
    wide = np.linspace(1.8 * unit, 8.0 * unit, n_widths - len(narrow))
    return np.concatenate([narrow, wide])


def _fig8(params: dict, context: ExperimentContext) -> ExperimentOutcome:
    """The ``fig8`` kind: deviations of each variation from the nominal
    reference, against the admissible eta band.

    The reference delay pair is characterised under nominal conditions;
    each scenario re-characterises the same stage under its variation
    (built by :func:`repro.analog.variations.standard_variations`) and
    compares against the reference.  ``eta_plus`` defaults to 20 % of the
    reference ``delta_min`` (a "suitable value" in the paper's words);
    ``eta_minus`` is then maximal under constraint (C).  Unknown scenario
    names raise :class:`~repro.specs.SpecError` before any
    characterisation runs.
    """
    from ..specs import pair_to_dict

    technology = as_technology(params["technology"])
    stages, stage_index, scenarios = params["stages"], params["stage_index"], params["scenarios"]
    _check_param(params["seed"] >= 0, "seed", params["seed"], "must be at least 0")
    _check_param(len(scenarios) > 0, "scenarios", scenarios, "must not be empty")
    eta_plus = _number_or_null(params, "eta_plus")
    available = {
        variation.name: variation
        for variation in standard_variations(
            technology, supply_amplitude=params["supply_amplitude"], seed=params["seed"]
        )
    }
    unknown = [name for name in scenarios if name not in available]
    if unknown:
        raise SpecError(
            f"unknown fig8 scenario {unknown[0]!r}; known: {sorted(available)}"
        )
    widths = _default_widths(technology, params["n_widths"])
    nominal_chain = AnalogInverterChain(technology, stages=stages)
    nominal_driver = CharacterizationDriver(nominal_chain, stage_index=stage_index)
    reference_measurement = nominal_driver.measure(widths, label="nominal")
    reference = reference_measurement.to_involution_pair()
    if eta_plus is None:
        eta_plus = 0.2 * reference.delta_min
    band = eta_band(reference, eta_plus)

    def characterise(variation: VariationScenario) -> Fig8Scenario:
        chain = AnalogInverterChain(variation.technology, stages=stages)
        driver = CharacterizationDriver(
            chain, stage_index=stage_index, supply=variation.supply
        )
        measurement = driver.measure(widths, label=variation.name)
        analysis = compute_deviations(
            measurement, reference, eta=band, label=variation.name
        )
        return Fig8Scenario(
            name=variation.name, analysis=analysis, summary=analysis.summary()
        )

    characterised = [characterise(available[name]) for name in scenarios]
    result = Fig8Result(
        scenarios={scenario.name: scenario for scenario in characterised},
        reference=reference,
        eta_plus=float(eta_plus),
    )
    return ExperimentOutcome(
        rows=result.rows(),
        summary={
            "eta_plus": result.eta_plus,
            "reference_pair": pair_to_dict(result.reference),
        },
        raw=result,
    )


register_experiment_kind(
    "fig8",
    _fig8,
    description=(
        "Eta-band coverage under variations (Fig. 8): deviations of "
        "supply-ripple and width-variation characterisations from the "
        "nominal reference, checked against the admissible band"
    ),
    defaults={
        "technology": "UMC90",
        "scenarios": list(DEFAULT_SCENARIOS),
        "stages": 3,
        "stage_index": 1,
        "n_widths": 20,
        "eta_plus": None,
        "supply_amplitude": 0.01,
        "seed": 2018,
    },
)
