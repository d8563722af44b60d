"""Experiment FIG7: delay-function characterisation across supply voltages.

Fig. 7 of the paper shows the measured ``delta_down(T)`` of the UMC-90
inverter chain for supply voltages between 0.3 V and 1.0 V (plus one
simulated curve at 0.6 V).  The qualitative features to reproduce with the
analog substrate are:

* every curve is increasing and concave, saturating for large ``T``,
* delays grow monotonically as V_DD decreases,
* the growth explodes as V_DD approaches the transistor threshold voltage
  (the 0.3 V curve is an order of magnitude above the 1.0 V curve),
* for small/negative ``T`` the delay drops steeply (pulse attenuation).

The registered ``fig7`` experiment kind runs this characterisation from a
declarative parameter set (``repro.api.experiment("fig7", {...})``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..analog.chain import AnalogInverterChain
from ..analog.technology import as_technology
from ..analog.variations import ConstantSupply
from ..fitting.characterize import CharacterizationDriver, DelayMeasurement
from ..specs import register_experiment_kind
from .base import ExperimentContext, ExperimentOutcome, _check_param

__all__ = ["Fig7Curve", "Fig7Result", "DEFAULT_VDD_LEVELS"]

#: Supply voltages of the paper's Fig. 7 [V].
DEFAULT_VDD_LEVELS = (0.6, 0.7, 0.8, 1.0)


@dataclass
class Fig7Curve:
    """One characterised ``delta(T)`` curve at a fixed supply voltage."""

    vdd: float
    T: np.ndarray
    delta: np.ndarray
    measurement: DelayMeasurement

    @property
    def delta_at_saturation(self) -> float:
        """Delay at the largest measured ``T`` (approximates ``delta_inf``)."""
        return float(self.delta[-1]) if len(self.delta) else float("nan")

    @property
    def delta_at_smallest_T(self) -> float:
        """Delay at the smallest measured ``T`` (pulse-attenuation regime)."""
        return float(self.delta[0]) if len(self.delta) else float("nan")


@dataclass
class Fig7Result:
    """All curves of the experiment plus convenience accessors."""

    curves: Dict[float, Fig7Curve]
    polarity: str

    def saturation_delays(self) -> Dict[float, float]:
        """``delta`` at large ``T`` per supply voltage (should decrease with V_DD)."""
        return {vdd: curve.delta_at_saturation for vdd, curve in self.curves.items()}

    def is_monotone_in_vdd(self) -> bool:
        """True if higher supply voltages give uniformly smaller saturation delays."""
        vdds = sorted(self.curves)
        delays = [self.curves[v].delta_at_saturation for v in vdds]
        return all(later <= earlier for earlier, later in zip(delays, delays[1:]))

    def rows(self) -> List[Dict[str, float]]:
        """Flat table (one row per curve) for reporting."""
        rows = []
        for vdd in sorted(self.curves):
            curve = self.curves[vdd]
            rows.append(
                {
                    "vdd": vdd,
                    "n_samples": float(len(curve.T)),
                    "T_min": float(curve.T[0]) if len(curve.T) else float("nan"),
                    "T_max": float(curve.T[-1]) if len(curve.T) else float("nan"),
                    "delta_min_measured": float(np.min(curve.delta)) if len(curve.delta) else float("nan"),
                    "delta_saturation": curve.delta_at_saturation,
                }
            )
        return rows


def _fig7(params: dict, context: ExperimentContext) -> ExperimentOutcome:
    """The ``fig7`` kind: characterise ``delta(T)`` of one inverter stage
    for several supply voltages.

    ``rising_output=False`` reproduces the paper's ``delta_down`` curves.
    The pulse-width sweep is scaled with the per-stage delay at each supply
    voltage so every curve covers a comparable ``T`` range.
    """
    technology = as_technology(params["technology"])
    n_widths, rising_output = params["n_widths"], params["rising_output"]
    _check_param(n_widths >= 1, "n_widths", n_widths, "must be at least 1")
    vdd_levels = params["vdd_levels"]
    _check_param(len(vdd_levels) > 0, "vdd_levels", vdd_levels, "must not be empty")

    def characterise(vdd: float) -> Fig7Curve:
        chain = AnalogInverterChain(technology, stages=params["stages"])
        # Scale stimulus widths with the slower stage delay at this supply.
        tau_ref = max(
            technology.tau_pull_up(vdd),
            technology.tau_pull_down(vdd),
        )
        unit = technology.intrinsic_delay + tau_ref
        widths = np.concatenate(
            [
                np.linspace(0.2 * unit, 2.0 * unit, n_widths // 2),
                np.linspace(2.2 * unit, 10.0 * unit, n_widths - n_widths // 2),
            ]
        )
        driver = CharacterizationDriver(
            chain,
            stage_index=params["stage_index"],
            supply=ConstantSupply(vdd),
            settle=12.0 * unit,
            tail=30.0 * unit,
        )
        measurement = driver.measure(widths, label=f"VDD={vdd:g}V")
        T, delta = measurement.polarity(rising_output)
        return Fig7Curve(vdd=float(vdd), T=T, delta=delta, measurement=measurement)

    curves = [characterise(float(vdd)) for vdd in vdd_levels]
    result = Fig7Result(
        curves={curve.vdd: curve for curve in curves},
        polarity="delta_up" if rising_output else "delta_down",
    )
    return ExperimentOutcome(
        rows=result.rows(),
        summary={
            "polarity": result.polarity,
            "monotone_in_vdd": result.is_monotone_in_vdd(),
            "saturation_delays": {
                f"{vdd:g}": delay
                for vdd, delay in sorted(result.saturation_delays().items())
            },
        },
        raw=result,
    )


register_experiment_kind(
    "fig7",
    _fig7,
    description=(
        "Delay characterisation across supply voltages (Fig. 7): measure "
        "delta(T) of one analog inverter stage per V_DD level"
    ),
    defaults={
        "technology": "UMC90",
        "vdd_levels": list(DEFAULT_VDD_LEVELS),
        "stages": 3,
        "stage_index": 1,
        "n_widths": 24,
        "rising_output": False,
    },
)
