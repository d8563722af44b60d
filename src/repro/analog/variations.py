"""Operating-condition and process variations for the analog substrate.

Section V of the paper probes three sources of modeling error:

(a) supply-voltage variations -- a sine wave of 1 % of V_DD with a period
    comparable to the full-range switching time of the inverter and a
    random phase per applied pulse (Fig. 8a),
(b) process variations -- transistor widths scaled by +-10 % (Fig. 8b/8c),
(c) fitting error of a simple exp-channel (Fig. 9).

This module models (a) and (b): :class:`SupplyProfile` implementations turn
a nominal V_DD into a time-varying supply seen by the analog inverter
chain, and :func:`width_variation` produces the scaled technologies.

:class:`VariationScenario` bundles one such operating condition
(technology + supply) into a sweepable unit; :func:`standard_variations`
produces the three conditions of Fig. 8, which the ``fig8`` experiment
characterises one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .technology import Technology

__all__ = [
    "SupplyProfile",
    "ConstantSupply",
    "SineSupplyNoise",
    "RandomPhaseSineSupply",
    "width_variation",
    "VariationScenario",
    "standard_variations",
]


class SupplyProfile:
    """Time-varying supply voltage ``V_DD(t)``."""

    def __call__(self, t: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def nominal(self) -> float:
        """The nominal (mean) supply voltage."""
        raise NotImplementedError  # pragma: no cover - interface


@dataclass
class ConstantSupply(SupplyProfile):
    """A constant supply voltage."""

    vdd: float

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), self.vdd)

    def nominal(self) -> float:
        return self.vdd


@dataclass
class SineSupplyNoise(SupplyProfile):
    """``V_DD(t) = vdd * (1 + amplitude_fraction * sin(2 pi t / period + phase))``.

    The paper uses ``amplitude_fraction = 0.01`` (1 % of V_DD) and a period
    similar to the full-range switching time of the inverter.
    """

    vdd: float
    amplitude_fraction: float
    period: float
    phase: float = 0.0

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.vdd * (
            1.0
            + self.amplitude_fraction
            * np.sin(2.0 * math.pi * t / self.period + self.phase)
        )

    def nominal(self) -> float:
        return self.vdd


class RandomPhaseSineSupply:
    """Factory producing :class:`SineSupplyNoise` profiles with random phase.

    The paper sets the phase of the supply ripple "for each pulse randomly
    between 0 and 360 degrees"; the characterisation driver asks this
    factory for a fresh profile per applied pulse.
    """

    def __init__(
        self,
        vdd: float,
        amplitude_fraction: float,
        period: float,
        seed: Optional[int] = None,
    ) -> None:
        self.vdd = float(vdd)
        self.amplitude_fraction = float(amplitude_fraction)
        self.period = float(period)
        self._rng = np.random.default_rng(seed)

    def sample(self) -> SineSupplyNoise:
        """Draw a profile with a uniformly random phase."""
        phase = float(self._rng.uniform(0.0, 2.0 * math.pi))
        return SineSupplyNoise(self.vdd, self.amplitude_fraction, self.period, phase)

    def nominal(self) -> float:
        """The nominal (mean) supply voltage."""
        return self.vdd


def width_variation(technology: Technology, percent: float) -> Technology:
    """Technology with transistor widths changed by ``percent`` (e.g. +10, -10)."""
    return technology.with_width(1.0 + percent / 100.0)


@dataclass
class VariationScenario:
    """One operating-condition point of a variation sweep.

    Attributes
    ----------
    name:
        Scenario label (``supply_1pct``, ``width_plus10``, ...).
    technology:
        The (possibly width-scaled) technology to build the chain from.
    supply:
        Supply profile for the characterisation driver -- a
        :class:`SupplyProfile`, a factory with a ``sample()`` method (drawn
        anew per pulse, e.g. :class:`RandomPhaseSineSupply`), or ``None``
        for the constant nominal supply.
    """

    name: str
    technology: Technology
    supply: Optional[object] = None


def standard_variations(
    technology: Technology,
    *,
    supply_amplitude: float = 0.01,
    sine_period: Optional[float] = None,
    width_percents: Sequence[float] = (+10.0, -10.0),
    seed: Optional[int] = None,
) -> List[VariationScenario]:
    """The variation scenarios of Fig. 8 as a sweepable family.

    Returns the 1 % random-phase supply ripple plus one width-scaled
    technology per entry of ``width_percents``.  ``sine_period`` defaults
    to twice the full-range switching time of the nominal inverter, the
    paper's "period similar to the switching time".
    """
    if sine_period is None:
        sine_period = 2.0 * (
            technology.intrinsic_delay
            + technology.tau_pull_up(technology.vdd_nominal)
            + technology.tau_pull_down(technology.vdd_nominal)
        )
    scenarios = [
        VariationScenario(
            name="supply_1pct",
            technology=technology,
            supply=RandomPhaseSineSupply(
                technology.vdd_nominal, supply_amplitude, sine_period, seed=seed
            ),
        )
    ]
    for percent in width_percents:
        sign = "plus" if percent >= 0 else "minus"
        scenarios.append(
            VariationScenario(
                name=f"width_{sign}{abs(percent):g}",
                technology=width_variation(technology, percent),
            )
        )
    return scenarios
