"""First-order analog simulation of a CMOS inverter chain.

This is the substitute for the paper's measurement substrate: a 7-stage
inverter chain on a UMC-90 ASIC whose internal nodes are observed through
on-chip sense amplifiers (Fig. 6), plus UMC-65 Spice simulations.  Each
stage is modelled as a first-order (single-pole) system:

* while the stage input is above the switching threshold the output is
  pulled towards 0 with time constant ``tau_n(V_DD)``,
* while it is below, the output is pulled towards ``V_DD(t)`` with time
  constant ``tau_p(V_DD)``,
* an intrinsic (pure) delay shifts the stage input in time.

The exact exponential update ``v <- target + (v - target) * exp(-dt/tau)``
is unconditionally stable, so moderately coarse time grids already give
accurate threshold crossings (crossing times are interpolated linearly by
:mod:`repro.analog.waveform`).

This first-order behaviour is precisely the regime in which the paper's
exp-channel is exact, and it produces the qualitative delay phenomenology
the validation experiments rely on: pulse attenuation for narrow inputs,
delay saturation for wide ones, strong V_DD dependence and drive-strength
(transistor-width) dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.domain import DomainError
from .technology import Technology
from .variations import ConstantSupply, SupplyProfile
from .waveform import Waveform

__all__ = ["ChainResult", "AnalogInverterChain", "pulse_stimulus"]


SupplyLike = Union[float, SupplyProfile]


@dataclass
class ChainResult:
    """Waveforms produced by one analog simulation run.

    Attributes
    ----------
    times:
        The simulation time grid [ps].
    input_waveform:
        The driving waveform applied to the first stage.
    stage_waveforms:
        One waveform per inverter stage output (index 0 = first inverter),
        mirroring the sense-amplifier taps Q1..QN of the measurement ASIC.
    vdd:
        The supply-voltage samples used during the run.
    """

    times: np.ndarray
    input_waveform: Waveform
    stage_waveforms: List[Waveform]
    vdd: np.ndarray

    def stage(self, index: int) -> Waveform:
        """Waveform at the output of stage ``index`` (0-based)."""
        return self.stage_waveforms[index]

    @property
    def output(self) -> Waveform:
        """Waveform at the output of the last stage."""
        return self.stage_waveforms[-1]


class AnalogInverterChain:
    """An N-stage inverter chain with first-order stage dynamics.

    Parameters
    ----------
    technology:
        Technology parameters (see :mod:`repro.analog.technology`).
    stages:
        Number of inverters (the paper's ASIC has 7).
    width_factor:
        Global transistor-width scale (process variation); 1.0 is nominal.
    load_factors:
        Optional per-stage load multipliers (longer wires / larger fanout
        increase the stage's time constants).
    """

    def __init__(
        self,
        technology: Technology,
        stages: int = 7,
        *,
        width_factor: float = 1.0,
        load_factors: Optional[Sequence[float]] = None,
    ) -> None:
        if stages < 1:
            raise DomainError("stages", f"the chain needs at least one stage, got stages={stages}")
        if width_factor <= 0:
            raise ValueError("width factor must be positive")
        if load_factors is None:
            load_factors = [1.0] * stages
        if len(load_factors) != stages:
            raise ValueError("need one load factor per stage")
        if any(f <= 0 for f in load_factors):
            raise ValueError("load factors must be positive")
        self.technology = technology
        self.stages = int(stages)
        self.width_factor = float(width_factor)
        self.load_factors = [float(f) for f in load_factors]

    # ------------------------------------------------------------------ #

    def simulate(
        self,
        times: np.ndarray,
        input_values: np.ndarray,
        supply: SupplyLike = None,
    ) -> ChainResult:
        """Simulate the chain for a given input waveform.

        Parameters
        ----------
        times:
            Uniform time grid [ps] (strictly increasing).
        input_values:
            Input voltage samples on ``times``.
        supply:
            Supply profile or constant voltage; defaults to the
            technology's nominal supply.
        """
        times = np.asarray(times, dtype=float)
        input_values = np.asarray(input_values, dtype=float)
        if times.ndim != 1 or input_values.shape != times.shape:
            raise ValueError("times and input_values must be 1-D arrays of equal length")
        if len(times) < 2:
            raise ValueError("need at least two time samples")
        if supply is None:
            supply = ConstantSupply(self.technology.vdd_nominal)
        elif isinstance(supply, (int, float)):
            supply = ConstantSupply(float(supply))
        vdd = np.asarray(supply(times), dtype=float)
        if vdd.shape != times.shape:
            raise ValueError("supply profile must return one sample per time point")

        dt = float(np.diff(times).mean())
        tech = self.technology
        shift = max(0, int(round(tech.intrinsic_delay / dt)))

        stage_outputs: List[np.ndarray] = []
        driving = input_values
        for stage_index in range(self.stages):
            load = self.load_factors[stage_index]
            tau_down = tech.tau_pull_down_array(vdd, self.width_factor) * load
            tau_up = tech.tau_pull_up_array(vdd, self.width_factor) * load
            switching = tech.switching_fraction * vdd

            if shift > 0:
                delayed = np.concatenate([np.full(shift, driving[0]), driving[:-shift]])
            else:
                delayed = driving

            output = np.empty_like(times)
            # Settled initial condition: output is the logical complement of
            # the (delayed) input at t = times[0].
            output[0] = 0.0 if delayed[0] >= switching[0] else vdd[0]
            decay_down = np.exp(-dt / tau_down)
            decay_up = np.exp(-dt / tau_up)
            for k in range(1, len(times)):
                if delayed[k] >= switching[k]:
                    target, decay = 0.0, decay_down[k]
                else:
                    target, decay = vdd[k], decay_up[k]
                output[k] = target + (output[k - 1] - target) * decay
            stage_outputs.append(output)
            driving = output

        return ChainResult(
            times=times,
            input_waveform=Waveform(times, input_values),
            stage_waveforms=[Waveform(times, v) for v in stage_outputs],
            vdd=vdd,
        )

    # ------------------------------------------------------------------ #

    def nominal_stage_delay(self) -> float:
        """Rough per-stage delay estimate (used to size time grids) [ps]."""
        tech = self.technology
        tau = 0.5 * (
            tech.tau_pull_down(tech.vdd_nominal, self.width_factor)
            + tech.tau_pull_up(tech.vdd_nominal, self.width_factor)
        )
        return tech.intrinsic_delay + tau * np.log(2.0)

    def recommended_time_grid(
        self,
        duration: float,
        *,
        points_per_tau: float = 40.0,
        supply_voltage: Optional[float] = None,
    ) -> np.ndarray:
        """A uniform grid resolving the slowest stage time constant."""
        tech = self.technology
        vdd = tech.vdd_nominal if supply_voltage is None else supply_voltage
        tau = max(
            tech.tau_pull_down(vdd, self.width_factor),
            tech.tau_pull_up(vdd, self.width_factor),
        )
        dt = max(tau / points_per_tau, 1e-3)
        n = int(np.ceil(duration / dt)) + 1
        return np.linspace(0.0, duration, n)


def pulse_stimulus(
    times: np.ndarray,
    start: float,
    width: float,
    *,
    high: float,
    low: float = 0.0,
    slew: float = 1.0,
) -> np.ndarray:
    """An input pulse with finite rise/fall slew on the given time grid."""
    times = np.asarray(times, dtype=float)
    values = np.full_like(times, low)
    if slew <= 0:
        values[(times >= start) & (times < start + width)] = high
        return values
    rise = np.clip((times - start) / slew, 0.0, 1.0)
    fall = np.clip((times - (start + width)) / slew, 0.0, 1.0)
    return low + (high - low) * (rise - fall)
