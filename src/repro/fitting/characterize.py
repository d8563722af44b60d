"""Delay-function characterisation of an analog inverter stage.

The validation methodology of Section V (and of the GLSVLSI'15 companion
paper [12]) extracts the single-history delay function ``delta(T)`` of a
real inverter from recorded waveforms:

* input pulses of varying width are applied to the stage,
* input and output waveforms are digitised at the switching threshold
  ``V_th = V_DD / 2``,
* every matched (input transition, output transition) pair yields one
  sample ``(T, delta)`` where ``delta`` is the input-to-output delay and
  ``T`` the previous-output-to-input delay (Fig. 1),
* sweeping the pulse width sweeps ``T`` from large positive values down to
  the regime where the pulse no longer propagates.

Positive input pulses sweep the delay of the *second* (falling) input edge,
which for an inverter produces a rising output edge, i.e. samples of
``delta_up`` of the stage seen as an inverting channel; negative input
pulses symmetrically sample ``delta_down``.  The resulting samples can be
turned into a :class:`~repro.core.involution.InvolutionPair` via
:class:`TableDelay` interpolation or fitted with an exp-channel
(:mod:`repro.fitting.exp_fit`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analog.chain import AnalogInverterChain, pulse_stimulus
from ..analog.variations import ConstantSupply, SupplyProfile
from ..core.delay_functions import TableDelay
from ..core.domain import DomainError
from ..core.involution import InvolutionPair
from ..core.transitions import Signal

__all__ = ["DelaySample", "DelayMeasurement", "CharacterizationDriver"]


@dataclass(frozen=True)
class DelaySample:
    """One measured ``(T, delta)`` pair.

    ``rising_output`` states the polarity of the *output* transition (the
    convention used for ``delta_up`` / ``delta_down`` throughout the
    package); ``pulse_width`` records the stimulus that produced it.
    """

    T: float
    delta: float
    rising_output: bool
    pulse_width: float


@dataclass
class DelayMeasurement:
    """A collection of delay samples for one stage under one condition."""

    samples: List[DelaySample] = field(default_factory=list)
    label: str = ""

    def add(self, sample: DelaySample) -> None:
        """Append one sample."""
        self.samples.append(sample)

    def polarity(self, rising_output: bool) -> Tuple[np.ndarray, np.ndarray]:
        """``(T, delta)`` arrays of one polarity, sorted by ``T``."""
        selected = [s for s in self.samples if s.rising_output == rising_output]
        selected.sort(key=lambda s: s.T)
        T = np.array([s.T for s in selected], dtype=float)
        delta = np.array([s.delta for s in selected], dtype=float)
        return T, delta

    def rising(self) -> Tuple[np.ndarray, np.ndarray]:
        """Samples of ``delta_up`` (rising output transitions)."""
        return self.polarity(True)

    def falling(self) -> Tuple[np.ndarray, np.ndarray]:
        """Samples of ``delta_down`` (falling output transitions)."""
        return self.polarity(False)

    def __len__(self) -> int:
        return len(self.samples)

    # ------------------------------------------------------------------ #

    def to_involution_pair(
        self,
        *,
        dedupe_tolerance: float = 1e-6,
        validate: bool = False,
    ) -> InvolutionPair:
        """Interpolate the samples into an involution pair (``TableDelay``).

        Measured pairs satisfy the involution property only approximately;
        validation therefore defaults to off (use
        :meth:`InvolutionPair.involution_residual` to quantify it).
        """
        up = self._table(True, dedupe_tolerance)
        down = self._table(False, dedupe_tolerance)
        return InvolutionPair(up, down, validate=validate)

    def _table(self, rising_output: bool, tolerance: float) -> TableDelay:
        T, delta = self.polarity(rising_output)
        if len(T) < 2:
            raise ValueError(
                "need at least two samples per polarity to build a TableDelay"
            )
        keep_T: List[float] = []
        keep_d: List[float] = []
        for t_value, d_value in zip(T, delta):
            if keep_T and t_value - keep_T[-1] <= tolerance:
                continue
            keep_T.append(float(t_value))
            keep_d.append(float(d_value))
        return TableDelay(keep_T, keep_d)


class CharacterizationDriver:
    """Runs the pulse-width sweep on an analog inverter chain stage.

    Parameters
    ----------
    chain:
        The analog chain; the characterised stage is ``stage_index``.
    stage_index:
        Which inverter to characterise (0-based).  Its *input* waveform is
        the chain input for stage 0, otherwise the previous stage's output,
        so later stages see realistic (band-limited) input slopes exactly
        as in the measurement setup.
    supply:
        Supply profile (constant nominal if omitted).  A callable factory
        with a ``sample()`` method (e.g. ``RandomPhaseSineSupply``) is
        drawn from anew for every pulse, reproducing the random-phase
        procedure of the paper.
    threshold_fraction:
        Digitisation threshold as a fraction of the nominal supply.
    settle:
        Idle time before the pulse [ps], letting the chain settle and
        providing a long previous-output-to-input delay for the first edge.
    slew:
        Input slew of the stimulus [ps].
    """

    def __init__(
        self,
        chain: AnalogInverterChain,
        *,
        stage_index: int = 0,
        supply: Optional[object] = None,
        threshold_fraction: float = 0.5,
        settle: float = 120.0,
        tail: float = 400.0,
        slew: float = 2.0,
    ) -> None:
        if not (0 <= stage_index < chain.stages):
            raise DomainError(
                "stage_index",
                f"stage_index={stage_index} is out of range for a {chain.stages}-stage chain",
            )
        self.chain = chain
        self.stage_index = stage_index
        self.supply = supply
        self.threshold_fraction = float(threshold_fraction)
        self.settle = float(settle)
        self.tail = float(tail)
        self.slew = float(slew)

    # ------------------------------------------------------------------ #

    def _supply_for_run(self) -> SupplyProfile:
        if self.supply is None:
            return ConstantSupply(self.chain.technology.vdd_nominal)
        if hasattr(self.supply, "sample"):
            return self.supply.sample()
        return self.supply

    def _nominal_vdd(self) -> float:
        if self.supply is None:
            return self.chain.technology.vdd_nominal
        if hasattr(self.supply, "nominal"):
            return float(self.supply.nominal())
        return self.chain.technology.vdd_nominal

    def run_pulse(self, width: float, polarity: int = 1) -> Tuple[Signal, Signal]:
        """Apply one pulse and return digitised (stage input, stage output).

        ``polarity=1`` applies a positive input pulse (low-high-low),
        ``polarity=0`` a negative one.
        """
        vdd_nom = self._nominal_vdd()
        threshold = self.threshold_fraction * vdd_nom
        duration = self.settle + width + self.tail
        grid = self.chain.recommended_time_grid(duration, supply_voltage=vdd_nom)
        if polarity == 1:
            stimulus = pulse_stimulus(
                grid, self.settle, width, high=vdd_nom, low=0.0, slew=self.slew
            )
        else:
            stimulus = vdd_nom - pulse_stimulus(
                grid, self.settle, width, high=vdd_nom, low=0.0, slew=self.slew
            )
        result = self.chain.simulate(grid, stimulus, self._supply_for_run())
        if self.stage_index == 0:
            stage_input = result.input_waveform
        else:
            stage_input = result.stage(self.stage_index - 1)
        stage_output = result.stage(self.stage_index)
        return (
            stage_input.to_signal(threshold),
            stage_output.to_signal(threshold),
        )

    def measure(
        self,
        widths: Sequence[float],
        *,
        polarities: Sequence[int] = (1, 0),
        label: str = "",
    ) -> DelayMeasurement:
        """Run the full sweep and collect ``(T, delta)`` samples."""
        measurement = DelayMeasurement(label=label)
        for polarity in polarities:
            for width in widths:
                input_signal, output_signal = self.run_pulse(float(width), polarity)
                for sample in extract_delay_samples(
                    input_signal, output_signal, pulse_width=float(width)
                ):
                    measurement.add(sample)
        return measurement


def extract_delay_samples(
    input_signal: Signal,
    output_signal: Signal,
    *,
    pulse_width: float = float("nan"),
) -> List[DelaySample]:
    """Match input and output transitions of an inverting stage into samples.

    Every input transition is matched with the first output transition of
    the opposite value occurring after the previous match; unmatched input
    transitions (suppressed pulses) produce no sample.  The first input
    transition has no previous output transition, so its ``T`` is infinite
    and it is skipped (its delay is the saturation value ``delta_inf``,
    which the :class:`TableDelay` tail models anyway).
    """
    samples: List[DelaySample] = []
    output_transitions = list(output_signal)
    cursor = 0
    previous_output_time: Optional[float] = None
    for in_tr in input_signal:
        expected_value = 1 - in_tr.value  # inverting stage
        match = None
        for index in range(cursor, len(output_transitions)):
            out_tr = output_transitions[index]
            if out_tr.value == expected_value and out_tr.time > in_tr.time - 1e-12:
                match = (index, out_tr)
                break
        if match is None:
            # The pulse was filtered by the stage; subsequent input
            # transitions still update the previous-output bookkeeping via
            # the last real output transition, so just skip.
            previous_output_time = previous_output_time
            continue
        index, out_tr = match
        cursor = index + 1
        delta = out_tr.time - in_tr.time
        if previous_output_time is not None:
            T = in_tr.time - previous_output_time
            samples.append(
                DelaySample(
                    T=float(T),
                    delta=float(delta),
                    rising_output=bool(expected_value == 1),
                    pulse_width=pulse_width,
                )
            )
        previous_output_time = out_tr.time
    return samples
