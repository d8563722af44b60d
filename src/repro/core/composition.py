"""Serial composition of channels.

Circuits compose channels through zero-time gates; for chains of
single-input gates (buffers/inverters) this reduces to plain function
composition of the channel functions.  :class:`SerialChannel` packages that
composition as a channel of its own, which is convenient for

* collapsing an inverter chain into one equivalent "macro channel" (useful
  for quick what-if analyses without building a circuit),
* comparing a characterised whole-chain delay against the composition of
  per-stage characterisations,
* studying how glitch attenuation accumulates over stages.

Note that the composition of involution channels is in general *not* an
involution channel (the class is not closed under composition); the
composite is simply a channel that applies its parts in sequence.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .channel import Channel
from .domain import DomainError
from .transitions import Signal

__all__ = ["SerialChannel"]


class SerialChannel(Channel):
    """Apply a sequence of channels one after the other.

    Parameters
    ----------
    stages:
        The channels to apply, first element first.  Each stage sees the
        previous stage's (cancellation-resolved) output signal.
    """

    def __init__(self, stages: Sequence[Channel], *, name: Optional[str] = None) -> None:
        if not stages:
            raise DomainError("stages", "a serial channel needs at least one stage")
        inverting = sum(1 for s in stages if s.inverting) % 2 == 1
        super().__init__(inverting=inverting, name=name or "SerialChannel")
        self.stages: List[Channel] = list(stages)

    def delay_for(self, T: float, rising_output: bool, index: int, time: float) -> float:
        raise NotImplementedError(
            "SerialChannel has no single-history delay function; "
            "use apply() / __call__()"
        )

    def reset(self) -> None:
        for stage in self.stages:
            stage.reset()

    def output_initial_value(self, input_initial_value: int) -> int:
        value = input_initial_value
        for stage in self.stages:
            value = stage.output_initial_value(value)
        return value

    def apply(self, signal: Signal, *, mode: str = "transport") -> Signal:
        current = signal
        for stage in self.stages:
            current = stage.apply(current, mode=mode)
        return current

    def stage_outputs(self, signal: Signal, *, mode: str = "transport") -> List[Signal]:
        """Return the intermediate signal after every stage (taps Q1..QN)."""
        outputs: List[Signal] = []
        current = signal
        for stage in self.stages:
            current = stage.apply(current, mode=mode)
            outputs.append(current)
        return outputs

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:
        return f"SerialChannel({len(self.stages)} stages, inverting={self.inverting})"
