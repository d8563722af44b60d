"""Non-faithful baseline delay channels.

The paper motivates the (eta-)involution model by the non-faithfulness of
the delay models used in industrial simulators:

* **pure delay** -- a constant transport delay (optionally different per
  transition polarity),
* **inertial delay** (Unger 1971) -- a constant delay plus suppression of
  input pulses shorter than a window ``Delta``,
* **Degradation Delay Model (DDM)** (Bellido-Díaz et al. 2000) -- a bounded
  single-history channel whose delay shrinks for closely spaced
  transitions, gradually attenuating glitch trains.

Függer et al. (IEEE TC 2016) proved that every *bounded* single-history
channel -- which includes all three above -- yields a non-faithful circuit
model with respect to Short-Pulse Filtration.  These baselines are
implemented here so the benchmark harness can reproduce the qualitative
comparison (who filters which glitch trains, and how fast).
"""

from __future__ import annotations

import math
from typing import Optional

from .channel import Channel
from .domain import DomainError
from .transitions import Signal, Transition

__all__ = [
    "PureDelayChannel",
    "InertialDelayChannel",
    "DegradationDelayChannel",
    "remove_short_pulses",
]


def remove_short_pulses(signal: Signal, min_width: float) -> Signal:
    """Iteratively remove pulses (of either polarity) shorter than ``min_width``.

    Removing a short pulse merges its neighbours, which may create a new
    short pulse; the procedure repeats until no transition pair is closer
    than ``min_width``.  This is the idealised inertial-delay filter.
    """
    times = signal.transition_times()
    values = [t.value for t in signal]
    changed = True
    while changed and len(times) >= 2:
        changed = False
        for i in range(len(times) - 1):
            if times[i + 1] - times[i] < min_width:
                del times[i : i + 2]
                del values[i : i + 2]
                changed = True
                break
    transitions = [Transition(t, v) for t, v in zip(times, values)]
    return Signal(signal.initial_value, transitions, allow_negative_times=True)


class PureDelayChannel(Channel):
    """Constant transport delay, optionally asymmetric per output polarity.

    With equal rising/falling delays the channel never produces non-FIFO
    transitions; with asymmetric delays short pulses may still cancel.
    """

    def __init__(
        self,
        delay: float,
        falling_delay: Optional[float] = None,
        *,
        inverting: bool = False,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(inverting=inverting, name=name)
        for param, value in (("delay", delay), ("falling_delay", falling_delay)):
            # Written so NaN fails too: every comparison with NaN is False.
            if value is not None and not 0 <= value < math.inf:
                raise DomainError(param, f"{param}={value} must be finite and non-negative")
        self.rising_delay = float(delay)
        self.falling_delay = float(delay if falling_delay is None else falling_delay)

    def delay_for(self, T: float, rising_output: bool, index: int, time: float) -> float:
        return self.rising_delay if rising_output else self.falling_delay

    def __repr__(self) -> str:
        return (
            f"PureDelayChannel(rising={self.rising_delay:g}, "
            f"falling={self.falling_delay:g}, inverting={self.inverting})"
        )


class InertialDelayChannel(Channel):
    """Constant delay plus suppression of pulses shorter than ``window``.

    The window may not exceed the delay (``window <= delay``).  Under that
    bound every input pulse narrower than ``window`` is removed, both its
    transitions, before the constant delay applies: the output is
    :func:`remove_short_pulses` of the input shifted by ``delay``.  The
    channel's kernel rejects a pulse only while its first output is still
    pending, so a wider window would not be an inertial delay (VHDL's
    ``reject`` may not exceed ``after`` for the same reason).  This is the
    model used (with per-gate windows) by VITAL/Verilog inertial delays.

    The channel trivially "solves" bounded-time Short-Pulse Filtration,
    which no physical circuit can -- the root of its non-faithfulness.
    """

    def __init__(
        self,
        delay: float,
        window: float,
        *,
        inverting: bool = False,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(inverting=inverting, name=name)
        for param, value in (("delay", delay), ("window", window)):
            if not 0 <= value < math.inf:
                raise DomainError(param, f"{param}={value} must be finite and non-negative")
        if window > delay:
            raise DomainError("window", f"window={window} must not exceed delay={delay}")
        self.delay = float(delay)
        self.window = float(window)

    def delay_for(self, T: float, rising_output: bool, index: int, time: float) -> float:
        return self.delay

    def rejection_window(self) -> float:
        return self.window

    def __repr__(self) -> str:
        return (
            f"InertialDelayChannel(delay={self.delay:g}, window={self.window:g}, "
            f"inverting={self.inverting})"
        )


class DegradationDelayChannel(Channel):
    """The Degradation Delay Model (DDM) of Bellido-Díaz et al.

    The input-to-output delay degrades for closely spaced transitions::

        delta(T) = delta_nominal * (1 - exp(-(T - T0) / tau_deg))   for T > T0
        delta(T) = 0                                                 otherwise

    ``T`` is the previous-output-to-input delay, ``T0`` the degradation
    onset and ``tau_deg`` the recovery constant.  Because ``delta`` is
    bounded (between 0 and ``delta_nominal``) this is a *bounded*
    single-history channel, hence covered by the non-faithfulness result of
    Függer et al. (IEEE TC 2016); it serves as the closest-competitor
    baseline in the model-comparison benchmarks.
    """

    def __init__(
        self,
        delta_nominal: float,
        tau_deg: float,
        T0: float = 0.0,
        *,
        inverting: bool = False,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(inverting=inverting, name=name)
        for param, value in (("delta_nominal", delta_nominal), ("tau_deg", tau_deg)):
            if not 0 < value < math.inf:
                raise DomainError(param, f"{param}={value} must be finite and positive")
        if not math.isfinite(T0):
            raise DomainError("T0", f"degradation onset T0={T0} must be finite")
        self.delta_nominal = float(delta_nominal)
        self.tau_deg = float(tau_deg)
        self.T0 = float(T0)

    def delay_for(self, T: float, rising_output: bool, index: int, time: float) -> float:
        if math.isinf(T) and T > 0:
            return self.delta_nominal
        if T <= self.T0:
            return 0.0
        return self.delta_nominal * (1.0 - math.exp(-(T - self.T0) / self.tau_deg))

    def __repr__(self) -> str:
        return (
            f"DegradationDelayChannel(delta_nominal={self.delta_nominal:g}, "
            f"tau_deg={self.tau_deg:g}, T0={self.T0:g}, inverting={self.inverting})"
        )
