"""Channel abstractions and the output-transition-generation algorithm.

A *channel* maps an input signal to an output signal.  Single-history
channels (pure, inertial, DDM, involution, eta-involution) all follow the
same two-phase algorithm described in Section II of the paper:

1. *Tentative phase*: every input transition at time ``t_n`` is assigned a
   tentative output transition at ``t_n + delta_n``, where ``delta_n``
   depends on the previous-output-to-input delay
   ``T_n = t_n - (t_{n-1} + delta_{n-1})`` (using the *tentative* previous
   output transition, regardless of later cancellation).

2. *Cancellation phase*: tentative output transitions in non-FIFO order
   (``n < m`` but ``t_n + delta_n >= t_m + delta_m``) cancel.  The paper
   states the rule as "mark both as cancelled"; operationally (and in the
   authors' VHDL/ModelSim realisation) this is *transport cancellation*:
   scheduling a new transition removes all pending transitions at
   later-or-equal times, and transitions that do not change the output
   value are suppressed.  Both readings coincide whenever cancellations
   only involve consecutive pairs -- the only case arising in the paper's
   analysis -- and transport cancellation additionally guarantees a
   well-formed (alternating) output signal for arbitrary overlap patterns.

The algorithm itself lives in :class:`~repro.engine.kernel.ChannelKernel`:
:meth:`Channel.apply` (transport mode, the default) runs the channel's own
kernel over the whole input signal -- the *same* kernel, inertial
rejection window included, that the event-driven simulator executes
incrementally.  This module defines the :class:`Channel` interface on top
of it and re-exports the three cancellation resolvers:

* :func:`transport_resolve` -- the default transport semantics,
* :func:`cancel_non_fifo_reference` -- the literal O(n^2) pairwise marking,
* :func:`cancel_non_fifo` -- an O(n) sweep equivalent to the pairwise
  marking (two-sided records).

The ``record`` and ``pairwise`` modes of :meth:`Channel.apply` resolve the
tentative phase with the literal pairwise rule; they know no rejection
window, for any channel.  Property-based tests check that all three
resolvers agree on the pairwise-consecutive cases used by the theory.
"""

from __future__ import annotations

from typing import List, Optional

# Re-exported from the engine kernel: the single home of the cancellation
# semantics shared with the event-driven simulator.
from ..engine.kernel import (
    ChannelKernel,
    PendingTransition,
    cancel_non_fifo,
    cancel_non_fifo_reference,
    pending_to_signal,
    transport_resolve,
)
from .transitions import Signal

__all__ = [
    "PendingTransition",
    "Channel",
    "ZeroDelayChannel",
    "cancel_non_fifo",
    "cancel_non_fifo_reference",
    "transport_resolve",
    "pending_to_signal",
]


class Channel:
    """Base class of all channels.

    Subclasses implement :meth:`delay_for`, which assigns the delay
    ``delta_n`` to every input transition; the shared
    :class:`~repro.engine.kernel.ChannelKernel` takes care of the iteration
    over the input signal, bookkeeping of the previous tentative output
    transition, cancellation, and assembly of the output signal.

    Parameters
    ----------
    inverting:
        If True, the channel logically inverts its input (an inverter's
        combined gate+channel view).  Delay polarity is chosen by the
        *output* transition polarity, matching the convention of the paper
        (``delta_up`` produces rising *output* transitions).
    """

    def __init__(self, *, inverting: bool = False, name: Optional[str] = None) -> None:
        self.inverting = bool(inverting)
        self.name = name or type(self).__name__

    # -- interface ------------------------------------------------------ #

    def delay_for(self, T: float, rising_output: bool, index: int, time: float) -> float:
        """Return the delay ``delta_n`` for one transition.

        ``T`` is the previous-output-to-input delay, ``rising_output``
        states whether the generated output transition is rising,
        ``index``/``time`` identify the input transition (used by
        stateful/adversarial channels).
        """
        raise NotImplementedError  # pragma: no cover - interface

    def initial_delay(self) -> float:
        """The delay ``delta_0`` associated with the initial transition.

        The paper's algorithm sets ``delta_0 = 0`` with ``t_0 = -inf``;
        subclasses normally keep this.
        """
        return 0.0

    def rejection_window(self) -> float:
        """Width of the inertial pulse-rejection window (0 for no rejection).

        The engine removes output pulses narrower than this window (both of
        their transitions), which is how inertial delay channels implement
        glitch suppression incrementally.
        """
        return 0.0

    def reset(self) -> None:
        """Reset per-evaluation state (adversaries, RNGs)."""

    # -- evaluation ------------------------------------------------------ #

    def output_initial_value(self, input_initial_value: int) -> int:
        """Initial value of the output signal."""
        if self.inverting:
            return 1 - input_initial_value
        return input_initial_value

    def pending_transitions(self, signal: Signal) -> List[PendingTransition]:
        """Run the tentative phase of the algorithm on ``signal``."""
        kernel = ChannelKernel(self, input_initial_value=signal.initial_value)
        return [
            kernel.tentative(transition.time, transition.value)
            for transition in signal
        ]

    def __call__(self, signal: Signal, **kwargs) -> Signal:
        """Apply the channel function to an input signal."""
        return self.apply(signal, **kwargs)

    def apply(self, signal: Signal, *, mode: str = "transport") -> Signal:
        """Apply the channel function to ``signal`` and return the output.

        ``mode="transport"`` runs the channel's own
        :class:`~repro.engine.kernel.ChannelKernel` over ``signal``, the
        algorithm the event-driven engine runs.  ``"record"`` and
        ``"pairwise"`` resolve the tentative phase with the literal
        pairwise rule (:func:`cancel_non_fifo` and
        :func:`cancel_non_fifo_reference`), which has no rejection window.
        """
        if mode == "transport":
            return ChannelKernel(self, input_initial_value=signal.initial_value).process(signal)
        return pending_to_signal(
            self.output_initial_value(signal.initial_value),
            self.pending_transitions(signal),
            mode=mode,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ZeroDelayChannel(Channel):
    """The identity channel (zero delay).

    The paper assumes channels connecting circuit input/output ports to be
    zero-delay to make circuit composition associative; this class provides
    that channel.  It is not a single-history channel and performs no
    cancellation (it cannot create non-FIFO transitions).
    """

    def delay_for(self, T: float, rising_output: bool, index: int, time: float) -> float:
        return 0.0

    def apply(self, signal: Signal, *, mode: str = "transport") -> Signal:
        if not self.inverting:
            return signal
        return signal.inverted()
