"""The shared single-history channel kernel.

:class:`ChannelKernel` is the one implementation of a single-history
channel's output function: the event-driven engine keeps one kernel per
circuit edge and drives it incrementally, and the offline channel
function (:meth:`repro.core.channel.Channel.apply`) runs a kernel over
the whole input signal.  The paper's two-phase algorithm maps onto it as
follows:

* **tentative phase** -- :meth:`ChannelKernel.tentative` assigns every
  input transition at time ``t_n`` a tentative output transition at
  ``t_n + delta_n``, where ``delta_n`` depends on the
  previous-output-to-input delay ``T_n = t_n - (t_{n-1} + delta_{n-1})``
  (using the *tentative* previous output transition, regardless of later
  cancellation); :meth:`ChannelKernel.feed` runs the same phase inline,
* **cancellation phase** -- one method, reached from both
  :meth:`ChannelKernel.commit` and :meth:`ChannelKernel.feed`, removes
  still-pending (unmatured) outputs at later-or-equal times, applies the
  channel's inertial pulse-rejection window, suppresses out-of-domain
  (``-inf``) delays and schedules the survivor,
* **delivery** -- :meth:`ChannelKernel.deliver` (online, driven by an
  event queue: a live delivery arrives at the head of the pending
  frontier, a cancelled one with an event id below it) or
  :meth:`ChannelKernel.mature`/:meth:`ChannelKernel.flush`
  (offline, driven by input order) turn surviving pending transitions into
  delivered output transitions, suppressing no-change deliveries.

The offline resolvers (:func:`transport_resolve` and the literal pairwise
rule :func:`cancel_non_fifo_reference` with its O(n) record-sweep
equivalent :func:`cancel_non_fifo`) also live here;
:mod:`repro.core.channel` re-exports them so existing imports keep
working.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, NamedTuple, Optional, Sequence, Tuple

from ..core.transitions import Signal, Transition, _signal_times
from .errors import CAUSALITY_MODES, CausalityError, SimulationError

__all__ = [
    "PendingTransition",
    "KernelEvent",
    "ChannelKernel",
    "cancel_non_fifo",
    "cancel_non_fifo_reference",
    "transport_resolve",
    "pending_to_signal",
]


@dataclass(slots=True)
class PendingTransition:
    """A tentative output transition before cancellation.

    Attributes
    ----------
    input_time:
        Time ``t_n`` of the generating input transition.
    delay:
        The input-to-output delay ``delta_n`` assigned to it (may be
        ``-inf`` when the domain guard of the eta-channel fires).
    value:
        Output value after the transition (same as the input transition's
        value for non-inverting channels).
    T:
        The previous-output-to-input delay used to compute ``delay``.
    eta:
        The adversarial shift included in ``delay`` (0 for deterministic
        channels).
    cancelled:
        Set by the cancellation phase.
    """

    input_time: float
    delay: float
    value: int
    T: float = math.nan
    eta: float = 0.0
    cancelled: bool = False

    @property
    def output_time(self) -> float:
        """The tentative output transition time ``t_n + delta_n``."""
        return self.input_time + self.delay


class KernelEvent(NamedTuple):
    """A newly scheduled channel-output transition.

    Returned by :meth:`ChannelKernel.feed`/:meth:`ChannelKernel.commit` so
    an event-driven scheduler can enqueue the delivery; ``event_id`` is the
    handle to pass back to :meth:`ChannelKernel.deliver`.  A named tuple:
    one is allocated per scheduled transition, and tuple construction is
    several times cheaper than a (frozen) dataclass.
    """

    time: float
    value: int
    event_id: int


class ChannelKernel:
    """Incremental evaluation of one single-history channel.

    One kernel instance holds the complete per-channel state that the
    two-phase algorithm of the paper needs: the tentative-phase bookkeeping
    (previous input time/delay, transition count), the queue of pending
    (scheduled but undelivered) output transitions, and the delivered
    output prefix.  The event-driven engine keeps one kernel per circuit
    edge; the offline channel algorithm drives a throwaway kernel over the
    whole input signal.

    Parameters
    ----------
    channel:
        The channel whose delay semantics to apply.  May be ``None`` for a
        pure cancellation resolver (see :func:`transport_resolve`), in
        which case only :meth:`commit`/:meth:`mature`/:meth:`flush` may be
        used.
    input_initial_value:
        Initial value of the channel's input signal.
    name:
        Label used in error messages (the engine passes the edge name).
    id_source:
        Callable yielding fresh event ids; defaults to a private counter.
        The engine shares its event-queue counter so delivery events sort
        deterministically.
    on_causality:
        Policy when a transition is scheduled at-or-before an already
        delivered one with a differing value: ``"error"`` raises
        :class:`~repro.engine.errors.CausalityError`, ``"drop"`` discards
        it (counted in :attr:`dropped`).
    """

    __slots__ = (
        "channel",
        "name",
        "on_causality",
        "_next_id",
        "_delay_for",
        "_inverting",
        "_rejection_window",
        "input_initial_value",
        "last_input_time",
        "last_delay",
        "last_input_value",
        "transition_count",
        "delivered_value",
        "last_delivered_time",
        "last_delivered_id",
        "pending",
        "delivered",
        "dropped",
    )

    def __init__(
        self,
        channel: Optional[object],
        *,
        input_initial_value: int = 0,
        name: Optional[str] = None,
        id_source: Optional[Callable[[], int]] = None,
        on_causality: str = "error",
    ) -> None:
        if on_causality not in CAUSALITY_MODES:
            raise ValueError(f"on_causality must be one of {list(CAUSALITY_MODES)}")
        self.channel = channel
        self.name = name or (getattr(channel, "name", None) or "channel")
        self.on_causality = on_causality
        self._next_id = id_source if id_source is not None else itertools.count().__next__
        self.reset(input_initial_value)

    # -- state ----------------------------------------------------------- #

    def reset(self, input_initial_value: Optional[int] = None) -> None:
        """Reset to the start-of-run state (also resets the channel)."""
        if input_initial_value is not None:
            self.input_initial_value = input_initial_value
        self.last_input_time = -math.inf
        self.last_delay = self.channel.initial_delay() if self.channel else 0.0
        self.last_input_value = self.input_initial_value
        self.transition_count = 0
        self.delivered_value = (
            self.channel.output_initial_value(self.input_initial_value)
            if self.channel
            else self.input_initial_value
        )
        self.last_delivered_time = -math.inf
        #: Event id of the last online delivery (``None`` before the first).
        self.last_delivered_id: Optional[int] = None
        #: Scheduled-but-undelivered outputs as a maturity frontier that
        #: strictly increases in time and in event id (a deque: cancellation
        #: pops from the right, delivery from the left, both O(1)):
        #: ``(time, value, event_id, generating PendingTransition or None)``.
        self.pending: Deque[Tuple[float, int, int, Optional[PendingTransition]]] = deque()
        #: Delivered output transition times, in delivery order (values
        #: alternate, starting from the output's initial value).
        self.delivered: List[float] = []
        #: Transitions discarded by the ``on_causality="drop"`` policy.
        self.dropped = 0
        channel = self.channel
        if channel is not None:
            channel.reset()
        # Per-transition hot-path constants: the channel's delay function,
        # inversion flag and inertial window are fixed for the lifetime of a
        # run, so the attribute/method lookups are hoisted out of
        # tentative()/commit().
        self._delay_for = channel.delay_for if channel is not None else None
        self._inverting = bool(channel.inverting) if channel is not None else False
        self._rejection_window = (
            channel.rejection_window() if channel is not None else 0.0
        )

    # -- tentative phase -------------------------------------------------- #

    def tentative(self, time: float, value: int) -> PendingTransition:
        """Assign the tentative delay ``delta_n`` to one input transition.

        Updates the previous-output bookkeeping regardless of later
        cancellation, exactly as the paper's algorithm prescribes.
        """
        if self.last_input_time == -math.inf:
            T = math.inf
        else:
            T = time - self.last_input_time - self.last_delay
        out_value = (1 - value) if self._inverting else value
        delay = self._delay_for(T, out_value == 1, self.transition_count, time)
        self.last_input_time = time
        self.last_delay = delay
        self.last_input_value = value
        self.transition_count += 1
        return PendingTransition(input_time=time, delay=delay, value=out_value, T=T)

    # -- cancellation phase ----------------------------------------------- #

    def commit(self, p: PendingTransition) -> Optional[KernelEvent]:
        """Apply the cancellation phase to ``p`` and schedule it if it survives.

        Returns the delivery event for the scheduler, or ``None`` when the
        transition was suppressed (out-of-domain delay, inertial rejection,
        no-change after cancellation, or the ``"drop"`` causality policy);
        a suppressed ``p`` is marked cancelled.
        """
        event = self._schedule(p.output_time, p.value, p)
        if event is None:
            p.cancelled = True
        return event

    def feed(self, time: float, value: int) -> Optional[KernelEvent]:
        """Feed one input transition (online mode): tentative + cancellation.

        Same-value inputs (no transition at the channel's input) are
        ignored, mirroring the event-driven simulator's behaviour for gate
        outputs that glitch back within a delta cycle.

        This is the engine's per-transition hot path: the tentative phase
        runs inline, without allocating the :class:`PendingTransition`
        bookkeeping object the offline two-phase API exposes, and the
        cancellation phase is the one :meth:`commit` runs.
        """
        if value == self.last_input_value:
            return None
        if self.last_input_time == -math.inf:
            T = math.inf
        else:
            T = time - self.last_input_time - self.last_delay
        out_value = (1 - value) if self._inverting else value
        delay = self._delay_for(T, out_value == 1, self.transition_count, time)
        self.last_input_time = time
        self.last_delay = delay
        self.last_input_value = value
        self.transition_count += 1
        return self._schedule(time + delay, out_value, None)

    def _schedule(
        self, out_time: float, value: int, p: Optional[PendingTransition]
    ) -> Optional[KernelEvent]:
        """The cancellation phase of one tentative output transition.

        ``p`` is the transition's bookkeeping object (``None`` on
        :meth:`feed`'s path); it rides along in the pending entry so that
        a later cancellation or delivery marks it.
        """
        # Transport cancellation: remove still-pending outputs at >= out_time
        # (matured outputs have been delivered and are no longer pending).
        # The frontier is time-sorted, so the cancelled entries are exactly
        # a suffix, popped from the right.  The survivor is appended with a
        # fresh (larger) id, so the frontier increases in time and in id.
        pending = self.pending
        while pending and pending[-1][0] >= out_time:
            self._cancel(pending.pop())

        # Inertial pulse rejection: an output pulse narrower than the
        # channel's rejection window is removed entirely (both its
        # transitions); with window <= delay this is the idealised
        # remove_short_pulses filter followed by the constant delay.
        window = self._rejection_window
        if window > 0.0 and pending and out_time - pending[-1][0] < window:
            self._cancel(pending.pop())
            return None

        if not math.isfinite(out_time):
            # Domain-guard case (delta = -inf): the transition cancels
            # everything pending (done above) and is itself dropped.
            return None
        if out_time <= self.last_delivered_time:
            if value == self.delivered_value:
                # All pending transitions at later-or-equal times were just
                # cancelled and the remaining scheduled value already equals
                # this transition's value, so it is a no-change transition;
                # suppressing it matches the offline transport resolution.
                return None
            if self.on_causality == "error":
                if p is not None:
                    p.cancelled = True
                raise CausalityError(
                    f"channel {self.name!r} scheduled an output at {out_time:g} "
                    f"but already delivered one at {self.last_delivered_time:g}"
                )
            self.dropped += 1
            return None
        event_id = self._next_id()
        pending.append((out_time, value, event_id, p))
        return KernelEvent(out_time, value, event_id)

    @staticmethod
    def _cancel(entry: Tuple[float, int, int, Optional[PendingTransition]]) -> None:
        p = entry[3]
        if p is not None:
            p.cancelled = True

    # -- delivery --------------------------------------------------------- #

    def deliver(self, event_id: int, value: int, time: float) -> Optional[bool]:
        """Deliver a scheduled output transition (online mode).

        Returns True if the channel output actually changed (the engine
        then propagates the transition to the target node), False for a
        no-change delivery, and ``None`` when the event was
        transport-cancelled.  The pending frontier strictly increases in
        time and in event id, and the scheduler pops events in time order,
        so a live delivery is always the frontier's head and a cancelled
        one has an id below it (or finds the frontier empty).  An id above
        the head, or the id this kernel delivered last, can only mean
        scheduler/kernel state divergence and raises
        :class:`~repro.engine.errors.SimulationError`.
        """
        pending = self.pending
        if pending and pending[0][2] == event_id:
            self.last_delivered_id = event_id
            return self._deliver_value(time, value, pending.popleft()[3])
        if event_id != self.last_delivered_id and (not pending or event_id < pending[0][2]):
            return None
        raise SimulationError(
            f"channel {self.name!r} asked to deliver event {event_id} which is "
            "neither the next pending output nor cancelled -- scheduler and "
            "kernel state have diverged"
        )

    def deliver_immediate(self, time: float, value: int) -> bool:
        """Zero-delay delivery used for :class:`ZeroDelayChannel` edges.

        Applies the logical inversion, suppresses no-change deliveries and
        collapses zero-width glitches (two deliveries at the same instant
        cancel out), returning True if the output changed.
        """
        self.last_input_value = value
        out_value = (1 - value) if self.channel and self.channel.inverting else value
        if out_value == self.delivered_value:
            return False
        self.delivered_value = out_value
        self.last_delivered_time = time
        if self.delivered and self.delivered[-1] == time:
            self.delivered.pop()
        else:
            self.delivered.append(time)
        return True

    def _deliver_value(
        self, time: float, value: int, p: Optional[PendingTransition]
    ) -> bool:
        if value == self.delivered_value:
            if p is not None:
                p.cancelled = True
            return False
        self.delivered_value = value
        self.last_delivered_time = time
        self.delivered.append(time)
        if p is not None:
            p.cancelled = False
        return True

    def mature(self, up_to_time: float) -> None:
        """Deliver every pending output scheduled at or before ``up_to_time``.

        This is the offline counterpart of the event queue: a pending
        transition whose output time is at-or-before the next input
        transition has *matured* (an online simulation would already have
        delivered it), so it can no longer be transport-cancelled.
        """
        pending = self.pending
        while pending and pending[0][0] <= up_to_time:
            time, value, _event_id, p = pending.popleft()
            self._deliver_value(time, value, p)

    def flush(self) -> None:
        """Deliver all remaining pending outputs (end of offline evaluation)."""
        self.mature(math.inf)

    # -- offline evaluation ----------------------------------------------- #

    def process(self, signal: Signal) -> Signal:
        """Evaluate the channel function over a whole input signal.

        This is the offline algorithm of the paper: tentative phase in
        input order, transport cancellation restricted to unmatured
        transitions, then delivery -- byte-for-byte the behaviour of the
        event-driven engine on a single-channel circuit.
        """
        self.reset(signal.initial_value)
        value = 1 - signal.initial_value
        for time in _signal_times(signal):
            self.mature(time)
            self.commit(self.tentative(time, value))
            value = 1 - value
        self.flush()
        return Signal.from_times(
            self.delivered,
            self.channel.output_initial_value(signal.initial_value)
            if self.channel
            else self.input_initial_value,
            allow_negative_times=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChannelKernel({self.name!r}, pending={len(self.pending)}, "
            f"delivered={len(self.delivered)})"
        )


# --------------------------------------------------------------------------- #
# Offline cancellation resolvers
# --------------------------------------------------------------------------- #


def cancel_non_fifo_reference(times: Sequence[float]) -> List[bool]:
    """Literal O(n^2) implementation of the cancellation rule.

    ``times[k]`` is the tentative output time of the k-th pending
    transition.  Returns a list of booleans, True meaning *cancelled*.
    A transition is cancelled iff it participates in at least one
    non-FIFO pair (an earlier transition with a later-or-equal output
    time, or a later transition with an earlier-or-equal output time).
    """
    n = len(times)
    cancelled = [False] * n
    for i in range(n):
        for j in range(i + 1, n):
            if times[i] >= times[j]:
                cancelled[i] = True
                cancelled[j] = True
    return cancelled


def cancel_non_fifo(times: Sequence[float]) -> List[bool]:
    """O(n) cancellation sweep equivalent to :func:`cancel_non_fifo_reference`.

    A transition survives iff its output time is strictly larger than every
    earlier output time and strictly smaller than every later output time,
    i.e. it is a strict two-sided record.  Survivors are automatically in
    strictly increasing time order and (because an even number of
    transitions is dropped between consecutive survivors) still alternate
    in value.
    """
    n = len(times)
    if n == 0:
        return []
    prefix_max = [-math.inf] * n
    running = -math.inf
    for i, t in enumerate(times):
        prefix_max[i] = running
        running = max(running, t)
    suffix_min = [math.inf] * n
    running = math.inf
    for i in range(n - 1, -1, -1):
        suffix_min[i] = running
        running = min(running, times[i])
    return [not (prefix_max[i] < times[i] < suffix_min[i]) for i in range(n)]


def transport_resolve(
    initial_value: int, pending: Sequence[PendingTransition]
) -> Signal:
    """Resolve cancellations with transport (VHDL-style) semantics.

    Tentative transitions are processed in generation order; scheduling a
    new transition at time ``s`` (generated by an input transition at time
    ``t``) removes all still-queued transitions with time ``>= s`` that have
    not yet *matured* (their time is ``> t``, i.e. they would still be
    pending in an online simulation).  After processing, queued transitions
    that do not change the output value are suppressed, which yields a
    well-formed (alternating) output signal.  The maturity condition makes
    this offline resolution agree exactly with the incremental resolution
    of the event-driven engine -- it runs the same :class:`ChannelKernel`.
    """
    kernel = ChannelKernel(None, input_initial_value=initial_value)
    for p in pending:
        kernel.mature(p.input_time)
        kernel.commit(p)
    kernel.flush()
    return Signal.from_times(kernel.delivered, initial_value, allow_negative_times=True)


def pending_to_signal(
    initial_value: int,
    pending: Sequence[PendingTransition],
    *,
    mode: str = "transport",
) -> Signal:
    """Apply the cancellation phase and assemble the output signal.

    ``mode`` selects the resolver: ``"transport"`` (default, well-formed for
    arbitrary overlaps), ``"record"`` (O(n) two-sided-record sweep of the
    literal pairwise rule) or ``"pairwise"`` (O(n^2) literal reference).
    """
    if mode == "transport":
        return transport_resolve(initial_value, pending)
    times = [p.output_time for p in pending]
    if mode == "pairwise":
        cancelled = cancel_non_fifo_reference(times)
    elif mode == "record":
        cancelled = cancel_non_fifo(times)
    else:
        raise ValueError(f"unknown cancellation mode {mode!r}")
    for p, c in zip(pending, cancelled):
        p.cancelled = c
    transitions = [
        Transition(p.output_time, p.value)
        for p in pending
        if not p.cancelled and math.isfinite(p.output_time)
    ]
    return Signal(initial_value, transitions, allow_negative_times=True)
