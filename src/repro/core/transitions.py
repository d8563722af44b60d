"""Signals and transitions of the binary circuit model.

The circuit model of Függer et al. (DATE 2015 / DATE 2018) describes the
digital abstraction of a waveform as a *signal*: a list of alternating
rising/falling transitions.  This module provides the :class:`Transition`
and :class:`Signal` types together with the invariants the paper imposes:

S1  the initial transition is at time ``-inf``; all other transitions are
    at times ``t >= 0``,
S2  the sequence of transition times is strictly increasing,
S3  if there are infinitely many transitions, their times are unbounded
    (trivially satisfied here because we only represent finite prefixes).

Every signal uniquely corresponds to a right-continuous *signal trace*
``R -> {0, 1}`` whose value at time ``t`` is the value of the most recent
transition at or before ``t``.
"""

from __future__ import annotations

import math
from array import array as _array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RISING",
    "FALLING",
    "Transition",
    "Pulse",
    "Signal",
    "SignalError",
]

#: Value carried by a rising transition.
RISING = 1
#: Value carried by a falling transition.
FALLING = 0


class SignalError(ValueError):
    """Raised when a list of transitions violates the signal invariants."""


@dataclass(frozen=True, order=True, slots=True)
class Transition:
    """A single transition of a binary signal.

    Attributes
    ----------
    time:
        The time at which the transition occurs.  May be ``-inf`` only for
        the implicit initial transition of a signal.
    value:
        The value *after* the transition: ``1`` for a rising transition,
        ``0`` for a falling transition.
    """

    time: float
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise SignalError(f"transition value must be 0 or 1, got {self.value!r}")

    @property
    def is_rising(self) -> bool:
        """True if this is a rising transition."""
        return self.value == RISING

    @property
    def is_falling(self) -> bool:
        """True if this is a falling transition."""
        return self.value == FALLING

    def shifted(self, delta: float) -> "Transition":
        """Return a copy of this transition shifted by ``delta`` in time."""
        return Transition(self.time + delta, self.value)

    def __reduce__(self):
        # Plain constructor-args pickling: much cheaper than the default
        # slots-state protocol (executions shipped between sweep workers
        # contain hundreds of thousands of transitions).
        return (Transition, (self.time, self.value))

    def inverted(self) -> "Transition":
        """Return a copy with the opposite value (used by inverting gates)."""
        return Transition(self.time, 1 - self.value)


@dataclass(frozen=True)
class Pulse:
    """A single positive or negative pulse.

    A *pulse of length* ``length`` *at time* ``start`` (paper, Section IV)
    has initial value ``1 - polarity``, a transition to ``polarity`` at
    ``start`` and a transition back at ``start + length``.
    """

    start: float
    length: float
    polarity: int = 1

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise SignalError(f"pulse length must be positive, got {self.length}")
        if self.polarity not in (0, 1):
            raise SignalError("pulse polarity must be 0 or 1")

    @property
    def end(self) -> float:
        """Time of the trailing transition of the pulse."""
        return self.start + self.length

    def to_signal(self) -> "Signal":
        """Return the two-transition signal containing exactly this pulse."""
        return Signal(
            initial_value=1 - self.polarity,
            transitions=[
                Transition(self.start, self.polarity),
                Transition(self.end, 1 - self.polarity),
            ],
        )


class Signal:
    """A binary signal: an initial value plus alternating transitions.

    Parameters
    ----------
    initial_value:
        The value of the implicit transition at time ``-inf``.
    transitions:
        Transitions at finite times ``>= 0``, strictly increasing and
        alternating in value, the first one differing from
        ``initial_value``.
    allow_negative_times:
        The paper requires transition times ``>= 0`` (invariant S1).  Some
        internal computations (e.g. tentative output transitions of a
        channel) produce negative times before cancellation; those callers
        relax the check.
    """

    # The representation is the paper's definition: the initial value and
    # one float64 array of transition times.  Values are not stored --
    # alternation determines them -- and Transition objects are built only
    # on demand.  The array's bytes are the pickle and checkpoint wire
    # format.  Signals are immutable: nothing mutates ``_times``.
    __slots__ = ("_initial_value", "_times")

    def __init__(
        self,
        initial_value: int,
        transitions: Iterable[Transition] = (),
        *,
        allow_negative_times: bool = False,
    ) -> None:
        if initial_value not in (0, 1):
            raise SignalError("initial value must be 0 or 1")
        trans = [t if isinstance(t, Transition) else Transition(*t) for t in transitions]
        _validate_transitions(initial_value, trans, allow_negative_times)
        self._initial_value = initial_value
        self._times = _array("d", [tr.time for tr in trans])

    def __reduce__(self):
        # Packed pickling: the initial value plus the times' float64 bytes.
        return (_signal_from_packed, (self._initial_value, self._times.tobytes()))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def constant(cls, value: int) -> "Signal":
        """The signal that is constantly ``value``."""
        return cls(value, [])

    @classmethod
    def zero(cls) -> "Signal":
        """The constant-0 signal (the *zero signal* of the paper)."""
        return cls.constant(0)

    @classmethod
    def one(cls) -> "Signal":
        """The constant-1 signal."""
        return cls.constant(1)

    @classmethod
    def step(cls, time: float, value: int = 1) -> "Signal":
        """A single transition to ``value`` at ``time``."""
        return cls(1 - value, [Transition(time, value)])

    @classmethod
    def pulse(cls, start: float, length: float, polarity: int = 1) -> "Signal":
        """A single pulse of ``length`` starting at ``start``."""
        return Pulse(start, length, polarity).to_signal()

    @classmethod
    def from_times(
        cls,
        times: Sequence[float],
        initial_value: int = 0,
        *,
        allow_negative_times: bool = False,
    ) -> "Signal":
        """Build a signal from transition *times* alone.

        Values alternate starting from ``1 - initial_value``.
        """
        if initial_value not in (0, 1):
            raise SignalError("initial value must be 0 or 1")
        packed = _array("d", [float(t) for t in times])
        _validate_times(packed, allow_negative_times)
        return _signal_from_times(initial_value, packed)

    @classmethod
    def pulse_train(
        cls,
        start: float,
        up_times: Sequence[float],
        down_times: Sequence[float],
        initial_value: int = 0,
    ) -> "Signal":
        """A train of ``len(up_times)`` positive pulses.

        Pulse ``i`` is high for ``up_times[i]`` and followed by a low phase
        of ``down_times[i]`` (the last down phase extends to infinity, so
        ``down_times`` may have one element less than ``up_times``).
        """
        if not up_times:
            return cls.constant(initial_value)
        if len(down_times) < len(up_times) - 1:
            raise SignalError("need at least len(up_times) - 1 down times")
        times: List[float] = []
        t = start
        for i, up in enumerate(up_times):
            if up <= 0:
                raise SignalError("pulse up-times must be positive")
            times.append(t)
            t += up
            times.append(t)
            if i < len(up_times) - 1:
                down = down_times[i]
                if down <= 0:
                    raise SignalError("pulse down-times must be positive")
                t += down
        return cls.from_times(times, initial_value)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def initial_value(self) -> int:
        """Value of the signal before its first finite transition."""
        return self._initial_value

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        """The finite-time transitions of the signal (built on each call)."""
        return tuple(self)

    @property
    def final_value(self) -> int:
        """Value after the last transition (the eventual steady state)."""
        return self._initial_value ^ (len(self._times) & 1)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Transition]:
        value = 1 - self._initial_value
        for time in self._times:
            yield _transition(time, value)
            value = 1 - value

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(len(self._times))[index])
        time = self._times[index]
        if index < 0:
            index += len(self._times)
        return _transition(time, self._initial_value ^ (1 - (index & 1)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signal):
            return NotImplemented
        return (
            self._initial_value == other._initial_value
            and self._times == other._times
        )

    def __hash__(self) -> int:
        return hash((self._initial_value, tuple(self._times)))

    def __repr__(self) -> str:
        parts = ", ".join(f"({t.time:g},{t.value})" for t in self[:6])
        more = "..." if len(self._times) > 6 else ""
        return f"Signal(init={self._initial_value}, [{parts}{more}])"

    # ------------------------------------------------------------------ #
    # Trace evaluation
    # ------------------------------------------------------------------ #

    def value_at(self, time: float) -> int:
        """Value of the signal trace at ``time`` (right-continuous)."""
        return self._initial_value ^ (bisect_right(self._times, time) & 1)

    def values_at(self, times: Sequence[float]) -> List[int]:
        """Vectorised :meth:`value_at` for a sorted or unsorted time list."""
        return [self.value_at(t) for t in times]

    def transition_times(self) -> List[float]:
        """The list of finite transition times."""
        return self._times.tolist()

    def is_zero(self) -> bool:
        """True if this is the zero signal (constant 0)."""
        return self._initial_value == 0 and not self._times

    def is_constant(self) -> bool:
        """True if the signal has no finite transitions."""
        return not self._times

    # ------------------------------------------------------------------ #
    # Pulse queries (paper, Section IV definitions)
    # ------------------------------------------------------------------ #

    def pulses(self, polarity: int = 1) -> List[Pulse]:
        """Return all maximal pulses of the given polarity.

        A (positive) pulse is a rising transition followed by the next
        falling transition.  A trailing rising transition without a
        matching falling transition is *not* a pulse (it is a step) and is
        not reported.
        """
        times = self._times
        # Transition i has value 1 - initial_value for even i: pulses of
        # this polarity open at every other index, starting at 0 or 1.
        first = 0 if self._initial_value != polarity else 1
        return [
            Pulse(times[i], times[i + 1] - times[i], polarity)
            for i in range(first, len(times) - 1, 2)
        ]

    def contains_pulse_shorter_than(self, epsilon: float, polarity: int = 1) -> bool:
        """True if the signal contains a pulse of length ``< epsilon``.

        This is the negation of SPF condition F4 for a single output signal.
        """
        return any(p.length < epsilon for p in self.pulses(polarity))

    def shortest_pulse_length(self, polarity: int = 1) -> Optional[float]:
        """Length of the shortest pulse of given polarity, or None."""
        pulses = self.pulses(polarity)
        if not pulses:
            return None
        return min(p.length for p in pulses)

    def duty_cycles(self) -> List[float]:
        """Duty cycles ``gamma_n = Delta_n / P_n`` of consecutive positive pulses.

        The period ``P_n`` of pulse ``n`` is measured from its rising
        transition to the rising transition of the next pulse, matching the
        definition used in Lemma 5/6 of the paper.  The last pulse has no
        successor and therefore no duty cycle.
        """
        pulses = self.pulses(1)
        cycles: List[float] = []
        for current, following in zip(pulses, pulses[1:]):
            period = following.start - current.start
            cycles.append(current.length / period)
        return cycles

    def up_down_times(self) -> Tuple[List[float], List[float]]:
        """Return (up_times, down_times) of the positive pulse train.

        ``up_times[i]`` is the length of pulse ``i``; ``down_times[i]`` is
        the gap between pulse ``i`` and pulse ``i + 1``.
        """
        pulses = self.pulses(1)
        ups = [p.length for p in pulses]
        downs = [nxt.start - cur.end for cur, nxt in zip(pulses, pulses[1:])]
        return ups, downs

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def shifted(self, delta: float) -> "Signal":
        """Return the signal shifted by ``delta`` in time."""
        return Signal.from_times(
            [t + delta for t in self._times],
            self._initial_value,
            allow_negative_times=True,
        )

    def inverted(self) -> "Signal":
        """Return the logical complement of the signal."""
        return _signal_from_times(1 - self._initial_value, self._times)

    def restricted(self, until: float) -> "Signal":
        """Return the signal with transitions strictly after ``until`` dropped."""
        times = self._times
        return _signal_from_times(
            self._initial_value, times[: bisect_right(times, until)]
        )

    def after(self, time: float) -> "Signal":
        """Return the signal as seen from ``time`` on.

        The initial value becomes the value at ``time`` and only strictly
        later transitions are kept (not re-based; absolute times are kept).
        """
        times = self._times
        return _signal_from_times(
            self.value_at(time), times[bisect_right(times, time) :]
        )

    def stabilization_time(self) -> float:
        """Time of the last transition, or ``-inf`` for constant signals."""
        if not self._times:
            return -math.inf
        return self._times[-1]

    def to_samples(self, times: Sequence[float]) -> List[int]:
        """Sample the signal trace at the given times."""
        return self.values_at(times)


def _validate_transitions(
    initial_value: int,
    transitions: List[Transition],
    allow_negative_times: bool,
) -> None:
    """Check value alternation plus invariants S1/S2."""
    previous_value = initial_value
    for tr in transitions:
        if tr.value == previous_value:
            raise SignalError(
                f"transition values must alternate, got two consecutive {tr.value}s"
            )
        previous_value = tr.value
    _validate_times([tr.time for tr in transitions], allow_negative_times)


def _validate_times(times: Iterable[float], allow_negative_times: bool) -> None:
    """Check invariants S1/S2 on transition times."""
    previous_time = -math.inf
    for time in times:
        if math.isnan(time):
            raise SignalError("transition time must not be NaN")
        if not allow_negative_times and time < 0:
            raise SignalError(
                f"transition times must be >= 0 (invariant S1), got {time}"
            )
        if time == -math.inf:
            raise SignalError("only the implicit initial transition may be at -inf")
        if time <= previous_time:
            raise SignalError(
                "transition times must be strictly increasing (invariant S2): "
                f"{time} after {previous_time}"
            )
        previous_time = time


# --------------------------------------------------------------------------- #
# The representation's private interface
# --------------------------------------------------------------------------- #
# Engines, the vector backend and the checkpoint codec go through these
# helpers; no other module reads or builds a Signal's fields.


_new_transition = Transition.__new__
_set_field = object.__setattr__


def _transition(time: float, value: int) -> Transition:
    """A Transition built without the dataclass ``__init__``/``__post_init__``
    layers (values derived from alternation are 0/1 by construction)."""
    transition = _new_transition(Transition)
    _set_field(transition, "time", time)
    _set_field(transition, "value", value)
    return transition


def _signal_from_times(initial_value: int, times: _array) -> Signal:
    """A Signal over ``times``, an ``array('d')`` taken as is, unvalidated.

    For producers whose times are strictly increasing by construction
    (the engines' result assembly).  The array becomes the signal's
    storage: the caller must not mutate it afterwards.
    """
    signal = Signal.__new__(Signal)
    signal._initial_value = initial_value
    signal._times = times
    return signal


def _signal_times(signal: Signal) -> _array:
    """The signal's transition times, its own ``array('d')``: read only."""
    return signal._times


def _signal_from_packed(initial_value: int, data: bytes) -> Signal:
    """Rebuild a pickled :class:`Signal` from its packed float64 times."""
    times = _array("d")
    times.frombytes(data)
    return _signal_from_times(initial_value, times)


def _decode_signals(packed: Sequence[Tuple[Any, bytes]]) -> List[Signal]:
    """Rebuild signals from untrusted packed ``(initial_value, times)`` pairs.

    The checkpoint decoder's entry point.  Raises :class:`SignalError`
    unless every initial value is 0 or 1, every byte string holds whole
    float64s, and each signal's times are strictly increasing with no NaN
    or ``-inf`` (what :func:`_validate_times` checks with
    ``allow_negative_times=True``).  The time checks run over the whole
    batch in one vectorised pass.
    """
    starts: List[int] = []
    offset = 0
    for initial_value, data in packed:
        if initial_value not in (0, 1) or len(data) % 8:
            raise SignalError("damaged packed signal")
        starts.append(offset)
        offset += len(data) // 8
    joined = np.frombuffer(b"".join(data for _, data in packed), dtype=np.float64)
    increasing = joined[1:] > joined[:-1]
    # Steps from one signal's last time to the next signal's first are
    # not comparisons within a signal.
    boundaries = np.asarray(starts, dtype=np.int64) - 1
    increasing[boundaries[(boundaries >= 0) & (boundaries < len(increasing))]] = True
    if not (increasing.all() and (joined > -math.inf).all()):
        raise SignalError("damaged packed signal: times not strictly increasing")
    return [
        _signal_from_packed(int(initial_value), data) for initial_value, data in packed
    ]
