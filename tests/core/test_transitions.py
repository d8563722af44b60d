"""Unit tests for signals and transitions."""

import base64
import math
import pickle
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pulse, Signal, SignalError, Transition
from repro.core.transitions import _decode_signals, _signal_from_packed


class TestTransition:
    def test_rising_and_falling_flags(self):
        assert Transition(1.0, 1).is_rising
        assert not Transition(1.0, 1).is_falling
        assert Transition(2.0, 0).is_falling

    def test_invalid_value_rejected(self):
        with pytest.raises(SignalError):
            Transition(0.0, 2)

    def test_shifted(self):
        assert Transition(1.0, 1).shifted(0.5) == Transition(1.5, 1)

    def test_inverted(self):
        assert Transition(1.0, 1).inverted() == Transition(1.0, 0)

    def test_ordering_by_time(self):
        assert Transition(1.0, 0) < Transition(2.0, 1)


class TestPulse:
    def test_end_time(self):
        assert Pulse(1.0, 2.0).end == 3.0

    def test_nonpositive_length_rejected(self):
        with pytest.raises(SignalError):
            Pulse(0.0, 0.0)
        with pytest.raises(SignalError):
            Pulse(0.0, -1.0)

    def test_to_signal_positive(self):
        signal = Pulse(1.0, 2.0).to_signal()
        assert signal.initial_value == 0
        assert signal.transition_times() == [1.0, 3.0]
        assert [t.value for t in signal] == [1, 0]

    def test_to_signal_negative_polarity(self):
        signal = Pulse(1.0, 2.0, polarity=0).to_signal()
        assert signal.initial_value == 1
        assert [t.value for t in signal] == [0, 1]


class TestSignalConstruction:
    def test_constant_signals(self):
        assert Signal.zero().is_zero()
        assert Signal.one().final_value == 1
        assert Signal.zero().is_constant()

    def test_step(self):
        step = Signal.step(2.0)
        assert step.initial_value == 0
        assert step.value_at(1.9) == 0
        assert step.value_at(2.0) == 1

    def test_pulse_constructor(self):
        pulse = Signal.pulse(1.0, 0.5)
        assert len(pulse) == 2
        assert pulse.final_value == 0

    def test_from_times_alternates(self):
        signal = Signal.from_times([1.0, 2.0, 3.0])
        assert [t.value for t in signal] == [1, 0, 1]

    def test_from_times_initial_one(self):
        signal = Signal.from_times([1.0, 2.0], initial_value=1)
        assert [t.value for t in signal] == [0, 1]

    def test_pulse_train(self):
        train = Signal.pulse_train(0.0, [1.0, 2.0, 1.0], [0.5, 0.5])
        assert len(train) == 6
        ups, downs = train.up_down_times()
        assert ups == [1.0, 2.0, 1.0]
        assert downs == [0.5, 0.5]

    def test_pulse_train_empty(self):
        assert Signal.pulse_train(0.0, [], []).is_zero()

    def test_pulse_train_rejects_bad_downs(self):
        with pytest.raises(SignalError):
            Signal.pulse_train(0.0, [1.0, 1.0], [])

    def test_nonmonotonic_times_rejected(self):
        with pytest.raises(SignalError):
            Signal(0, [Transition(2.0, 1), Transition(1.0, 0)])

    def test_equal_times_rejected(self):
        with pytest.raises(SignalError):
            Signal(0, [Transition(1.0, 1), Transition(1.0, 0)])

    def test_non_alternating_values_rejected(self):
        with pytest.raises(SignalError):
            Signal(0, [Transition(1.0, 1), Transition(2.0, 1)])

    def test_first_value_must_differ_from_initial(self):
        with pytest.raises(SignalError):
            Signal(1, [Transition(1.0, 1)])

    def test_negative_times_rejected_by_default(self):
        with pytest.raises(SignalError):
            Signal(0, [Transition(-1.0, 1)])

    def test_negative_times_allowed_when_requested(self):
        signal = Signal(0, [Transition(-1.0, 1)], allow_negative_times=True)
        assert signal.value_at(0.0) == 1

    def test_nan_time_rejected(self):
        with pytest.raises(SignalError):
            Signal(0, [Transition(math.nan, 1)])

    def test_invalid_initial_value(self):
        with pytest.raises(SignalError):
            Signal(2, [])


class TestSignalQueries:
    def test_value_at(self):
        signal = Signal.from_times([1.0, 2.0, 3.0])
        assert signal.value_at(0.5) == 0
        assert signal.value_at(1.0) == 1
        assert signal.value_at(2.5) == 0
        assert signal.value_at(10.0) == 1

    def test_values_at(self):
        signal = Signal.pulse(1.0, 1.0)
        assert signal.values_at([0.0, 1.5, 3.0]) == [0, 1, 0]

    def test_final_value(self):
        assert Signal.pulse(0.0, 1.0).final_value == 0
        assert Signal.step(0.0).final_value == 1
        assert Signal.zero().final_value == 0

    def test_pulses_positive(self):
        train = Signal.pulse_train(0.0, [1.0, 2.0], [3.0])
        pulses = train.pulses()
        assert [p.length for p in pulses] == [1.0, 2.0]
        assert [p.start for p in pulses] == [0.0, 4.0]

    def test_pulses_negative_polarity(self):
        signal = Signal.pulse(1.0, 2.0, polarity=0)
        pulses = signal.pulses(0)
        assert len(pulses) == 1
        assert pulses[0].length == 2.0

    def test_trailing_step_not_a_pulse(self):
        signal = Signal.step(1.0)
        assert signal.pulses() == []

    def test_shortest_pulse_length(self):
        train = Signal.pulse_train(0.0, [1.0, 0.25, 2.0], [1.0, 1.0])
        assert train.shortest_pulse_length() == 0.25
        assert Signal.zero().shortest_pulse_length() is None

    def test_contains_pulse_shorter_than(self):
        train = Signal.pulse_train(0.0, [1.0, 0.25], [1.0])
        assert train.contains_pulse_shorter_than(0.5)
        assert not train.contains_pulse_shorter_than(0.2)

    def test_duty_cycles(self):
        train = Signal.pulse_train(0.0, [1.0, 1.0], [1.0])
        # First pulse: up 1.0, period 2.0 (rise to rise).
        assert train.duty_cycles() == [0.5]

    def test_up_down_times(self):
        train = Signal.pulse_train(2.0, [1.0, 3.0], [0.5])
        ups, downs = train.up_down_times()
        assert ups == [1.0, 3.0]
        assert downs == [0.5]

    def test_stabilization_time(self):
        assert Signal.zero().stabilization_time() == -math.inf
        assert Signal.pulse(1.0, 2.0).stabilization_time() == 3.0


class TestSignalTransformations:
    def test_shifted(self):
        shifted = Signal.pulse(1.0, 1.0).shifted(2.0)
        assert shifted.transition_times() == [3.0, 4.0]

    def test_inverted(self):
        inverted = Signal.pulse(1.0, 1.0).inverted()
        assert inverted.initial_value == 1
        assert [t.value for t in inverted] == [0, 1]
        assert inverted.inverted() == Signal.pulse(1.0, 1.0)

    def test_restricted(self):
        # Transitions at 0, 1, 2, 3.
        train = Signal.pulse_train(0.0, [1.0, 1.0], [1.0])
        assert len(train.restricted(2.5)) == 3
        assert len(train.restricted(1.5)) == 2

    def test_after(self):
        train = Signal.pulse_train(0.0, [1.0, 1.0], [1.0])
        later = train.after(2.5)
        assert later.initial_value == 1
        assert len(later) == 1
        assert later.transition_times() == [3.0]

    def test_equality_and_hash(self):
        a = Signal.pulse(1.0, 1.0)
        b = Signal.pulse(1.0, 1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Signal.pulse(1.0, 2.0)

    def test_repr_is_compact(self):
        text = repr(Signal.pulse_train(0.0, [1.0] * 10, [1.0] * 9))
        assert "..." in text


# --------------------------------------------------------------------------- #
# The representation contract: a Signal stores an initial value and a
# float64 times array, and must behave exactly like the plain list of
# alternating Transition objects it stands for.
# --------------------------------------------------------------------------- #

#: Finite or +inf times, -0.0 and negatives included (-inf and NaN are
#: never valid transition times).
TIMES = st.floats(allow_nan=False).filter(lambda t: t != -math.inf)


@st.composite
def references(draw, times=TIMES, max_size=12):
    """``(initial_value, [Transition, ...])``: a well-formed plain list."""
    initial = draw(st.integers(0, 1))
    stamps = sorted(draw(st.lists(times, unique=True, max_size=max_size)))
    return initial, [
        Transition(t, (1 - initial) ^ (i & 1)) for i, t in enumerate(stamps)
    ]


def _reference_value_at(initial, transitions, time):
    value = initial
    for tr in transitions:
        if tr.time <= time:
            value = tr.value
        else:
            break
    return value


def _reference_pulses(transitions, polarity):
    pulses, open_start = [], None
    for tr in transitions:
        if tr.value == polarity:
            open_start = tr.time
        elif open_start is not None:
            pulses.append(Pulse(open_start, tr.time - open_start, polarity))
            open_start = None
    return pulses


def _packed(signal):
    """The float64 wire bytes, built independently of the Signal internals."""
    times = signal.transition_times()
    return signal.initial_value, struct.pack(f"{len(times)}d", *times)


class TestRepresentationContract:
    @settings(max_examples=100)
    @given(
        reference=references(),
        queries=st.lists(st.floats(allow_nan=False), max_size=6),
        cut=st.tuples(
            st.integers(-14, 14) | st.none(),
            st.integers(-14, 14) | st.none(),
            st.sampled_from([None, 1, 2, -1, -3]),
        ),
    )
    def test_agrees_with_plain_transition_list(self, reference, queries, cut):
        initial, ref = reference
        signal = Signal(initial, ref, allow_negative_times=True)
        assert signal.transitions == tuple(ref)
        assert list(signal) == ref
        assert len(signal) == len(ref)
        for i in range(-len(ref), len(ref)):
            assert signal[i] == ref[i]
        assert signal[slice(*cut)] == tuple(ref[slice(*cut)])
        assert signal.final_value == (ref[-1].value if ref else initial)
        assert signal.transition_times() == [tr.time for tr in ref]
        for time in queries + [tr.time for tr in ref]:
            assert signal.value_at(time) == _reference_value_at(initial, ref, time)
        for polarity in (0, 1):
            assert signal.pulses(polarity) == _reference_pulses(ref, polarity)
        assert Signal.from_times(
            [tr.time for tr in ref], initial, allow_negative_times=True
        ) == signal

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            Signal.pulse(1.0, 1.0)[2]

    @settings(max_examples=100)
    @given(
        a=references(st.sampled_from([-0.0, 0.0, 1.0, 2.5]), max_size=3),
        b=references(st.sampled_from([-0.0, 0.0, 1.0, 2.5]), max_size=3),
    )
    def test_equality_matches_reference_and_implies_equal_hash(self, a, b):
        sa = Signal(a[0], a[1], allow_negative_times=True)
        sb = Signal(b[0], b[1], allow_negative_times=True)
        assert (sa == sb) == (a == b)
        if sa == sb:
            assert hash(sa) == hash(sb)

    def test_signed_zeros_are_equal_with_equal_hashes(self):
        a = Signal.from_times([-0.0, 1.0])
        b = Signal.from_times([0.0, 1.0])
        assert a == b and hash(a) == hash(b)

    @settings(max_examples=100)
    @given(reference=references())
    def test_pickle_keeps_the_float64_bytes(self, reference):
        initial, ref = reference
        signal = Signal(initial, ref, allow_negative_times=True)
        restored = pickle.loads(pickle.dumps(signal))
        assert restored == signal
        assert _packed(restored) == _packed(signal)

    def test_pickle_of_the_empty_and_negative_signals(self):
        for signal in (
            Signal.zero(),
            Signal.one(),
            Signal.from_times([-2.5, -0.0, 3.0], 1, allow_negative_times=True),
        ):
            restored = pickle.loads(pickle.dumps(signal))
            assert _packed(restored) == _packed(signal)

    @settings(max_examples=100)
    @given(batch=st.lists(references(), max_size=5))
    def test_hand_built_wire_payload_decodes_to_the_same_signal(self, batch):
        signals = [Signal(i, ref, allow_negative_times=True) for i, ref in batch]
        # The checkpoint wire format: {"i": initial value, "t": base64 of
        # the native float64 time bytes}.
        wire = [
            {"i": i, "t": base64.b64encode(data).decode("ascii")}
            for i, data in map(_packed, signals)
        ]
        decoded = _decode_signals(
            [(sig["i"], base64.b64decode(sig["t"])) for sig in wire]
        )
        assert decoded == signals
        assert [_packed(s) for s in decoded] == [_packed(s) for s in signals]
        for (i, data), signal in zip(map(_packed, signals), signals):
            assert _packed(_signal_from_packed(i, data)) == _packed(signal)

    @settings(max_examples=100)
    @given(
        batch=st.lists(references(max_size=6), min_size=1, max_size=4),
        victim=st.integers(0, 3),
        damage=st.sampled_from(["swap", "nan", "-inf", "initial", "torn"]),
    )
    def test_damaged_wire_payload_is_rejected(self, batch, victim, damage):
        packed = [_packed(Signal(i, ref, allow_negative_times=True)) for i, ref in batch]
        i, data = packed[victim % len(packed)]
        times = array("d", data)
        if damage == "swap" and len(times) >= 2:
            times[0], times[1] = times[1], times[0]
        elif damage == "nan":
            times.append(math.nan)
        elif damage == "-inf":
            times.insert(0, -math.inf)
        elif damage == "initial":
            i = 2
        elif damage == "torn":
            packed[victim % len(packed)] = (i, times.tobytes()[:-1] or b"\0")
            with pytest.raises(SignalError):
                _decode_signals(packed)
            return
        else:
            return
        packed[victim % len(packed)] = (i, times.tobytes())
        with pytest.raises(SignalError):
            _decode_signals(packed)
