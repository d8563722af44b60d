"""Unit tests for the shared channel kernel."""

import math

import pytest

from repro.circuits import BUF, Circuit, simulate
from repro.core import (
    Channel,
    EtaInvolutionChannel,
    InvolutionChannel,
    PureDelayChannel,
    SequenceAdversary,
    Signal,
)
from repro.engine import CausalityError, ChannelKernel, KernelEvent, SimulationError


class ScriptedDelayChannel(Channel):
    """Channel returning a scripted delay per transition index (test helper)."""

    def __init__(self, delays):
        super().__init__()
        self._delays = list(delays)

    def delay_for(self, T, rising_output, index, time):
        return self._delays[index]


class TestTentativePhase:
    def test_matches_channel_pending_transitions(self, involution_channel):
        signal = Signal.pulse_train(0.0, [2.0, 0.4, 1.5], [2.0, 1.0])
        pending = involution_channel.pending_transitions(signal)
        kernel = ChannelKernel(involution_channel, input_initial_value=0)
        direct = [kernel.tentative(tr.time, tr.value) for tr in signal]
        assert [p.delay for p in direct] == [p.delay for p in pending]
        assert [p.T for p in direct] == [p.T for p in pending]

    def test_first_transition_has_infinite_T(self, involution_channel):
        kernel = ChannelKernel(involution_channel)
        p = kernel.tentative(1.0, 1)
        assert math.isinf(p.T) and p.T > 0


class TestOfflineProcess:
    def test_process_matches_apply(self, involution_channel, exp_pair):
        signal = Signal.pulse_train(0.0, [2.0, 0.4, 1.5], [2.0, 1.0])
        offline = InvolutionChannel(exp_pair).apply(signal)
        kernel = ChannelKernel(involution_channel)
        assert kernel.process(signal) == offline

    def test_feed_dedups_same_value_inputs(self):
        kernel = ChannelKernel(PureDelayChannel(1.0), input_initial_value=0)
        assert kernel.feed(1.0, 0) is None  # no transition at the input
        event = kernel.feed(2.0, 1)
        assert isinstance(event, KernelEvent)
        assert event.time == pytest.approx(3.0)


class TestCancelledIdBookkeeping:
    """A cancelled delivery is told apart by id order alone.

    A new output pops every pending entry at a later-or-equal time and takes
    a fresh, larger id, so the frontier strictly increases in time and in
    id: a cancelled event's id is below the head (or the frontier is
    empty).  Its delivery returns ``None`` and changes nothing, and no
    per-cancellation state exists to leak or to purge.
    """

    def test_past_horizon_cancellation_leaves_no_tombstone(self):
        kernel = ChannelKernel(PureDelayChannel(2.0, 0.5), input_initial_value=0)
        rise = kernel.feed(9.5, 1)
        assert rise is not None and rise.time == pytest.approx(11.5)
        fall = kernel.feed(9.9, 0)  # scheduled at 10.4, cancels the rise
        assert fall is not None and fall.time == pytest.approx(10.4)
        assert rise.event_id < fall.event_id
        assert [entry[2] for entry in kernel.pending] == [fall.event_id]
        # The cancelled id is below the head: reported cancelled, and the
        # frontier is left as it was.
        assert kernel.deliver(rise.event_id, rise.value, rise.time) is None
        assert [entry[2] for entry in kernel.pending] == [fall.event_id]

    def test_within_horizon_cancellation_tombstone_is_consumed(self):
        kernel = ChannelKernel(PureDelayChannel(5.0, 1.0), input_initial_value=0)
        rise = kernel.feed(1.0, 1)  # scheduled at 6.0
        fall = kernel.feed(2.0, 0)  # scheduled at 3.0 -> cancels the rise
        assert rise is not None and fall is not None
        # In time order the fall comes due first: a no-change delivery.
        assert kernel.deliver(fall.event_id, fall.value, fall.time) is False
        assert not kernel.pending
        # The cancelled rise finds the frontier empty, as often as it is
        # asked: nothing was recorded for it, so nothing is consumed.
        for _ in range(2):
            assert kernel.deliver(rise.event_id, rise.value, rise.time) is None
            assert not kernel.pending and kernel.delivered == []

    def test_finalize_purges_pending_and_tombstones(self):
        kernel = ChannelKernel(PureDelayChannel(5.0, 1.0), input_initial_value=0)
        kernel.feed(1.0, 1)
        fall = kernel.feed(2.0, 0)
        assert [entry[2] for entry in kernel.pending] == [fall.event_id]
        # Nothing to purge: no finalize(), and no attribute holds event ids.
        assert not hasattr(kernel, "finalize")
        assert not hasattr(kernel, "cancelled_ids")
        assert not any(
            isinstance(getattr(kernel, slot, None), (set, frozenset, dict))
            for slot in ChannelKernel.__slots__
        )

    def test_cancelled_deliveries_are_not_charged_to_max_events(self):
        # Each 1-wide pulse through a 5/1 pure delay: the fall (due at t+2)
        # cancels the rise (due at t+5), whose delivery is still queued and
        # pops last.  Live events: the two port transitions and the fall's
        # delivery per pulse, plus the time-0 settle pass.
        circuit = Circuit("cancelling")
        circuit.add_input("a")
        circuit.add_gate("g", BUF, initial_value=0)
        circuit.add_output("y")
        circuit.connect("a", "g", PureDelayChannel(5.0, 1.0), pin=0, name="ch")
        circuit.connect("g", "y")
        pulses = 4
        stimulus = Signal.pulse_train(1.0, [1.0] * pulses, [2.0] * (pulses - 1))
        live = 3 * pulses + 1
        execution = simulate(circuit, {"a": stimulus}, 100.0, max_events=live)
        assert execution.event_count == live
        assert execution.edge("ch") == Signal.zero()
        with pytest.raises(SimulationError, match="exceeded max_events"):
            simulate(circuit, {"a": stimulus}, 100.0, max_events=live - 1)


class TestDeliverStateDivergence:
    """Delivering an id that is neither pending nor cancelled is an error.

    It can only mean scheduler/kernel state divergence; the kernel used to
    silently deliver the value anyway (regression test for that bugfix).
    """

    def test_unknown_event_id_raises(self):
        kernel = ChannelKernel(PureDelayChannel(1.0), input_initial_value=0)
        event = kernel.feed(1.0, 1)
        with pytest.raises(SimulationError, match="diverged"):
            kernel.deliver(event.event_id + 999, 1, 2.0)

    def test_double_delivery_raises(self):
        kernel = ChannelKernel(PureDelayChannel(1.0), input_initial_value=0)
        event = kernel.feed(1.0, 1)
        assert kernel.deliver(event.event_id, event.value, event.time) is True
        with pytest.raises(SimulationError, match="diverged"):
            kernel.deliver(event.event_id, event.value, event.time)

    def test_out_of_order_delivery_raises(self):
        # A kernel's pending times strictly increase and the scheduler pops
        # events in time order, so a delivery that skips the frontier head
        # means the two have diverged.
        kernel = ChannelKernel(PureDelayChannel(1.0), input_initial_value=0)
        first = kernel.feed(1.0, 1)
        second = kernel.feed(1.5, 0)
        assert first is not None and second is not None
        with pytest.raises(SimulationError, match="diverged"):
            kernel.deliver(second.event_id, second.value, second.time)


class TestCausalityPolicy:
    def test_error_policy_raises(self):
        kernel = ChannelKernel(ScriptedDelayChannel([1.0, -1.5]), input_initial_value=0)
        event = kernel.feed(0.0, 1)
        kernel.deliver(event.event_id, event.value, event.time)
        with pytest.raises(CausalityError):
            kernel.feed(2.0, 0)  # schedules at 0.5 < delivered 1.0

    def test_drop_policy_counts(self):
        kernel = ChannelKernel(
            ScriptedDelayChannel([1.0, -1.5]),
            input_initial_value=0,
            on_causality="drop",
        )
        event = kernel.feed(0.0, 1)
        kernel.deliver(event.event_id, event.value, event.time)
        assert kernel.feed(2.0, 0) is None
        assert kernel.dropped == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ChannelKernel(PureDelayChannel(1.0), on_causality="ignore")


class TestEtaKernel:
    def test_sequence_adversary_shifts_via_kernel(self, exp_pair, eta_small):
        channel = EtaInvolutionChannel(
            exp_pair, eta_small, SequenceAdversary([0.0, eta_small.eta_plus])
        )
        signal = Signal.pulse(1.0, 4.0)
        kernel = ChannelKernel(channel)
        out = kernel.process(signal)
        reference = channel.deterministic_output(signal)
        times, ref_times = out.transition_times(), reference.transition_times()
        assert times[0] == pytest.approx(ref_times[0])
        assert times[1] == pytest.approx(ref_times[1] + eta_small.eta_plus)
