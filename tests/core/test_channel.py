"""Unit tests for the channel base machinery and cancellation resolvers."""

import math

import pytest

from repro.core import (
    PendingTransition,
    Signal,
    ZeroDelayChannel,
    cancel_non_fifo,
    cancel_non_fifo_reference,
    pending_to_signal,
    transport_resolve,
)


def make_pending(times, initial_value=0):
    """Build alternating pending transitions with the given output times."""
    value = 1 - initial_value
    pending = []
    for t in times:
        pending.append(PendingTransition(input_time=0.0, delay=t, value=value))
        value = 1 - value
    return pending


class TestCancellationResolvers:
    def test_fifo_order_keeps_everything(self):
        times = [1.0, 2.0, 3.0, 4.0]
        assert cancel_non_fifo(times) == [False] * 4
        assert cancel_non_fifo_reference(times) == [False] * 4

    def test_single_inversion_cancels_pair(self):
        times = [2.0, 1.0]
        assert cancel_non_fifo(times) == [True, True]
        assert cancel_non_fifo_reference(times) == [True, True]

    def test_equal_times_cancel(self):
        times = [1.0, 1.0]
        assert cancel_non_fifo(times) == [True, True]

    def test_record_sweep_matches_reference_on_overlaps(self):
        times = [1.0, 5.0, 6.0, 4.0, 10.0]
        assert cancel_non_fifo(times) == cancel_non_fifo_reference(times)

    def test_empty_input(self):
        assert cancel_non_fifo([]) == []
        assert cancel_non_fifo_reference([]) == []

    def test_transport_resolve_pairwise_case(self):
        # A short pulse: the falling tentative transition is scheduled before
        # the pending rising one -> the pulse vanishes entirely.
        pending = make_pending([2.0, 1.0])
        out = transport_resolve(0, pending)
        assert out.is_zero()
        assert all(p.cancelled for p in pending)

    def test_transport_resolve_keeps_fifo(self):
        pending = make_pending([1.0, 2.0, 3.0, 4.0])
        out = transport_resolve(0, pending)
        assert out.transition_times() == [1.0, 2.0, 3.0, 4.0]

    def test_transport_resolve_triple_overlap_yields_valid_signal(self):
        # Times [5, 7, 4]: the literal pairwise rule would cancel an odd
        # number of transitions; transport resolution must still produce a
        # well-formed alternating signal.
        pending = make_pending([5.0, 7.0, 4.0, 10.0])
        out = transport_resolve(0, pending)
        values = [t.value for t in out]
        # Alternation starting from the initial value 0.
        for previous, current in zip([0] + values, values):
            assert previous != current
        times = out.transition_times()
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_transport_drops_minus_inf(self):
        # The guard case of the eta-channel: the second transition gets a
        # -inf delay while its predecessor is still pending -> both vanish.
        pending = [
            PendingTransition(input_time=0.0, delay=2.0, value=1),
            PendingTransition(input_time=1.0, delay=-math.inf, value=0),
        ]
        out = transport_resolve(0, pending)
        assert out.is_zero()

    def test_pending_to_signal_modes_agree_on_simple_cases(self):
        for times in ([1.0, 2.0, 3.0], [3.0, 2.0], [1.0, 4.0, 2.0, 5.0]):
            pending_a = make_pending(times)
            pending_b = make_pending(times)
            pending_c = make_pending(times)
            transport = pending_to_signal(0, pending_a, mode="transport")
            record = pending_to_signal(0, pending_b, mode="record")
            pairwise = pending_to_signal(0, pending_c, mode="pairwise")
            assert record == pairwise
            # Traces agree even when the transition lists differ formally.
            probe_times = [0.5, 1.5, 2.5, 3.5, 4.5, 6.0]
            assert transport.values_at(probe_times) == record.values_at(probe_times)

    def test_pending_to_signal_unknown_mode(self):
        with pytest.raises(ValueError):
            pending_to_signal(0, make_pending([1.0]), mode="bogus")


class TestZeroDelayChannel:
    def test_identity(self):
        channel = ZeroDelayChannel()
        signal = Signal.pulse(1.0, 2.0)
        assert channel(signal) == signal

    def test_inverting(self):
        channel = ZeroDelayChannel(inverting=True)
        signal = Signal.pulse(1.0, 2.0)
        assert channel(signal) == signal.inverted()

    def test_output_initial_value(self):
        assert ZeroDelayChannel().output_initial_value(1) == 1
        assert ZeroDelayChannel(inverting=True).output_initial_value(1) == 0

    def test_repr(self):
        assert "ZeroDelayChannel" in repr(ZeroDelayChannel())


class TestPendingTransition:
    def test_output_time(self):
        pending = PendingTransition(input_time=2.0, delay=0.5, value=1)
        assert pending.output_time == 2.5

    def test_defaults(self):
        pending = PendingTransition(input_time=0.0, delay=1.0, value=0)
        assert not pending.cancelled
        assert pending.eta == 0.0
