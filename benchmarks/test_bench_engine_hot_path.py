"""Bit-identity of the optimized event loop and of the process pool.

1. **Event loop** -- the engine against the pre-optimization loop of
   ``_legacy_engine.py`` on a delay line whose near-symmetric slow
   pure-delay channels hold long pending queues (thousands of scheduled
   deliveries per kernel at full size) while narrow pulses keep
   cancelling against them: every edge signal and the output must be
   identical.
2. **Process pool** -- ``run_many(max_workers=2)`` against the
   sequential reference on the eta Monte Carlo chain sweep.

Sizes follow the hypothesis profile (see ``conftest.py``).
"""

import pytest

from _legacy_engine import LegacyEngine, LegacyTopology
from repro.circuits import BUF, Circuit
from repro.core import PureDelayChannel, Signal
from repro.engine import CircuitTopology, Engine, run_many

pytestmark = pytest.mark.differential

HOT_STAGES = 4
HOT_RISE = 16_000.0
HOT_FALL = HOT_RISE - 1.0  # pulse width shrinks by 1.0 per stage
HOT_WIDTH_MAX = 3.5  # widths in [1, 3.5] => pulses die within HOT_STAGES


def _delay_line() -> Circuit:
    circuit = Circuit("delay-line")
    circuit.add_input("in")
    previous = "in"
    for i in range(HOT_STAGES):
        gate = f"g{i}"
        circuit.add_gate(gate, BUF, initial_value=0)
        circuit.connect(
            previous, gate, PureDelayChannel(HOT_RISE, HOT_FALL), pin=0, name=f"ch{i}"
        )
        previous = gate
    circuit.add_output("out")
    circuit.connect(previous, "out")
    return circuit


def test_event_loop_vs_legacy(full_size):
    pulses = 3_000 if full_size else 1_000
    # A pulse of width w shrinks by 1 per stage and dies at stage floor(w);
    # the dense gaps keep thousands of deliveries pending per kernel.
    widths = [
        1.0 + (HOT_WIDTH_MAX - 1.0) * ((i * 37) % 100) / 100.0 for i in range(pulses)
    ]
    gaps = [1.0 + ((i * 13) % 7) * 0.25 for i in range(pulses - 1)]
    inputs = {"in": Signal.pulse_train(1.0, widths, gaps)}
    end_time = 1.0 + sum(widths) + sum(gaps) + (HOT_RISE + 1.0) * HOT_STAGES
    circuit = _delay_line()

    new = Engine(CircuitTopology(circuit), max_events=10_000_000).run(inputs, end_time)
    old = LegacyEngine(LegacyTopology(circuit), max_events=10_000_000).run(
        inputs, end_time
    )
    assert new.output("out") == old.output("out")
    assert new.edge_signals.keys() == old.edge_signals.keys()
    for edge, signal in new.edge_signals.items():
        assert signal == old.edge_signals[edge], edge


def test_process_sweep_vs_sequential(chain):
    chain.assert_matches(run_many(chain.topology, chain.scenarios, max_workers=2))
