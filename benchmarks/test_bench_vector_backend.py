"""Benchmark: the vectorized batch backend vs the sequential scalar engine.

The acceptance workload of the vector backend is the 120-scenario eta
Monte Carlo sweep (the same surviving-pulse-train configuration the
process-pool benchmark uses): one 32-stage eta-involution inverter
chain, independent per-(run, edge) seeded adversaries, real event-loop
work in every scenario.  ``run_many(backend="vector")`` compiles the
topology once into dense per-scenario arrays and evaluates all 120 runs
simultaneously; the benchmark checks bit-identical executions against
the sequential baseline and prints the speedup (5-7x single-core on a
2-CPU x86-64 host) as the ``vector_sweep`` row, which the CI benchmarks
job records smoke-sized to ``BENCH_engine.json`` (see ``_record``).

A second workload pins the fixpoint lockstep schedule: the same chain
terminated by a theorem9-shaped storage loop (OR2 latch fed back
through a slow buffer), so the sweep is *cyclic* -- recorded as the
``vector_sweep_cyclic`` row (4-4.5x on the same host).  Speedups are
printed, never asserted: a wall-clock ratio is not reproducible.
"""

import os
import time

from conftest import run_once
from repro.circuits import BUF, OR2, inverter_chain
from repro.core import (
    EtaInvolutionChannel,
    InvolutionPair,
    PureDelayChannel,
    Signal,
    ZeroAdversary,
    admissible_eta_bound,
)
from repro.engine import CircuitTopology, eta_monte_carlo, run_many
from repro.experiments import print_table
from test_bench_engine_hot_path import _record

SCENARIOS = 120
STAGES = 32
PULSES = 72
if os.environ.get("REPRO_BENCH_SMOKE"):
    SCENARIOS = 24
    PULSES = 24


def _sweep_workload():
    pair = InvolutionPair.exp_channel(tau=1.0, t_p=0.5)
    eta = admissible_eta_bound(pair, eta_plus=0.05)
    circuit = inverter_chain(
        STAGES, lambda: EtaInvolutionChannel(pair, eta, ZeroAdversary())
    )
    unit = pair.delta_up_inf + pair.delta_down_inf
    inputs = {
        "in": Signal.pulse_train(
            1.0, [2.0 * unit] * PULSES, [3.0 * unit] * (PULSES - 1)
        )
    }
    last = 1.0 + 5.0 * unit * PULSES
    end_time = last + 10.0 * STAGES * pair.delta_up_inf
    scenarios = eta_monte_carlo(circuit, inputs, end_time, SCENARIOS, seed=5)
    return CircuitTopology(circuit), scenarios


def _cyclic_sweep_workload():
    """The chain workload terminated by a theorem9-shaped storage loop.

    The OR2 latch captures the surviving pulse train and holds it
    through a slow feedback buffer (two 45-unit pure delays), so the
    circuit is genuinely cyclic -- the vector backend must schedule the
    loop with its iterate-to-fixpoint pass -- while the bulk of the
    event traffic still flows through the acyclic chain prefix.
    """
    pair = InvolutionPair.exp_channel(tau=1.0, t_p=0.5)
    eta = admissible_eta_bound(pair, eta_plus=0.05)
    circuit = inverter_chain(
        STAGES, lambda: EtaInvolutionChannel(pair, eta, ZeroAdversary())
    )
    circuit.add_gate("latch", OR2, initial_value=0)
    circuit.add_gate("hold", BUF, initial_value=0)
    circuit.add_output("stored")
    circuit.connect(
        f"inv{STAGES}",
        "latch",
        EtaInvolutionChannel(pair, eta, ZeroAdversary()),
        pin=0,
        name="into_loop",
    )
    circuit.connect("latch", "hold", PureDelayChannel(45.0), pin=0, name="fwd")
    circuit.connect("hold", "latch", PureDelayChannel(45.0), pin=1, name="back")
    circuit.connect("latch", "stored")

    unit = pair.delta_up_inf + pair.delta_down_inf
    inputs = {
        "in": Signal.pulse_train(
            1.0, [2.0 * unit] * PULSES, [3.0 * unit] * (PULSES - 1)
        )
    }
    last = 1.0 + 5.0 * unit * PULSES
    end_time = last + 10.0 * STAGES * pair.delta_up_inf
    scenarios = eta_monte_carlo(circuit, inputs, end_time, SCENARIOS, seed=5)
    return CircuitTopology(circuit), scenarios


def _compare_backends(topology, scenarios):

    # Warm both paths (imports, compiled tables, allocator) before timing.
    run_many(topology, scenarios[:3], backend="sequential")
    run_many(topology, scenarios[:3], backend="vector")

    # Interleave the timed rounds and take per-backend minima, so a
    # transient slowdown of the host hits both backends instead of
    # biasing one timing block.
    repeats = 1 if os.environ.get("REPRO_BENCH_SMOKE") else 3
    vector_seconds = sequential_seconds = float("inf")
    vector = sequential = None
    for _ in range(repeats):
        start = time.perf_counter()
        vector = run_many(topology, scenarios, backend="vector")
        vector_seconds = min(vector_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        sequential = run_many(topology, scenarios, backend="sequential")
        sequential_seconds = min(sequential_seconds, time.perf_counter() - start)

    matches = vector.backend == "vector" and all(
        seq.execution.node_signals == vec.execution.node_signals
        and seq.execution.edge_signals == vec.execution.edge_signals
        and seq.execution.event_count == vec.execution.event_count
        for seq, vec in zip(sequential, vector)
    )
    return {
        "backend": "vector",
        "scenarios": SCENARIOS,
        "stages": STAGES,
        "cpu_count": os.cpu_count(),
        "sequential_seconds": sequential_seconds,
        "vector_seconds": vector_seconds,
        "speedup": sequential_seconds / vector_seconds,
        "outputs_match": matches,
    }


def _compare_vector_backend():
    row = _compare_backends(*_sweep_workload())
    _record("vector_sweep", row)
    return row


def _compare_vector_backend_cyclic():
    row = _compare_backends(*_cyclic_sweep_workload())
    row["cyclic"] = True
    _record("vector_sweep_cyclic", row)
    return row


def test_vector_sweep_vs_sequential(benchmark):
    row = run_once(benchmark, _compare_vector_backend)
    print()
    print_table([row], title="SWEEP: run_many vector backend vs sequential")
    assert row["outputs_match"]


def test_vector_sweep_cyclic_vs_sequential(benchmark):
    row = run_once(benchmark, _compare_vector_backend_cyclic)
    print()
    print_table(
        [row], title="SWEEP: vector backend vs sequential (storage loop)"
    )
    assert row["outputs_match"]
