"""Benchmark: the optimized event loop and the sweep's process pool.

Two measurements, both printed and, in the CI benchmarks job only,
recorded smoke-sized to ``BENCH_engine.json`` at the repository root
(the perf trajectory file that job uploads; see ``_record``):

1. **Event-loop hot path** -- the optimized engine (deque-backed maturity
   frontier, event-id index, scheduler-side tombstone skipping, integer
   dispatch tables, fused allocation-lean ``feed``) against the verbatim
   pre-optimization event loop (``_legacy_engine``) on a dense-transition
   delay-line chain whose pulses die at depths proportional to their
   width.  The channels are near-symmetric slow pure-delay channels, so
   every kernel holds a *long pending queue* (thousands of scheduled
   deliveries in flight) while narrow pulses keep *cancelling* against it
   -- exactly the regime where the legacy kernel rebuilt the whole pending
   list per cancellation (O(queue) each, O(n^2) over a run) and the
   optimized kernel pops a one-entry suffix.

2. **Process pool** -- ``run_many(max_workers=4)`` (scalar chunks on
   worker processes) against the inline sequential baseline on a
   120-scenario eta Monte Carlo sweep, with a bit-identical-executions
   check.  The measurement is recorded together with the core count it
   was taken on.

The tests assert only deterministic facts (the compared executions are
bit-identical); speedups are recorded, never asserted, because a
wall-clock ratio on a shared or throttled host is not reproducible.
"""

import json
import os
import platform
import time
from pathlib import Path

import pytest
from conftest import run_once
from repro.circuits import BUF, Circuit, inverter_chain
from repro.core import (
    EtaInvolutionChannel,
    InvolutionPair,
    PureDelayChannel,
    Signal,
    ZeroAdversary,
    admissible_eta_bound,
)
from repro.engine import CircuitTopology, Engine, eta_monte_carlo, run_many
from repro.experiments import print_table

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

# --- event-loop workload: dense transitions, many cancellations, long
# --- pending queues (see module docstring)
HOT_STAGES = 4
HOT_RISE = 16_000.0
HOT_FALL = HOT_RISE - 1.0  # pulse width shrinks by 1.0 per stage
HOT_PULSES = 3_000
HOT_WIDTH_MAX = 3.5  # widths in [1, 3.5] => pulses die within HOT_STAGES

# --- sweep workload: the acceptance-criterion eta Monte Carlo sweep.
# Dimensioned so per-run event-loop work dominates the per-sweep process
# overhead (pool fork, scenario shipping, result unpickling): a long
# surviving pulse train through a 32-stage chain gives tens of milliseconds
# of event-loop work per scenario against ~10 ms of per-scenario shipping.
SWEEP_SCENARIOS = 120
SWEEP_STAGES = 32
SWEEP_PULSES = 72
SWEEP_WORKERS = 4
if os.environ.get("REPRO_BENCH_SMOKE"):
    # CI smoke only checks that both backends execute and agree; a small
    # sweep keeps the (contended, core-starved) runners fast.
    SWEEP_SCENARIOS = 24
    SWEEP_PULSES = 24


def _record(section: str, row: dict) -> None:
    """Merge one result row into BENCH_engine.json (the perf trajectory).

    Only the CI benchmarks job, which sets ``REPRO_BENCH_SMOKE`` and
    uploads the file, records, so every recorded row is smoke-sized; any
    other run leaves the tree clean.
    """
    if not os.environ.get("REPRO_BENCH_SMOKE"):
        return
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except (json.JSONDecodeError, OSError):
            data = {}
    data.setdefault("benchmark", "engine")
    data.setdefault("results", {})
    data["results"][section] = row
    data["environment"] = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------- #
# 1. Event-loop hot path vs the pre-optimization engine
# --------------------------------------------------------------------------- #


def _delay_line_chain() -> Circuit:
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


def _hot_path_workload():
    # Widths in [1, HOT_WIDTH_MAX]: a pulse of width w shrinks by 1 per
    # stage and dies (its rise transport-cancelled) at stage floor(w); the
    # dense gaps keep thousands of deliveries pending per kernel.
    widths = [
        1.0 + (HOT_WIDTH_MAX - 1.0) * ((i * 37) % 100) / 100.0
        for i in range(HOT_PULSES)
    ]
    gaps = [1.0 + ((i * 13) % 7) * 0.25 for i in range(HOT_PULSES - 1)]
    stimulus = Signal.pulse_train(1.0, widths, gaps)
    end_time = 1.0 + sum(widths) + sum(gaps) + (HOT_RISE + 1.0) * HOT_STAGES
    return {"in": stimulus}, end_time


def _compare_event_loops():
    from _legacy_engine import LegacyEngine, LegacyTopology

    circuit = _delay_line_chain()
    inputs, end_time = _hot_path_workload()
    optimized = Engine(CircuitTopology(circuit), max_events=10_000_000)
    legacy = LegacyEngine(LegacyTopology(circuit), max_events=10_000_000)

    new_execution = optimized.run(inputs, end_time)  # also warms both paths
    old_execution = legacy.run(inputs, end_time)
    matches = new_execution.output("out") == old_execution.output("out") and all(
        new_execution.edge_signals[e] == old_execution.edge_signals[e]
        for e in new_execution.edge_signals
    )
    events = new_execution.event_count
    del new_execution, old_execution  # keep timed runs free of dead weight

    # Interleave the timed rounds (optimized, legacy, optimized, ...) and
    # take per-engine minima, so a transient slowdown of the host hits both
    # engines instead of biasing one timing block.
    repeats = 1 if os.environ.get("REPRO_BENCH_SMOKE") else 4
    optimized_seconds = legacy_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        optimized.run(inputs, end_time)
        optimized_seconds = min(optimized_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        legacy.run(inputs, end_time)
        legacy_seconds = min(legacy_seconds, time.perf_counter() - start)
    row = {
        "backend": "in-process",
        "cpu_count": os.cpu_count(),
        "stages": HOT_STAGES,
        "pulses": HOT_PULSES,
        "events": events,
        "optimized_seconds": optimized_seconds,
        "legacy_seconds": legacy_seconds,
        "speedup": legacy_seconds / optimized_seconds,
        "outputs_match": matches,
    }
    _record("event_loop_hot_path", row)
    return row


def test_event_loop_vs_legacy(benchmark):
    row = run_once(benchmark, _compare_event_loops)
    print()
    print_table([row], title="ENGINE: optimized event loop vs pre-optimization loop")
    assert row["outputs_match"]


# --------------------------------------------------------------------------- #
# 2. Process pool vs inline sequential
# --------------------------------------------------------------------------- #


def _compare_sweep_backends():
    pair = InvolutionPair.exp_channel(tau=1.0, t_p=0.5)
    eta = admissible_eta_bound(pair, eta_plus=0.05)
    circuit = inverter_chain(
        SWEEP_STAGES, lambda: EtaInvolutionChannel(pair, eta, ZeroAdversary())
    )
    # A well-separated surviving pulse train: every pulse traverses the
    # whole chain, so each run does real event-loop work on every stage.
    unit = pair.delta_up_inf + pair.delta_down_inf
    inputs = {
        "in": Signal.pulse_train(
            1.0, [2.0 * unit] * SWEEP_PULSES, [3.0 * unit] * (SWEEP_PULSES - 1)
        )
    }
    last = 1.0 + 5.0 * unit * SWEEP_PULSES
    end_time = last + 10.0 * SWEEP_STAGES * pair.delta_up_inf
    scenarios = eta_monte_carlo(circuit, inputs, end_time, SWEEP_SCENARIOS, seed=5)
    topology = CircuitTopology(circuit)

    # Warm both paths (imports, allocator, worker pool fork) before timing.
    run_many(topology, scenarios[:3])
    run_many(topology, scenarios[:3], max_workers=SWEEP_WORKERS)

    start = time.perf_counter()
    sequential = run_many(topology, scenarios)
    sequential_seconds = time.perf_counter() - start

    start = time.perf_counter()
    process = run_many(topology, scenarios, max_workers=SWEEP_WORKERS)
    process_seconds = time.perf_counter() - start

    matches = all(
        seq.execution.node_signals == proc.execution.node_signals
        and seq.execution.edge_signals == proc.execution.edge_signals
        for seq, proc in zip(sequential, process)
    )
    row = {
        "executor": "process",
        "scenarios": SWEEP_SCENARIOS,
        "stages": SWEEP_STAGES,
        "workers": SWEEP_WORKERS,
        "cpu_count": os.cpu_count(),
        "sequential_seconds": sequential_seconds,
        "process_seconds": process_seconds,
        "speedup": sequential_seconds / process_seconds,
        "outputs_match": matches,
    }
    _record("process_sweep", row)
    return row


def test_process_sweep_vs_sequential(benchmark):
    # A process-pool-vs-sequential measurement on a single core only
    # records pickling overhead; skip instead of writing a misleading
    # sub-1x number into the perf trajectory.
    if (os.cpu_count() or 1) < 2:
        pytest.skip("process-sweep benchmark needs >= 2 CPUs to be meaningful")
    row = run_once(benchmark, _compare_sweep_backends)
    print()
    print_table([row], title="SWEEP: run_many process pool vs sequential")
    assert row["outputs_match"]
