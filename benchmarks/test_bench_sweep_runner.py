"""Bit-identity of ``run_many`` and the naive per-scenario simulate loop.

The sweep runner validates the circuit and precomputes its topology once
for a whole scenario family; the naive loop rebuilds and revalidates the
circuit for every scenario.  Both must give identical outputs over the
same eta-sampled scenarios of an inverter chain (192 stages and 120
scenarios at full size; sizes follow the hypothesis profile, see
``conftest.py``).
"""

import pytest

from repro.circuits import inverter_chain, simulate
from repro.core import EtaInvolutionChannel, Signal, ZeroAdversary
from repro.engine import eta_monte_carlo, run_many

pytestmark = pytest.mark.differential


def test_sweep_runner_vs_naive_loop(full_size, exp_pair, eta_small):
    stages, n = (192, 120) if full_size else (48, 24)
    circuit = inverter_chain(
        stages, lambda: EtaInvolutionChannel(exp_pair, eta_small, ZeroAdversary())
    )
    # A narrow pulse: the eta draws decide where in the chain it dies.
    width = 0.5 * exp_pair.delta_up_inf
    inputs = {"in": Signal.pulse(1.0, width)}
    end_time = 1.0 + width + 20.0 * stages * exp_pair.delta_up_inf
    scenarios = eta_monte_carlo(circuit, inputs, end_time, n, seed=5)

    sweep = run_many(circuit, scenarios)
    for run, scenario in zip(sweep, scenarios):
        # Rebuild and revalidate the chain per scenario, with the
        # scenario's own channel instances.
        channels = iter(scenario.channels.values())
        rebuilt = inverter_chain(stages, lambda: next(channels))
        naive = simulate(rebuilt, scenario.inputs, scenario.end_time)
        assert run.execution.output("out") == naive.output("out")
