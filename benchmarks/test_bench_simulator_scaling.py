"""Experiment SIM: event-driven simulator throughput.

The paper positions involution delays as drop-in replacements for the delay
models of dynamic timing analysis tools; the practical requirement is that
simulation with them scales.  This benchmark measures events/second of the
event-driven simulator over chain depth, with eta-involution channels and a
random adversary (the most expensive configuration).
"""

from conftest import run_once
from repro import api
from repro.experiments import print_table


def test_simulator_scaling(benchmark):
    samples = run_once(
        benchmark,
        api.experiment,
        "scaling",
        {"stage_counts": [4, 8, 16, 32], "input_transitions": 300},
    ).raw
    rows = [
        {
            "stages": s.stages,
            "input_transitions": s.input_transitions,
            "events": s.events,
            "seconds": s.seconds,
            "events_per_second": s.events_per_second,
        }
        for s in samples
    ]
    print()
    print_table(rows, title="SIM: simulator throughput vs inverter-chain depth")
    # Events scale with circuit size; throughput stays within an order of
    # magnitude across sizes (no super-linear blow-up).
    assert rows[-1]["events"] > rows[0]["events"]
    rates = [row["events_per_second"] for row in rows]
    assert max(rates) < 50.0 * min(rates)
