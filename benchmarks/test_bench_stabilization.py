"""Lemmas 7 and 8: stabilisation time near the critical pulse width.

Regenerates the bounded-time-impossibility phenomenon behind Lemmas 7/8 and
Theorem 9: as the input pulse width approaches the critical width
``Delta_0_tilde`` from above, the number of loop pulses (and hence the
stabilisation time) grows like ``log_a(1/(Delta_0 - Delta_0_tilde))`` --
both analytically and in the event-driven simulation.
"""

import math

from repro.core import WorstCaseAdversary
from repro.spf import analytical_stabilization_sweep, simulated_stabilization_sweep

GAPS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def test_stabilization_time_divergence(exp_pair, eta_small):
    analytic = analytical_stabilization_sweep(exp_pair, eta_small, GAPS)
    simulated = simulated_stabilization_sweep(
        exp_pair,
        eta_small,
        GAPS,
        adversary_factory=WorstCaseAdversary,
        end_time=600.0,
    )
    rows = []
    for a, s in zip(analytic, simulated):
        rows.append(
            {
                "gap": a.gap,
                "bound_pulses": a.pulses,
                "simulated_pulses": s.pulses,
                "simulated_time": s.stabilization_time,
                "final_value": s.final_value,
            }
        )
    # Every pulse above the threshold resolves to 1.
    assert all(row["final_value"] == 1 for row in rows)
    # Simulated pulse counts are within the analytical bound.
    for row in rows:
        if math.isfinite(row["bound_pulses"]):
            assert row["simulated_pulses"] <= row["bound_pulses"] + 1
    # Logarithmic divergence: each decade adds a roughly constant number of
    # pulses, so stabilisation time is unbounded as gap -> 0.
    simulated_pulses = [row["simulated_pulses"] for row in rows if row["gap"] <= 1e-2]
    increments = [b - a for a, b in zip(simulated_pulses, simulated_pulses[1:])]
    assert all(increment >= 1 for increment in increments)
    times = [row["simulated_time"] for row in rows]
    assert times[-1] > times[0]
