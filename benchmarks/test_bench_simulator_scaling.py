"""Section I: the event-driven simulator scales with circuit depth.

The paper positions involution delays as drop-in replacements for the
delay models of dynamic timing analysis tools (Section I); the practical
requirement is that simulation with them scales.  This test runs the
``scaling`` experiment over chain depth, with eta-involution channels and
a random adversary (the most expensive configuration), and checks event
counts -- never wall-clock rates, which depend on the host.
"""

from repro import api


def test_simulator_scaling():
    samples = api.experiment(
        "scaling",
        {"stage_counts": [4, 8, 16, 32], "input_transitions": 300},
    ).raw
    rows = [{"stages": s.stages, "events": s.events} for s in samples]
    # Events scale with circuit size, but no deeper chain does more work
    # per stage than the shallowest one (no super-linear blow-up): pulses
    # attenuate along the chain, so per-stage events fall with depth.
    assert rows[-1]["events"] > rows[0]["events"]
    per_stage = [row["events"] / row["stages"] for row in rows]
    assert all(events <= per_stage[0] for events in per_stage)
