"""Experiment CMP: glitch-train handling across delay-model families.

Reproduces the qualitative comparison that motivates the paper (Section I):
pure delays propagate every glitch, inertial delays remove all sub-window
glitches in a single stage (the non-physical behaviour at the heart of the
non-faithfulness results), DDM and (eta-)involution channels attenuate
glitch trains gradually along an inverter chain.
"""

from conftest import run_once
from repro import api
from repro.experiments import print_table
from repro.spf import SPFChecker, build_spf_circuit
from repro.core import RandomAdversary, WorstCaseAdversary, ZeroAdversary

import numpy as np


def test_model_comparison_glitch_trains(benchmark):
    result = run_once(
        benchmark,
        api.experiment,
        "comparison",
        {
            "stages": 6,
            "pulse_width": 0.4,
            "gap": 0.6,
            "pulse_count": 12,
            "end_time": 400.0,
        },
    ).raw
    print()
    print_table(
        result.rows(),
        title=(
            f"CMP: surviving pulses per stage for a train of {result.pulse_count} "
            f"pulses of width {result.pulse_width}"
        ),
    )
    survivors = result.stage_survivors
    # Pure delay: every glitch survives every stage.
    assert survivors["pure"] == [result.pulse_count] * 6
    # Inertial delay: everything below the window dies at the first stage.
    assert survivors["inertial"][0] == 0
    # Involution-family and DDM channels attenuate monotonically along the chain.
    for model in ("involution", "eta_involution", "ddm"):
        counts = survivors[model]
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] < result.pulse_count


def test_spf_solvability_per_model(benchmark, exp_pair, eta_small):
    """The eta-involution SPF circuit solves SPF; the checker quantifies it."""
    circuit = build_spf_circuit(exp_pair, eta_small)
    checker = SPFChecker(
        circuit,
        adversary_factories={
            "zero": ZeroAdversary,
            "worst": WorstCaseAdversary,
            "random": lambda: RandomAdversary(seed=23),
        },
        end_time=400.0,
    )
    widths = np.linspace(0.05, 2.0, 12)
    report = run_once(benchmark, checker.check, widths)
    print()
    print_table([report.summary()], title="CMP: SPF conditions for the Fig. 5 circuit")
    assert report.solves_spf
