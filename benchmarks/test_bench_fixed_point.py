"""Experiment LEM5: fixed-point quantities of the worst-case pulse train.

Tabulates tau, Delta, P, gamma and Delta_0_tilde (Lemmas 5, 6 and 8) over a
sweep of the noise bound eta_plus (with eta_minus maximal under constraint
(C)), and benchmarks the fixed-point solver itself.
"""

from repro import api
from repro.experiments import print_table
from repro.specs import pair_to_dict
from repro.spf import SPFAnalysis

ETA_PLUS_SWEEP = [0.0, 0.01, 0.02, 0.05, 0.08, 0.12, 0.16, 0.2]


def test_lemma5_quantities_vs_eta(benchmark, exp_pair):
    rows = benchmark(
        api.experiment,
        "lemma5",
        {"pair": pair_to_dict(exp_pair), "eta_plus_values": ETA_PLUS_SWEEP},
    ).raw
    print()
    print_table(
        rows,
        columns=[
            "eta_plus",
            "eta_minus",
            "constraint_C_margin",
            "tau",
            "Delta",
            "gamma",
            "Delta_0_tilde",
            "cancel_threshold",
            "latch_threshold",
        ],
        title="LEM5: worst-case pulse-train quantities vs eta_plus (eta_minus maximal)",
    )
    # Lemma 5/6 invariants across the sweep.
    for row in rows:
        assert row["Delta"] < row["delta_min"]
        assert 0.0 < row["gamma"] < 1.0
        assert row["eta_plus"] + row["delta_min"] < row["tau"]
        assert row["cancel_threshold"] < row["Delta_0_tilde"] < row["latch_threshold"]
    # The period grows with eta_plus (later rising transitions).
    taus = [row["tau"] for row in rows]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_fixed_point_solver_speed(benchmark, exp_pair, eta_small):
    """Time a full analysis construction including both root solves."""

    def solve():
        analysis = SPFAnalysis(exp_pair, eta_small)
        return analysis.tau, analysis.delta_tilde_0

    tau, delta_tilde = benchmark(solve)
    print(f"\nLEM5 solver: tau = {tau:.6g}, Delta_0_tilde = {delta_tilde:.6g}")
    assert tau > 0 and delta_tilde > 0
