"""Lemmas 5, 6 and 8: fixed-point quantities of the worst-case pulse train.

Tabulates tau, Delta, P, gamma and Delta_0_tilde over a sweep of the
noise bound eta_plus (with eta_minus maximal under constraint (C)) and
checks the lemmas' invariants on every row, then checks that the
fixed-point solver itself finds positive roots.
"""

from repro import api
from repro.specs import pair_to_dict
from repro.spf import SPFAnalysis

ETA_PLUS_SWEEP = [0.0, 0.01, 0.02, 0.05, 0.08, 0.12, 0.16, 0.2]


def test_lemma5_quantities_vs_eta(exp_pair):
    rows = api.experiment(
        "lemma5",
        {"pair": pair_to_dict(exp_pair), "eta_plus_values": ETA_PLUS_SWEEP},
    ).raw
    # Lemma 5/6 invariants across the sweep.
    for row in rows:
        assert row["Delta"] < row["delta_min"]
        assert 0.0 < row["gamma"] < 1.0
        assert row["eta_plus"] + row["delta_min"] < row["tau"]
        assert row["cancel_threshold"] < row["Delta_0_tilde"] < row["latch_threshold"]
    # The period grows with eta_plus (later rising transitions).
    taus = [row["tau"] for row in rows]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_fixed_point_solver_speed(exp_pair, eta_small):
    """A full analysis construction solves both roots of Lemma 5/8."""
    analysis = SPFAnalysis(exp_pair, eta_small)
    tau, delta_tilde = analysis.tau, analysis.delta_tilde_0
    assert tau > 0 and delta_tilde > 0
