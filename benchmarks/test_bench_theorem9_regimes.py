"""Theorem 9: regimes of the fed-back OR storage loop.

Regenerates the content of Theorem 9 as a table: for a sweep of input pulse
lengths and a set of adversaries, the event-driven simulation of the
storage loop is classified against the analytical regime boundaries
``delta_up_inf - delta_min - eta+ - eta-`` (cancelled) and
``delta_up_inf + eta+`` (latched), and the Lemma 5/6 bounds on the
oscillating pulse trains are checked.
"""

from repro import api
from repro.experiments import default_adversaries
from repro.specs import eta_to_dict, pair_to_dict


def test_theorem9_regime_sweep(exp_pair, eta_small):
    result = api.experiment(
        "theorem9",
        {
            "pair": pair_to_dict(exp_pair),
            "eta": eta_to_dict(eta_small),
            "adversaries": {
                name: spec.to_dict() for name, spec in default_adversaries().items()
            },
            "end_time": 400.0,
        },
    ).raw
    rows = result.rows()
    assert result.all_consistent

    # Aggregate view per regime (the "table" the theorem describes).
    summary_rows = []
    for regime in ("cancelled", "marginal", "latched"):
        in_regime = [r for r in rows if r["regime"] == regime]
        summary_rows.append(
            {
                "regime": regime,
                "observations": len(in_regime),
                "resolved_to_1": sum(r["final_value"] == 1 for r in in_regime),
                "resolved_to_0": sum(r["final_value"] == 0 for r in in_regime),
            }
        )
    by_regime = {row["regime"]: row for row in summary_rows}
    assert by_regime["cancelled"]["resolved_to_1"] == 0
    assert by_regime["latched"]["resolved_to_0"] == 0
    assert by_regime["marginal"]["observations"] > 0
    # Any oscillation in the marginal regime respects the Lemma 5 bound.
    analysis_delta = result.analysis_summary["Delta"]
    for row in rows:
        if row["regime"] == "marginal" and row["final_value"] == 0:
            assert row["max_up_time"] <= analysis_delta + 1e-6
