"""Experiment THM9: regimes of the fed-back OR storage loop.

Regenerates the content of Theorem 9 as a table: for a sweep of input pulse
lengths and a set of adversaries, the event-driven simulation of the
storage loop is classified against the analytical regime boundaries
``delta_up_inf - delta_min - eta+ - eta-`` (cancelled) and
``delta_up_inf + eta+`` (latched), and the Lemma 5/6 bounds on the
oscillating pulse trains are checked.
"""

from conftest import run_once
from repro import api
from repro.experiments import default_adversaries, print_table
from repro.specs import eta_to_dict, pair_to_dict


def test_theorem9_regime_sweep(benchmark, exp_pair, eta_small):
    result = run_once(
        benchmark,
        api.experiment,
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
    print()
    print_table([result.analysis_summary], title="THM9: analytical quantities of the storage loop")
    rows = result.rows()
    print_table(
        rows,
        columns=[
            "delta_0",
            "adversary",
            "regime",
            "final_value",
            "n_pulses",
            "max_up_time",
            "max_duty_cycle",
            "stabilization_time",
            "consistent",
        ],
        title="THM9: simulated storage-loop behaviour vs analytical regime",
    )
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
                "max_loop_pulse": max((r["max_up_time"] for r in in_regime), default=0.0),
            }
        )
    print_table(summary_rows, title="THM9: aggregate per regime")
    by_regime = {row["regime"]: row for row in summary_rows}
    assert by_regime["cancelled"]["resolved_to_1"] == 0
    assert by_regime["latched"]["resolved_to_0"] == 0
    assert by_regime["marginal"]["observations"] > 0
    # Any oscillation in the marginal regime respects the Lemma 5 bound.
    analysis_delta = result.analysis_summary["Delta"]
    for row in rows:
        if row["regime"] == "marginal" and row["final_value"] == 0:
            assert row["max_up_time"] <= analysis_delta + 1e-6
