"""Experiments FIG8a/b/c: deviation coverage under variations.

Regenerates the three sub-figures of Fig. 8: the deviation ``D`` between
the nominal-model prediction and the "real" (analog-substrate) crossings
under (a) 1 % supply ripple, (b) +10 % transistor width and (c) -10 %
transistor width, together with the admissible eta band.  The reproduced
qualitative findings:

* (a) and (b) are covered by the band (completely for small ``T``),
* (c) exceeds the band as ``T`` grows,
* |D| grows with ``T`` in all scenarios, so coverage is best in the
  small-``T`` region that matters for faithfulness.
"""

from conftest import run_once
from repro import api
from repro.experiments import print_table


def test_fig8_deviation_coverage(benchmark):
    result = run_once(
        benchmark,
        api.experiment,
        "fig8",
        {
            "technology": "UMC90",
            "stages": 3,
            "stage_index": 1,
            "n_widths": 24,
            "seed": 2018,
        },
    ).raw
    print()
    print(
        f"FIG8: eta band = [-{result.scenarios['supply_1pct'].analysis.eta.eta_minus:.3g}, "
        f"+{result.eta_plus:.3g}] ps around the nominal characterised delay"
    )
    print_table(
        result.rows(),
        columns=[
            "scenario",
            "n_samples",
            "coverage_all",
            "coverage_small_T",
            "max_abs_deviation",
            "max_abs_deviation_small_T",
            "small_T_threshold",
        ],
        title="FIG8: deviation coverage per variation scenario",
    )

    supply = result.scenarios["supply_1pct"].summary
    wide = result.scenarios["width_plus10"].summary
    narrow = result.scenarios["width_minus10"].summary
    # (a) small supply ripple: (essentially) fully covered at small T.
    assert supply["coverage_small_T"] >= 0.85
    assert supply["coverage_all"] >= narrow["coverage_all"]
    # (b)/(c): the wider-transistor case is covered at least as well as the
    # narrower one, which exceeds the band for large T.
    assert wide["coverage_all"] >= narrow["coverage_all"]
    assert narrow["coverage_all"] < 1.0
    assert narrow["coverage_small_T"] >= 0.9
    # |D| grows with T in every scenario.
    for scenario in result.scenarios.values():
        summary = scenario.summary
        assert summary["max_abs_deviation"] >= summary["max_abs_deviation_small_T"]
