"""Fig. 8a/b/c: deviation coverage under variations.

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

from repro import api


def test_fig8_deviation_coverage():
    result = api.experiment(
        "fig8",
        {
            "technology": "UMC90",
            "stages": 3,
            "stage_index": 1,
            "n_widths": 24,
            "seed": 2018,
        },
    ).raw
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
