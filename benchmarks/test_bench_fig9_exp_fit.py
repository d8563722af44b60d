"""Experiment FIG9: fitting an exp-channel to characterised delay data.

Regenerates Fig. 9: a simple three-parameter exp-channel is fitted to the
characterised delay samples of the analog inverter; its deviation from the
measurements is small near T = 0 (the faithfulness-relevant region) and
grows with T, eventually exceeding the admissible eta band.
"""

from conftest import run_once
from repro import api
from repro.experiments import print_table


def test_fig9_exp_channel_fit(benchmark):
    result = run_once(
        benchmark,
        api.experiment,
        "fig9",
        {"technology": "UMC90", "stages": 3, "stage_index": 1, "n_widths": 28},
    ).raw
    print()
    print_table(
        result.rows(),
        columns=[
            "tau",
            "t_p",
            "v_th",
            "rms_residual",
            "max_residual",
            "coverage_all",
            "coverage_small_T",
            "max_abs_deviation",
            "max_abs_deviation_small_T",
        ],
        title="FIG9: exp-channel fitted to characterised delay samples [ps]",
    )
    fit = result.fit
    assert fit.tau > 0 and fit.t_p > 0 and 0.0 < fit.v_th < 1.0
    summary = result.summary
    # Mispredictions are minor near T = 0 ...
    assert summary["coverage_small_T"] >= 0.8
    # ... and grow with T (the paper: "excessive deviations occur for large T only").
    assert summary["max_abs_deviation"] >= summary["max_abs_deviation_small_T"]
