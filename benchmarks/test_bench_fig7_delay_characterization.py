"""Experiment FIG7: delta(T) characterisation across supply voltages.

Regenerates the content of Fig. 7 (measured delta_down of the UMC-90
inverter for V_DD from 0.3/0.4/0.6...1.0 V) on the analog substrate.  The
absolute values are in the substrate's own picosecond scale; the reproduced
*shape* is what matters: concave saturating curves ordered by V_DD, with
delays exploding as V_DD approaches the transistor threshold.
"""

import numpy as np

from conftest import run_once
from repro import api
from repro.experiments import print_table

#: The supply sweep of Fig. 7 (0.3 V is very close to the device threshold
#: voltage of the substrate, as in the paper).
VDD_LEVELS = (0.4, 0.6, 0.7, 0.8, 1.0)


def test_fig7_delta_down_vs_vdd(benchmark):
    result = run_once(
        benchmark,
        api.experiment,
        "fig7",
        {
            "technology": "UMC90",
            "vdd_levels": list(VDD_LEVELS),
            "stages": 3,
            "stage_index": 1,
            "n_widths": 20,
            "rising_output": False,
        },
    ).raw
    print()
    print_table(result.rows(), title="FIG7: characterised delta_down(T) per supply voltage [ps]")
    # Reproduce selected points of each curve (like reading values off Fig. 7).
    sample_rows = []
    for vdd in sorted(result.curves):
        curve = result.curves[vdd]
        probes = np.percentile(curve.T, [5, 25, 50, 90])
        sample_rows.append(
            {
                "vdd": vdd,
                "delta(T@5%)": float(np.interp(probes[0], curve.T, curve.delta)),
                "delta(T@25%)": float(np.interp(probes[1], curve.T, curve.delta)),
                "delta(T@50%)": float(np.interp(probes[2], curve.T, curve.delta)),
                "delta(T@90%)": float(np.interp(probes[3], curve.T, curve.delta)),
            }
        )
    print_table(sample_rows, title="FIG7: delta_down at representative T percentiles [ps]")

    # Shape checks reported by the paper's figure: delays ordered by V_DD and
    # every curve increasing in T.
    assert result.is_monotone_in_vdd()
    delays = result.saturation_delays()
    assert delays[min(VDD_LEVELS)] > 2.0 * delays[max(VDD_LEVELS)]
    for curve in result.curves.values():
        coarse = np.interp(
            np.linspace(curve.T[0], curve.T[-1], 6), curve.T, curve.delta
        )
        assert all(b >= a - 0.05 for a, b in zip(coarse, coarse[1:]))
