#!/usr/bin/env python3
"""How much real-world variation does the eta band absorb? (Fig. 8/9 flow)

Characterises a reference delay function on the analog substrate, derives
the admissible eta band from constraint (C), and checks which variations
(supply ripple, transistor-width changes, exp-channel fitting error) the
eta-involution model can absorb -- the experiment behind Figs. 8 and 9.

Run with ``python examples/noise_coverage.py``.
"""

from repro import api
from repro.experiments import print_table


def main() -> None:
    # ------------------------------------------------------------------ #
    # Fig. 8: deviations under variations vs the admissible eta band.
    # ------------------------------------------------------------------ #
    fig8 = api.experiment(
        "fig8",
        {
            "technology": "UMC90",
            "stages": 3,
            "stage_index": 1,
            "n_widths": 20,
            "seed": 1,
        },
    ).raw
    band = fig8.scenarios["supply_1pct"].analysis.eta
    print(
        f"Admissible eta band derived from constraint (C): "
        f"[-{band.eta_minus:.3f}, +{band.eta_plus:.3f}] ps"
    )
    print_table(
        fig8.rows(),
        columns=[
            "scenario",
            "coverage_all",
            "coverage_small_T",
            "max_abs_deviation",
            "max_abs_deviation_small_T",
        ],
        title="Fig. 8: eta-band coverage of deviations per variation scenario",
    )
    print()

    # ------------------------------------------------------------------ #
    # Fig. 9: a fitted exp-channel as the reference model.
    # ------------------------------------------------------------------ #
    fig9 = api.experiment(
        "fig9", {"technology": "UMC90", "stages": 3, "stage_index": 1, "n_widths": 20}
    ).raw
    print_table(
        fig9.rows(),
        columns=[
            "tau",
            "t_p",
            "v_th",
            "rms_residual",
            "coverage_all",
            "coverage_small_T",
            "max_abs_deviation",
        ],
        title="Fig. 9: exp-channel fit and its deviation coverage",
    )
    print(
        "\nAs in the paper: small operating-condition variations are fully absorbed\n"
        "by the admissible eta band near T = 0 (the region that matters for\n"
        "faithfulness), while larger variations and large T exceed it."
    )


if __name__ == "__main__":
    main()
