#!/usr/bin/env python3
"""Glitch propagation under pure, inertial, DDM and (eta-)involution delays.

Reproduces the qualitative comparison that motivates the paper: a train of
narrow pulses is driven into an inverter chain whose stages are modelled
with each delay-model family, and the number of surviving pulses per stage
is tabulated.  Pure delays keep every glitch, inertial delays delete all of
them in one stage (physically impossible behaviour), DDM and involution
channels attenuate the train gradually.

Run with ``python examples/model_comparison.py``.
"""

from repro import api
from repro.experiments import print_table


def main() -> None:
    for width in (0.3, 0.45, 0.6):
        result = api.experiment(
            "comparison",
            {
                "stages": 6,
                "pulse_width": width,
                "gap": 1.0 - width,
                "pulse_count": 10,
                "end_time": 300.0,
            },
        ).raw
        print_table(
            result.rows(),
            title=(
                f"Surviving pulses per stage -- {result.pulse_count} input pulses "
                f"of width {width:.2f} (period 1.0)"
            ),
        )
        print()
    print(
        "Observations:\n"
        "  * pure delay propagates every glitch unchanged,\n"
        "  * inertial delay removes all sub-window glitches at the first stage\n"
        "    (a perfect bounded-time short-pulse filter -- the behaviour proven\n"
        "    impossible for physical circuits),\n"
        "  * DDM and (eta-)involution channels attenuate the train gradually,\n"
        "    with the eta-involution channel adding bounded per-transition jitter."
    )


if __name__ == "__main__":
    main()
