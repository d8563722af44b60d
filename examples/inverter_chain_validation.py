#!/usr/bin/env python3
"""Validation flow on the analog inverter-chain substrate (Section V).

Mirrors the paper's measurement methodology end to end:

1. simulate the analog 7-stage inverter chain (the stand-in for the UMC-90
   ASIC of Fig. 6) and digitise its stage outputs,
2. characterise the delay functions delta_up / delta_down of one stage by a
   pulse-width sweep (Fig. 7 methodology), at several supply voltages,
3. build an involution channel from the characterised delay functions and
   use it to predict the digital behaviour of the chain,
4. export an execution as a VCD trace for waveform viewers.

Run with ``python examples/inverter_chain_validation.py``.
"""

import numpy as np

from repro import api
from repro.analog import AnalogInverterChain, UMC90, pulse_stimulus
from repro.circuits import inverter_chain, simulate
from repro.core import InvolutionChannel
from repro.experiments import print_table
from repro.fitting import CharacterizationDriver
from repro.io import signals_to_vcd


def main() -> None:
    technology = UMC90
    chain = AnalogInverterChain(technology, stages=7)

    # ------------------------------------------------------------------ #
    # 1. One analog run: a 60 ps pulse travelling down the chain.
    # ------------------------------------------------------------------ #
    grid = chain.recommended_time_grid(600.0)
    stimulus = pulse_stimulus(grid, 100.0, 60.0, high=technology.vdd_nominal, slew=3.0)
    result = chain.simulate(grid, stimulus)
    threshold = 0.5 * technology.vdd_nominal
    rows = []
    for index in range(chain.stages):
        signal = result.stage(index).to_signal(threshold)
        rows.append(
            {
                "stage": f"Q{index + 1}",
                "transitions": len(signal),
                "first_crossing": signal[0].time if len(signal) else float("nan"),
            }
        )
    print_table(rows, title="Analog chain: a 60 ps pulse propagating through 7 stages [ps]")
    print()

    # ------------------------------------------------------------------ #
    # 2. Delay characterisation across supply voltages (Fig. 7).
    # ------------------------------------------------------------------ #
    fig7 = api.experiment(
        "fig7",
        {
            "technology": "UMC90",
            "vdd_levels": [0.6, 0.8, 1.0],
            "stages": 3,
            "stage_index": 1,
            "n_widths": 16,
        },
    ).raw
    print_table(fig7.rows(), title="Characterised delta_down(T) per supply voltage [ps]")
    print(f"Delays ordered by V_DD (lower V_DD => slower): {fig7.is_monotone_in_vdd()}")
    print()

    # ------------------------------------------------------------------ #
    # 3. Use the characterised delay pair as a channel model and compare the
    #    resulting gate-level prediction with the analog chain.
    # ------------------------------------------------------------------ #
    driver = CharacterizationDriver(AnalogInverterChain(technology, stages=3), stage_index=1)
    widths = np.concatenate([np.linspace(6.0, 28.0, 14), np.linspace(32.0, 140.0, 10)])
    measurement = driver.measure(widths)
    pair = measurement.to_involution_pair()
    print(f"Characterised pair: {pair.describe()}")

    digital_chain = inverter_chain(7, lambda: InvolutionChannel(pair, inverting=False))
    input_signal = result.input_waveform.to_signal(threshold)
    prediction = simulate(digital_chain, {"in": input_signal}, 800.0)
    predicted_out = prediction.output_signals["out"]
    analog_out = result.stage(6).to_signal(threshold)
    rows = []
    for kind, signal in (("analog substrate", analog_out), ("involution prediction", predicted_out)):
        rows.append(
            {
                "model": kind,
                "transitions": len(signal),
                "times": [round(t.time, 2) for t in signal],
            }
        )
    print_table(rows, title="Chain output: analog reference vs characterised involution model [ps]")
    if len(predicted_out) == len(analog_out) and len(analog_out) > 0:
        worst = max(
            abs(a.time - b.time) for a, b in zip(analog_out, predicted_out)
        )
        print(f"Worst-case prediction error across output transitions: {worst:.2f} ps")
    print()

    # ------------------------------------------------------------------ #
    # 4. Export the gate-level execution as VCD.
    # ------------------------------------------------------------------ #
    vcd = signals_to_vcd(
        {"in": input_signal, "out": predicted_out},
        comment="repro inverter-chain validation",
    )
    print(f"VCD export: {len(vcd.splitlines())} lines (write with repro.io.write_vcd)")


if __name__ == "__main__":
    main()
