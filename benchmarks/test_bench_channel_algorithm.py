"""Fig. 2: the involution channel algorithm on pulse trains.

Checks the behaviour Fig. 2 of the paper illustrates: a single-history
involution channel attenuates pulses and cancels the short ones, and
never produces more output transitions than it was fed.
"""

import numpy as np

from repro.core import InvolutionChannel, Signal


def _glitch_train(n_pulses: int, width: float, gap: float) -> Signal:
    return Signal.pulse_train(1.0, [width] * n_pulses, [gap] * (n_pulses - 1))


def test_fig2_pulse_attenuation_rows(exp_pair):
    """Fig. 2: output pulse width vs input pulse width (attenuation curve)."""
    channel = InvolutionChannel(exp_pair)
    rows = []
    for width in np.linspace(0.5, 4.0, 15):
        out = channel(Signal.pulse(0.0, float(width)))
        rows.append(
            {
                "input_width": float(width),
                "output_width": (out[1].time - out[0].time) if len(out) == 2 else 0.0,
                "cancelled": out.is_zero(),
            }
        )
    cancelled = [r for r in rows if r["cancelled"]]
    surviving = [r for r in rows if not r["cancelled"]]
    assert cancelled and surviving
    assert all(r["output_width"] < r["input_width"] for r in surviving)


def test_fig2_glitch_train_throughput(exp_pair):
    """A 10k-transition glitch train comes out no longer than it went in."""
    channel = InvolutionChannel(exp_pair)
    train = _glitch_train(5000, width=0.8, gap=0.7)
    out = channel(train)
    assert len(out) <= len(train)
