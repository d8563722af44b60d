"""Fig. 4: eta-involution channel output variability.

Checks the behaviour of Fig. 4: the same input trace produces different
output traces under different adversarial choices -- pulses can be
stretched, shifted, and even "de-cancelled" relative to the deterministic
involution prediction (dotted transitions in the figure).
"""

from repro.core import (
    BestCaseAdversary,
    DeCancelAdversary,
    EtaBound,
    EtaInvolutionChannel,
    RandomAdversary,
    Signal,
    WorstCaseAdversary,
    ZeroAdversary,
)


def test_fig4_adversary_variability(exp_pair):
    """Fig. 4: per-adversary output traces for the same two-pulse input."""
    eta = EtaBound(0.2, 0.2)
    # Two pulses: the second is marginal (the deterministic channel cancels it,
    # admissible eta shifts can rescue it -- the "de-cancelled" pulse of Fig. 4).
    signal = Signal.pulse_train(0.0, [2.0, 0.42], [2.0])
    adversaries = {
        "zero (deterministic)": ZeroAdversary(),
        "worst-case": WorstCaseAdversary(),
        "best-case": BestCaseAdversary(),
        "de-cancel": DeCancelAdversary(),
        "random(seed=4)": RandomAdversary(seed=4),
    }
    by_name = {}
    for name, adversary in adversaries.items():
        out = EtaInvolutionChannel(exp_pair, eta, adversary)(signal)
        by_name[name] = {
            "surviving_pulses": len(out.pulses()),
            "first_transition": out[0].time if len(out) else float("nan"),
        }
    # The de-cancel adversary rescues the second pulse that the deterministic
    # channel cancels; the worst-case adversary does not.
    assert by_name["de-cancel"]["surviving_pulses"] > by_name["zero (deterministic)"]["surviving_pulses"]
    # Worst-case delays the first rising transition by eta_plus.
    assert by_name["worst-case"]["first_transition"] > by_name["zero (deterministic)"]["first_transition"]


def test_fig4_eta_channel_throughput(exp_pair, eta_small):
    """An 8k-transition train through a random-adversary eta channel comes
    out no longer than it went in."""
    channel = EtaInvolutionChannel(exp_pair, eta_small, RandomAdversary(seed=1))
    train = Signal.pulse_train(1.0, [0.9] * 4000, [0.8] * 3999)
    out = channel(train)
    assert len(out) <= len(train)
