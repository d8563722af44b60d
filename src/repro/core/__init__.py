"""Core model: signals, delay functions, involution and eta-involution channels.

This subpackage implements the paper's primary contribution (the
eta-involution channel) together with its deterministic predecessor and the
non-faithful baseline channels it is compared against.
"""

from .adversary import (
    Adversary,
    BestCaseAdversary,
    DeCancelAdversary,
    EtaBound,
    RandomAdversary,
    SequenceAdversary,
    SineAdversary,
    WorstCaseAdversary,
    ZeroAdversary,
)
from .baselines import (
    DegradationDelayChannel,
    InertialDelayChannel,
    PureDelayChannel,
    remove_short_pulses,
)
from .channel import (
    Channel,
    PendingTransition,
    ZeroDelayChannel,
    cancel_non_fifo,
    cancel_non_fifo_reference,
    pending_to_signal,
    transport_resolve,
)
from .composition import SerialChannel
from .constraint import (
    admissible_eta_bound,
    constraint_C_margin,
    max_eta_minus,
    max_eta_plus,
    max_symmetric_eta,
    satisfies_constraint_C,
)
from .delay_functions import (
    ConstantDelay,
    DelayFunction,
    ExpDelay,
    FunctionalDelay,
    ScaledDelay,
    ShiftedDelay,
    TableDelay,
)
from .domain import DomainError
from .eta_channel import EtaInvolutionChannel
from .involution import InvolutionError, InvolutionPair, exp_channel_pair
from .involution_channel import InvolutionChannel
from .transitions import FALLING, RISING, Pulse, Signal, SignalError, Transition

__all__ = [
    # transitions
    "RISING",
    "FALLING",
    "Transition",
    "Pulse",
    "Signal",
    "SignalError",
    # delay functions
    "DelayFunction",
    "ExpDelay",
    "TableDelay",
    "ShiftedDelay",
    "ScaledDelay",
    "ConstantDelay",
    "FunctionalDelay",
    # involution
    "InvolutionPair",
    "InvolutionError",
    "DomainError",
    "exp_channel_pair",
    # channels
    "Channel",
    "ZeroDelayChannel",
    "PendingTransition",
    "cancel_non_fifo",
    "cancel_non_fifo_reference",
    "transport_resolve",
    "pending_to_signal",
    "InvolutionChannel",
    "EtaInvolutionChannel",
    "SerialChannel",
    # adversaries
    "EtaBound",
    "Adversary",
    "ZeroAdversary",
    "WorstCaseAdversary",
    "BestCaseAdversary",
    "RandomAdversary",
    "SineAdversary",
    "SequenceAdversary",
    "DeCancelAdversary",
    # constraint (C)
    "constraint_C_margin",
    "satisfies_constraint_C",
    "max_eta_minus",
    "max_eta_plus",
    "max_symmetric_eta",
    "admissible_eta_bound",
    # baselines
    "PureDelayChannel",
    "InertialDelayChannel",
    "DegradationDelayChannel",
    "remove_short_pulses",
]
