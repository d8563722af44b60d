"""Prebuilt circuits used throughout the tests, examples and benchmarks.

All builders take their channels as either

* a :class:`~repro.specs.ChannelSpec` (or its plain-dict form) -- the
  declarative API; every edge gets a fresh ``spec.build()`` instance, so
  the resulting circuit is serialisable, hashable and shippable to the
  process sweep backend, or
* a factory callable producing a fresh channel per edge -- the way tests
  build circuits from fakes that have no spec (factories cannot be
  serialised or compared, so such circuits stay off the process pool and
  the checkpoint store).

Both are normalised through :func:`repro.specs.as_channel_factory`, so the
same topology can be simulated with pure, inertial, DDM, involution or
eta-involution delay models either way.
"""

from __future__ import annotations

from typing import Callable, Union

from ..core.channel import Channel
from ..core.domain import DomainError
from .circuit import Circuit
from .gates import BUF, INV, NOR2, OR2

__all__ = [
    "ChannelFactory",
    "ChannelLike",
    "inverter_chain",
    "buffer_chain",
    "fed_back_or",
    "sr_latch_nor",
    "glitch_generator",
]

#: A callable producing a fresh channel instance for every edge it is used
#: on (for channels that have no spec).
ChannelFactory = Callable[[], Channel]

#: What the library builders accept wherever a per-edge channel source is
#: needed: a ChannelSpec, a channel-spec dict, or a factory callable.
ChannelLike = Union[ChannelFactory, "ChannelSpec", dict]  # noqa: F821


def _factory(channel: ChannelLike) -> ChannelFactory:
    from ..specs import as_channel_factory

    return as_channel_factory(channel)


def _single(channel: Union[Channel, "ChannelSpec", dict, None]):  # noqa: F821
    if channel is None:
        return None
    from ..specs import as_channel

    return as_channel(channel)


def inverter_chain(
    stages: int,
    channel_factory: ChannelLike,
    *,
    name: str = "inverter_chain",
    expose_taps: bool = False,
) -> Circuit:
    """A chain of ``stages`` inverters, each followed by its channel.

    This mirrors the 7-stage inverter chain of the paper's validation ASIC
    (Fig. 6).  With ``expose_taps=True`` every stage output is also routed
    to an output port ``q1 .. qN`` (the on-chip sense-amplifier taps);
    otherwise only the final stage drives the single output ``out``.

    ``channel_factory`` is a :class:`~repro.specs.ChannelSpec` (preferred)
    or a factory callable.
    """
    if stages < 1:
        raise DomainError("stages", f"an inverter chain needs at least one stage, got stages={stages}")
    factory = _factory(channel_factory)
    circuit = Circuit(name)
    circuit.add_input("in", initial_value=0)
    previous = "in"
    for i in range(1, stages + 1):
        gate_name = f"inv{i}"
        # Chain of inverters starting from 0 input: odd stages idle at 1.
        initial = i % 2
        circuit.add_gate(gate_name, INV, initial_value=initial)
        circuit.connect(previous, gate_name, factory(), pin=0)
        if expose_taps:
            tap = f"q{i}"
            circuit.add_output(tap)
            circuit.connect(gate_name, tap)
        previous = gate_name
    circuit.add_output("out")
    circuit.connect(previous, "out")
    return circuit


def buffer_chain(
    stages: int,
    channel_factory: ChannelLike,
    *,
    name: str = "buffer_chain",
) -> Circuit:
    """A chain of ``stages`` buffers (non-inverting), each with its channel."""
    if stages < 1:
        raise DomainError("stages", f"a buffer chain needs at least one stage, got stages={stages}")
    factory = _factory(channel_factory)
    circuit = Circuit(name)
    circuit.add_input("in", initial_value=0)
    previous = "in"
    for i in range(1, stages + 1):
        gate_name = f"buf{i}"
        circuit.add_gate(gate_name, BUF, initial_value=0)
        circuit.connect(previous, gate_name, factory(), pin=0)
        previous = gate_name
    circuit.add_output("out")
    circuit.connect(previous, "out")
    return circuit


def fed_back_or(
    loop_channel: Union[Channel, "ChannelSpec", dict],  # noqa: F821
    *,
    input_channel: Union[Channel, "ChannelSpec", dict, None] = None,  # noqa: F821
    name: str = "fed_back_or",
) -> Circuit:
    """The storage loop of the SPF circuit: an OR gate fed back through a channel.

    The OR gate has initial value 0; its output is fed back to its second
    input through ``loop_channel`` (the eta-involution channel ``c`` of
    Fig. 5) and also drives the output port ``or_out`` directly (zero
    delay), so the analysis of Lemmas 3-8 can inspect the OR output.
    Channels may be given as instances or as channel specs.
    """
    circuit = Circuit(name)
    circuit.add_input("i", initial_value=0)
    circuit.add_gate("or", OR2, initial_value=0)
    circuit.add_output("or_out")
    circuit.connect("i", "or", _single(input_channel), pin=0)
    circuit.connect("or", "or", _single(loop_channel), pin=1, name="feedback")
    circuit.connect("or", "or_out")
    return circuit


def sr_latch_nor(
    channel_factory: ChannelLike,
    *,
    name: str = "sr_latch",
) -> Circuit:
    """A cross-coupled NOR SR latch (two feedback loops).

    Used as an additional storage-loop example beyond the SPF circuit; with
    involution channels its metastable behaviour (oscillation for marginal
    input pulses) can be explored.
    """
    factory = _factory(channel_factory)
    circuit = Circuit(name)
    circuit.add_input("s", initial_value=0)
    circuit.add_input("r", initial_value=0)
    circuit.add_gate("nor_q", NOR2, initial_value=1)
    circuit.add_gate("nor_qbar", NOR2, initial_value=0)
    circuit.add_output("q")
    circuit.add_output("qbar")
    circuit.connect("r", "nor_q", factory(), pin=0)
    circuit.connect("nor_qbar", "nor_q", factory(), pin=1)
    circuit.connect("s", "nor_qbar", factory(), pin=0)
    circuit.connect("nor_q", "nor_qbar", factory(), pin=1)
    circuit.connect("nor_q", "q")
    circuit.connect("nor_qbar", "qbar")
    return circuit


def glitch_generator(
    path_channel: Union[Channel, "ChannelSpec", dict],  # noqa: F821
    direct_channel: Union[Channel, "ChannelSpec", dict],  # noqa: F821
    *,
    name: str = "glitch_generator",
) -> Circuit:
    """An XOR of a signal with a delayed copy of itself.

    Every input transition produces an output glitch whose width equals the
    difference of the two path delays -- a classic static-hazard circuit
    used to generate short pulses for the model-comparison benchmarks.
    Channels may be given as instances or as channel specs.
    """
    from .gates import XOR2

    circuit = Circuit(name)
    circuit.add_input("in", initial_value=0)
    circuit.add_gate("xor", XOR2, initial_value=0)
    circuit.add_output("out")
    circuit.connect("in", "xor", _single(direct_channel), pin=0)
    circuit.connect("in", "xor", _single(path_channel), pin=1)
    circuit.connect("xor", "out")
    return circuit
