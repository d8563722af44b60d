"""Circuit graphs: ports, gates and channels.

Circuits are obtained by interconnecting input/output ports and
combinational gates via channels (the model's only timing elements).
The paper's well-formedness constraints are enforced:

* gates and channels alternate on every path (automatic here, because the
  graph's nodes are ports/gates and its edges are channels),
* every gate input pin and every output port is driven by exactly one
  channel output,
* input ports have no incoming channels,
* channels from input ports are zero-delay unless stated otherwise (the
  paper assumes zero-delay port channels to ease composition; the builder
  uses :class:`~repro.core.channel.ZeroDelayChannel` when no channel is
  given).

The circuit is a plain data structure; execution lives in
:mod:`repro.circuits.simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.channel import Channel, ZeroDelayChannel
from ..core.composition import SerialChannel
from .gates import GateType

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "CircuitError",
    "DuplicateNameError",
    "UnknownNodeError",
    "IncompleteCircuitError",
    "Node",
    "InputPort",
    "OutputPort",
    "GateInstance",
    "Edge",
    "Circuit",
]


class CircuitError(ValueError):
    """Raised for malformed circuits (dangling pins, duplicate drivers...).

    ``field`` names the node or edge field at fault (``"name"``,
    ``"initial_value"``, ``"source"``, ``"target"``, ``"pin"``, ``"type"``,
    ``"channel"``), which is also its key in a circuit spec, or is None.
    """

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field


class DuplicateNameError(CircuitError):
    """A node or edge name is already taken."""


class UnknownNodeError(CircuitError):
    """An edge's source or target names no node of the circuit."""


class IncompleteCircuitError(CircuitError):
    """A circuit :meth:`Circuit.validate` rejects.

    ``node`` names the undriven (or wrongly driven) node, None for a circuit
    with no input or no output port.  The error ``validate`` raises names
    every defect and holds one error per defect in ``defects``.
    """

    defects: Tuple["IncompleteCircuitError", ...] = ()

    def __init__(self, message: str, node: Optional[str] = None) -> None:
        super().__init__(message)
        self.node = node


def _binary(value: Any, what: str) -> None:
    """Reject an initial value that is not the int 0 or 1 (a ``bool`` is not)."""
    if type(value) is not int or value not in (0, 1):
        raise CircuitError(f"{what} initial value must be 0 or 1, got {value!r}", "initial_value")


@dataclass(frozen=True)
class Node:
    """Base class of circuit nodes (ports and gate instances)."""

    name: str


@dataclass(frozen=True)
class InputPort(Node):
    """An external input of the circuit."""

    initial_value: int = 0

    def __post_init__(self) -> None:
        _binary(self.initial_value, "input")


@dataclass(frozen=True)
class OutputPort(Node):
    """An external output of the circuit."""


@dataclass(frozen=True)
class GateInstance(Node):
    """An instance of a :class:`GateType` with an initial output value."""

    gate_type: GateType = None  # type: ignore[assignment]
    initial_value: int = 0

    def __post_init__(self) -> None:
        if self.gate_type is None:
            raise CircuitError("gate instance requires a gate type", "type")
        _binary(self.initial_value, "gate")


@dataclass
class Edge:
    """A channel connecting a driver node to a target node pin.

    Attributes
    ----------
    name:
        Unique edge name (used to look up the channel's output signal in an
        execution).
    source:
        Name of the driving node (input port or gate).
    target:
        Name of the driven node (gate or output port).
    pin:
        Input pin index at the target gate (0 for output ports).
    channel:
        The channel instance modelling the edge's delay.
    """

    name: str
    source: str
    target: str
    pin: int
    channel: Channel


class Circuit:
    """A circuit: a directed multigraph of ports/gates connected by channels."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._edges: Dict[str, Edge] = {}
        self._edge_counter = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_input(self, name: str, initial_value: int = 0) -> InputPort:
        """Add an external input port."""
        port = InputPort(name, initial_value)
        self._register(port)
        return port

    def add_output(self, name: str) -> OutputPort:
        """Add an external output port."""
        port = OutputPort(name)
        self._register(port)
        return port

    def add_gate(self, name: str, gate_type: GateType, initial_value: int = 0) -> GateInstance:
        """Add a gate instance with the given initial output value."""
        gate = GateInstance(name, gate_type, initial_value)
        self._register(gate)
        return gate

    def connect(
        self,
        source: str,
        target: str,
        channel: Optional[Channel] = None,
        *,
        pin: int = 0,
        name: Optional[str] = None,
    ) -> Edge:
        """Connect ``source`` to input ``pin`` of ``target`` through ``channel``.

        If no channel is given, a zero-delay channel is used (the paper's
        convention for port connections).  A pin is an ``int`` (a ``bool`` is
        not one) and a name a string.  The channel must have a
        single-history delay function, which the engine runs on every
        transition: a :class:`~repro.core.composition.SerialChannel` has
        none (it applies its stages to a whole signal offline).
        """
        for field, endpoint in (("source", source), ("target", target)):
            if not isinstance(endpoint, str) or endpoint not in self._nodes:
                raise UnknownNodeError(f"unknown {field} node {endpoint!r}", field)
        source_node = self._nodes[source]
        target_node = self._nodes[target]
        if isinstance(source_node, OutputPort):
            raise CircuitError("output ports cannot drive channels", "source")
        if isinstance(target_node, InputPort):
            raise CircuitError("input ports cannot be driven", "target")
        if type(pin) is not int:
            raise CircuitError(f"pin must be an integer, got {pin!r}", "pin")
        if isinstance(target_node, OutputPort) and pin != 0:
            raise CircuitError("output ports have a single pin (0)", "pin")
        if isinstance(target_node, GateInstance) and not (0 <= pin < target_node.gate_type.arity):
            raise CircuitError(
                f"gate {target!r} has {target_node.gate_type.arity} pins, pin {pin} is invalid",
                "pin",
            )
        for edge in self._edges.values():
            if edge.target == target and edge.pin == pin:
                raise CircuitError(
                    f"pin {pin} of {target!r} is already driven by {edge.source!r}", "pin"
                )
        if channel is None:
            channel = ZeroDelayChannel()
        if isinstance(channel, SerialChannel):
            raise CircuitError(
                f"{type(channel).__name__} has no single-history delay function, "
                "so no circuit edge can carry it",
                "channel",
            )
        if name is None:
            name = f"{source}->{target}.{pin}#{self._edge_counter}"
        elif not isinstance(name, str):
            raise CircuitError(f"edge name must be a string, got {name!r}", "name")
        if name in self._edges:
            raise DuplicateNameError(f"duplicate edge name {name!r}", "name")
        edge = Edge(name=name, source=source, target=target, pin=pin, channel=channel)
        self._edges[name] = edge
        self._edge_counter += 1
        return edge

    def _register(self, node: Node) -> None:
        if not isinstance(node.name, str):
            raise CircuitError(f"node name must be a string, got {node.name!r}", "name")
        if node.name in self._nodes:
            raise DuplicateNameError(f"duplicate node name {node.name!r}", "name")
        self._nodes[node.name] = node

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> Dict[str, Node]:
        """All nodes by name."""
        return dict(self._nodes)

    @property
    def edges(self) -> Dict[str, Edge]:
        """All edges by name."""
        return dict(self._edges)

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise CircuitError(f"unknown node {name!r}") from None

    def edge(self, name: str) -> Edge:
        """Look up an edge by name."""
        try:
            return self._edges[name]
        except KeyError:
            raise CircuitError(f"unknown edge {name!r}") from None

    def input_ports(self) -> List[InputPort]:
        """All input ports."""
        return [n for n in self._nodes.values() if isinstance(n, InputPort)]

    def output_ports(self) -> List[OutputPort]:
        """All output ports."""
        return [n for n in self._nodes.values() if isinstance(n, OutputPort)]

    def gates(self) -> List[GateInstance]:
        """All gate instances."""
        return [n for n in self._nodes.values() if isinstance(n, GateInstance)]

    def edges_from(self, node_name: str) -> List[Edge]:
        """Edges driven by the given node."""
        return [e for e in self._edges.values() if e.source == node_name]

    def edges_into(self, node_name: str) -> List[Edge]:
        """Edges driving the given node, sorted by pin."""
        return sorted(
            (e for e in self._edges.values() if e.target == node_name),
            key=lambda e: e.pin,
        )

    def fan_in(self, node_name: str) -> int:
        """Number of channels driving the given node."""
        return len(self.edges_into(node_name))

    def has_feedback(self) -> bool:
        """True if the circuit graph contains a cycle (a storage loop)."""
        from ..engine.capability import cyclic_components

        node_id = {name: nid for nid, name in enumerate(self._nodes)}
        out_edges: List[List[int]] = [[] for _ in node_id]
        edge_target: List[int] = []
        for eid, edge in enumerate(self._edges.values()):
            out_edges[node_id[edge.source]].append(eid)
            edge_target.append(node_id[edge.target])
        return bool(cyclic_components(len(node_id), out_edges, edge_target))

    # ------------------------------------------------------------------ #
    # Declarative specs
    # ------------------------------------------------------------------ #

    def to_spec(self) -> "CircuitSpec":
        """Extract the declarative, JSON-round-trippable spec of this circuit.

        The spec (:class:`repro.specs.CircuitSpec`) preserves node and edge
        order, so ``Circuit.from_spec(circuit.to_spec())`` rebuilds a
        circuit that executes bit-identically.  Raises
        :class:`repro.specs.SpecError` if any channel or gate type has no
        registered spec kind.
        """
        from ..specs import CircuitSpec

        return CircuitSpec.from_circuit(self)

    @classmethod
    def from_spec(cls, spec) -> "Circuit":
        """Build a well-formed circuit from a :class:`repro.specs.CircuitSpec`
        (or dict); a malformed one raises one ``SpecError`` listing every
        defect (see :meth:`repro.specs.CircuitSpec.build`)."""
        from ..specs import CircuitSpec

        if not isinstance(spec, CircuitSpec):
            spec = CircuitSpec.from_dict(spec)
        return spec.build()

    # ------------------------------------------------------------------ #
    # Validation / export
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check the well-formedness constraints.

        Raises one :class:`IncompleteCircuitError` naming every undriven
        gate pin and output port, every driven input port and a missing
        input or output port.
        """
        pins: Dict[str, List[int]] = {name: [] for name in self._nodes}
        for edge in self._edges.values():
            pins[edge.target].append(edge.pin)
        defects: List[IncompleteCircuitError] = []
        for name, node in self._nodes.items():
            message = None
            if isinstance(node, GateInstance):
                missing = sorted(set(range(node.gate_type.arity)) - set(pins[name]))
                if missing:
                    message = f"gate {name!r} has undriven input pins {missing}"
            elif isinstance(node, OutputPort) and len(pins[name]) != 1:
                message = f"output port {name!r} must be driven by exactly one channel"
            elif isinstance(node, InputPort) and pins[name]:
                message = f"input port {name!r} must not be driven"
            if message is not None:
                defects.append(IncompleteCircuitError(message, name))
        for kind, ports in (("input", self.input_ports()), ("output", self.output_ports())):
            if not ports:
                defects.append(IncompleteCircuitError(f"circuit has no {kind} ports"))
        if defects:
            error = IncompleteCircuitError("; ".join(map(str, defects)))
            error.defects = tuple(defects)
            raise error

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export the circuit as a networkx multigraph (for analysis/plotting)."""
        import networkx as nx

        graph = nx.MultiDiGraph(name=self.name)
        for name, node in self._nodes.items():
            graph.add_node(name, kind=type(node).__name__, node=node)
        for edge in self._edges.values():
            graph.add_edge(
                edge.source,
                edge.target,
                key=edge.name,
                pin=edge.pin,
                channel=type(edge.channel).__name__,
            )
        return graph

    def summary(self) -> str:
        """One-line structural summary (used in logs and reports)."""
        return (
            f"Circuit {self.name!r}: {len(self.input_ports())} inputs, "
            f"{len(self.gates())} gates, {len(self.output_ports())} outputs, "
            f"{len(self._edges)} channels"
            f"{' (with feedback)' if self.has_feedback() else ''}"
        )

    def __repr__(self) -> str:
        return f"Circuit(name={self.name!r}, nodes={len(self._nodes)}, edges={len(self._edges)})"
