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
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.channel import Channel, ZeroDelayChannel
from .gates import GateType

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["CircuitError", "Node", "InputPort", "OutputPort", "GateInstance", "Edge", "Circuit"]


class CircuitError(ValueError):
    """Raised for malformed circuits (dangling pins, duplicate drivers...)."""


@dataclass(frozen=True)
class Node:
    """Base class of circuit nodes (ports and gate instances)."""

    name: str


@dataclass(frozen=True)
class InputPort(Node):
    """An external input of the circuit."""

    initial_value: int = 0


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
            raise CircuitError("gate instance requires a gate type")
        if self.initial_value not in (0, 1):
            raise CircuitError("gate initial value must be 0 or 1")


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
        convention for port connections).
        """
        if source not in self._nodes:
            raise CircuitError(f"unknown source node {source!r}")
        if target not in self._nodes:
            raise CircuitError(f"unknown target node {target!r}")
        source_node = self._nodes[source]
        target_node = self._nodes[target]
        if isinstance(source_node, OutputPort):
            raise CircuitError("output ports cannot drive channels")
        if isinstance(target_node, InputPort):
            raise CircuitError("input ports cannot be driven")
        if isinstance(target_node, OutputPort) and pin != 0:
            raise CircuitError("output ports have a single pin (0)")
        if isinstance(target_node, GateInstance) and not (0 <= pin < target_node.gate_type.arity):
            raise CircuitError(
                f"gate {target!r} has {target_node.gate_type.arity} pins, pin {pin} is invalid"
            )
        for edge in self._edges.values():
            if edge.target == target and edge.pin == pin:
                raise CircuitError(
                    f"pin {pin} of {target!r} is already driven by {edge.source!r}"
                )
        if channel is None:
            channel = ZeroDelayChannel()
        if name is None:
            name = f"{source}->{target}.{pin}#{self._edge_counter}"
        if name in self._edges:
            raise CircuitError(f"duplicate edge name {name!r}")
        edge = Edge(name=name, source=source, target=target, pin=pin, channel=channel)
        self._edges[name] = edge
        self._edge_counter += 1
        return edge

    def _register(self, node: Node) -> None:
        if node.name in self._nodes:
            raise CircuitError(f"duplicate node name {node.name!r}")
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
        from ..engine.capability import topological_order

        node_id = {name: nid for nid, name in enumerate(self._nodes)}
        out_edges: List[List[int]] = [[] for _ in node_id]
        edge_target: List[int] = []
        for eid, edge in enumerate(self._edges.values()):
            out_edges[node_id[edge.source]].append(eid)
            edge_target.append(node_id[edge.target])
        return topological_order(len(node_id), out_edges, edge_target) is None

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
        """Build a circuit from a :class:`repro.specs.CircuitSpec` (or dict)."""
        from ..specs import CircuitSpec

        if not isinstance(spec, CircuitSpec):
            spec = CircuitSpec.from_dict(spec)
        return spec.build()

    # ------------------------------------------------------------------ #
    # Validation / export
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check the well-formedness constraints; raise :class:`CircuitError`."""
        for node in self._nodes.values():
            if isinstance(node, GateInstance):
                pins = {e.pin for e in self.edges_into(node.name)}
                expected = set(range(node.gate_type.arity))
                missing = expected - pins
                if missing:
                    raise CircuitError(
                        f"gate {node.name!r} has undriven input pins {sorted(missing)}"
                    )
            elif isinstance(node, OutputPort):
                if self.fan_in(node.name) != 1:
                    raise CircuitError(
                        f"output port {node.name!r} must be driven by exactly one channel"
                    )
            elif isinstance(node, InputPort):
                if self.edges_into(node.name):
                    raise CircuitError(f"input port {node.name!r} must not be driven")
        if not self.input_ports():
            raise CircuitError("circuit has no input ports")
        if not self.output_ports():
            raise CircuitError("circuit has no output ports")

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
