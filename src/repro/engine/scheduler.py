"""Event scheduler and execution engine for circuits of single-history channels.

This module hosts the machinery that used to live inside the 475-line
``Simulator.run``: the heapq event queue with same-time batching
(:class:`Scheduler`), the validated/precomputed structural view of a
circuit (:class:`CircuitTopology`), and the main event loop
(:class:`Engine`).  :class:`repro.circuits.simulator.Simulator`
is a thin compatibility wrapper around these classes, and the batched
sweep runner (:mod:`repro.engine.sweep`) reuses one
:class:`CircuitTopology` across many runs.

The event protocol is deliberately small -- three integer event kinds:

* ``PORT``    -- an input-port transition ``(port_id, value)``,
* ``DELIVER`` -- a channel-output delivery ``(edge_id, value, event_id)``,
* ``SETTLE``  -- the time-0 gate settling pass ``(gate_id, ...)``.

All per-channel semantics (tentative delays, transport cancellation,
inertial rejection, no-change suppression) live in the shared
:class:`~repro.engine.kernel.ChannelKernel`; the engine only routes
delivered transitions to gates and performs the zero-time (delta-cycle)
propagation of changed node outputs.

Hot-path design: :class:`CircuitTopology` assigns every node and edge a
dense integer id and precomputes per-gate and per-edge dispatch tables
(direct gate-function and kernel object references), so the main loop runs
on list indexing instead of string-keyed dict lookups.  A
transport-cancelled delivery stays in the queue and reaches its batch;
the kernel tells it apart by its event id (below the head of the
kernel's pending frontier), so it changes nothing and is not counted as
an event.  Every fact of a run lives in one place: a port's signal is
its input's (cut at ``end_time``) or its driving edge's, and an edge's
zero-delay flag is read off its run channel.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.transitions import Signal, _signal_from_times, _signal_times
from .errors import CAUSALITY_MODES, SimulationError
from .kernel import ChannelKernel

__all__ = [
    "PORT",
    "DELIVER",
    "SETTLE",
    "Scheduler",
    "CircuitTopology",
    "Execution",
    "Engine",
]

#: Event kinds of the engine's event protocol (small ints: the batch loop
#: dispatches on them with integer comparisons).
PORT = 0
DELIVER = 1
SETTLE = 2

#: Node kinds of the precomputed topology tables.
_NODE_INPUT = 0
_NODE_GATE = 1
_NODE_OUTPUT = 2


class Scheduler:
    """A time-ordered event queue with same-time batching.

    Events pushed at the exact same time are popped together in one batch
    so that gates see all their simultaneous input changes at once (delta
    cycle semantics) instead of producing zero-time glitches.  The internal
    monotonic counter breaks ties deterministically and doubles as the
    event-id source shared with the channel kernels.

    The queue never looks at an event's kind or payload: a
    transport-cancelled delivery is popped like any other event, and its
    kernel's :meth:`~repro.engine.kernel.ChannelKernel.deliver` reports it
    cancelled.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, object]] = []
        self._counter = itertools.count()

    def next_id(self) -> int:
        """A fresh monotonically increasing id (shared with the kernels)."""
        return next(self._counter)

    def push(self, time: float, kind: int, payload: object) -> None:
        """Schedule one event."""
        heapq.heappush(self._heap, (time, next(self._counter), kind, payload))

    def pop_batch(self) -> Optional[Tuple[float, List[Tuple[int, object]]]]:
        """Pop every event scheduled for the earliest pending time, as
        ``(time, [(kind, payload), ...])`` in push order; ``None`` when
        the queue is empty."""
        heap = self._heap
        if not heap:
            return None
        time, _, kind, payload = heapq.heappop(heap)
        batch = [(kind, payload)]
        while heap and heap[0][0] == time:
            _, _, kind, payload = heapq.heappop(heap)
            batch.append((kind, payload))
        return time, batch

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class CircuitTopology:
    """Validated, precomputed structural view of a circuit.

    Building one is O(nodes x edges) (validation plus adjacency); the
    engine's event loop then runs entirely on dense-integer list indexing.
    A topology is immutable with respect to the circuit structure and can
    be shared across many runs (and across threads/processes) -- this
    amortisation is what the batched sweep runner is built on.

    Two layers of precomputation coexist:

    * the string-keyed maps of the original refactor (``edges``,
      ``gate_inputs``, ``edges_from``...) -- the stable introspection API,
    * dense integer dispatch tables (``node_index``/``edge_index`` ids,
      per-gate input-edge ids and gate-function references, per-edge
      source/target ids and target-kind flags) that the engine's hot loop
      indexes directly.
    """

    def __init__(self, circuit) -> None:
        from ..circuits.circuit import GateInstance, InputPort, OutputPort

        circuit.validate()
        self.circuit = circuit
        self.edges = dict(circuit.edges)
        self.input_ports: List[str] = []
        self.output_ports: List[str] = []
        self.gate_names: List[str] = []
        self.gate_types: Dict[str, object] = {}
        self.gate_initial: Dict[str, int] = {}
        nodes = circuit.nodes
        for name, node in nodes.items():
            if isinstance(node, InputPort):
                self.input_ports.append(name)
            elif isinstance(node, OutputPort):
                self.output_ports.append(name)
            elif isinstance(node, GateInstance):
                self.gate_names.append(name)
                self.gate_types[name] = node.gate_type
                self.gate_initial[name] = node.initial_value
        self.is_gate = set(self.gate_names)
        self.is_output = set(self.output_ports)
        #: Edges driven by each node (empty list when none).
        self.edges_from: Dict[str, List[object]] = {name: [] for name in nodes}
        #: Edges driving each node, sorted by pin.
        self.edges_into: Dict[str, List[object]] = {name: [] for name in nodes}
        for edge in self.edges.values():
            self.edges_from[edge.source].append(edge)
            self.edges_into[edge.target].append(edge)
        for into in self.edges_into.values():
            into.sort(key=lambda e: e.pin)
        #: Gate input views: gate name -> driving edge names in pin order.
        self.gate_inputs: Dict[str, List[str]] = {
            gname: [e.name for e in self.edges_into[gname]]
            for gname in self.gate_names
        }
        #: The unique driving edge of every output port.
        self.output_driver: Dict[str, object] = {
            oname: self.edges_into[oname][0] for oname in self.output_ports
        }
        self.input_port_set = frozenset(self.input_ports)

        # -- integer dispatch tables (the engine hot path) ----------------- #
        #: Node names in id order / name -> dense integer id.
        self.node_names: List[str] = list(nodes)
        self.node_index: Dict[str, int] = {
            name: nid for nid, name in enumerate(self.node_names)
        }
        #: Edge names in id order / name -> dense integer id / Edge by id.
        self.edge_names: List[str] = list(self.edges)
        self.edge_index: Dict[str, int] = {
            name: eid for eid, name in enumerate(self.edge_names)
        }
        self.edge_list: List[object] = [self.edges[name] for name in self.edge_names]
        node_index = self.node_index
        n_nodes = len(self.node_names)
        #: Node kind by id (``_NODE_INPUT``/``_NODE_GATE``/``_NODE_OUTPUT``).
        self.node_kind: List[int] = [
            _NODE_GATE
            if name in self.is_gate
            else (_NODE_OUTPUT if name in self.is_output else _NODE_INPUT)
            for name in self.node_names
        ]
        self.input_port_ids: List[int] = [node_index[p] for p in self.input_ports]
        self.gate_ids: List[int] = [node_index[g] for g in self.gate_names]
        #: Per-edge integer endpoints and target-kind flags.
        self.edge_source_id: List[int] = [
            node_index[e.source] for e in self.edge_list
        ]
        self.edge_target_id: List[int] = [
            node_index[e.target] for e in self.edge_list
        ]
        self.edge_target_kind: List[int] = [
            self.node_kind[tid] for tid in self.edge_target_id
        ]
        #: Per-node gate tables (``None`` for non-gates): direct
        #: gate-function reference and driving edge ids in pin order.
        self.gate_func_by_node: List[Optional[object]] = [None] * n_nodes
        self.gate_input_edge_ids: List[Optional[Tuple[int, ...]]] = [None] * n_nodes
        self.gate_initial_by_node: List[int] = [0] * n_nodes
        edge_index = self.edge_index
        for gname in self.gate_names:
            gid = node_index[gname]
            # Enumerating the truth table runs GateType.evaluate over every
            # input combination once, so bad gate functions (non-Boolean
            # results, wrong arity) still fail fast here -- at topology
            # build, with the gate named -- while the event loop dispatches
            # through the validated table's C-level __getitem__.
            self.gate_func_by_node[gid] = self.gate_types[gname].truth_table().__getitem__
            self.gate_input_edge_ids[gid] = tuple(
                edge_index[ename] for ename in self.gate_inputs[gname]
            )
            self.gate_initial_by_node[gid] = self.gate_initial[gname]
        #: Edge ids driven by each node id.
        self.out_edge_ids: List[Tuple[int, ...]] = [
            tuple(edge_index[e.name] for e in self.edges_from[name])
            for name in self.node_names
        ]


@dataclass
class Execution:
    """The result of simulating a circuit.

    Attributes
    ----------
    circuit:
        The simulated circuit.
    node_signals:
        Signal produced at every node output (gate outputs, input ports).
    edge_signals:
        Signal at every channel output, keyed by edge name.
    output_signals:
        Convenience view: signal arriving at each output port.
    end_time:
        The simulation horizon that was used.
    event_count:
        Number of processed events (a simulator-performance metric; a
        transport-cancelled delivery is not counted).
    dropped_transitions:
        Number of transitions discarded by the ``on_causality="drop"`` policy.
    """

    circuit: object
    node_signals: Dict[str, Signal]
    edge_signals: Dict[str, Signal]
    output_signals: Dict[str, Signal]
    end_time: float
    event_count: int
    dropped_transitions: int = 0

    def output(self, name: Optional[str] = None) -> Signal:
        """Signal at the given output port (or the unique one if unnamed)."""
        if name is None:
            if len(self.output_signals) != 1:
                raise SimulationError(
                    "circuit has several output ports; specify which one"
                )
            return next(iter(self.output_signals.values()))
        return self.output_signals[name]

    def node(self, name: str) -> Signal:
        """Signal at the given node output."""
        return self.node_signals[name]

    def edge(self, name: str) -> Signal:
        """Signal at the given channel output."""
        return self.edge_signals[name]


class Engine:
    """Discrete-event execution engine over a precomputed topology.

    Parameters
    ----------
    topology:
        A :class:`CircuitTopology` (or a circuit, which is then validated
        and precomputed on the spot).
    on_causality:
        Policy when a channel wants to emit an output transition earlier
        than an already-delivered one: ``"error"`` raises
        :class:`~repro.engine.errors.CausalityError`, ``"drop"`` discards
        the transition.
    max_events:
        Safety bound on the number of processed events (oscillating storage
        loops can generate events forever).
    """

    #: Delta-cycle bound for zero-delay combinational loops.
    MAX_DELTA_CYCLES = 10_000

    def __init__(
        self,
        topology,
        *,
        on_causality: str = "error",
        max_events: int = 1_000_000,
    ) -> None:
        if on_causality not in CAUSALITY_MODES:
            raise ValueError(f"on_causality must be one of {list(CAUSALITY_MODES)}")
        if not isinstance(topology, CircuitTopology):
            topology = CircuitTopology(topology)
        self.topology = topology
        self.on_causality = on_causality
        self.max_events = int(max_events)

    # ------------------------------------------------------------------ #

    def run(
        self,
        inputs: Dict[str, Signal],
        end_time: float,
        *,
        channels: Optional[Dict[str, object]] = None,
    ) -> Execution:
        """Execute the circuit for the given input-port signals.

        ``inputs`` maps every input-port name to its signal; transitions
        after ``end_time`` are ignored and channel outputs scheduled after
        ``end_time`` are not delivered (the returned signals are exact up
        to ``end_time``).  ``channels`` optionally overrides the channel
        used on selected edges (keyed by edge name) for this run only --
        the hook the sweep runner uses for parameterised channel families
        and per-run eta adversaries.
        """
        from ..core.channel import ZeroDelayChannel

        topo = self.topology
        circuit = topo.circuit
        input_ports = topo.input_port_set
        missing = input_ports - set(inputs)
        if missing:
            raise SimulationError(f"missing input signals for ports {sorted(missing)}")
        unknown = set(inputs) - input_ports
        if unknown:
            raise SimulationError(f"signals given for unknown ports {sorted(unknown)}")
        if channels:
            unknown_edges = set(channels) - set(topo.edges)
            if unknown_edges:
                raise SimulationError(
                    f"channel overrides for unknown edges {sorted(unknown_edges)}"
                )

        scheduler = Scheduler()

        # --- per-run tables, indexed by dense node/edge id -----------------
        # Output ports keep no value or recording of their own: their
        # signal is their driving edge's.
        n_nodes = len(topo.node_names)
        node_values: List[int] = [0] * n_nodes
        gate_times: List[List[float]] = [[] for _ in range(n_nodes)]
        for pid, pname in zip(topo.input_port_ids, topo.input_ports):
            node_values[pid] = inputs[pname].initial_value
        for gid in topo.gate_ids:
            node_values[gid] = topo.gate_initial_by_node[gid]

        kernels: List[ChannelKernel] = []
        zero_delay: List[bool] = []
        for eid, edge in enumerate(topo.edge_list):
            ename = topo.edge_names[eid]
            channel = channels[ename] if channels and ename in channels else edge.channel
            zero_delay.append(isinstance(channel, ZeroDelayChannel))
            kernels.append(
                ChannelKernel(
                    channel,
                    input_initial_value=node_values[topo.edge_source_id[eid]],
                    name=ename,
                    id_source=scheduler.next_id,
                    on_causality=self.on_causality,
                )
            )

        #: Per-gate direct kernel references in pin order (gate evaluation
        #: reads delivered values off these without any name lookups).
        gate_input_kernels: List[Optional[Tuple[ChannelKernel, ...]]] = [None] * n_nodes
        for gid in topo.gate_ids:
            gate_input_kernels[gid] = tuple(
                kernels[eid] for eid in topo.gate_input_edge_ids[gid]
            )
        gate_funcs = topo.gate_func_by_node
        out_edge_ids = topo.out_edge_ids
        edge_target_id = topo.edge_target_id
        edge_target_kind = topo.edge_target_kind

        # --- primary events -------------------------------------------------
        for pid, pname in zip(topo.input_port_ids, topo.input_ports):
            value = 1 - inputs[pname].initial_value
            for time in _signal_times(inputs[pname]):
                if time > end_time:
                    break
                scheduler.push(time, PORT, (pid, value))
                value = 1 - value

        event_count = 0

        def evaluate_gate(gid: int, time: float) -> bool:
            """Re-evaluate a gate; record and return True if its output changed.

            Two transitions of a gate at exactly the same time form a
            zero-width glitch (the value reverts within the same instant);
            both are removed, keeping the recorded signal well formed.
            """
            new_value = gate_funcs[gid](
                tuple([k.delivered_value for k in gate_input_kernels[gid]])
            )
            if new_value == node_values[gid]:
                return False
            node_values[gid] = new_value
            times = gate_times[gid]
            if times and times[-1] == time:
                times.pop()
            else:
                times.append(time)
            return True

        # --- settle gates at time 0 ------------------------------------------
        # Gate initial values may be inconsistent with their input initial
        # values; the execution then has the gate switching at time 0.
        if topo.gate_ids:
            scheduler.push(0.0, SETTLE, tuple(topo.gate_ids))

        # --- main loop ---------------------------------------------------------
        max_events = self.max_events
        pop_batch = scheduler.pop_batch
        # Hoisted per-batch containers (cleared instead of reallocated; the
        # loop runs once per distinct event time).
        gates_to_evaluate: List[int] = []
        gates_seen: Set[int] = set()
        while True:
            popped = pop_batch()
            if popped is None:
                break
            time, batch = popped
            if time > end_time:
                break

            changed_nodes: List[int] = []
            if gates_to_evaluate:
                gates_to_evaluate.clear()
                gates_seen.clear()
            cancelled = 0
            for batch_kind, batch_payload in batch:
                if batch_kind == DELIVER:
                    eid, value, event_id = batch_payload
                    delivered = kernels[eid].deliver(event_id, value, time)
                    if delivered:
                        tid = edge_target_id[eid]
                        if edge_target_kind[eid] == _NODE_GATE and tid not in gates_seen:
                            gates_seen.add(tid)
                            gates_to_evaluate.append(tid)
                    elif delivered is None:
                        cancelled += 1
                elif batch_kind == PORT:
                    # A port's values alternate, so every PORT event changes it.
                    pid, value = batch_payload
                    node_values[pid] = value
                    changed_nodes.append(pid)
                elif batch_kind == SETTLE:
                    for gid in batch_payload:
                        if gid not in gates_seen:
                            gates_seen.add(gid)
                            gates_to_evaluate.append(gid)
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unknown event kind {batch_kind!r}")
            # A cancelled delivery is not an event.  The bound is checked
            # before the batch's gate evaluations and feeds, so it wins over
            # a causality error the same batch would raise.
            event_count += len(batch) - cancelled
            if event_count > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "the circuit may be oscillating (raise the limit or shorten end_time)"
                )
            for gid in gates_to_evaluate:
                if evaluate_gate(gid, time):
                    changed_nodes.append(gid)

            # Zero-time propagation of changed node outputs into their channels.
            # Zero-delay channels deliver immediately (delta cycles); bounded
            # to avoid infinite combinational loops.
            delta_cycles = 0
            while changed_nodes:
                delta_cycles += 1
                if delta_cycles > self.MAX_DELTA_CYCLES:
                    raise SimulationError(
                        "combinational (zero-delay) loop detected at "
                        f"time {time:g}"
                    )
                affected_gates: List[int] = []
                affected_seen: Set[int] = set()
                for nid in changed_nodes:
                    value = node_values[nid]
                    for eid in out_edge_ids[nid]:
                        kernel = kernels[eid]
                        if zero_delay[eid]:
                            if not kernel.deliver_immediate(time, value):
                                continue
                            tid = edge_target_id[eid]
                            if edge_target_kind[eid] == _NODE_GATE and tid not in affected_seen:
                                affected_seen.add(tid)
                                affected_gates.append(tid)
                        else:
                            event = kernel.feed(time, value)
                            if event is not None and event.time <= end_time:
                                scheduler.push(
                                    event.time,
                                    DELIVER,
                                    (eid, event.value, event.event_id),
                                )
                next_changed: List[int] = []
                for gid in affected_gates:
                    if evaluate_gate(gid, time):
                        next_changed.append(gid)
                changed_nodes = next_changed

        # --- assemble the execution ------------------------------------------
        # The engine only records well-formed transitions (values toggle,
        # times strictly increase, same-instant glitches collapsed), so
        # assembly wraps the recorded times without re-validating them.  An
        # input port's signal is its input cut at end_time (the times the
        # PORT events carried); an output port's is its driving edge's.
        node_signals: Dict[str, Signal] = {
            pname: inputs[pname].restricted(end_time) for pname in topo.input_ports
        }
        for gid, gname in zip(topo.gate_ids, topo.gate_names):
            node_signals[gname] = _signal_from_times(
                topo.gate_initial_by_node[gid], array("d", gate_times[gid])
            )
        edge_signals = {}
        dropped = 0
        for ename, kernel in zip(topo.edge_names, kernels):
            edge_signals[ename] = _signal_from_times(
                kernel.channel.output_initial_value(kernel.input_initial_value),
                array("d", kernel.delivered),
            )
            dropped += kernel.dropped
        output_signals = {
            oname: edge_signals[topo.output_driver[oname].name]
            for oname in topo.output_ports
        }
        node_signals.update(output_signals)
        return Execution(
            circuit=circuit,
            node_signals=node_signals,
            edge_signals=edge_signals,
            output_signals=output_signals,
            end_time=end_time,
            event_count=event_count,
            dropped_transitions=dropped,
        )
