"""Frozen snapshot of the first event loop: the engine's reference.

``test_bench_engine_hot_path.py::test_event_loop_vs_legacy`` runs the
optimized engine and this loop on the same delay-line workload and
requires every edge signal and the output to be bit-identical.  The loop
is the one this repository shipped before the hot-path optimization
pass: ``ChannelKernel.deliver`` linear-scanned the pending list per
delivery, ``mature`` popped from the front of a Python list, and the
``Engine`` batch loop ran on string-keyed dict lookups with O(n)
list-membership checks.  This module is a verbatim-behaviour copy of
that code (imports adjusted, classes prefixed ``Legacy``), so the
comparison is against the real earlier implementation rather than a
strawman.

Not part of the library -- test-only, never imported from ``src/``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from typing import Dict, List, Optional, Tuple

from repro.core.transitions import Signal, Transition, _signal_from_times
from repro.engine.errors import CausalityError, SimulationError
from repro.engine.kernel import PendingTransition
from repro.engine.scheduler import Execution

PORT = "port"
DELIVER = "deliver"
SETTLE = "settle"


def _assembled(initial_value: int, transitions: List[Transition]) -> Signal:
    # The PR-1 loop assembled its well-formed transition lists without
    # re-validating them.
    return _signal_from_times(initial_value, array("d", [t.time for t in transitions]))


class LegacyChannelKernel:
    """The PR-1 kernel: list-backed pending queue with linear scans."""

    def __init__(
        self,
        channel,
        *,
        input_initial_value: int = 0,
        name: Optional[str] = None,
        id_source=None,
        on_causality: str = "error",
        queue_horizon: float = -math.inf,
    ) -> None:
        self.channel = channel
        self.name = name or (getattr(channel, "name", None) or "channel")
        self.on_causality = on_causality
        self.queue_horizon = queue_horizon
        self._next_id = id_source if id_source is not None else itertools.count().__next__
        self.reset(input_initial_value)

    def reset(self, input_initial_value: Optional[int] = None) -> None:
        if input_initial_value is not None:
            self.input_initial_value = input_initial_value
        self.last_input_time = -math.inf
        self.last_delay = self.channel.initial_delay() if self.channel else 0.0
        self.last_input_value = self.input_initial_value
        self.transition_count = 0
        self.delivered_value = (
            self.channel.output_initial_value(self.input_initial_value)
            if self.channel
            else self.input_initial_value
        )
        self.last_delivered_time = -math.inf
        self.pending: List[Tuple[float, int, int, Optional[PendingTransition]]] = []
        self.delivered: List[Transition] = []
        self.cancelled_ids: set = set()
        self.dropped = 0
        if self.channel is not None:
            self.channel.reset()

    def finalize(self) -> None:
        self.pending.clear()
        self.cancelled_ids.clear()

    def tentative(self, time: float, value: int) -> PendingTransition:
        channel = self.channel
        if math.isinf(self.last_input_time):
            T = math.inf
        else:
            T = time - self.last_input_time - self.last_delay
        out_value = (1 - value) if channel.inverting else value
        rising_output = out_value == 1
        delay = channel.delay_for(T, rising_output, self.transition_count, time)
        self.last_input_time = time
        self.last_delay = delay
        self.last_input_value = value
        self.transition_count += 1
        return PendingTransition(input_time=time, delay=delay, value=out_value, T=T)

    def commit(self, p: PendingTransition) -> Optional[Tuple[float, int, int]]:
        out_time = p.output_time
        pending = self.pending
        if pending and pending[-1][0] >= out_time:
            kept = []
            for entry in pending:
                if entry[0] >= out_time:
                    self._cancel(entry)
                else:
                    kept.append(entry)
            self.pending = pending = kept

        window = self.channel.rejection_window() if self.channel else 0.0
        if window > 0.0 and pending and out_time - pending[-1][0] < window:
            self._cancel(pending.pop())
            p.cancelled = True
            return None

        if not math.isfinite(out_time):
            p.cancelled = True
            return None
        if out_time <= self.last_delivered_time:
            p.cancelled = True
            if p.value == self.delivered_value:
                return None
            if self.on_causality == "error":
                raise CausalityError(
                    f"channel {self.name!r} scheduled an output at {out_time:g} "
                    f"but already delivered one at {self.last_delivered_time:g}"
                )
            self.dropped += 1
            return None
        event_id = self._next_id()
        pending.append((out_time, p.value, event_id, p))
        return (out_time, p.value, event_id)

    def feed(self, time: float, value: int) -> Optional[Tuple[float, int, int]]:
        if value == self.last_input_value:
            return None
        return self.commit(self.tentative(time, value))

    def _cancel(self, entry) -> None:
        time, _value, event_id, p = entry
        if time <= self.queue_horizon:
            self.cancelled_ids.add(event_id)
        if p is not None:
            p.cancelled = True

    def deliver(self, event_id: int, value: int, time: float) -> bool:
        if event_id in self.cancelled_ids:
            self.cancelled_ids.discard(event_id)
            return False
        for index, entry in enumerate(self.pending):
            if entry[2] == event_id:
                del self.pending[index]
                return self._deliver_value(time, value, entry[3])
        return self._deliver_value(time, value, None)

    def deliver_immediate(self, time: float, value: int) -> bool:
        self.last_input_value = value
        out_value = (1 - value) if self.channel and self.channel.inverting else value
        if out_value == self.delivered_value:
            return False
        self.delivered_value = out_value
        self.last_delivered_time = time
        if self.delivered and self.delivered[-1].time == time:
            self.delivered.pop()
        else:
            self.delivered.append(Transition(time, out_value))
        return True

    def _deliver_value(self, time, value, p) -> bool:
        if value == self.delivered_value:
            if p is not None:
                p.cancelled = True
            return False
        self.delivered_value = value
        self.last_delivered_time = time
        self.delivered.append(Transition(time, value))
        if p is not None:
            p.cancelled = False
        return True


class LegacyScheduler:
    """The PR-1 scheduler: no tombstone skipping at pop time."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, str, object]] = []
        self._counter = itertools.count()

    def next_id(self) -> int:
        return next(self._counter)

    def push(self, time: float, kind: str, payload: object) -> None:
        heapq.heappush(self._heap, (time, next(self._counter), kind, payload))

    def pop_batch(self) -> Tuple[float, List[Tuple[str, object]]]:
        time, _, kind, payload = heapq.heappop(self._heap)
        batch = [(kind, payload)]
        heap = self._heap
        while heap and heap[0][0] == time:
            _, _, more_kind, more_payload = heapq.heappop(heap)
            batch.append((more_kind, more_payload))
        return time, batch

    def __bool__(self) -> bool:
        return bool(self._heap)


class LegacyTopology:
    """The PR-1 structural view: string-keyed dicts only."""

    def __init__(self, circuit) -> None:
        from repro.circuits.circuit import GateInstance, InputPort, OutputPort
        from repro.core.channel import ZeroDelayChannel

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
        self.edges_from: Dict[str, List[object]] = {name: [] for name in nodes}
        self.edges_into: Dict[str, List[object]] = {name: [] for name in nodes}
        for edge in self.edges.values():
            self.edges_from[edge.source].append(edge)
            self.edges_into[edge.target].append(edge)
        for into in self.edges_into.values():
            into.sort(key=lambda e: e.pin)
        self.gate_inputs: Dict[str, List[str]] = {
            gname: [e.name for e in self.edges_into[gname]]
            for gname in self.gate_names
        }
        self.output_driver: Dict[str, object] = {
            oname: self.edges_into[oname][0] for oname in self.output_ports
        }
        self.input_port_set = frozenset(self.input_ports)
        self.zero_delay_class = ZeroDelayChannel
        self.base_zero_delay: Dict[str, bool] = {
            ename: isinstance(edge.channel, ZeroDelayChannel)
            for ename, edge in self.edges.items()
        }


class LegacyEngine:
    """The PR-1 main loop: string dispatch, O(n) membership checks."""

    MAX_DELTA_CYCLES = 10_000

    def __init__(self, topology, *, on_causality="error", max_events=1_000_000):
        if not isinstance(topology, LegacyTopology):
            topology = LegacyTopology(topology)
        self.topology = topology
        self.on_causality = on_causality
        self.max_events = int(max_events)

    def run(self, inputs, end_time, *, channels=None) -> Execution:
        topo = self.topology
        circuit = topo.circuit
        scheduler = LegacyScheduler()

        node_values: Dict[str, int] = {}
        node_transitions: Dict[str, List[Transition]] = {}
        for pname in topo.input_ports:
            node_values[pname] = inputs[pname].initial_value
            node_transitions[pname] = []
        for gname in topo.gate_names:
            node_values[gname] = topo.gate_initial[gname]
            node_transitions[gname] = []
        for oname in topo.output_ports:
            node_values[oname] = 0
            node_transitions[oname] = []

        kernels: Dict[str, LegacyChannelKernel] = {}
        zero_delay: Dict[str, bool] = dict(topo.base_zero_delay)
        run_channels: Dict[str, object] = {}
        for ename, edge in topo.edges.items():
            if channels and ename in channels:
                channel = channels[ename]
                zero_delay[ename] = isinstance(channel, topo.zero_delay_class)
            else:
                channel = edge.channel
            run_channels[ename] = channel
            kernels[ename] = LegacyChannelKernel(
                channel,
                input_initial_value=node_values[edge.source],
                name=ename,
                id_source=scheduler.next_id,
                on_causality=self.on_causality,
                queue_horizon=end_time,
            )
        for oname in topo.output_ports:
            node_values[oname] = kernels[topo.output_driver[oname].name].delivered_value

        for pname in topo.input_ports:
            for tr in inputs[pname]:
                if tr.time <= end_time:
                    scheduler.push(tr.time, PORT, (pname, tr.value))

        event_count = 0

        def record_node_transition(nname: str, time: float, value: int) -> None:
            transitions = node_transitions[nname]
            if transitions and transitions[-1].time == time:
                transitions.pop()
            else:
                transitions.append(Transition(time, value))

        def evaluate_gate(gname: str, time: float) -> bool:
            values = [kernels[e].delivered_value for e in topo.gate_inputs[gname]]
            new_value = topo.gate_types[gname].evaluate(values)
            if new_value == node_values[gname]:
                return False
            node_values[gname] = new_value
            record_node_transition(gname, time, new_value)
            return True

        if topo.gate_names:
            scheduler.push(0.0, SETTLE, tuple(topo.gate_names))

        while scheduler:
            time, batch = scheduler.pop_batch()
            if time > end_time:
                break
            event_count += len(batch)
            if event_count > self.max_events:
                raise SimulationError(f"exceeded max_events={self.max_events}")

            changed_nodes: List[str] = []
            gates_to_evaluate: List[str] = []
            for batch_kind, batch_payload in batch:
                if batch_kind == PORT:
                    pname, value = batch_payload
                    if node_values[pname] != value:
                        node_values[pname] = value
                        record_node_transition(pname, time, value)
                        changed_nodes.append(pname)
                elif batch_kind == DELIVER:
                    ename, value, event_id = batch_payload
                    if kernels[ename].deliver(event_id, value, time):
                        target = topo.edges[ename].target
                        if target in topo.is_gate:
                            if target not in gates_to_evaluate:
                                gates_to_evaluate.append(target)
                        elif target in topo.is_output:
                            node_values[target] = value
                            record_node_transition(target, time, value)
                elif batch_kind == SETTLE:
                    for gname in batch_payload:
                        if gname not in gates_to_evaluate:
                            gates_to_evaluate.append(gname)
            for gname in gates_to_evaluate:
                if evaluate_gate(gname, time):
                    changed_nodes.append(gname)

            delta_cycles = 0
            while changed_nodes:
                delta_cycles += 1
                if delta_cycles > self.MAX_DELTA_CYCLES:
                    raise SimulationError("combinational loop")
                affected_gates: List[str] = []
                for nname in changed_nodes:
                    value = node_values[nname]
                    for edge in topo.edges_from[nname]:
                        ename = edge.name
                        kernel = kernels[ename]
                        if zero_delay[ename]:
                            if not kernel.deliver_immediate(time, value):
                                continue
                            out_value = kernel.delivered_value
                            if edge.target in topo.is_gate:
                                if edge.target not in affected_gates:
                                    affected_gates.append(edge.target)
                            elif edge.target in topo.is_output:
                                node_values[edge.target] = out_value
                                record_node_transition(edge.target, time, out_value)
                        else:
                            event = kernel.feed(time, value)
                            if event is not None and event[0] <= end_time:
                                scheduler.push(
                                    event[0], DELIVER, (ename, event[1], event[2])
                                )
                next_changed: List[str] = []
                for gname in affected_gates:
                    if evaluate_gate(gname, time):
                        next_changed.append(gname)
                changed_nodes = next_changed

        node_signals: Dict[str, Signal] = {}
        for pname in topo.input_ports:
            node_signals[pname] = _assembled(
                inputs[pname].initial_value, node_transitions[pname]
            )
        for gname in topo.gate_names:
            node_signals[gname] = _assembled(
                topo.gate_initial[gname], node_transitions[gname]
            )
        for oname in topo.output_ports:
            driver = topo.output_driver[oname]
            if driver.source in topo.is_gate:
                src_initial = topo.gate_initial[driver.source]
            else:
                src_initial = inputs[driver.source].initial_value
            channel = run_channels[driver.name]
            node_signals[oname] = _assembled(
                channel.output_initial_value(src_initial), node_transitions[oname]
            )
        edge_signals = {}
        dropped = 0
        for ename, kernel in kernels.items():
            edge = topo.edges[ename]
            edge_signals[ename] = _assembled(
                run_channels[ename].output_initial_value(
                    node_signals[edge.source].initial_value
                ),
                kernel.delivered,
            )
            dropped += kernel.dropped
            kernel.finalize()
        output_signals = {oname: node_signals[oname] for oname in topo.output_ports}
        return Execution(
            circuit=circuit,
            node_signals=node_signals,
            edge_signals=edge_signals,
            output_signals=output_signals,
            end_time=end_time,
            event_count=event_count,
            dropped_transitions=dropped,
        )
