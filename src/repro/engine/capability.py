"""Static capability analysis of sweeps, shared by the vector backend and lint.

The vector backend (:mod:`repro.engine.vector`) can only express a subset
of sweeps: circuits (cyclic ones included -- storage loops run through an
iterate-to-fixpoint lockstep schedule) whose channels and adversaries
come from the library classes with mirrored vector semantics, driven by
scenarios whose structure does not vary in engine-batch-order-specific
ways.  Deciding *whether* a sweep is in that subset -- and naming every
obstacle when it is not -- is a purely static question: it needs the
circuit topology, the channel objects and the scenario stimuli, but
never a simulation run.

This module is the single home of that decision.  Two consumers share it:

* :func:`repro.engine.vector.vector_capability` and the vector compiler
  itself (``compile_sweep``) call :func:`analyze_sweep` on live
  topologies and scenarios before building any per-edge programs, and
* the static diagnostics engine (:mod:`repro.lint`) calls the same
  function on circuits built from declarative specs to *predict*, before
  anything runs, exactly which scenarios of a sweep would fall back to
  the scalar path and why (rule ``REP401``).  Its loop rules (``REP201``,
  ``REP202``) find cycles with :func:`cyclic_components`, the helper
  :func:`analyze_sweep` reports zero-delay cycles with.

Factoring the detection out of the compiler is what keeps the linter's
prediction and the runtime's fallback behaviour from drifting apart: the
property tests in ``tests/lint/test_property.py`` pin that the two agree
verdict-for-verdict across generated sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import SimulationError
from .scheduler import _NODE_GATE, CircuitTopology

__all__ = [
    "NO_SCENARIOS_REASON",
    "VectorCapability",
    "EdgeFact",
    "SweepAnalysis",
    "adversary_obstacle",
    "analyze_sweep",
    "cyclic_components",
    "strongly_connected_components",
    "supported_channel_classes",
]

#: Reason recorded when a sweep has no scenarios at all.
NO_SCENARIOS_REASON = "no scenarios to compile"


@dataclass(frozen=True)
class VectorCapability:
    """Why a sweep can (or cannot) run on the vector backend.

    ``supported`` is True iff the sweep compiles; ``reasons`` lists every
    obstacle found (empty when supported).  The report is attached to
    :class:`~repro.engine.sweep.SweepResult` as ``vector_report`` so a
    fallback is never silent -- and surfaced by ``repro lint`` as the
    ``REP401`` diagnostic, so the fallback is predictable before running.
    """

    supported: bool
    reasons: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.supported

    def summary(self) -> str:
        """One-line human-readable form of the report."""
        if self.supported:
            return "vector backend: supported"
        return "vector backend unsupported: " + "; ".join(self.reasons)


def strongly_connected_components(
    n_nodes: int,
    out_edges: Sequence[Sequence[int]],
    edge_target: Sequence[int],
) -> List[List[int]]:
    """Tarjan SCCs over node ids, in condensation topological order.

    ``out_edges[nid]`` lists the outgoing edge ids of node ``nid`` and
    ``edge_target[eid]`` the target node id of edge ``eid`` -- the dense
    integer form :class:`~repro.engine.scheduler.CircuitTopology`
    precomputes.  The result lists every node exactly once (a node on no
    cycle is a component of its own); components appear sources first
    (every edge leaving a component lands in a *later* one), and the
    traversal is fully deterministic (roots in increasing node id, edges
    in declaration order), so the vector backend's evaluation order is
    reproducible.  Members within a component keep their DFS discovery
    order; callers that need a canonical member order sort by node id.
    """
    index_of = [-1] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n_nodes):
        if index_of[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            nid, ei = work[-1]
            if ei == 0:
                index_of[nid] = low[nid] = counter
                counter += 1
                stack.append(nid)
                on_stack[nid] = True
            descended = False
            edges = out_edges[nid]
            while ei < len(edges):
                tid = edge_target[edges[ei]]
                ei += 1
                if index_of[tid] == -1:
                    work[-1] = (nid, ei)
                    work.append((tid, 0))
                    descended = True
                    break
                if on_stack[tid]:
                    low[nid] = min(low[nid], index_of[tid])
            if descended:
                continue
            work.pop()
            if low[nid] == index_of[nid]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == nid:
                        break
                component.reverse()
                components.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[nid])
    # Tarjan emits sinks first; reverse for condensation topo order.
    components.reverse()
    return components


def cyclic_components(
    n_nodes: int,
    out_edges: Sequence[Sequence[int]],
    edge_target: Sequence[int],
) -> List[List[int]]:
    """The strongly connected components that hold a cycle: more than one
    node, or one node with an edge to itself.  Same graph form and order
    as :func:`strongly_connected_components`."""
    return [
        component
        for component in strongly_connected_components(n_nodes, out_edges, edge_target)
        if len(component) > 1
        or any(edge_target[eid] == component[0] for eid in out_edges[component[0]])
    ]


def supported_channel_classes() -> frozenset:
    """The exact channel classes the vector backend can express.

    Exact-class membership, not ``isinstance``: a user subclass may
    override ``delay_for`` in ways the compiled per-edge programs cannot
    mirror, so subclasses are conservatively unsupported.
    """
    from ..core.baselines import (
        DegradationDelayChannel,
        InertialDelayChannel,
        PureDelayChannel,
    )
    from ..core.channel import ZeroDelayChannel
    from ..core.eta_channel import EtaInvolutionChannel
    from ..core.involution_channel import InvolutionChannel

    return frozenset(
        {
            ZeroDelayChannel,
            PureDelayChannel,
            InertialDelayChannel,
            DegradationDelayChannel,
            InvolutionChannel,
            EtaInvolutionChannel,
        }
    )


def adversary_obstacle(adversary: object) -> Optional[str]:
    """Why an eta-channel adversary blocks vectorization, or ``None``.

    The supported strategies are exactly the ones
    ``repro.engine.vector._eta_builder`` can materialise as per-scenario
    shift rows; keep the two in sync.  An *unseeded*
    :class:`~repro.core.adversary.RandomAdversary` is no longer an
    obstacle: the vector compiler materialises it by pre-drawing a fresh
    seed per (scenario, edge) at compile time, matching the scalar
    engine's fresh-entropy-per-run semantics (``repro lint`` still flags
    it as ``REP301`` because the *run* remains unreplayable either way).
    """
    from ..core.adversary import (
        BestCaseAdversary,
        DeCancelAdversary,
        RandomAdversary,
        SequenceAdversary,
        SineAdversary,
        WorstCaseAdversary,
        ZeroAdversary,
    )

    kind = type(adversary)
    if kind in (
        RandomAdversary,
        ZeroAdversary,
        WorstCaseAdversary,
        BestCaseAdversary,
        DeCancelAdversary,
        SineAdversary,
        SequenceAdversary,
    ):
        return None
    return f"unsupported adversary {kind.__name__}"


@dataclass(frozen=True)
class EdgeFact:
    """Statically derived facts about one edge of an analyzed sweep.

    Only edges whose per-scenario channels passed every check get a fact;
    edges with obstacles are absent from
    :attr:`SweepAnalysis.edge_facts`, which downstream passes (settle
    consistency, zero-delay hazards) treat as "unknown, skip".
    """

    eid: int
    source_id: int
    zero_delay: bool
    inverting: bool
    target_is_gate: bool


@dataclass
class SweepAnalysis:
    """The full obstacle scan of one sweep, plus derived structure.

    ``reasons`` is empty iff the sweep is vector-supported; the remaining
    fields carry what the vector compiler needs to build its per-edge
    programs without re-deriving anything (SCC ``components`` in
    condensation order, scenario-uniform ``port_initials`` and per-edge
    facts).
    """

    reasons: List[str] = field(default_factory=list)
    components: List[List[int]] = field(default_factory=list)
    port_initials: Dict[str, int] = field(default_factory=dict)
    edge_facts: Dict[int, EdgeFact] = field(default_factory=dict)

    @property
    def supported(self) -> bool:
        """True iff no obstacle was found."""
        return not self.reasons

    def capability(self) -> VectorCapability:
        """This analysis as a :class:`VectorCapability` report."""
        return VectorCapability(not self.reasons, tuple(self.reasons))


def _edge_fact(
    eid: int,
    ename: str,
    topo: CircuitTopology,
    run_channels: List[object],
    reasons: List[str],
) -> Optional[EdgeFact]:
    """Check one edge's per-scenario channels; record why it cannot compile."""
    from ..core.baselines import InertialDelayChannel, PureDelayChannel
    from ..core.channel import ZeroDelayChannel
    from ..core.eta_channel import EtaInvolutionChannel

    before = len(reasons)
    kinds = {type(ch) for ch in run_channels}
    supported = supported_channel_classes()
    for kind in sorted(kinds - supported, key=lambda k: k.__name__):
        reasons.append(f"edge {ename!r}: unsupported channel type {kind.__name__}")
    if len(reasons) > before:
        return None

    for channel in run_channels:
        # Constant channels with a zero polarity delay schedule every
        # delivery at its own input instant; the engine then opens a
        # second batch at the same timestamp (double gate evaluation,
        # glitch feeds) that a levelized evaluation cannot replay.
        if type(channel) is PureDelayChannel and (
            channel.rising_delay == 0.0 or channel.falling_delay == 0.0
        ):
            reasons.append(
                f"edge {ename!r}: PureDelayChannel with a zero polarity "
                "delay schedules same-instant deliveries"
            )
            return None
        if type(channel) is InertialDelayChannel and channel.delay == 0.0:
            reasons.append(
                f"edge {ename!r}: InertialDelayChannel with zero delay "
                "schedules same-instant deliveries"
            )
            return None

    zero_flags = {type(ch) is ZeroDelayChannel for ch in run_channels}
    if len(zero_flags) > 1:
        reasons.append(
            f"edge {ename!r}: mixes zero-delay and timed channels across scenarios"
        )
        return None
    inverting_flags = {bool(ch.inverting) for ch in run_channels}
    if len(inverting_flags) > 1:
        reasons.append(
            f"edge {ename!r}: channel inverting flag differs across scenarios"
        )
        return None
    zero_delay = zero_flags.pop()
    if not zero_delay:
        for channel in run_channels:
            if type(channel) is EtaInvolutionChannel:
                obstacle = adversary_obstacle(channel.adversary)
                if obstacle is not None:
                    reasons.append(f"edge {ename!r}: {obstacle}")
                    return None

    return EdgeFact(
        eid=eid,
        source_id=topo.edge_source_id[eid],
        zero_delay=zero_delay,
        inverting=inverting_flags.pop(),
        target_is_gate=topo.node_kind[topo.edge_target_id[eid]] == _NODE_GATE,
    )


def analyze_sweep(
    topo: CircuitTopology, scenarios: Sequence[object]
) -> SweepAnalysis:
    """Scan a sweep for every vector-backend obstacle, without running it.

    Returns a :class:`SweepAnalysis` whose ``reasons`` list is empty iff
    ``repro.engine.vector.compile_sweep`` will succeed.  Sweeps that are
    invalid for *every* backend (missing or unknown input ports,
    overrides for unknown edges -- the checks ``Engine.run`` would fail
    too) raise :class:`~repro.engine.errors.SimulationError` instead of
    recording a reason; :func:`repro.engine.vector.vector_capability`
    wraps that into an ``invalid sweep:`` report.
    """
    from ..core.adversary import RandomAdversary
    from ..core.eta_channel import EtaInvolutionChannel

    analysis = SweepAnalysis()
    reasons = analysis.reasons
    scenarios = list(scenarios)
    if not scenarios:
        reasons.append(NO_SCENARIOS_REASON)
        return analysis

    # --- scenario validation (mirrors Engine.run's checks) ---------------- #
    input_ports = topo.input_port_set
    for scenario in scenarios:
        missing = input_ports - set(scenario.inputs)
        if missing:
            raise SimulationError(
                f"missing input signals for ports {sorted(missing)}"
            )
        unknown = set(scenario.inputs) - input_ports
        if unknown:
            raise SimulationError(
                f"signals given for unknown ports {sorted(unknown)}"
            )
        if scenario.channels:
            unknown_edges = set(scenario.channels) - set(topo.edges)
            if unknown_edges:
                raise SimulationError(
                    f"channel overrides for unknown edges {sorted(unknown_edges)}"
                )

    # --- scenario-uniform initial values ----------------------------------- #
    port_initials = analysis.port_initials
    for pname in topo.input_ports:
        initials = {sc.inputs[pname].initial_value for sc in scenarios}
        if len(initials) > 1:
            reasons.append(
                f"input port {pname!r}: initial value differs across scenarios"
            )
        else:
            port_initials[pname] = initials.pop()

    # --- structure ---------------------------------------------------------- #
    # The SCC condensation is the vector backend's evaluation order: a
    # node on no cycle is a component of its own, evaluated once; a
    # feedback component is iterated to its fixpoint.
    analysis.components = strongly_connected_components(
        len(topo.node_names), topo.out_edge_ids, topo.edge_target_id
    )

    # --- per-edge channel facts --------------------------------------------- #
    # One *seeded* RandomAdversary instance shared by several edges of
    # the same run interleaves a single RNG stream across those edges in
    # event order in the scalar engine -- a coupling the per-edge eta
    # matrices cannot replay.  Detect sharing per scenario and refuse.
    # Unseeded shared instances are fine: the compiler splits them into
    # independent freshly seeded streams, which is distributionally
    # identical to interleaving iid draws.
    edge_facts = analysis.edge_facts
    seen_random: Dict[Tuple[int, int], str] = {}
    shared_reported: Set[Tuple[int, int]] = set()
    for eid, ename in enumerate(topo.edge_names):
        edge = topo.edge_list[eid]
        run_channels = [
            (scenario.channels or {}).get(ename, edge.channel)
            for scenario in scenarios
        ]
        for s, channel in enumerate(run_channels):
            if (
                type(channel) is EtaInvolutionChannel
                and type(channel.adversary) is RandomAdversary
                and channel.adversary._seed is not None
            ):
                key = (s, id(channel.adversary))
                first = seen_random.get(key)
                if first is None:
                    seen_random[key] = ename
                elif key not in shared_reported:
                    shared_reported.add(key)
                    reasons.append(
                        f"scenario {scenarios[s].name!r}: one RandomAdversary "
                        f"instance is shared by edges {first!r} and {ename!r} "
                        "(the scalar engine interleaves a single RNG stream "
                        "across sharing edges)"
                    )
        fact = _edge_fact(eid, ename, topo, run_channels, reasons)
        if fact is not None:
            edge_facts[eid] = fact

    # --- settle consistency -------------------------------------------------- #
    # The engine's time-0 settle pass evaluates every gate against the
    # channel-output initial values derived from *declared* node initial
    # values; gates whose declared initial disagrees flip at time 0.
    # Through zero-delay edges, those flips can glitch downstream gates
    # within the settle instant.
    def _declared_initial(nid: int) -> Optional[int]:
        if topo.node_kind[nid] == _NODE_GATE:
            return topo.gate_initial_by_node[nid]
        return port_initials.get(topo.node_names[nid])

    settle_inconsistent: Set[int] = set()
    for gid in topo.gate_ids:
        out_inits = []
        for in_eid in topo.gate_input_edge_ids[gid]:
            fact = edge_facts.get(in_eid)
            if fact is None:
                break
            src_initial = _declared_initial(fact.source_id)
            if src_initial is None:
                break
            out_inits.append(
                (1 - src_initial) if fact.inverting else src_initial
            )
        else:
            gname = topo.node_names[gid]
            settled = topo.gate_types[gname].evaluate(tuple(out_inits))
            if settled != topo.gate_initial_by_node[gid]:
                settle_inconsistent.add(gid)

    # --- zero-delay hazards --------------------------------------------------- #
    # Two zero-delay shapes stay static obstacles.  A cycle made purely
    # of zero-delay edges never makes progress: the scalar engine spins
    # its delta cycles until the combinational-loop guard fires, and the
    # fixpoint scheduler has no growing time prefix to converge on.  And
    # a zero-delay edge into a gate that *flips in the time-0 settle
    # pass* interleaves the delivery with the settle evaluation inside
    # one instant -- a double evaluation the levelized tie-break pass
    # cannot replay.  Every other same-instant hazard (multi-input
    # targets, deliveries at t <= 0) is now checked dynamically by the
    # vector backend's wave-class coincidence pass, which falls back
    # only for the scenarios where classes actually collide.
    zero_out_edges: List[List[int]] = [[] for _ in topo.node_names]
    for eid, fact in edge_facts.items():
        if fact.zero_delay:
            zero_out_edges[fact.source_id].append(eid)
    for edge_ids in zero_out_edges:
        edge_ids.sort()
    for component in cyclic_components(
        len(topo.node_names), zero_out_edges, topo.edge_target_id
    ):
        names = sorted(topo.node_names[nid] for nid in component)
        reasons.append(
            f"zero-delay cycle through nodes {names} (a combinational "
            "loop makes no time progress for the fixpoint schedule; "
            "the event-driven engine detects it at run time)"
        )

    for eid, fact in edge_facts.items():
        if not fact.zero_delay or not fact.target_is_gate:
            continue
        target_id = topo.edge_target_id[eid]
        if target_id in settle_inconsistent:
            ename = topo.edge_names[eid]
            gname = topo.node_names[target_id]
            reasons.append(
                f"zero-delay edge {ename!r} into gate {gname!r} which flips "
                "in the time-0 settle pass (same-instant settle glitches "
                "are engine-specific)"
            )
    return analysis
