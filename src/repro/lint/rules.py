"""The ``repro lint`` rule catalogue.

Every rule is registered with a stable code (``REPnnn``), a default
:class:`~repro.lint.diagnostics.Severity`, and a one-line summary; the
check function receives a :class:`CircuitContext` or
:class:`ExperimentContext` and yields ``(json_path, message)`` pairs.
Rules are pure and defensive: they must never raise on malformed input
(that is precisely the input they exist for), so every structural
access tolerates missing or mistyped fields and leaves reporting those
to the rule that owns them.

Code blocks
-----------

* ``REP0xx`` -- netlist structure (nodes, edges, pins, fan-in/out),
* ``REP1xx`` -- spec kinds and parameter domains (channels, delays,
  adversaries, involution pairs, causality modes),
* ``REP2xx`` -- graph dynamics (zero-delay cycles, feedback loops),
* ``REP3xx`` -- determinism hazards (unseeded random adversaries),
* ``REP4xx`` -- backend capability prediction (the shared
  :func:`repro.engine.capability.analyze_sweep` analyzer),
* ``REP5xx`` -- experiment specs (kinds, parameter names).

The rendered catalogue with examples lives in ``docs/linting.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .diagnostics import Severity

__all__ = [
    "Rule",
    "RULES",
    "CircuitContext",
    "ExperimentContext",
    "iter_rules",
    "get_rule",
]

#: Yields of a check function: ``(json_path, message)`` pairs.
Finding = Tuple[str, str]

#: The built-in causality policies of the engine (``Engine.run``'s
#: ``on_causality``); anything else fails at run time.
CAUSALITY_MODES = ("error", "drop")


# --------------------------------------------------------------------------- #
# Contexts
# --------------------------------------------------------------------------- #


class CircuitContext:
    """One circuit/netlist document under lint, with derived views.

    ``doc`` is the document as given; ``base`` is the JSON-path prefix of
    the circuit spec inside it (``""`` for a bare circuit-spec dict,
    ``"/circuit"`` for a netlist envelope).  The derived node/edge tables
    are built defensively once and shared by every rule.
    """

    def __init__(
        self,
        doc: Mapping[str, Any],
        base: str,
        circuit: Mapping[str, Any],
        inputs: Optional[Mapping[str, Any]] = None,
        end_time: Optional[float] = None,
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.doc = doc
        self.base = base
        self.circuit = circuit
        self.inputs = dict(inputs or {})
        self.end_time = end_time
        self.metadata = dict(metadata or {})
        raw_nodes = circuit.get("nodes")
        raw_edges = circuit.get("edges")
        #: ``(index, node-dict)`` for every well-typed node entry.
        self.nodes: List[Tuple[int, Mapping[str, Any]]] = [
            (i, n)
            for i, n in enumerate(raw_nodes if isinstance(raw_nodes, list) else [])
            if isinstance(n, Mapping)
        ]
        #: ``(index, edge-dict)`` for every well-typed edge entry.
        self.edges: List[Tuple[int, Mapping[str, Any]]] = [
            (i, e)
            for i, e in enumerate(raw_edges if isinstance(raw_edges, list) else [])
            if isinstance(e, Mapping)
        ]
        #: First declaration index of each node name.
        self.node_index: Dict[str, int] = {}
        #: Node kind by name (first declaration wins, like ``Circuit``).
        self.node_kind: Dict[str, str] = {}
        for i, node in self.nodes:
            name = node.get("name")
            if isinstance(name, str) and name not in self.node_index:
                self.node_index[name] = i
                kind = node.get("kind")
                self.node_kind[name] = kind if isinstance(kind, str) else "?"
        self.in_edges: Dict[str, List[Tuple[int, Mapping[str, Any]]]] = {}
        self.out_edges: Dict[str, List[Tuple[int, Mapping[str, Any]]]] = {}
        for i, edge in self.edges:
            target = edge.get("target")
            source = edge.get("source")
            if isinstance(target, str):
                self.in_edges.setdefault(target, []).append((i, edge))
            if isinstance(source, str):
                self.out_edges.setdefault(source, []).append((i, edge))

    def path(self, suffix: str) -> str:
        """Join ``suffix`` (circuit-relative) onto the circuit's base path."""
        return f"{self.base}{suffix}"

    def gate_arity(self, node: Mapping[str, Any]) -> Optional[int]:
        """Arity of a gate node's type, or ``None`` when it cannot be known."""
        from ..circuits.gates import GATE_LIBRARY

        gtype = node.get("type")
        if isinstance(gtype, str):
            gate = GATE_LIBRARY.get(gtype)
            return None if gate is None else gate.arity
        if isinstance(gtype, Mapping):
            arity = gtype.get("arity")
            return arity if isinstance(arity, int) else None
        return None

    def edge_label(self, index: int, edge: Mapping[str, Any]) -> str:
        """Human-readable identifier of an edge (name or positional)."""
        name = edge.get("name")
        if isinstance(name, str):
            return repr(name)
        return f"#{index}"

    def channels(self) -> Iterator[Tuple[str, Mapping[str, Any]]]:
        """Walk every channel-spec dict, recursing into serial stages.

        Yields ``(json_path, channel_dict)``, parents before stages.
        """
        for i, edge in self.edges:
            channel = edge.get("channel")
            if isinstance(channel, Mapping):
                yield from self._walk_channel(
                    self.path(f"/edges/{i}/channel"), channel
                )

    def _walk_channel(
        self, path: str, channel: Mapping[str, Any]
    ) -> Iterator[Tuple[str, Mapping[str, Any]]]:
        yield path, channel
        if channel.get("kind") == "serial":
            stages = _params(channel).get("stages")
            if isinstance(stages, list):
                for j, stage in enumerate(stages):
                    if isinstance(stage, Mapping):
                        yield from self._walk_channel(f"{path}/stages/{j}", stage)


@dataclass
class ExperimentContext:
    """One experiment-spec document under lint."""

    doc: Mapping[str, Any]
    kind: Any = None
    params: Mapping[str, Any] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Rule:
    """One registered lint rule.

    ``check`` receives the scope's context object and yields
    ``(json_path, message)`` pairs; the runner stamps them into
    :class:`~repro.lint.diagnostics.Diagnostic` records with this rule's
    code and severity.
    """

    code: str
    name: str
    severity: Severity
    summary: str
    scope: str
    check: Callable[[Any], Iterator[Finding]]
    doc: str = ""


#: Every registered rule by code.
RULES: Dict[str, Rule] = {}


def _rule(
    code: str, name: str, severity: Severity, scope: str, summary: str
) -> Callable[[Callable[[Any], Iterator[Finding]]], Callable[[Any], Iterator[Finding]]]:
    def register(check: Callable[[Any], Iterator[Finding]]) -> Callable[[Any], Iterator[Finding]]:
        if code in RULES:  # pragma: no cover - registration-time guard
            raise ValueError(f"lint rule code {code} is already registered")
        RULES[code] = Rule(
            code=code,
            name=name,
            severity=severity,
            summary=summary,
            scope=scope,
            check=check,
            doc=(check.__doc__ or "").strip(),
        )
        return check

    return register


def iter_rules() -> List[Rule]:
    """All registered rules in code order."""
    return [RULES[code] for code in sorted(RULES)]


def get_rule(code: str) -> Rule:
    """Look up a rule by its code; raises ``KeyError`` for unknown codes."""
    return RULES[code]


def _params(channel: Mapping[str, Any]) -> Mapping[str, Any]:
    """The parameter view of a spec dict.

    Spec dicts are *flat* -- ``{"kind": "pure", "delay": 0.5}``, per
    :meth:`repro.specs.Spec.to_dict` -- so the dict itself doubles as its
    parameter mapping (no caller looks up ``"kind"`` through this)."""
    return channel


def _num(value: Any) -> Optional[float]:
    """Coerce a JSON number, or ``None`` (bools excluded: JSON booleans
    in numeric fields are a type error REP105 reports via the builder)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


# --------------------------------------------------------------------------- #
# REP0xx -- netlist structure
# --------------------------------------------------------------------------- #


@_rule(
    "REP001",
    "duplicate-node-name",
    Severity.ERROR,
    "circuit",
    "Two nodes declare the same name.",
)
def _check_duplicate_node_name(ctx: CircuitContext) -> Iterator[Finding]:
    """Node names are the circuit's namespace: edges address sources and
    targets by name, so a duplicate silently shadows the first
    declaration when the circuit is built."""
    for i, node in ctx.nodes:
        name = node.get("name")
        if isinstance(name, str) and ctx.node_index.get(name) != i:
            first = ctx.node_index[name]
            yield (
                ctx.path(f"/nodes/{i}/name"),
                f"duplicate node name {name!r} "
                f"(first declared at {ctx.path(f'/nodes/{first}')})",
            )


@_rule(
    "REP002",
    "unknown-edge-endpoint",
    Severity.ERROR,
    "circuit",
    "An edge references a node that is not declared.",
)
def _check_unknown_edge_endpoint(ctx: CircuitContext) -> Iterator[Finding]:
    """A dangling endpoint means the edge cannot be wired at build time;
    ``Circuit.connect`` would fail with a lookup error."""
    for i, edge in ctx.edges:
        label = ctx.edge_label(i, edge)
        for role in ("source", "target"):
            endpoint = edge.get(role)
            if not isinstance(endpoint, str):
                yield (
                    ctx.path(f"/edges/{i}/{role}"),
                    f"edge {label} has no {role} node",
                )
            elif endpoint not in ctx.node_index:
                yield (
                    ctx.path(f"/edges/{i}/{role}"),
                    f"edge {label} {role} {endpoint!r} is not a declared node",
                )


@_rule(
    "REP003",
    "invalid-edge-endpoint",
    Severity.ERROR,
    "circuit",
    "An edge drives from an output port or into an input port.",
)
def _check_invalid_edge_endpoint(ctx: CircuitContext) -> Iterator[Finding]:
    """Input ports are pure sources and output ports pure sinks in the
    paper's circuit model; an edge in the wrong direction has no
    semantics and the builder rejects it."""
    for i, edge in ctx.edges:
        label = ctx.edge_label(i, edge)
        source = edge.get("source")
        target = edge.get("target")
        if isinstance(source, str) and ctx.node_kind.get(source) == "output":
            yield (
                ctx.path(f"/edges/{i}/source"),
                f"edge {label} drives from output port {source!r} "
                "(output ports are sinks)",
            )
        if isinstance(target, str) and ctx.node_kind.get(target) == "input":
            yield (
                ctx.path(f"/edges/{i}/target"),
                f"edge {label} drives into input port {target!r} "
                "(input ports are sources)",
            )


@_rule(
    "REP004",
    "undriven-node",
    Severity.ERROR,
    "circuit",
    "A gate pin or output port has no incoming edge.",
)
def _check_undriven_node(ctx: CircuitContext) -> Iterator[Finding]:
    """Every gate pin and every output port needs exactly one driver;
    an undriven one makes the circuit unrunnable (``Circuit.validate``
    raises at run time -- the linter reports it statically)."""
    for i, node in ctx.nodes:
        name = node.get("name")
        if not isinstance(name, str) or ctx.node_index.get(name) != i:
            continue
        kind = node.get("kind")
        incoming = ctx.in_edges.get(name, [])
        if kind == "output" and not incoming:
            yield (
                ctx.path(f"/nodes/{i}"),
                f"output port {name!r} is never driven",
            )
        elif kind == "gate":
            arity = ctx.gate_arity(node)
            if arity is None:
                continue
            driven = {
                edge.get("pin", 0)
                for _, edge in incoming
                if isinstance(edge.get("pin", 0), int)
            }
            for pin in range(arity):
                if pin not in driven:
                    yield (
                        ctx.path(f"/nodes/{i}"),
                        f"gate {name!r} input pin {pin} is never driven",
                    )


@_rule(
    "REP005",
    "duplicate-edge-name",
    Severity.ERROR,
    "circuit",
    "Two edges declare the same name.",
)
def _check_duplicate_edge_name(ctx: CircuitContext) -> Iterator[Finding]:
    """Edge names key per-scenario channel overrides and sweep reports;
    a duplicate makes overrides ambiguous and the builder rejects it."""
    seen: Dict[str, int] = {}
    for i, edge in ctx.edges:
        name = edge.get("name")
        if not isinstance(name, str):
            continue
        if name in seen:
            yield (
                ctx.path(f"/edges/{i}/name"),
                f"duplicate edge name {name!r} "
                f"(first declared at {ctx.path(f'/edges/{seen[name]}')})",
            )
        else:
            seen[name] = i


@_rule(
    "REP006",
    "conflicting-drivers",
    Severity.ERROR,
    "circuit",
    "Two edges drive the same gate pin or output port, or a pin is out of range.",
)
def _check_conflicting_drivers(ctx: CircuitContext) -> Iterator[Finding]:
    """Gate pins and output ports have fan-in exactly one; a second
    driver (or a pin outside the gate's arity) cannot be wired."""
    for name, incoming in ctx.in_edges.items():
        kind = ctx.node_kind.get(name)
        if kind == "output" and len(incoming) > 1:
            first_i, first = incoming[0]
            for i, edge in incoming[1:]:
                yield (
                    ctx.path(f"/edges/{i}/target"),
                    f"output port {name!r} is driven by both edge "
                    f"{ctx.edge_label(first_i, first)} and edge "
                    f"{ctx.edge_label(i, edge)} (fan-in must be 1)",
                )
        elif kind == "gate":
            node = dict(ctx.nodes)[ctx.node_index[name]]
            arity = ctx.gate_arity(node)
            pins: Dict[int, Tuple[int, Mapping[str, Any]]] = {}
            for i, edge in incoming:
                pin = edge.get("pin", 0)
                if not isinstance(pin, int) or isinstance(pin, bool):
                    yield (
                        ctx.path(f"/edges/{i}/pin"),
                        f"edge {ctx.edge_label(i, edge)} pin {pin!r} "
                        "is not an integer",
                    )
                    continue
                if pin < 0 or (arity is not None and pin >= arity):
                    bound = "" if arity is None else f" (arity {arity})"
                    yield (
                        ctx.path(f"/edges/{i}/pin"),
                        f"edge {ctx.edge_label(i, edge)} pin {pin} is out of "
                        f"range for gate {name!r}{bound}",
                    )
                    continue
                if pin in pins:
                    first_i, first = pins[pin]
                    yield (
                        ctx.path(f"/edges/{i}/pin"),
                        f"edge {ctx.edge_label(i, edge)} drives gate {name!r} "
                        f"pin {pin} already driven by edge "
                        f"{ctx.edge_label(first_i, first)}",
                    )
                else:
                    pins[pin] = (i, edge)


@_rule(
    "REP007",
    "dangling-node",
    Severity.WARNING,
    "circuit",
    "An input port or gate output drives nothing.",
)
def _check_dangling_node(ctx: CircuitContext) -> Iterator[Finding]:
    """A node whose output fans out to nothing still simulates but is
    dead weight -- usually a typo in some edge's ``source``."""
    for i, node in ctx.nodes:
        name = node.get("name")
        if not isinstance(name, str) or ctx.node_index.get(name) != i:
            continue
        kind = node.get("kind")
        if kind in ("input", "gate") and not ctx.out_edges.get(name):
            noun = "input port" if kind == "input" else "gate"
            yield (
                ctx.path(f"/nodes/{i}"),
                f"{noun} {name!r} drives nothing",
            )


@_rule(
    "REP008",
    "invalid-node",
    Severity.ERROR,
    "circuit",
    "A node has an unknown kind, no name, or an out-of-domain initial value.",
)
def _check_invalid_node(ctx: CircuitContext) -> Iterator[Finding]:
    """Nodes must be ``input``/``output``/``gate`` dicts with a name;
    initial values live in the binary domain {0, 1}."""
    raw_nodes = ctx.circuit.get("nodes")
    for i, node in enumerate(raw_nodes if isinstance(raw_nodes, list) else []):
        if not isinstance(node, Mapping):
            yield (
                ctx.path(f"/nodes/{i}"),
                f"node entry is not an object: {node!r}",
            )
            continue
        kind = node.get("kind")
        if kind not in ("input", "output", "gate"):
            yield (
                ctx.path(f"/nodes/{i}/kind"),
                f"unknown node kind {kind!r} (expected input, output, or gate)",
            )
        if not isinstance(node.get("name"), str):
            yield (ctx.path(f"/nodes/{i}"), "node has no name")
        if kind == "gate" and "type" not in node:
            yield (
                ctx.path(f"/nodes/{i}"),
                f"gate {node.get('name')!r} has no type",
            )
        if kind in ("input", "gate"):
            initial = node.get("initial_value", 0)
            if initial not in (0, 1) or isinstance(initial, bool):
                yield (
                    ctx.path(f"/nodes/{i}/initial_value"),
                    f"initial value {initial!r} is outside the binary "
                    "domain {0, 1}",
                )


# --------------------------------------------------------------------------- #
# REP1xx -- spec kinds and parameter domains
# --------------------------------------------------------------------------- #


@_rule(
    "REP101",
    "unknown-channel-kind",
    Severity.ERROR,
    "circuit",
    "A channel spec uses an unregistered kind.",
)
def _check_unknown_channel_kind(ctx: CircuitContext) -> Iterator[Finding]:
    """Channel kinds must be registered (built-in or via
    ``repro.specs.register_channel_kind``); an unknown kind fails at
    build time.  Serial stages are checked recursively."""
    from ..specs import channel_kinds

    known = set(channel_kinds())
    for i, edge in ctx.edges:
        if not isinstance(edge.get("channel"), Mapping):
            yield (
                ctx.path(f"/edges/{i}"),
                f"edge {ctx.edge_label(i, edge)} has no channel spec",
            )
    for path, channel in ctx.channels():
        kind = channel.get("kind")
        if not isinstance(kind, str) or kind not in known:
            yield (
                f"{path}/kind",
                f"unknown channel kind {kind!r}; registered: {sorted(known)}",
            )


@_rule(
    "REP102",
    "unknown-gate-type",
    Severity.ERROR,
    "circuit",
    "A gate references an unknown library gate or a malformed custom type.",
)
def _check_unknown_gate_type(ctx: CircuitContext) -> Iterator[Finding]:
    """Gate types are either a library name (``repro.circuits.gates``)
    or an inline ``{name, arity, table}`` truth table."""
    from ..circuits.gates import GATE_LIBRARY

    for i, node in ctx.nodes:
        if node.get("kind") != "gate":
            continue
        gtype = node.get("type")
        if isinstance(gtype, str):
            if gtype not in GATE_LIBRARY:
                yield (
                    ctx.path(f"/nodes/{i}/type"),
                    f"unknown library gate {gtype!r}; "
                    f"known: {sorted(GATE_LIBRARY)}",
                )
        elif isinstance(gtype, Mapping):
            missing = [k for k in ("name", "arity", "table") if k not in gtype]
            if missing:
                yield (
                    ctx.path(f"/nodes/{i}/type"),
                    f"custom gate type is missing {missing} "
                    "(needs name, arity, table)",
                )
        elif gtype is not None:
            yield (
                ctx.path(f"/nodes/{i}/type"),
                f"gate type must be a library name or a truth-table object, "
                f"got {gtype!r}",
            )


@_rule(
    "REP103",
    "unknown-adversary-kind",
    Severity.ERROR,
    "circuit",
    "An eta channel's adversary uses an unregistered kind.",
)
def _check_unknown_adversary_kind(ctx: CircuitContext) -> Iterator[Finding]:
    """Adversary strategies must be registered (built-in or via
    ``repro.specs.register_adversary_kind``)."""
    from ..specs import adversary_kinds

    known = set(adversary_kinds())
    for path, channel in ctx.channels():
        if channel.get("kind") != "eta_involution":
            continue
        adversary = _params(channel).get("adversary")
        if adversary is None:
            continue  # defaults to the zero adversary
        if not isinstance(adversary, Mapping):
            yield (
                f"{path}/adversary",
                f"adversary spec is not an object: {adversary!r}",
            )
            continue
        kind = adversary.get("kind")
        if not isinstance(kind, str) or kind not in known:
            yield (
                f"{path}/adversary/kind",
                f"unknown adversary kind {kind!r}; registered: {sorted(known)}",
            )


@_rule(
    "REP104",
    "unknown-delay-kind",
    Severity.ERROR,
    "circuit",
    "An involution pair or nested delay function uses an unregistered kind.",
)
def _check_unknown_delay_kind(ctx: CircuitContext) -> Iterator[Finding]:
    """Involution pairs are ``{"kind": "exp"}`` closed forms or explicit
    ``{"kind": "pair", "up": ..., "down": ...}`` dicts whose up/down
    delay functions must use registered delay kinds."""
    from ..specs import delay_kinds

    known = set(delay_kinds())
    for path, channel in ctx.channels():
        if channel.get("kind") not in ("involution", "eta_involution"):
            continue
        pair = _params(channel).get("pair")
        if not isinstance(pair, Mapping):
            continue  # missing pair is a build failure (REP105)
        kind = pair.get("kind")
        if kind == "exp":
            continue
        if kind != "pair":
            yield (
                f"{path}/pair/kind",
                f"unknown involution-pair kind {kind!r} (expected exp or pair)",
            )
            continue
        for side in ("up", "down"):
            delay = pair.get(side)
            if not isinstance(delay, Mapping):
                continue
            dkind = delay.get("kind")
            if not isinstance(dkind, str) or dkind not in known:
                yield (
                    f"{path}/pair/{side}/kind",
                    f"unknown delay kind {dkind!r}; registered: {sorted(known)}",
                )


@_rule(
    "REP105",
    "invalid-channel-params",
    Severity.ERROR,
    "circuit",
    "A channel spec with known kinds fails to build.",
)
def _check_invalid_channel_params(ctx: CircuitContext) -> Iterator[Finding]:
    """The authoritative parameter check is the registered builder
    itself: this rule attempts ``ChannelSpec.from_dict(...).build()`` per
    edge and reports the failure.  Channels whose kinds are unknown are
    skipped (REP101/REP103/REP104 already own those)."""
    from ..specs import BUILD_ERRORS, ChannelSpec, adversary_kinds, channel_kinds, delay_kinds

    known_channels = set(channel_kinds())
    known_adversaries = set(adversary_kinds())
    known_delays = set(delay_kinds())

    def known(kind: Any, registered: Set[str]) -> bool:
        # A non-string kind is unknown (REP101/REP103/REP104 report it).
        return isinstance(kind, str) and kind in registered

    def kinds_known(channel: Mapping[str, Any]) -> bool:
        kind = channel.get("kind")
        if not known(kind, known_channels):
            return False
        params = _params(channel)
        if kind == "eta_involution":
            adversary = params.get("adversary")
            if isinstance(adversary, Mapping) and not known(
                adversary.get("kind"), known_adversaries
            ):
                return False
        if kind in ("involution", "eta_involution"):
            pair = params.get("pair")
            if isinstance(pair, Mapping):
                pkind = pair.get("kind")
                if pkind not in ("exp", "pair"):
                    return False
                if pkind == "pair":
                    for side in ("up", "down"):
                        delay = pair.get(side)
                        if isinstance(delay, Mapping) and not known(
                            delay.get("kind"), known_delays
                        ):
                            return False
        if kind == "serial":
            stages = params.get("stages")
            if isinstance(stages, list):
                return all(
                    kinds_known(s) for s in stages if isinstance(s, Mapping)
                )
        return True

    for i, edge in ctx.edges:
        channel = edge.get("channel")
        if not isinstance(channel, Mapping) or not kinds_known(channel):
            continue
        try:
            ChannelSpec.from_dict(channel).build()
        except KeyError as exc:
            yield (
                ctx.path(f"/edges/{i}/channel"),
                f"channel is missing required parameter {exc}",
            )
        except BUILD_ERRORS as exc:
            yield (
                ctx.path(f"/edges/{i}/channel"),
                f"channel does not build: {exc}",
            )


@_rule(
    "REP106",
    "out-of-domain-params",
    Severity.ERROR,
    "circuit",
    "A channel parameter is outside its mathematical domain.",
)
def _check_out_of_domain_params(ctx: CircuitContext) -> Iterator[Finding]:
    """Delays must be non-negative, time constants strictly positive,
    thresholds inside (0, 1), and eta bounds finite and non-negative --
    the domains under which the paper's involution results hold."""
    from ..core.adversary import RandomAdversary

    for path, channel in ctx.channels():
        kind = channel.get("kind")
        params = _params(channel)
        if kind == "pure":
            for key in ("delay", "falling_delay"):
                value = _num(params.get(key))
                if value is not None and value < 0:
                    yield (f"{path}/{key}", f"negative delay {value}")
        elif kind == "inertial":
            value = _num(params.get("delay"))
            if value is not None and value < 0:
                yield (f"{path}/delay", f"negative delay {value}")
            window = _num(params.get("window"))
            if window is not None and window < 0:
                yield (
                    f"{path}/window",
                    f"negative rejection window {window}",
                )
        elif kind == "ddm":
            nominal = _num(params.get("delta_nominal"))
            if nominal is not None and nominal < 0:
                yield (
                    f"{path}/delta_nominal",
                    f"negative nominal delay {nominal}",
                )
            tau = _num(params.get("tau_deg"))
            if tau is not None and tau <= 0:
                yield (
                    f"{path}/tau_deg",
                    f"degradation time constant {tau} must be positive",
                )
        elif kind in ("involution", "eta_involution"):
            pair = params.get("pair")
            if isinstance(pair, Mapping) and pair.get("kind") == "exp":
                tau = _num(pair.get("tau"))
                if tau is not None and tau <= 0:
                    yield (
                        f"{path}/pair/tau",
                        f"time constant tau {tau} must be positive",
                    )
                t_p = _num(pair.get("t_p"))
                if t_p is not None and t_p <= 0:
                    yield (
                        f"{path}/pair/t_p",
                        f"pure delay t_p {t_p} must be positive",
                    )
                v_th = _num(pair.get("v_th", 0.5))
                if v_th is not None and not 0.0 < v_th < 1.0:
                    yield (
                        f"{path}/pair/v_th",
                        f"threshold v_th {v_th} must lie strictly "
                        "between 0 and 1",
                    )
            if kind == "eta_involution":
                eta = params.get("eta")
                if isinstance(eta, Mapping):
                    for key in ("eta_plus", "eta_minus"):
                        value = _num(eta.get(key))
                        if value is None:
                            continue
                        if not math.isfinite(value):
                            yield (
                                f"{path}/eta/{key}",
                                f"non-finite eta bound {key}={value}",
                            )
                        elif value < 0:
                            yield (
                                f"{path}/eta/{key}",
                                f"negative eta bound {key}={value}",
                            )
                adversary = _params(channel).get("adversary")
                if isinstance(adversary, Mapping):
                    if adversary.get("kind") == "random":
                        sigma = _num(adversary.get("sigma_fraction"))
                        if sigma is not None and sigma < 0:
                            yield (
                                f"{path}/adversary/sigma_fraction",
                                f"negative sigma fraction {sigma}",
                            )
                        dist = adversary.get("distribution", "uniform")
                        names = RandomAdversary.DISTRIBUTIONS
                        if dist not in names:
                            expected = " or ".join(map(repr, names))
                            yield (
                                f"{path}/adversary/distribution",
                                f"unknown distribution {dist!r} "
                                f"(expected {expected})",
                            )
                    elif adversary.get("kind") == "sine":
                        period = _num(adversary.get("period"))
                        if period is not None and period <= 0:
                            yield (
                                f"{path}/adversary/period",
                                f"sine period {period} must be positive",
                            )


@_rule(
    "REP107",
    "non-involution-pair",
    Severity.WARNING,
    "circuit",
    "An explicit delay pair does not satisfy the involution property.",
)
def _check_non_involution_pair(ctx: CircuitContext) -> Iterator[Finding]:
    """The paper's results (Theorem 9 in particular) require
    ``-delta_up(-delta_down(T)) == T``; an explicit up/down pair that
    breaks it still simulates, but the model guarantees no longer
    apply."""
    from ..core.involution import InvolutionPair
    from ..specs import BUILD_ERRORS, DelaySpec

    for path, channel in ctx.channels():
        if channel.get("kind") not in ("involution", "eta_involution"):
            continue
        pair = _params(channel).get("pair")
        if not isinstance(pair, Mapping) or pair.get("kind") != "pair":
            continue
        up_data = pair.get("up")
        down_data = pair.get("down")
        if not isinstance(up_data, Mapping) or not isinstance(down_data, Mapping):
            continue
        try:
            built = InvolutionPair(
                DelaySpec.from_dict(up_data).build(),
                DelaySpec.from_dict(down_data).build(),
                validate=False,
            )
            consistent = built.satisfies_involution()
        except BUILD_ERRORS:
            continue  # unbuildable pairs belong to REP104/REP105
        if not consistent:
            yield (
                f"{path}/pair",
                "explicit delay pair does not satisfy the involution "
                "property (residual of -delta_up(-delta_down(T)) - T "
                "exceeds tolerance)",
            )


@_rule(
    "REP108",
    "invalid-causality-mode",
    Severity.ERROR,
    "circuit",
    "A causality policy is not one of the engine's modes.",
)
def _check_invalid_causality_mode(ctx: CircuitContext) -> Iterator[Finding]:
    """``on_causality`` selects how the engine treats causality-violating
    deliveries; only ``error`` and ``drop`` exist."""
    mode = ctx.metadata.get("on_causality")
    if mode is not None and mode not in CAUSALITY_MODES:
        yield (
            "/metadata/on_causality",
            f"invalid causality mode {mode!r} "
            f"(expected one of {list(CAUSALITY_MODES)})",
        )


@_rule(
    "REP109",
    "invalid-experiment-causality-mode",
    Severity.ERROR,
    "experiment",
    "An experiment parameter sets an unknown causality policy.",
)
def _check_experiment_causality_mode(ctx: ExperimentContext) -> Iterator[Finding]:
    """Same check as REP108, applied to experiment parameters."""
    mode = ctx.params.get("on_causality")
    if mode is not None and mode not in CAUSALITY_MODES:
        yield (
            "/on_causality",
            f"invalid causality mode {mode!r} "
            f"(expected one of {list(CAUSALITY_MODES)})",
        )


# --------------------------------------------------------------------------- #
# REP2xx -- graph dynamics
# --------------------------------------------------------------------------- #


def _is_zero_delay(channel: Mapping[str, Any]) -> bool:
    """True when a channel spec statically delivers with zero delay."""
    kind = channel.get("kind")
    params = _params(channel)
    if kind == "zero":
        return True
    if kind == "pure":
        delay = _num(params.get("delay"))
        falling = _num(params.get("falling_delay"))
        return delay == 0.0 and (falling is None or falling == 0.0)
    if kind == "inertial":
        return _num(params.get("delay")) == 0.0
    if kind == "serial":
        stages = params.get("stages")
        if isinstance(stages, list) and stages:
            return all(
                _is_zero_delay(s) for s in stages if isinstance(s, Mapping)
            )
    return False


def _find_cycle(
    ctx: CircuitContext, edges: Sequence[Tuple[int, Mapping[str, Any]]]
) -> Optional[List[str]]:
    """One cycle (as a node-name path) in the given edge subset, or None."""
    adjacency: Dict[str, List[str]] = {}
    for _, edge in edges:
        source = edge.get("source")
        target = edge.get("target")
        if (
            isinstance(source, str)
            and isinstance(target, str)
            and source in ctx.node_index
            and target in ctx.node_index
        ):
            adjacency.setdefault(source, []).append(target)
    state: Dict[str, int] = {}  # 1 = on stack, 2 = done
    stack: List[str] = []

    def visit(name: str) -> Optional[List[str]]:
        state[name] = 1
        stack.append(name)
        for nxt in adjacency.get(name, []):
            mark = state.get(nxt)
            if mark == 1:
                return stack[stack.index(nxt):] + [nxt]
            if mark is None:
                found = visit(nxt)
                if found is not None:
                    return found
        stack.pop()
        state[name] = 2
        return None

    for name in adjacency:
        if name not in state:
            found = visit(name)
            if found is not None:
                return found
    return None


@_rule(
    "REP201",
    "zero-delay-cycle",
    Severity.ERROR,
    "circuit",
    "A cycle consists entirely of zero-delay edges.",
)
def _check_zero_delay_cycle(ctx: CircuitContext) -> Iterator[Finding]:
    """An instantaneous loop schedules delta cycles forever at one
    timestamp: the simulation can never settle.  (The paper's model
    requires strictly positive loop delays for exactly this reason.)"""
    zero_edges = [
        (i, edge)
        for i, edge in ctx.edges
        if isinstance(edge.get("channel"), Mapping)
        and _is_zero_delay(edge["channel"])
    ]
    cycle = _find_cycle(ctx, zero_edges)
    if cycle is not None:
        yield (
            ctx.path("/edges"),
            "zero-delay cycle through nodes "
            + " -> ".join(repr(n) for n in cycle)
            + " (an instantaneous loop can never settle)",
        )


@_rule(
    "REP202",
    "feedback-loop",
    Severity.INFO,
    "circuit",
    "The circuit graph contains a feedback loop.",
)
def _check_feedback_loop(ctx: CircuitContext) -> Iterator[Finding]:
    """Storage loops are legal and essential (SR latches, the paper's
    SPF circuit).  Both engines handle them -- the event-driven scalar
    engine natively, the vector backend via its fixpoint lockstep
    schedule -- but the loop is worth surfacing: convergence cost grows
    with the number of feedback round-trips inside the time horizon."""
    cycle = _find_cycle(ctx, ctx.edges)
    if cycle is not None:
        yield (
            ctx.path("/edges"),
            "feedback loop through nodes "
            + " -> ".join(repr(n) for n in cycle)
            + " (runs on the event-driven engine or the vector"
            " backend's fixpoint schedule)",
        )


# --------------------------------------------------------------------------- #
# REP3xx -- determinism hazards
# --------------------------------------------------------------------------- #


def _walk_random_adversaries(
    value: Any, path: str
) -> Iterator[Tuple[str, Mapping[str, Any]]]:
    """Find every ``{"kind": "random"}`` adversary dict in a document."""
    if isinstance(value, Mapping):
        if value.get("kind") == "random":
            yield path, value
        for key, child in value.items():
            yield from _walk_random_adversaries(child, f"{path}/{key}")
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _walk_random_adversaries(child, f"{path}/{i}")


def _unseeded_random_findings(doc: Any, base: str) -> Iterator[Finding]:
    for path, adversary in _walk_random_adversaries(doc, base):
        if adversary.get("seed") is None:
            yield (
                f"{path}/seed",
                "RandomAdversary without a seed draws fresh entropy per "
                "run; results cannot be reproduced bit-identically "
                "(pass an integer seed)",
            )


@_rule(
    "REP301",
    "unseeded-random-adversary",
    Severity.WARNING,
    "circuit",
    "A random adversary has no seed, so runs are not reproducible.",
)
def _check_unseeded_random_adversary(ctx: CircuitContext) -> Iterator[Finding]:
    """Reproducibility is this project's north star: every stochastic
    component must be seeded.  (The vector backend still runs unseeded
    adversaries -- it pre-draws one seed per scenario/edge slot -- but
    the draws come from fresh OS entropy, so runs stay irreproducible.)"""
    yield from _unseeded_random_findings(ctx.doc, "")


@_rule(
    "REP302",
    "unseeded-experiment-adversary",
    Severity.WARNING,
    "experiment",
    "A random adversary inside experiment params has no seed.",
)
def _check_unseeded_experiment_adversary(
    ctx: ExperimentContext,
) -> Iterator[Finding]:
    """Same determinism hazard as REP301, found inside an experiment
    spec's parameters."""
    yield from _unseeded_random_findings(ctx.doc, "")


# --------------------------------------------------------------------------- #
# REP4xx -- backend capability prediction
# --------------------------------------------------------------------------- #


@_rule(
    "REP401",
    "vector-fallback",
    Severity.INFO,
    "circuit",
    "A sweep over this circuit would fall back to the scalar engine.",
)
def _check_vector_fallback(ctx: CircuitContext) -> Iterator[Finding]:
    """Static prediction of the vector backend's verdict, using the
    *same* analyzer the runtime compiler runs
    (:func:`repro.engine.capability.analyze_sweep`) on a scenario built
    from the netlist's declared stimuli -- so the prediction and an
    actual ``run_many(backend="vector")`` fallback can never disagree.
    Circuits that do not build are skipped (the REP0xx/REP1xx rules own
    those findings)."""
    from ..core.transitions import Signal
    from ..engine.sweep import Scenario
    from ..engine.vector import vector_capability
    from ..io.netlist import signal_from_dict
    from ..specs import BUILD_ERRORS, CircuitSpec

    try:
        circuit = CircuitSpec.from_dict(
            {
                "name": ctx.circuit.get("name", "lint"),
                "nodes": ctx.circuit.get("nodes", []),
                "edges": ctx.circuit.get("edges", []),
            }
        ).build()
        # CircuitError is a ValueError: structurally invalid circuits
        # (undriven pins, fan-in conflicts) bail out here and stay the
        # REP0xx rules' findings.
        circuit.validate()
    except BUILD_ERRORS:
        return

    inputs: Dict[str, Signal] = {}
    end_time = 10.0
    for i, node in ctx.nodes:
        if node.get("kind") != "input":
            continue
        name = node.get("name")
        if not isinstance(name, str):
            continue
        declared = ctx.inputs.get(name)
        signal: Optional[Signal] = None
        if isinstance(declared, Mapping):
            try:
                signal = signal_from_dict(declared)
            except BUILD_ERRORS:
                signal = None
        if signal is None:
            initial = node.get("initial_value", 0)
            signal = Signal(initial if initial in (0, 1) else 0, [])
        inputs[name] = signal
        if len(signal):
            end_time = max(end_time, signal.stabilization_time() + 1.0)
    if ctx.end_time is not None:
        end_time = float(ctx.end_time)

    report = vector_capability(
        circuit, [Scenario(name="lint", inputs=inputs, end_time=end_time)]
    )
    for reason in report.reasons:
        yield (
            ctx.base or "",
            f"sweeps would fall back to the scalar engine: {reason}",
        )


# --------------------------------------------------------------------------- #
# REP5xx -- experiment specs
# --------------------------------------------------------------------------- #


@_rule(
    "REP501",
    "unknown-experiment-kind",
    Severity.ERROR,
    "experiment",
    "An experiment spec uses an unregistered kind.",
)
def _check_unknown_experiment_kind(ctx: ExperimentContext) -> Iterator[Finding]:
    """Experiment kinds must be registered (built-ins load lazily);
    an unknown kind fails at run time in ``api.experiment``."""
    from ..specs import experiment_kinds

    known = experiment_kinds()
    if not isinstance(ctx.kind, str) or ctx.kind not in known:
        yield (
            "/kind",
            f"unknown experiment kind {ctx.kind!r}; registered: {known}",
        )


@_rule(
    "REP502",
    "unknown-experiment-param",
    Severity.ERROR,
    "experiment",
    "An experiment spec passes a parameter its kind does not define.",
)
def _check_unknown_experiment_param(ctx: ExperimentContext) -> Iterator[Finding]:
    """Experiment kinds have a closed parameter schema (their defaults
    dict); an unknown name is a typo that ``ExperimentSpec.resolved``
    would reject."""
    from ..specs import SpecError, get_experiment_kind

    if not isinstance(ctx.kind, str):
        return
    try:
        info = get_experiment_kind(ctx.kind)
    except SpecError:
        return  # REP501 owns unknown kinds
    for key in sorted(set(ctx.params) - set(info.defaults)):
        yield (
            f"/{key}",
            f"unknown parameter {key!r} for experiment kind {ctx.kind!r} "
            f"(known: {sorted(info.defaults)})",
        )
