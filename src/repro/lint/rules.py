"""The ``repro lint`` rule catalogue.

Every rule is registered with a stable code (``REPnnn``), a default
:class:`~repro.lint.diagnostics.Severity`, and a one-line summary; the
check function receives a :class:`CircuitContext` or
:class:`ExperimentContext` and yields ``(json_path, message)`` pairs.
Rules are pure and defensive: they must never raise on malformed input
(that is precisely the input they exist for), so every structural
access tolerates missing or mistyped fields and leaves reporting those
to the rule that owns them.

Lint keeps no copy of a builder's check.  REP009 runs the netlist
loader's own decode step; REP001--REP006, REP008 and REP102 report the
errors of ``CircuitSpec.build`` (:class:`CircuitBuild`, once per
document), and REP101 and REP103--REP106 the exceptions the registered
spec builders raise: one walker (:class:`SpecBuild`, once per document)
builds every channel spec and, where one fails, its sub-specs at their
own JSON pointers.

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

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..engine.errors import CAUSALITY_MODES
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
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.doc = doc
        self.base = base
        self.circuit = circuit
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
        for i, node in self.nodes:
            name = node.get("name")
            if isinstance(name, str) and name not in self.node_index:
                self.node_index[name] = i
        self.out_edges: Dict[str, List[Tuple[int, Mapping[str, Any]]]] = {}
        for i, edge in self.edges:
            source = edge.get("source")
            if isinstance(source, str):
                self.out_edges.setdefault(source, []).append((i, edge))

    def path(self, suffix: str) -> str:
        """Join ``suffix`` (circuit-relative) onto the circuit's base path."""
        return f"{self.base}{suffix}"

    def edge_label(self, index: int, edge: Mapping[str, Any]) -> str:
        """Human-readable identifier of an edge (name or positional)."""
        name = edge.get("name")
        if isinstance(name, str):
            return repr(name)
        return f"#{index}"

    @cached_property
    def specs(self) -> "SpecBuild":
        """Every channel spec of the document, built once (see :class:`SpecBuild`)."""
        return SpecBuild(self)

    @cached_property
    def build(self) -> "CircuitBuild":
        """The document's circuit, built once (see :class:`CircuitBuild`)."""
        return CircuitBuild(self)


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


def _num(value: Any) -> Optional[float]:
    """A JSON number as a float, or ``None``.  A JSON boolean is not a
    number: the spec builders reject one in a numeric field with a
    ``TypeError``, which REP105 reports."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


# --------------------------------------------------------------------------- #
# REP0xx -- netlist structure
# --------------------------------------------------------------------------- #


class CircuitBuild:
    """The document's circuit, built once by ``CircuitSpec.build``.

    ``circuit`` is the circuit, or None when it does not build (or its
    skeleton does not decode, which is REP009's).  ``findings`` maps
    REP001--REP006, REP008 and REP102 to the builder's errors in document
    order, each at the field it names: the builder goes on past a node or
    edge that does not build and raises one error listing them all.  The
    error's type decides the rule, or else where it is located and the
    ``field`` it names (see :meth:`rule`).
    """

    #: The rules these findings belong to.
    CODES = ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP008", "REP102")
    #: The rule of an edge's ``CircuitError``, by the field it names.
    EDGE_FIELDS = {"source": "REP003", "target": "REP003", "name": "REP005", "pin": "REP006"}

    def __init__(self, ctx: CircuitContext) -> None:
        from ..specs import CircuitSpec, SpecError

        self.circuit: Any = None
        self.findings: Dict[str, List[Finding]] = {code: [] for code in self.CODES}
        try:
            self.circuit = CircuitSpec.from_dict(ctx.circuit).build()
        except SpecError as exc:
            for defect in exc.defects:
                code = self.rule(defect)
                if code is not None:
                    field = getattr(defect.__cause__, "field", None)
                    where = defect.path if field is None else f"{defect.path}/{field}"
                    self.findings[code].append((ctx.path(where), str(defect)))

    @classmethod
    def rule(cls, defect: Any) -> Optional[str]:
        """The rule of one builder error, None for a channel's (REP101,
        REP103--REP106 report those through :class:`SpecBuild`)."""
        from ..circuits.circuit import (
            CircuitError,
            DuplicateNameError,
            IncompleteCircuitError,
            UnknownNodeError,
        )

        cause = defect.__cause__
        if isinstance(cause, UnknownNodeError):
            return "REP002"
        if isinstance(cause, IncompleteCircuitError):
            return "REP004"
        field = getattr(cause, "field", None)
        if defect.path.startswith("/nodes/"):
            if isinstance(cause, DuplicateNameError):
                return "REP001"
            return "REP102" if field == "type" else "REP008"
        if not isinstance(cause, CircuitError):
            return None
        return cls.EDGE_FIELDS.get(field, "REP008")


@_rule(
    "REP001",
    "duplicate-node-name",
    Severity.ERROR,
    "circuit",
    "Two nodes declare the same name.",
)
def _check_duplicate_node_name(ctx: CircuitContext) -> Iterator[Finding]:
    """Node names are the circuit's namespace: edges address sources and
    targets by name, so a second declaration cannot be told from the
    first.  ``Circuit`` raises ``DuplicateNameError`` for it, reported at
    its ``name``."""
    yield from ctx.build.findings["REP001"]


@_rule(
    "REP002",
    "unknown-edge-endpoint",
    Severity.ERROR,
    "circuit",
    "An edge references a node that is not declared.",
)
def _check_unknown_edge_endpoint(ctx: CircuitContext) -> Iterator[Finding]:
    """A dangling endpoint means the edge cannot be wired:
    ``Circuit.connect`` raises ``UnknownNodeError``, reported at the
    edge's ``source`` or ``target``.  An edge naming a node that does not
    build is not reported: the node keeps its name."""
    yield from ctx.build.findings["REP002"]


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
    semantics, and ``Circuit.connect`` rejects it at its ``source`` or
    ``target``."""
    yield from ctx.build.findings["REP003"]


@_rule(
    "REP004",
    "undriven-node",
    Severity.ERROR,
    "circuit",
    "A gate pin or output port has no incoming edge, or the circuit has no input or output port.",
)
def _check_undriven_node(ctx: CircuitContext) -> Iterator[Finding]:
    """Every gate pin and every output port needs exactly one driver, and
    a circuit needs an input and an output port.  ``Circuit.validate``
    names every defect, reported at the node (or at ``nodes`` for a
    missing port); the builder runs it once every node and edge is
    wired, so an edge whose channel does not build still drives its
    target."""
    yield from ctx.build.findings["REP004"]


@_rule(
    "REP005",
    "duplicate-edge-name",
    Severity.ERROR,
    "circuit",
    "Two edges declare the same name, or an edge name is not a string.",
)
def _check_duplicate_edge_name(ctx: CircuitContext) -> Iterator[Finding]:
    """Edge names key per-scenario channel overrides and sweep reports;
    a duplicate makes overrides ambiguous.  A name is optional, but one
    that is given must be a string.  ``Circuit.connect`` rejects both at
    the edge's ``name``."""
    yield from ctx.build.findings["REP005"]


@_rule(
    "REP006",
    "conflicting-drivers",
    Severity.ERROR,
    "circuit",
    "Two edges drive the same gate pin or output port, or a pin is out of range.",
)
def _check_conflicting_drivers(ctx: CircuitContext) -> Iterator[Finding]:
    """Gate pins and output ports have fan-in exactly one; a second
    driver, a pin outside the gate's arity, or a pin that is not an
    integer cannot be wired.  ``Circuit.connect`` rejects each at the
    edge's ``pin``."""
    yield from ctx.build.findings["REP006"]


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
    "A node or edge is not an object, or a node has an unknown kind, no name, no gate type, "
    "or an initial value outside {0, 1}.",
)
def _check_invalid_node(ctx: CircuitContext) -> Iterator[Finding]:
    """Nodes are ``input``/``output``/``gate`` objects with a string name,
    and initial values are the integers 0 and 1 of the binary domain (a
    JSON boolean is not one).  The builder and ``Circuit`` reject a
    malformed node at the field they name (``kind``, ``name``,
    ``initial_value``), or at the node, and an edge that is not an
    object at the edge."""
    yield from ctx.build.findings["REP008"]


@_rule(
    "REP009",
    "invalid-netlist",
    Severity.ERROR,
    "circuit",
    "The netlist envelope or the circuit skeleton does not decode.",
)
def _check_invalid_netlist(ctx: CircuitContext) -> Iterator[Finding]:
    """The loader decodes the envelope (``format``, ``version``,
    ``inputs``, ``end_time``, ``metadata``) and the circuit's ``name``,
    ``nodes`` and ``edges`` before it builds anything.  This rule runs
    that same step (``repro.io.netlist.netlist_from_dict``) and reports
    its error at the field it names, or at the circuit."""
    from ..io.netlist import netlist_from_dict
    from ..specs import SpecError

    try:
        netlist_from_dict(ctx.doc)
    except SpecError as exc:
        yield (ctx.base if exc.path is None else exc.path, str(exc))


# --------------------------------------------------------------------------- #
# REP1xx -- spec kinds and parameter domains
# --------------------------------------------------------------------------- #


class SpecBuild:
    """Every spec dict of every channel, built through the registered builders.

    A channel that builds is sound, and so are its sub-specs.  One that
    does not has each of its sub-specs -- ``pair`` with its ``up`` and
    ``down`` (and a shifted or scaled delay's ``base``), ``eta``,
    ``adversary`` and serial ``stages`` -- built at its own JSON pointer,
    recursively, and its own error counts only when they all built.  So
    one defect is one finding, and independent defects are all found.
    What a builder raises decides the rule:

    * ``UnknownKindError`` -- REP101 (channel), REP103 (adversary) or
      REP104 (involution pair, delay), at ``.../kind``;
    * ``DomainError`` -- REP106, at ``.../<param>``;
    * any other build error -- REP105, at the spec.

    ``findings`` maps those codes to their findings in document order;
    ``ok`` lists ``(path, registry, spec dict)`` for every spec that builds.
    """

    #: The rule that reports an unknown kind, by the registry that names it.
    UNKNOWN_KIND_RULES = {
        "channel": "REP101",
        "adversary": "REP103",
        "involution-pair": "REP104",
        "delay": "REP104",
    }
    #: What each registry builds, as REP105 names it.
    NOUNS = {
        "channel": "channel",
        "adversary": "adversary",
        "involution-pair": "involution pair",
        "delay": "delay function",
        "eta": "eta bound",
    }
    #: The sub-specs of a built-in ``(registry, kind)``: ``(key, registry)``
    #: pairs; ``stages`` holds a list of them.
    PARTS: Dict[Tuple[str, str], Tuple[Tuple[str, str], ...]] = {
        ("channel", "involution"): (("pair", "involution-pair"),),
        ("channel", "eta_involution"): (
            ("pair", "involution-pair"),
            ("eta", "eta"),
            ("adversary", "adversary"),
        ),
        ("channel", "serial"): (("stages", "channel"),),
        ("involution-pair", "pair"): (("up", "delay"), ("down", "delay")),
        ("delay", "shifted"): (("base", "delay"),),
        ("delay", "scaled"): (("base", "delay"),),
    }

    def __init__(self, ctx: CircuitContext) -> None:
        from ..specs import AdversarySpec, ChannelSpec, DelaySpec, eta_from_dict, pair_from_dict

        self.builders: Dict[str, Callable[[Any], Any]] = {
            "channel": lambda data: ChannelSpec.from_dict(data).build(),
            "adversary": lambda data: AdversarySpec.from_dict(data).build(),
            "delay": lambda data: DelaySpec.from_dict(data).build(),
            "involution-pair": pair_from_dict,
            "eta": eta_from_dict,
        }
        self.findings: Dict[str, List[Finding]] = {
            code: [] for code in ("REP101", "REP103", "REP104", "REP105", "REP106")
        }
        self.ok: List[Tuple[str, str, Any]] = []
        for i, edge in ctx.edges:
            channel = edge.get("channel")
            if isinstance(channel, Mapping):
                self._build(ctx.path(f"/edges/{i}/channel"), "channel", channel)

    def _parts(self, path: str, registry: str, data: Any) -> List[Tuple[str, str, Any]]:
        """``(path, registry, spec)`` of each sub-spec *data* holds."""
        kind = data.get("kind") if isinstance(data, Mapping) else None
        parts: List[Tuple[str, str, Any]] = []
        for key, part in self.PARTS.get((registry, kind), ()) if isinstance(kind, str) else ():
            value = data.get(key)
            if key != "stages":
                if key in data:  # else the builder's default, or its KeyError
                    parts.append((f"{path}/{key}", part, value))
            elif isinstance(value, list):
                parts += [(f"{path}/stages/{j}", part, stage) for j, stage in enumerate(value)]
        return parts

    def _build(self, path: str, registry: str, data: Any) -> bool:
        """Build *data*, placing its error as the class docstring says;
        True when it built."""
        from ..core.domain import DomainError
        from ..specs import BUILD_ERRORS, UnknownKindError

        try:
            self.builders[registry](data)
        except BUILD_ERRORS as exc:
            error = exc
        else:
            self._built(path, registry, data)
            return True
        if not all([self._build(*part) for part in self._parts(path, registry, data)]):
            return False  # the sub-specs' findings explain this spec's error
        if isinstance(error, UnknownKindError):
            code = self.UNKNOWN_KIND_RULES.get(error.registry, "REP105")
            self.findings[code].append((f"{path}/kind", str(error)))
        elif isinstance(error, DomainError):
            self.findings["REP106"].append((f"{path}/{error.param}", str(error)))
        elif isinstance(error, KeyError):
            message = f"{self.NOUNS[registry]} is missing required parameter {error}"
            self.findings["REP105"].append((path, message))
        else:
            message = f"{self.NOUNS[registry]} does not build: {error}"
            self.findings["REP105"].append((path, message))
        return False

    def _built(self, path: str, registry: str, data: Any) -> None:
        """Record *data* and the sub-specs that built with it."""
        self.ok.append((path, registry, data))
        for part in self._parts(path, registry, data):
            self._built(*part)


@_rule(
    "REP101",
    "unknown-channel-kind",
    Severity.ERROR,
    "circuit",
    "A channel spec uses an unregistered kind.",
)
def _check_unknown_channel_kind(ctx: CircuitContext) -> Iterator[Finding]:
    """Channel kinds must be registered (built-in or via
    ``repro.specs.register_channel_kind``): the channel registry's
    ``UnknownKindError``, reported at the spec's ``kind``.  Serial stages
    are built, and reported, one by one."""
    for i, edge in ctx.edges:
        if not isinstance(edge.get("channel"), Mapping):
            yield (
                ctx.path(f"/edges/{i}"),
                f"edge {ctx.edge_label(i, edge)} has no channel spec",
            )
    yield from ctx.specs.findings["REP101"]


@_rule(
    "REP102",
    "unknown-gate-type",
    Severity.ERROR,
    "circuit",
    "A gate references an unknown library gate or a malformed custom type.",
)
def _check_unknown_gate_type(ctx: CircuitContext) -> Iterator[Finding]:
    """Gate types are either a library name (``repro.circuits.gates``)
    or an inline ``{name, arity, table}`` truth table whose rows list
    ``arity`` inputs and the output, all 0 or 1.  ``GateType`` decides,
    and its error is reported at the node's ``type``."""
    yield from ctx.build.findings["REP102"]


@_rule(
    "REP103",
    "unknown-adversary-kind",
    Severity.ERROR,
    "circuit",
    "An eta channel's adversary uses an unregistered kind.",
)
def _check_unknown_adversary_kind(ctx: CircuitContext) -> Iterator[Finding]:
    """Adversary strategies must be registered (built-in or via
    ``repro.specs.register_adversary_kind``): the adversary registry's
    ``UnknownKindError``, reported at the adversary's ``kind``."""
    yield from ctx.specs.findings["REP103"]


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
    delay functions must use registered delay kinds: the
    ``UnknownKindError`` of ``pair_from_dict`` or the delay registry,
    reported at the spec's ``kind``."""
    yield from ctx.specs.findings["REP104"]


@_rule(
    "REP105",
    "invalid-channel-params",
    Severity.ERROR,
    "circuit",
    "A channel spec with known kinds fails to build.",
)
def _check_invalid_channel_params(ctx: CircuitContext) -> Iterator[Finding]:
    """The authoritative parameter check is the registered builder
    itself: every build error that is neither an unknown kind
    (REP101/REP103/REP104) nor an out-of-domain parameter (REP106) --
    a missing parameter, a value of the wrong type, a pair that is no
    involution -- is reported at the spec that does not build."""
    yield from ctx.specs.findings["REP105"]


@_rule(
    "REP106",
    "out-of-domain-params",
    Severity.ERROR,
    "circuit",
    "A channel parameter is outside its mathematical domain.",
)
def _check_out_of_domain_params(ctx: CircuitContext) -> Iterator[Finding]:
    """The channel, delay-function and adversary constructors own the
    domains under which the paper's results hold -- delays non-negative,
    time constants strictly positive, thresholds inside (0, 1), eta
    bounds non-negative, and NaN and +-inf rejected wherever a finite
    value is required.  A constructor raises ``DomainError`` naming the
    parameter, and this rule reports it at the parameter's pointer."""
    yield from ctx.specs.findings["REP106"]


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
    apply.  Pairs that do not build belong to REP104-REP106."""
    from ..specs import BUILD_ERRORS, pair_from_dict

    for path, registry, data in ctx.specs.ok:
        if registry != "involution-pair" or data.get("kind") != "pair":
            continue
        try:
            consistent = pair_from_dict(data).satisfies_involution()
        except BUILD_ERRORS:
            continue
        if not consistent:
            yield (
                path,
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
    if kind == "zero":
        return True
    if kind == "pure":
        delay = _num(channel.get("delay"))
        falling = _num(channel.get("falling_delay"))
        return delay == 0.0 and (falling is None or falling == 0.0)
    if kind == "inertial":
        return _num(channel.get("delay")) == 0.0
    if kind == "serial":
        stages = channel.get("stages")
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
    Netlists that do not load or build are skipped (REP009 and the
    REP0xx/REP1xx rules own those findings)."""
    from ..core.transitions import Signal
    from ..engine.sweep import Scenario
    from ..engine.vector import vector_capability
    from ..io.netlist import netlist_from_dict
    from ..specs import SpecError

    circuit = ctx.build.circuit
    if circuit is None:
        return
    try:
        netlist = netlist_from_dict(ctx.doc)
    except SpecError:
        return

    inputs = {
        port.name: netlist.inputs.get(port.name, Signal(port.initial_value, []))
        for port in circuit.input_ports()
    }
    end_time = netlist.end_time
    if end_time is None:
        end_time = max(
            [10.0] + [s.stabilization_time() + 1.0 for s in inputs.values() if len(s)]
        )
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
