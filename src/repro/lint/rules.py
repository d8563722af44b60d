"""The ``repro lint`` rule catalogue.

Every rule is registered with a stable code (``REPnnn``), a default
:class:`~repro.lint.diagnostics.Severity`, and a one-line summary; the
check function receives a :class:`CircuitContext` or
:class:`ExperimentContext` and yields ``(json_path, message)`` pairs.
Rules are pure and defensive: they must never raise on malformed input
(that is precisely the input they exist for), so every structural
access tolerates missing or mistyped fields and leaves reporting those
to the rule that owns them.

Lint keeps no copy of a builder's check and no graph of its own.  Each
document is decoded once by the netlist loader (REP009 reports its error)
and built once by ``CircuitSpec.build`` (:class:`CircuitBuild`):
REP001--REP006, REP008 and REP102 report the builder's errors, and
REP101 and REP103--REP106 the exceptions of the registered spec builders,
where one walker (:class:`SpecBuild`) builds the sub-specs of each
channel that did not build at their own JSON pointers.  The graph rules
(REP007, REP201, REP202, REP401) read the circuit the builder returns
through the engine's ``CircuitTopology`` and SCC pass, so a document
that does not build gets none of their findings.

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

from collections import defaultdict
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
    ``"/circuit"`` for a netlist envelope).  The document is decoded
    (:attr:`netlist`) and built (:attr:`build`) once, and every rule
    shares those views.
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
        raw_edges = circuit.get("edges")
        #: ``(index, edge-dict)`` for every well-typed edge entry.
        self.edges: List[Tuple[int, Mapping[str, Any]]] = [
            (i, e)
            for i, e in enumerate(raw_edges if isinstance(raw_edges, list) else [])
            if isinstance(e, Mapping)
        ]

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
    def netlist(self) -> Any:
        """The document decoded once by the netlist loader
        (``repro.io.netlist.netlist_from_dict``), or the ``SpecError`` it
        raised, which REP009 reports."""
        from ..io.netlist import netlist_from_dict
        from ..specs import SpecError

        try:
            return netlist_from_dict(self.doc)
        except SpecError as exc:
            return exc

    @cached_property
    def specs(self) -> "SpecBuild":
        """The sub-specs of every channel that did not build (see :class:`SpecBuild`)."""
        return SpecBuild(self)

    @cached_property
    def build(self) -> "CircuitBuild":
        """The document's circuit, built once (see :class:`CircuitBuild`)."""
        return CircuitBuild(self)

    @cached_property
    def topology(self) -> Any:
        """The engine's ``CircuitTopology`` of the built circuit, or None
        when the document does not build."""
        from ..engine.scheduler import CircuitTopology

        circuit = self.build.circuit
        return None if circuit is None else CircuitTopology(circuit)


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


# --------------------------------------------------------------------------- #
# REP0xx -- netlist structure
# --------------------------------------------------------------------------- #


class CircuitBuild:
    """The document's circuit, built once by ``CircuitSpec.build``.

    ``circuit`` is the circuit, or None when it does not build (or its
    skeleton does not decode, which is REP009's).  ``findings`` maps
    REP001--REP006, REP008, REP102 and REP105 to the builder's errors in
    document order, each at the field it names: the builder goes on past
    a node or edge that does not build and raises one error listing them
    all.  The error's type decides the rule, or else where it is located
    and the ``field`` it names (see :meth:`rule`).  ``channel_errors``
    maps the circuit-relative pointer of each edge whose channel spec
    does not build (``/edges/3``) to the spec builder's error; it is None
    when the skeleton does not decode, so no channel was built.
    """

    #: The rule of an edge's ``CircuitError``, by the field it names.
    EDGE_FIELDS = {
        "source": "REP003", "target": "REP003", "name": "REP005", "pin": "REP006", "channel": "REP105"
    }

    def __init__(self, ctx: CircuitContext) -> None:
        from ..specs import CircuitSpec, SpecError

        self.circuit: Any = None
        self.findings: Dict[str, List[Finding]] = defaultdict(list)
        self.channel_errors: Optional[Dict[str, BaseException]] = None
        if isinstance(ctx.netlist, SpecError):  # the envelope failed before the skeleton
            try:
                spec = CircuitSpec.from_dict(ctx.circuit)
            except SpecError:
                return
        else:
            spec = ctx.netlist.circuit
        self.channel_errors = {}
        try:
            self.circuit = spec.build()
        except SpecError as exc:
            for defect in exc.defects:
                code = self.rule(defect)
                if code is None:
                    self.channel_errors[defect.path] = defect.__cause__
                    continue
                field = getattr(defect.__cause__, "field", None)
                where = defect.path if field is None else f"{defect.path}/{field}"
                self.findings[code].append((ctx.path(where), str(defect)))

    @classmethod
    def rule(cls, defect: Any) -> Optional[str]:
        """The rule of one builder error, None for a channel spec's
        (REP101, REP103--REP106 report those through :class:`SpecBuild`)."""
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
    dead weight -- usually a typo in some edge's ``source``.  The rule
    reads the fan-out of the built circuit's topology, whose nodes are in
    document order."""
    topo = ctx.topology
    if topo is None:
        return
    for i, name in enumerate(topo.node_names):
        if name not in topo.is_output and not topo.edges_from[name]:
            noun = "gate" if name in topo.is_gate else "input port"
            yield (ctx.path(f"/nodes/{i}"), f"{noun} {name!r} drives nothing")


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
    from ..specs import SpecError

    error = ctx.netlist
    if isinstance(error, SpecError):
        yield (ctx.base if error.path is None else error.path, str(error))


# --------------------------------------------------------------------------- #
# REP1xx -- spec kinds and parameter domains
# --------------------------------------------------------------------------- #


class SpecBuild:
    """Every spec dict of every channel, placed by what its builder raises.

    ``CircuitSpec.build`` builds each channel once (:class:`CircuitBuild`
    records the errors).  A channel that builds is sound, and so are its
    sub-specs.  One that does not has each of its sub-specs -- ``pair``
    with its ``up`` and ``down`` (and a shifted or scaled delay's
    ``base``), ``eta``, ``adversary`` and serial ``stages`` -- built here
    at its own JSON pointer, recursively, and its own error counts only
    when they all built.  So one defect is one finding, and independent
    defects are all found.  When the circuit's skeleton does not decode,
    no channel was built, and each is built here.  What a builder raises
    decides the rule:

    * ``UnknownKindError`` -- REP101 (channel), REP103 (adversary) or
      REP104 (involution pair, delay), at ``.../kind``;
    * ``DomainError`` -- REP106, at ``.../<param>``;
    * any other build error -- REP105, at the spec.

    ``findings`` maps those codes to their findings in document order;
    ``pairs`` lists ``(path, pair)`` for every explicit
    ``{"kind": "pair"}`` involution pair that built, read from the object
    its builder returned: the built circuit's channel, or what this
    walker built.  A pair whose channel built inside a circuit that did
    not is gone with that circuit and is not listed.
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
        self.findings: Dict[str, List[Finding]] = defaultdict(list)
        self.pairs: List[Tuple[str, Any]] = []
        errors = ctx.build.channel_errors
        # A circuit that built wired every edge, in document order.
        wired = [] if ctx.build.circuit is None else list(ctx.build.circuit.edges.values())
        for i, edge in ctx.edges:
            channel = edge.get("channel")
            if not isinstance(channel, Mapping):
                continue
            path = ctx.path(f"/edges/{i}/channel")
            if errors is None:
                self._build(path, "channel", channel)
            elif f"/edges/{i}" in errors:
                self._failed(path, "channel", channel, errors[f"/edges/{i}"])
            else:
                self._built(path, "channel", channel, wired[i].channel if wired else None)

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
        from ..specs import BUILD_ERRORS

        try:
            built = self.builders[registry](data)
        except BUILD_ERRORS as exc:
            return self._failed(path, registry, data, exc)
        self._built(path, registry, data, built)
        return True

    def _failed(self, path: str, registry: str, data: Any, error: BaseException) -> bool:
        """Place the *error* building *data* raised, unless a sub-spec's
        finding explains it; False."""
        from ..core.domain import DomainError
        from ..specs import UnknownKindError

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

    def _built(self, path: str, registry: str, data: Any, built: Any) -> None:
        """Record the explicit pairs of *data*, read from *built*, the
        object its builder returned (None when it is gone)."""
        if built is None or not isinstance(data, Mapping):
            return
        kind = data.get("kind")
        if (registry, kind) == ("involution-pair", "pair"):
            self.pairs.append((path, built))
        for key, part in self.PARTS.get((registry, kind), ()) if isinstance(kind, str) else ():
            value = data.get(key)
            if key == "pair":
                self._built(f"{path}/pair", part, value, getattr(built, "pair", None))
            elif key == "stages" and isinstance(value, list):
                for j, (stage, channel) in enumerate(zip(value, getattr(built, "stages", ()))):
                    self._built(f"{path}/stages/{j}", part, stage, channel)


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
    involution -- is reported at the spec that does not build.  A channel
    that builds but has no single-history delay function (a ``serial``
    one) cannot sit on a circuit edge: ``Circuit.connect`` rejects it at
    the edge's ``channel``."""
    yield from ctx.build.findings["REP105"]
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
    apply.  The rule checks the pair ``CircuitSpec.build`` built into
    the circuit (or lint's walker built, for a channel that did not
    build) and builds none of its own; a pair whose channel built in a
    circuit that did not is checked once the circuit builds.  Pairs that
    do not build belong to REP104-REP106."""
    for path, pair in ctx.specs.pairs:
        if not pair.satisfies_involution():
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


def _cycles(ctx: CircuitContext, keep: Callable[[Any], bool]) -> Iterator[List[str]]:
    """The sorted node names of each cyclic component of the built
    circuit's graph through the edges whose channel *keep* accepts, by
    the engine's SCC pass (none when the document does not build)."""
    from ..engine.capability import cyclic_components

    topo = ctx.topology
    if topo is None:
        return
    out_edges = [[e for e in ids if keep(topo.edge_list[e].channel)] for ids in topo.out_edge_ids]
    for component in cyclic_components(len(topo.node_names), out_edges, topo.edge_target_id):
        yield sorted(topo.node_names[nid] for nid in component)


@_rule(
    "REP201",
    "zero-delay-cycle",
    Severity.ERROR,
    "circuit",
    "A cycle consists entirely of zero-delay edges.",
)
def _check_zero_delay_cycle(ctx: CircuitContext) -> Iterator[Finding]:
    """The paper's channels are strictly causal, so a loop of zero-delay
    channels (``zero``, ``pure`` with both delays 0, ``inertial`` with
    delay 0) lies outside the model.  The event-driven engine still runs
    one: a loop that settles finishes, and one that oscillates at a
    single timestamp is stopped with ``combinational (zero-delay) loop
    detected``."""
    from ..core.baselines import InertialDelayChannel, PureDelayChannel
    from ..core.channel import ZeroDelayChannel

    def zero_delay(channel: Any) -> bool:
        if isinstance(channel, PureDelayChannel):
            return channel.rising_delay == 0.0 == channel.falling_delay
        if isinstance(channel, InertialDelayChannel):
            return channel.delay == 0.0
        return isinstance(channel, ZeroDelayChannel)

    for names in _cycles(ctx, zero_delay):
        yield (
            ctx.path("/edges"),
            f"zero-delay cycle through nodes {names} (outside the model, whose "
            "channels are strictly causal; the engine runs a loop that settles "
            "and stops one that oscillates)",
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
    for names in _cycles(ctx, lambda channel: True):
        yield (
            ctx.path("/edges"),
            f"feedback loop through nodes {names} (runs on the event-driven "
            "engine or the vector backend's fixpoint schedule)",
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
    from ..specs import SpecError

    circuit, netlist = ctx.build.circuit, ctx.netlist
    if circuit is None or isinstance(netlist, SpecError):
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
        ctx.topology, [Scenario(name="lint", inputs=inputs, end_time=end_time)]
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
    "invalid-experiment-param",
    Severity.ERROR,
    "experiment",
    "An experiment spec passes a parameter its kind does not define, or a value of the wrong type.",
)
def _check_invalid_experiment_param(ctx: ExperimentContext) -> Iterator[Finding]:
    """An experiment kind's defaults are its closed parameter schema, and
    fix the JSON type of each boolean, integer, number and list
    parameter; each parameter ``ExperimentSpec.resolved`` rejects is one
    finding, so lint flags exactly what ``run_experiment`` would."""
    from ..specs import ExperimentSpec, SpecError, UnknownKindError

    try:
        ExperimentSpec(ctx.kind, ctx.params).resolved()
    except UnknownKindError:
        return  # REP501 owns unknown kinds
    except SpecError as exc:
        for defect in exc.defects or (exc,):
            yield (defect.path or "/", str(defect))
