"""Declarative, JSON-round-trippable specifications of the model's objects.

The paper's model is parametric by construction: involution pairs, eta
bounds and delay functions are plain numbers.  This module captures that
parametricity in immutable *spec* objects -- ``kind`` (a registry key) plus
``params`` (a JSON-compatible mapping) -- that can be serialized, hashed,
compared and shipped across process boundaries, in contrast to the opaque
``Callable[[], Channel]`` factory lambdas of the original API:

* :class:`DelaySpec` -- a delay function (``exp``, ``constant``, ``table``,
  ``shifted``, ``scaled``),
* :class:`AdversarySpec` -- an adversary strategy (``zero``, ``worst``,
  ``best``, ``decancel``, ``random``, ``sine``, ``sequence``),
* :class:`ChannelSpec` -- a channel, including its involution pair and eta
  bound (``zero``, ``pure``, ``inertial``, ``ddm``, ``involution``,
  ``eta_involution``, ``serial``),
* :class:`CircuitSpec` -- a whole circuit netlist (ordered nodes and edges
  with per-edge channel specs); ``Circuit.to_spec()`` /
  ``Circuit.from_spec()`` round-trip through it, and
  :mod:`repro.io.netlist` adds the JSON file format,
* :class:`ExperimentSpec` -- one of the paper's experiments (``theorem9``,
  ``lemma5``, ``fig7``, ``fig8``, ``fig9``, ``comparison``, ``scaling``,
  ``eta_coverage``) as a declarative, hashable parameter set; running one
  (:func:`repro.experiments.run_experiment` /
  :meth:`ExperimentSpec.run`) yields a provenance-carrying
  :class:`~repro.experiments.base.ExperimentResult` that the
  content-addressed artifact store (:mod:`repro.store`) caches by spec
  hash.

Node and edge *order* is part of a circuit spec: the engine's event-id tie
breaking follows insertion order, so preserving it is what makes a rebuilt
circuit execute bit-identically -- the property the sweep's process pool
(:func:`repro.engine.sweep.run_many`) relies on when it ships specs
instead of pickled circuit objects.

Every registry has an extension hook (:func:`register_channel_kind`,
:func:`register_delay_kind`, :func:`register_adversary_kind`,
:func:`register_experiment_kind`) so user-defined subclasses and
experiments can participate in spec round-trips.

The :func:`as_circuit` / :func:`as_channel` / :func:`as_channel_factory` /
:func:`as_pair` / :func:`as_eta` / :func:`as_adversary` coercion helpers
let every higher-level entry point (library builders, experiment drivers,
fitting, :mod:`repro.api`) accept either the live object or its spec.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from .core.adversary import (
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
from .core.baselines import (
    DegradationDelayChannel,
    InertialDelayChannel,
    PureDelayChannel,
)
from .core.channel import Channel, ZeroDelayChannel
from .core.composition import SerialChannel
from .core.delay_functions import (
    ConstantDelay,
    DelayFunction,
    ExpDelay,
    ScaledDelay,
    ShiftedDelay,
    TableDelay,
)
from .core.eta_channel import EtaInvolutionChannel
from .core.involution import InvolutionPair
from .core.involution_channel import InvolutionChannel

__all__ = [
    "SpecError",
    "BUILD_ERRORS",
    "located",
    "Spec",
    "DelaySpec",
    "AdversarySpec",
    "ChannelSpec",
    "CircuitSpec",
    "ExperimentSpec",
    "ExperimentKind",
    "register_delay_kind",
    "register_adversary_kind",
    "register_channel_kind",
    "register_experiment_kind",
    "experiment_kinds",
    "channel_kinds",
    "delay_kinds",
    "adversary_kinds",
    "get_experiment_kind",
    "pair_to_dict",
    "pair_from_dict",
    "eta_to_dict",
    "eta_from_dict",
    "as_circuit",
    "as_channel",
    "as_channel_factory",
    "as_pair",
    "as_eta",
    "as_adversary",
    "as_adversary_factory",
]


class SpecError(ValueError):
    """Raised for unknown kinds, malformed params, or objects with no spec."""


#: What building a spec raises on malformed input: a missing field
#: (KeyError), a value of the wrong type (TypeError, AttributeError) or an
#: out-of-domain value (ValueError, which SpecError and the core's
#: CircuitError, InvolutionError and SignalError all are).
BUILD_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def located(exc: Exception, where: str) -> SpecError:
    """*exc*, raised while decoding the document field *where*, as a
    :class:`SpecError` whose message ends with that location."""
    message = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return SpecError(f"{message} (at {where})")


# --------------------------------------------------------------------------- #
# Canonicalisation
# --------------------------------------------------------------------------- #


def _jsonify(value: Any) -> Any:
    """Deep-copy ``value`` into plain JSON-compatible Python containers."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SpecError(f"spec mapping keys must be strings, got {key!r}")
            out[key] = _jsonify(item)
        return out
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    # numpy scalars and anything else float-like
    try:
        import numpy as np

        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.ndarray):
            return [_jsonify(item) for item in value.tolist()]
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    raise SpecError(f"value {value!r} is not JSON-representable in a spec")


def _canonical_key(payload: Any) -> str:
    """Canonical JSON text used for spec equality and hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class Spec:
    """An immutable ``kind`` + ``params`` pair with value semantics.

    Two specs are equal iff their kind and (canonicalised) params are; the
    hash follows, so specs work as dict keys and dedup sets -- the two
    operations factory lambdas could never support.
    """

    __slots__ = ("kind", "params", "_key")

    def __init__(self, kind: str, params: Optional[Mapping[str, Any]] = None, **kw: Any) -> None:
        merged = dict(params or {})
        merged.update(kw)
        object.__setattr__(self, "kind", str(kind))
        object.__setattr__(self, "params", _jsonify(merged))
        # The canonical key only matters for equality/hashing; computing it
        # eagerly would put a json.dumps on every construction, which the
        # sweep runner pays per (scenario, edge) when fingerprinting
        # chunks.  Computed on first use instead (see _canonical).
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _canonical(self) -> str:
        key = self._key
        if key is None:
            key = _canonical_key({"kind": self.kind, "params": self.params})
            object.__setattr__(self, "_key", key)
        return key

    # -- serialisation --------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form ``{"kind": ..., **params}`` (JSON-compatible)."""
        out = {"kind": self.kind}
        # _jsonify deep-copies the (already canonicalised) params, so
        # callers can mutate the result freely -- and skips the JSON
        # dumps/loads round-trip this used to pay for the same copy.
        out.update(_jsonify(self.params))
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Spec":
        """Rebuild a spec from its :meth:`to_dict` form."""
        if "kind" not in data:
            raise SpecError(f"spec dict needs a 'kind' field, got {dict(data)!r}")
        params = {k: v for k, v in data.items() if k != "kind"}
        return cls(data["kind"], params)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Spec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # -- value semantics -------------------------------------------------- #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Spec):
            return NotImplemented
        return type(self) is type(other) and self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._canonical()))

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{type(self).__name__}({self.kind!r}, {params})"


# --------------------------------------------------------------------------- #
# Delay functions
# --------------------------------------------------------------------------- #

#: kind -> (builder(params) -> DelayFunction).
_DELAY_BUILDERS: Dict[str, Callable[[Mapping[str, Any]], DelayFunction]] = {}
#: exact delay-function class -> extractor(fn) -> params dict.
_DELAY_EXTRACTORS: Dict[Type[DelayFunction], Tuple[str, Callable[[DelayFunction], Dict[str, Any]]]] = {}


def register_delay_kind(
    kind: str,
    builder: Callable[[Mapping[str, Any]], DelayFunction],
    *,
    delay_class: Optional[Type[DelayFunction]] = None,
    extractor: Optional[Callable[[DelayFunction], Dict[str, Any]]] = None,
    replace: bool = False,
) -> None:
    """Register a delay-function kind (the extension hook for user kinds).

    ``builder`` maps a params mapping to a :class:`DelayFunction`;
    ``delay_class`` + ``extractor`` (optional) enable the reverse
    ``to_spec`` direction for instances of that exact class.
    """
    if kind in _DELAY_BUILDERS and not replace:
        raise SpecError(f"delay kind {kind!r} is already registered")
    _DELAY_BUILDERS[kind] = builder
    if delay_class is not None:
        if extractor is None:
            raise SpecError("delay_class requires an extractor")
        _DELAY_EXTRACTORS[delay_class] = (kind, extractor)


class DelaySpec(Spec):
    """Declarative description of a :class:`~repro.core.delay_functions.DelayFunction`."""

    def build(self) -> DelayFunction:
        """Instantiate the delay function this spec describes."""
        try:
            builder = _DELAY_BUILDERS[self.kind]
        except KeyError:
            raise SpecError(
                f"unknown delay kind {self.kind!r}; registered: "
                f"{sorted(_DELAY_BUILDERS)}"
            ) from None
        return builder(self.params)

    @classmethod
    def from_delay(cls, fn: DelayFunction) -> "DelaySpec":
        """Extract the spec of a delay-function instance (exact-class match)."""
        try:
            kind, extractor = _DELAY_EXTRACTORS[type(fn)]
        except KeyError:
            raise SpecError(
                f"no spec kind registered for delay function {type(fn).__name__}; "
                "register one via repro.specs.register_delay_kind"
            ) from None
        return cls(kind, extractor(fn))


def _build_exp(params: Mapping[str, Any]) -> ExpDelay:
    return ExpDelay(
        float(params["tau"]),
        float(params["t_p"]),
        float(params.get("v_th", 0.5)),
        rising=bool(params.get("rising", True)),
    )


def _build_table(params: Mapping[str, Any]) -> TableDelay:
    return TableDelay(
        [float(t) for t in params["T_samples"]],
        [float(d) for d in params["delta_samples"]],
        None if params.get("delta_inf") is None else float(params["delta_inf"]),
    )


register_delay_kind(
    "exp",
    _build_exp,
    delay_class=ExpDelay,
    extractor=lambda fn: {
        "tau": fn.tau,
        "t_p": fn.t_p,
        "v_th": fn.v_th,
        "rising": fn.rising,
    },
)
register_delay_kind(
    "constant",
    lambda p: ConstantDelay(float(p["delay"])),
    delay_class=ConstantDelay,
    extractor=lambda fn: {"delay": fn.delay},
)
register_delay_kind(
    "table",
    _build_table,
    delay_class=TableDelay,
    extractor=lambda fn: {
        "T_samples": [float(t) for t in fn.T_samples],
        "delta_samples": [float(d) for d in fn.delta_samples],
        "delta_inf": fn.delta_inf(),
    },
)
register_delay_kind(
    "shifted",
    lambda p: ShiftedDelay(
        DelaySpec.from_dict(p["base"]).build(),
        float(p.get("shift_T", 0.0)),
        float(p.get("shift_delta", 0.0)),
    ),
    delay_class=ShiftedDelay,
    extractor=lambda fn: {
        "base": DelaySpec.from_delay(fn.base).to_dict(),
        "shift_T": fn.shift_T,
        "shift_delta": fn.shift_delta,
    },
)
register_delay_kind(
    "scaled",
    lambda p: ScaledDelay(DelaySpec.from_dict(p["base"]).build(), float(p["scale"])),
    delay_class=ScaledDelay,
    extractor=lambda fn: {
        "base": DelaySpec.from_delay(fn.base).to_dict(),
        "scale": fn.scale,
    },
)


# --------------------------------------------------------------------------- #
# Involution pairs and eta bounds
# --------------------------------------------------------------------------- #


def pair_to_dict(pair: InvolutionPair) -> Dict[str, Any]:
    """Serialise an involution pair.

    The exp-channel case (the paper's workhorse) collapses to its three
    physical parameters; any other pair serialises its two delay functions
    individually (rebuilt without re-validation, matching
    :meth:`InvolutionPair.from_samples`).
    """
    up, down = pair.delta_up, pair.delta_down
    if (
        isinstance(up, ExpDelay)
        and isinstance(down, ExpDelay)
        and up.rising
        and not down.rising
        and (up.tau, up.t_p, up.v_th) == (down.tau, down.t_p, down.v_th)
    ):
        return {"kind": "exp", "tau": up.tau, "t_p": up.t_p, "v_th": up.v_th}
    return {
        "kind": "pair",
        "up": DelaySpec.from_delay(up).to_dict(),
        "down": DelaySpec.from_delay(down).to_dict(),
    }


def pair_from_dict(data: Mapping[str, Any]) -> InvolutionPair:
    """Rebuild an involution pair from :func:`pair_to_dict` output."""
    kind = data.get("kind")
    if kind == "exp":
        return InvolutionPair.exp_channel(
            float(data["tau"]), float(data["t_p"]), float(data.get("v_th", 0.5))
        )
    if kind == "pair":
        return InvolutionPair(
            DelaySpec.from_dict(data["up"]).build(),
            DelaySpec.from_dict(data["down"]).build(),
            validate=False,
        )
    raise SpecError(f"unknown involution-pair kind {kind!r}")


def eta_to_dict(eta: EtaBound) -> Dict[str, float]:
    """Serialise an eta bound."""
    return {"eta_plus": eta.eta_plus, "eta_minus": eta.eta_minus}


def eta_from_dict(data: Mapping[str, Any]) -> EtaBound:
    """Rebuild an eta bound from :func:`eta_to_dict` output.

    Raises :class:`SpecError` naming the field when a bound is negative,
    infinite or NaN.
    """
    eta_plus, eta_minus = float(data["eta_plus"]), float(data["eta_minus"])
    try:
        return EtaBound(eta_plus, eta_minus)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


# --------------------------------------------------------------------------- #
# Adversaries
# --------------------------------------------------------------------------- #

_ADVERSARY_BUILDERS: Dict[str, Callable[[Mapping[str, Any]], Adversary]] = {}
_ADVERSARY_EXTRACTORS: Dict[Type[Adversary], Tuple[str, Callable[[Adversary], Dict[str, Any]]]] = {}


def register_adversary_kind(
    kind: str,
    builder: Callable[[Mapping[str, Any]], Adversary],
    *,
    adversary_class: Optional[Type[Adversary]] = None,
    extractor: Optional[Callable[[Adversary], Dict[str, Any]]] = None,
    replace: bool = False,
) -> None:
    """Register an adversary kind (the extension hook for user strategies)."""
    if kind in _ADVERSARY_BUILDERS and not replace:
        raise SpecError(f"adversary kind {kind!r} is already registered")
    _ADVERSARY_BUILDERS[kind] = builder
    if adversary_class is not None:
        if extractor is None:
            raise SpecError("adversary_class requires an extractor")
        _ADVERSARY_EXTRACTORS[adversary_class] = (kind, extractor)


class AdversarySpec(Spec):
    """Declarative description of an :class:`~repro.core.adversary.Adversary`."""

    def build(self) -> Adversary:
        """Instantiate the adversary this spec describes."""
        try:
            builder = _ADVERSARY_BUILDERS[self.kind]
        except KeyError:
            raise SpecError(
                f"unknown adversary kind {self.kind!r}; registered: "
                f"{sorted(_ADVERSARY_BUILDERS)}"
            ) from None
        return builder(self.params)

    @classmethod
    def from_adversary(cls, adversary: Adversary) -> "AdversarySpec":
        """Extract the spec of an adversary instance (exact-class match)."""
        try:
            kind, extractor = _ADVERSARY_EXTRACTORS[type(adversary)]
        except KeyError:
            raise SpecError(
                f"no spec kind registered for adversary {type(adversary).__name__}; "
                "register one via repro.specs.register_adversary_kind"
            ) from None
        return cls(kind, extractor(adversary))


def _seed_to_json(seed: Any) -> Any:
    """Serialise a RandomAdversary seed (int, None, or numpy SeedSequence)."""
    if seed is None or isinstance(seed, int):
        return seed
    import numpy as np

    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = [int(e) for e in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        return {"entropy": entropy, "spawn_key": [int(k) for k in seed.spawn_key]}
    raise SpecError(f"cannot serialise adversary seed {seed!r}")


def _seed_from_json(data: Any) -> Any:
    if data is None or isinstance(data, int):
        return data
    import numpy as np

    return np.random.SeedSequence(
        data["entropy"], spawn_key=tuple(data.get("spawn_key", ()))
    )


register_adversary_kind(
    "zero", lambda p: ZeroAdversary(), adversary_class=ZeroAdversary, extractor=lambda a: {}
)
register_adversary_kind(
    "worst",
    lambda p: WorstCaseAdversary(),
    adversary_class=WorstCaseAdversary,
    extractor=lambda a: {},
)
register_adversary_kind(
    "best",
    lambda p: BestCaseAdversary(),
    adversary_class=BestCaseAdversary,
    extractor=lambda a: {},
)
register_adversary_kind(
    "decancel",
    lambda p: DeCancelAdversary(),
    adversary_class=DeCancelAdversary,
    extractor=lambda a: {},
)
register_adversary_kind(
    "random",
    lambda p: RandomAdversary(
        seed=_seed_from_json(p.get("seed")),
        distribution=str(p.get("distribution", "uniform")),
        sigma_fraction=float(p.get("sigma_fraction", 0.5)),
    ),
    adversary_class=RandomAdversary,
    extractor=lambda a: {
        "seed": _seed_to_json(a._seed),
        "distribution": a.distribution,
        "sigma_fraction": a.sigma_fraction,
    },
)
register_adversary_kind(
    "sine",
    lambda p: SineAdversary(
        float(p["period"]),
        float(p.get("phase", 0.0)),
        float(p.get("amplitude_fraction", 1.0)),
    ),
    adversary_class=SineAdversary,
    extractor=lambda a: {
        "period": a.period,
        "phase": a.phase,
        "amplitude_fraction": a.amplitude_fraction,
    },
)
register_adversary_kind(
    "sequence",
    lambda p: SequenceAdversary(
        [float(s) for s in p["shifts"]],
        fill=float(p.get("fill", 0.0)),
        clip=bool(p.get("clip", False)),
    ),
    adversary_class=SequenceAdversary,
    extractor=lambda a: {"shifts": a.shifts, "fill": a.fill, "clip": a.clip_values},
)


# --------------------------------------------------------------------------- #
# Channels
# --------------------------------------------------------------------------- #

_CHANNEL_BUILDERS: Dict[str, Callable[[Mapping[str, Any]], Channel]] = {}
_CHANNEL_EXTRACTORS: Dict[Type[Channel], Tuple[str, Callable[[Channel], Dict[str, Any]]]] = {}


def register_channel_kind(
    kind: str,
    builder: Callable[[Mapping[str, Any]], Channel],
    *,
    channel_class: Optional[Type[Channel]] = None,
    extractor: Optional[Callable[[Channel], Dict[str, Any]]] = None,
    replace: bool = False,
) -> None:
    """Register a channel kind (the extension hook for user-defined channels).

    ``builder`` maps a params mapping to a fresh :class:`Channel` instance;
    ``channel_class`` + ``extractor`` (optional) enable ``to_spec`` for
    instances of that exact class, which is what lets circuits containing
    the custom channel ride the sweep's process pool and the JSON netlist
    format.
    """
    if kind in _CHANNEL_BUILDERS and not replace:
        raise SpecError(f"channel kind {kind!r} is already registered")
    _CHANNEL_BUILDERS[kind] = builder
    if channel_class is not None:
        if extractor is None:
            raise SpecError("channel_class requires an extractor")
        _CHANNEL_EXTRACTORS[channel_class] = (kind, extractor)


class ChannelSpec(Spec):
    """Declarative description of a :class:`~repro.core.channel.Channel`.

    ``build()`` always returns a *fresh* instance, so one spec can safely
    populate many edges (the role channel factories used to play) without
    any shared mutable adversary/RNG state.
    """

    def build(self) -> Channel:
        """Instantiate a fresh channel from this spec."""
        try:
            builder = _CHANNEL_BUILDERS[self.kind]
        except KeyError:
            raise SpecError(
                f"unknown channel kind {self.kind!r}; registered: "
                f"{sorted(_CHANNEL_BUILDERS)}"
            ) from None
        channel = builder(self.params)
        name = self.params.get("name")
        if name is not None:
            channel.name = name
        return channel

    @classmethod
    def from_channel(cls, channel: Channel) -> "ChannelSpec":
        """Extract the spec of a channel instance (exact-class match)."""
        try:
            kind, extractor = _CHANNEL_EXTRACTORS[type(channel)]
        except KeyError:
            raise SpecError(
                f"no spec kind registered for channel {type(channel).__name__}; "
                "register one via repro.specs.register_channel_kind or pass "
                "a factory callable to the circuit builders"
            ) from None
        params = extractor(channel)
        if channel.name != type(channel).__name__:
            params.setdefault("name", channel.name)
        return cls(kind, params)

    # -- common constructors ------------------------------------------------ #

    @classmethod
    def exp_involution(
        cls, tau: float, t_p: float, v_th: float = 0.5, *, inverting: bool = False
    ) -> "ChannelSpec":
        """Spec of a deterministic exp involution channel."""
        return cls(
            "involution",
            pair={"kind": "exp", "tau": tau, "t_p": t_p, "v_th": v_th},
            inverting=inverting,
        )

    @classmethod
    def exp_eta_involution(
        cls,
        tau: float,
        t_p: float,
        eta: "EtaBound | Mapping[str, float] | Tuple[float, float]",
        v_th: float = 0.5,
        *,
        adversary: Optional["Adversary | AdversarySpec | Mapping[str, Any]"] = None,
        inverting: bool = False,
    ) -> "ChannelSpec":
        """Spec of an eta-perturbed exp involution channel."""
        adv_dict = {"kind": "zero"}
        if adversary is not None:
            if isinstance(adversary, AdversarySpec):
                adv_dict = adversary.to_dict()
            elif isinstance(adversary, Adversary):
                adv_dict = AdversarySpec.from_adversary(adversary).to_dict()
            else:
                adv_dict = dict(adversary)
        return cls(
            "eta_involution",
            pair={"kind": "exp", "tau": tau, "t_p": t_p, "v_th": v_th},
            eta=eta_to_dict(as_eta(eta)),
            adversary=adv_dict,
            inverting=inverting,
        )


def _common(params: Mapping[str, Any]) -> Dict[str, Any]:
    return {"inverting": bool(params.get("inverting", False)), "name": params.get("name")}


register_channel_kind(
    "zero",
    lambda p: ZeroDelayChannel(**_common(p)),
    channel_class=ZeroDelayChannel,
    extractor=lambda c: {"inverting": c.inverting},
)
register_channel_kind(
    "pure",
    lambda p: PureDelayChannel(
        float(p["delay"]),
        None if p.get("falling_delay") is None else float(p["falling_delay"]),
        **_common(p),
    ),
    channel_class=PureDelayChannel,
    extractor=lambda c: {
        "delay": c.rising_delay,
        "falling_delay": c.falling_delay,
        "inverting": c.inverting,
    },
)
register_channel_kind(
    "inertial",
    lambda p: InertialDelayChannel(float(p["delay"]), float(p["window"]), **_common(p)),
    channel_class=InertialDelayChannel,
    extractor=lambda c: {"delay": c.delay, "window": c.window, "inverting": c.inverting},
)
register_channel_kind(
    "ddm",
    lambda p: DegradationDelayChannel(
        float(p["delta_nominal"]),
        float(p["tau_deg"]),
        float(p.get("T0", 0.0)),
        **_common(p),
    ),
    channel_class=DegradationDelayChannel,
    extractor=lambda c: {
        "delta_nominal": c.delta_nominal,
        "tau_deg": c.tau_deg,
        "T0": c.T0,
        "inverting": c.inverting,
    },
)
register_channel_kind(
    "involution",
    lambda p: InvolutionChannel(
        pair_from_dict(p["pair"]),
        guard_domain=bool(p.get("guard_domain", True)),
        **_common(p),
    ),
    channel_class=InvolutionChannel,
    extractor=lambda c: {
        "pair": pair_to_dict(c.pair),
        "guard_domain": c.guard_domain,
        "inverting": c.inverting,
    },
)
register_channel_kind(
    "eta_involution",
    lambda p: EtaInvolutionChannel(
        pair_from_dict(p["pair"]),
        eta_from_dict(p["eta"]),
        AdversarySpec.from_dict(p.get("adversary", {"kind": "zero"})).build(),
        **_common(p),
    ),
    channel_class=EtaInvolutionChannel,
    extractor=lambda c: {
        "pair": pair_to_dict(c.pair),
        "eta": eta_to_dict(c.eta),
        "adversary": AdversarySpec.from_adversary(c.adversary).to_dict(),
        "inverting": c.inverting,
    },
)
register_channel_kind(
    "serial",
    lambda p: SerialChannel(
        [ChannelSpec.from_dict(s).build() for s in p["stages"]], name=p.get("name")
    ),
    channel_class=SerialChannel,
    extractor=lambda c: {
        "stages": [ChannelSpec.from_channel(s).to_dict() for s in c.stages]
    },
)


# --------------------------------------------------------------------------- #
# Gate types
# --------------------------------------------------------------------------- #


def _gate_type_to_spec(gate_type) -> Any:
    """Serialise a gate type: a library name, or name + arity + truth table."""
    from .circuits.gates import GATE_LIBRARY

    library = GATE_LIBRARY.get(gate_type.name)
    if library is not None and library.truth_table() == gate_type.truth_table():
        return gate_type.name
    return {
        "name": gate_type.name,
        "arity": gate_type.arity,
        "table": [
            [*row, out] for row, out in sorted(gate_type.truth_table().items())
        ],
    }


def _gate_type_from_spec(data: Any):
    from .circuits.gates import GATE_LIBRARY, GateType

    if isinstance(data, str):
        try:
            return GATE_LIBRARY[data]
        except KeyError:
            raise SpecError(
                f"unknown library gate {data!r}; known: {sorted(GATE_LIBRARY)}"
            ) from None
    table = {tuple(row[:-1]): row[-1] for row in data["table"]}
    return GateType.from_truth_table(data["name"], int(data["arity"]), table)


# --------------------------------------------------------------------------- #
# Circuits
# --------------------------------------------------------------------------- #


class CircuitSpec:
    """Declarative netlist of a circuit: ordered nodes, ordered edges.

    Node dicts are ``{"kind": "input", "name", "initial_value"}``,
    ``{"kind": "output", "name"}`` or ``{"kind": "gate", "name", "type",
    "initial_value"}``; edge dicts are ``{"name", "source", "target",
    "pin", "channel": <channel-spec dict>}``.  Order is significant (see
    the module docstring) and preserved by :meth:`build`.
    """

    __slots__ = ("name", "nodes", "edges", "_key")

    def __init__(
        self,
        name: str,
        nodes: Sequence[Mapping[str, Any]],
        edges: Sequence[Mapping[str, Any]],
    ) -> None:
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "nodes", _jsonify(list(nodes)))
        object.__setattr__(self, "edges", _jsonify(list(edges)))
        object.__setattr__(self, "_key", _canonical_key(self.to_dict()))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("CircuitSpec is immutable")

    # -- construction ------------------------------------------------------ #

    @classmethod
    def from_circuit(cls, circuit) -> "CircuitSpec":
        """Extract the spec of a live circuit (``Circuit.to_spec`` delegate).

        Raises :class:`SpecError` if any edge channel or gate type has no
        registered spec kind.
        """
        from .circuits.circuit import GateInstance, InputPort, OutputPort

        nodes: List[Dict[str, Any]] = []
        for node in circuit.nodes.values():
            if isinstance(node, InputPort):
                nodes.append(
                    {"kind": "input", "name": node.name, "initial_value": node.initial_value}
                )
            elif isinstance(node, OutputPort):
                nodes.append({"kind": "output", "name": node.name})
            elif isinstance(node, GateInstance):
                nodes.append(
                    {
                        "kind": "gate",
                        "name": node.name,
                        "type": _gate_type_to_spec(node.gate_type),
                        "initial_value": node.initial_value,
                    }
                )
            else:  # pragma: no cover - defensive
                raise SpecError(f"unknown node type {type(node).__name__}")
        edges: List[Dict[str, Any]] = []
        for edge in circuit.edges.values():
            edges.append(
                {
                    "name": edge.name,
                    "source": edge.source,
                    "target": edge.target,
                    "pin": edge.pin,
                    "channel": ChannelSpec.from_channel(edge.channel).to_dict(),
                }
            )
        return cls(circuit.name, nodes, edges)

    def build(self):
        """Instantiate the circuit (``Circuit.from_spec`` delegate)."""
        from .circuits.circuit import Circuit

        circuit = Circuit(self.name)
        for i, node in enumerate(self.nodes):
            try:
                if not isinstance(node, Mapping):
                    raise SpecError(f"node is not an object: {node!r}")
                kind = node.get("kind")
                if kind == "input":
                    circuit.add_input(node["name"], int(node.get("initial_value", 0)))
                elif kind == "output":
                    circuit.add_output(node["name"])
                elif kind == "gate":
                    circuit.add_gate(
                        node["name"],
                        _gate_type_from_spec(node["type"]),
                        int(node.get("initial_value", 0)),
                    )
                else:
                    raise SpecError(f"unknown node kind {kind!r} in circuit spec")
            except BUILD_ERRORS as exc:
                raise located(exc, f"/nodes/{i}") from exc
        for i, edge in enumerate(self.edges):
            try:
                if not isinstance(edge, Mapping):
                    raise SpecError(f"edge is not an object: {edge!r}")
                circuit.connect(
                    edge["source"],
                    edge["target"],
                    ChannelSpec.from_dict(edge["channel"]).build(),
                    pin=int(edge.get("pin", 0)),
                    name=edge.get("name"),
                )
            except BUILD_ERRORS as exc:
                raise located(exc, f"/edges/{i}") from exc
        return circuit

    # -- serialisation ------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-compatible) form of the spec."""
        return {"name": self.name, "nodes": self.nodes, "edges": self.edges}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CircuitSpec":
        """Rebuild a circuit spec from its :meth:`to_dict` form.

        Raises :class:`SpecError` for a missing field or a ``nodes`` /
        ``edges`` value that is not a list; :meth:`build` reports a
        malformed node or edge with its location.
        """
        try:
            name, nodes, edges = data["name"], data["nodes"], data["edges"]
        except KeyError as exc:
            raise SpecError(f"circuit spec dict is missing field {exc}") from None
        for field_name, value in (("nodes", nodes), ("edges", edges)):
            if not isinstance(value, (list, tuple)):
                raise SpecError(
                    f"circuit spec field {field_name!r} is not a list: {value!r} "
                    f"(at /{field_name})"
                )
        return cls(name, nodes, edges)

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """JSON text of :meth:`to_dict` (see :mod:`repro.io.netlist` for files)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CircuitSpec":
        """Rebuild a circuit spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # -- value semantics ---------------------------------------------------- #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CircuitSpec):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(("CircuitSpec", self._key))

    def __repr__(self) -> str:
        return (
            f"CircuitSpec(name={self.name!r}, nodes={len(self.nodes)}, "
            f"edges={len(self.edges)})"
        )


# --------------------------------------------------------------------------- #
# Coercion helpers (spec-or-object arguments)
# --------------------------------------------------------------------------- #


def as_circuit(obj):
    """Coerce a Circuit, CircuitSpec, or circuit-spec dict to a Circuit."""
    from .circuits.circuit import Circuit

    if isinstance(obj, Circuit):
        return obj
    if isinstance(obj, CircuitSpec):
        return obj.build()
    if isinstance(obj, Mapping):
        return CircuitSpec.from_dict(obj).build()
    raise SpecError(f"cannot interpret {type(obj).__name__} as a circuit")


def as_channel(obj) -> Channel:
    """Coerce a Channel, ChannelSpec, or channel-spec dict to a fresh Channel."""
    if isinstance(obj, Channel):
        return obj
    if isinstance(obj, ChannelSpec):
        return obj.build()
    if isinstance(obj, Mapping):
        return ChannelSpec.from_dict(obj).build()
    raise SpecError(f"cannot interpret {type(obj).__name__} as a channel")


def as_channel_factory(obj) -> Callable[[], Channel]:
    """Coerce a factory callable, ChannelSpec, or spec dict to a factory.

    Library builders accept either a spec or a factory callable (a test's
    fake channel that has no spec) and normalise through here.
    A channel *instance* is coerced through its spec (every edge must get
    a fresh, unshared channel) -- channels are callable, so without this
    they would be mistaken for factories and fail far from the call site.
    """
    if isinstance(obj, ChannelSpec):
        return obj.build
    if isinstance(obj, Channel):
        return ChannelSpec.from_channel(obj).build
    if isinstance(obj, Mapping):
        return ChannelSpec.from_dict(obj).build
    if callable(obj):
        return obj
    raise SpecError(f"cannot interpret {type(obj).__name__} as a channel factory")


def as_pair(obj) -> InvolutionPair:
    """Coerce an InvolutionPair or pair-spec dict to an InvolutionPair."""
    if isinstance(obj, InvolutionPair):
        return obj
    if isinstance(obj, Mapping):
        return pair_from_dict(obj)
    raise SpecError(f"cannot interpret {type(obj).__name__} as an involution pair")


def as_eta(obj) -> EtaBound:
    """Coerce an EtaBound, ``{"eta_plus", "eta_minus"}`` dict, or 2-tuple."""
    if isinstance(obj, EtaBound):
        return obj
    if isinstance(obj, Mapping):
        return eta_from_dict(obj)
    if isinstance(obj, (tuple, list)) and len(obj) == 2:
        return EtaBound(float(obj[0]), float(obj[1]))
    raise SpecError(f"cannot interpret {type(obj).__name__} as an eta bound")


def as_adversary(obj) -> Adversary:
    """Coerce an Adversary, AdversarySpec, or adversary-spec dict."""
    if isinstance(obj, Adversary):
        return obj
    if isinstance(obj, AdversarySpec):
        return obj.build()
    if isinstance(obj, Mapping):
        return AdversarySpec.from_dict(obj).build()
    raise SpecError(f"cannot interpret {type(obj).__name__} as an adversary")


def as_adversary_factory(obj) -> Callable[[], Adversary]:
    """Coerce a factory callable, AdversarySpec, or spec dict to a factory."""
    if isinstance(obj, AdversarySpec):
        return obj.build
    if isinstance(obj, Mapping):
        return AdversarySpec.from_dict(obj).build
    if callable(obj):
        return obj
    raise SpecError(f"cannot interpret {type(obj).__name__} as an adversary factory")


# --------------------------------------------------------------------------- #
# Experiments
# --------------------------------------------------------------------------- #
# The experiments registry mirrors the channel/delay/adversary registries,
# but the registered object is richer: a runner callable plus a description
# and the kind's default parameters.  The built-in kinds live in
# :mod:`repro.experiments` (and :mod:`repro.fitting.eta_coverage`) and
# register themselves on import; the registry lazily imports them on first
# lookup so `ExperimentSpec("theorem9").run()` works without the caller
# importing anything else.


class ExperimentKind:
    """One registered experiment kind: runner + description + defaults.

    ``runner(params, context)`` receives the fully resolved (defaults
    merged, JSON-canonical) parameter dict plus an
    :class:`~repro.experiments.base.ExperimentContext` carrying the
    execution knobs that must *not* influence the produced numbers
    (backend, worker count), and returns an
    :class:`~repro.experiments.base.ExperimentOutcome`.
    """

    __slots__ = ("kind", "runner", "description", "defaults")

    def __init__(
        self,
        kind: str,
        runner: Callable[..., Any],
        description: str = "",
        defaults: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.kind = str(kind)
        self.runner = runner
        self.description = str(description)
        self.defaults = _jsonify(dict(defaults or {}))

    def __repr__(self) -> str:
        return f"ExperimentKind({self.kind!r})"


_EXPERIMENT_KINDS: Dict[str, ExperimentKind] = {}
_BUILTIN_EXPERIMENTS_LOADED = False


def register_experiment_kind(
    kind: str,
    runner: Callable[..., Any],
    *,
    description: str = "",
    defaults: Optional[Mapping[str, Any]] = None,
    replace: bool = False,
) -> None:
    """Register an experiment kind (the extension hook for user experiments).

    ``defaults`` must be JSON-representable and is the kind's *closed
    parameter schema*: every parameter the runner accepts must appear in
    it (use ``None`` as the default of required/optional-without-value
    parameters), and :meth:`ExperimentSpec.resolved` rejects params
    outside it.  Defaults are merged under the spec's explicit params, so
    two specs differing only in spelled-out defaults hash -- and therefore
    cache -- identically.
    """
    if kind in _EXPERIMENT_KINDS and not replace:
        raise SpecError(f"experiment kind {kind!r} is already registered")
    _EXPERIMENT_KINDS[kind] = ExperimentKind(kind, runner, description, defaults)


def _load_builtin_experiments() -> None:
    """Import the modules that register the built-in experiment kinds.

    The loaded flag is only set after a *successful* import: a failed
    built-in import (broken dependency) must surface again on the next
    lookup instead of leaving a silently partial registry.
    """
    global _BUILTIN_EXPERIMENTS_LOADED
    if _BUILTIN_EXPERIMENTS_LOADED:
        return
    import importlib

    importlib.import_module("repro.experiments")
    _BUILTIN_EXPERIMENTS_LOADED = True


def channel_kinds() -> List[str]:
    """Sorted names of all registered channel kinds."""
    return sorted(_CHANNEL_BUILDERS)


def delay_kinds() -> List[str]:
    """Sorted names of all registered delay-function kinds."""
    return sorted(_DELAY_BUILDERS)


def adversary_kinds() -> List[str]:
    """Sorted names of all registered adversary kinds."""
    return sorted(_ADVERSARY_BUILDERS)


def experiment_kinds() -> List[str]:
    """Sorted names of all registered experiment kinds."""
    _load_builtin_experiments()
    return sorted(_EXPERIMENT_KINDS)


def get_experiment_kind(kind: str) -> ExperimentKind:
    """Look up a registered experiment kind, loading the built-ins if needed."""
    if kind not in _EXPERIMENT_KINDS:
        _load_builtin_experiments()
    try:
        return _EXPERIMENT_KINDS[kind]
    except KeyError:
        raise SpecError(
            f"unknown experiment kind {kind!r}; registered: "
            f"{sorted(_EXPERIMENT_KINDS)}"
        ) from None


class ExperimentSpec(Spec):
    """Declarative description of one experiment run.

    ``kind`` names a registered experiment, ``params`` overrides its
    defaults; both are JSON values, so an experiment -- like a circuit --
    can be stored, diffed, hashed and shipped across processes.  The spec
    hash of the *resolved* form (defaults merged) is the artifact-store
    cache key (:mod:`repro.store`).
    """

    def kind_info(self) -> ExperimentKind:
        """The registered :class:`ExperimentKind` this spec refers to."""
        return get_experiment_kind(self.kind)

    def resolved(self) -> "ExperimentSpec":
        """This spec with the kind's defaults merged under its params.

        Unknown parameter names raise :class:`SpecError` (misspelled
        params silently falling back to defaults would defeat the point of
        a declarative experiment definition); the kind's ``defaults`` are
        the closed parameter schema.  Integer spellings of float-typed
        parameters are promoted (``end_time=200`` and ``end_time=200.0``
        resolve -- and therefore hash and cache -- identically).
        """
        info = self.kind_info()
        unknown = sorted(set(self.params) - set(info.defaults))
        if unknown:
            raise SpecError(
                f"unknown parameter(s) {unknown} for experiment kind "
                f"{self.kind!r}; known: {sorted(info.defaults)}"
            )
        merged = dict(info.defaults)
        for name, value in self.params.items():
            default = info.defaults.get(name)
            if (
                isinstance(default, float)
                and isinstance(value, int)
                and not isinstance(value, bool)
            ):
                value = float(value)
            merged[name] = value
        resolved = ExperimentSpec(self.kind, merged)
        # Plain dict equality would call 200 == 200.0 equal; the canonical
        # JSON key is what hashing/caching use, so compare that instead.
        return self if resolved._canonical() == self._canonical() else resolved

    def run(self, **kwargs):
        """Run this experiment (delegate to :func:`repro.experiments.run_experiment`)."""
        from .experiments.base import run_experiment

        return run_experiment(self, **kwargs)
