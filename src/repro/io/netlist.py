"""JSON netlist import/export for circuit specs.

A *netlist file* is the on-disk form of a :class:`repro.specs.CircuitSpec`
plus (optionally) a default stimulus and horizon, so a single JSON file is
a complete, runnable experiment definition::

    {
      "format": "repro-netlist",
      "version": 1,
      "circuit": { "name": ..., "nodes": [...], "edges": [...] },
      "inputs":  { "in": {"pulse": {"start": 1.0, "length": 3.0}} },
      "end_time": 60.0,
      "metadata": { ... }
    }

``inputs`` and ``end_time`` are optional; the ``python -m repro`` CLI uses
them as defaults and lets flags override.  Signals serialise either as an
explicit transition list (``{"initial_value": 0, "transitions": [[t, v],
...]}``), a single pulse (``{"pulse": {"start", "length", "polarity"}}``)
or a pulse train (``{"pulse_train": {"start", "widths", "gaps",
"initial_value"}}``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from ..core.transitions import Signal, Transition
from ..specs import BUILD_ERRORS, CircuitSpec, SpecError, as_circuit, located

__all__ = [
    "NETLIST_FORMAT",
    "NETLIST_VERSION",
    "Netlist",
    "signal_to_dict",
    "signal_from_dict",
    "netlist_to_dict",
    "netlist_from_dict",
    "load_netlist",
    "save_netlist",
]

NETLIST_FORMAT = "repro-netlist"
NETLIST_VERSION = 1


# --------------------------------------------------------------------------- #
# Signal serialisation
# --------------------------------------------------------------------------- #


def signal_to_dict(signal: Signal) -> Dict[str, Any]:
    """Serialise a signal as an explicit transition list."""
    return {
        "initial_value": signal.initial_value,
        "transitions": [[t.time, t.value] for t in signal],
    }


def signal_from_dict(data: Mapping[str, Any]) -> Signal:
    """Rebuild a signal from its dict form (transition list, pulse, or train).

    The dict holds exactly one form: ``pulse``, ``pulse_train``, or the
    transition list's optional ``initial_value`` and ``transitions``.  A
    non-object, or a key the form does not read (at the top level or
    inside ``pulse``/``pulse_train``), raises ``TypeError`` naming it, so
    a misspelt key never decodes as a constant signal.  Nothing is
    converted: times, ``start``, ``length``, ``widths`` and ``gaps`` must
    be JSON numbers, and values, ``initial_value`` and ``polarity`` the
    int 0 or 1 (a JSON boolean is neither), else ``TypeError``.
    """
    _object(data, "signal")
    if "pulse" in data:
        _object(data, "signal", ("pulse",))
        pulse = _object(data["pulse"], "pulse", ("start", "length", "polarity"))
        return Signal.pulse(
            _number(pulse["start"], "start"),
            _number(pulse["length"], "length"),
            _bit(pulse.get("polarity", 1), "polarity"),
        )
    if "pulse_train" in data:
        _object(data, "signal", ("pulse_train",))
        train = _object(
            data["pulse_train"], "pulse_train", ("start", "widths", "gaps", "initial_value")
        )
        return Signal.pulse_train(
            _number(train.get("start", 0.0), "start"),
            [_number(width, "widths") for width in train["widths"]],
            [_number(gap, "gaps") for gap in train["gaps"]],
            _bit(train.get("initial_value", 0), "initial_value"),
        )
    _object(data, "signal", ("initial_value", "transitions"))
    transitions = [
        Transition(_number(time, "time"), _bit(value, "value"))
        for time, value in data.get("transitions", [])
    ]
    return Signal(_bit(data.get("initial_value", 0), "initial_value"), transitions)


def _object(value: Any, key: str, fields: Sequence[str] = ()) -> Mapping[str, Any]:
    """*value* when it is an object whose keys are all in *fields* (any
    keys when *fields* is empty), else ``TypeError`` naming *key* or the
    keys it does not read."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{key}={value!r} must be an object")
    unknown = [name for name in value if name not in fields] if fields else []
    if unknown:
        names = ", ".join(repr(name) for name in unknown)
        raise TypeError(f"{key} has unknown key {names}, not one of {', '.join(fields)}")
    return value


def _number(value: Any, key: str) -> float:
    """*value* as a float when it is a JSON number (a ``bool`` is not one,
    as for a spec parameter), else ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key}={value!r} must be a number")
    return float(value)


def _bit(value: Any, key: str) -> int:
    """*value* when it is the int 0 or 1 (a ``bool`` is not one, as for a
    circuit node's initial value), else ``TypeError``."""
    if type(value) is not int or value not in (0, 1):
        raise TypeError(f"{key}={value!r} must be 0 or 1")
    return value


# --------------------------------------------------------------------------- #
# Netlist files
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Netlist:
    """A parsed netlist file: the circuit spec plus optional defaults."""

    circuit: CircuitSpec
    inputs: Dict[str, Signal] = field(default_factory=dict)
    end_time: Optional[float] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def build(self):
        """Instantiate the circuit."""
        return self.circuit.build()


def netlist_to_dict(
    circuit,
    *,
    inputs: Optional[Mapping[str, Signal]] = None,
    end_time: Optional[float] = None,
    metadata: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the JSON-compatible netlist dict for a circuit or spec."""
    if not isinstance(circuit, CircuitSpec):
        circuit = as_circuit(circuit).to_spec()
    data: Dict[str, Any] = {
        "format": NETLIST_FORMAT,
        "version": NETLIST_VERSION,
        "circuit": circuit.to_dict(),
    }
    if inputs:
        data["inputs"] = {name: signal_to_dict(sig) for name, sig in inputs.items()}
    if end_time is not None:
        data["end_time"] = float(end_time)
    if metadata:
        data["metadata"] = dict(metadata)
    return data


def netlist_from_dict(data: Mapping[str, Any]) -> Netlist:
    """Parse a netlist dict (the inverse of :func:`netlist_to_dict`).

    A bare circuit-spec dict (``{"name", "nodes", "edges"}``) is accepted
    too, so hand-written netlists can omit the envelope.  This decodes the
    envelope and the circuit's skeleton; :meth:`Netlist.build` builds its
    nodes and edges.  An envelope field that does not decode raises
    :class:`SpecError` whose ``path`` names it; ``repro lint`` reports the
    same error as REP009.
    """
    if not isinstance(data, Mapping):
        raise SpecError(f"netlist is not an object: {data!r}")
    if "circuit" not in data:
        if {"nodes", "edges"} <= set(data):
            return Netlist(circuit=CircuitSpec.from_dict(data))
        raise SpecError("netlist dict has neither a 'circuit' field nor nodes/edges")
    fmt = data.get("format", NETLIST_FORMAT)
    if fmt != NETLIST_FORMAT:
        raise located(SpecError(f"not a repro netlist (format={fmt!r})"), "/format")
    if not isinstance(data["circuit"], Mapping):
        raise SpecError("netlist 'circuit' field is not an object")
    version = _field(data, "version", NETLIST_VERSION)
    if type(version) is not int:
        raise located(SpecError(f"netlist version {version!r} is not an integer"), "/version")
    if version > NETLIST_VERSION:
        raise located(
            SpecError(f"netlist version {version} is newer than supported ({NETLIST_VERSION})"),
            "/version",
        )
    raw_inputs = _field(data, "inputs", {})
    if not isinstance(raw_inputs, Mapping):
        raise located(SpecError("netlist 'inputs' field is not an object"), "/inputs")
    inputs: Dict[str, Signal] = {}
    for name, sig in raw_inputs.items():
        try:
            inputs[name] = signal_from_dict(sig)
        except BUILD_ERRORS as exc:
            raise located(exc, f"/inputs/{name}") from exc
    end_time = data.get("end_time")
    if end_time is not None:
        if isinstance(end_time, bool) or not isinstance(end_time, (int, float)):
            raise located(SpecError(f"end_time {end_time!r} is not a number"), "/end_time")
        if not end_time >= 0:  # NaN fails too; +inf runs to quiescence
            raise located(SpecError(f"end_time {end_time!r} must be at least 0"), "/end_time")
        end_time = float(end_time)
    metadata = _field(data, "metadata", {})
    if not isinstance(metadata, Mapping):
        raise located(SpecError("netlist 'metadata' field is not an object"), "/metadata")
    return Netlist(
        circuit=CircuitSpec.from_dict(data["circuit"]),
        inputs=inputs,
        end_time=end_time,
        metadata=dict(metadata),
    )


def _field(data: Mapping[str, Any], key: str, default: Any) -> Any:
    """``data[key]``, or *default* when the field is missing or null."""
    value = data.get(key)
    return default if value is None else value


def load_netlist(path: Union[str, Path]) -> Netlist:
    """Load a netlist JSON file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON ({exc})") from exc
    return netlist_from_dict(data)


def save_netlist(
    circuit,
    path: Union[str, Path],
    *,
    inputs: Optional[Mapping[str, Signal]] = None,
    end_time: Optional[float] = None,
    metadata: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write a circuit (or spec) as a netlist JSON file; returns the path."""
    data = netlist_to_dict(
        circuit, inputs=inputs, end_time=end_time, metadata=metadata
    )
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
