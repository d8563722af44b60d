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
from typing import Any, Dict, Mapping, Optional, Union

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
    """Rebuild a signal from its dict form (transition list, pulse, or train)."""
    if "pulse" in data:
        pulse = data["pulse"]
        return Signal.pulse(
            float(pulse["start"]),
            float(pulse["length"]),
            int(pulse.get("polarity", 1)),
        )
    if "pulse_train" in data:
        train = data["pulse_train"]
        return Signal.pulse_train(
            float(train.get("start", 0.0)),
            [float(w) for w in train["widths"]],
            [float(g) for g in train["gaps"]],
            int(train.get("initial_value", 0)),
        )
    transitions = [
        Transition(float(t), int(v)) for t, v in data.get("transitions", [])
    ]
    return Signal(int(data.get("initial_value", 0)), transitions)


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
    too, so hand-written netlists can omit the envelope.  A field that
    does not decode raises :class:`SpecError` naming it.
    """
    if not isinstance(data, Mapping):
        raise SpecError(f"netlist is not an object: {data!r}")
    if "circuit" not in data:
        if {"nodes", "edges"} <= set(data):
            return Netlist(circuit=CircuitSpec.from_dict(data))
        raise SpecError("netlist dict has neither a 'circuit' field nor nodes/edges")
    fmt = data.get("format", NETLIST_FORMAT)
    if fmt != NETLIST_FORMAT:
        raise SpecError(f"not a repro netlist (format={fmt!r})")
    if not isinstance(data["circuit"], Mapping):
        raise SpecError("netlist 'circuit' field is not an object")
    try:
        version = int(data.get("version", NETLIST_VERSION))
    except BUILD_ERRORS as exc:
        raise located(exc, "/version") from exc
    if version > NETLIST_VERSION:
        raise SpecError(
            f"netlist version {version} is newer than supported ({NETLIST_VERSION})"
        )
    raw_inputs = data.get("inputs") or {}
    if not isinstance(raw_inputs, Mapping):
        raise SpecError("netlist 'inputs' field is not an object (at /inputs)")
    inputs: Dict[str, Signal] = {}
    for name, sig in raw_inputs.items():
        try:
            inputs[name] = signal_from_dict(sig)
        except BUILD_ERRORS as exc:
            raise located(exc, f"/inputs/{name}") from exc
    end_time = data.get("end_time")
    try:
        end_time = None if end_time is None else float(end_time)
    except BUILD_ERRORS as exc:
        raise located(exc, "/end_time") from exc
    metadata = data.get("metadata") or {}
    if not isinstance(metadata, Mapping):
        raise SpecError("netlist 'metadata' field is not an object (at /metadata)")
    return Netlist(
        circuit=CircuitSpec.from_dict(data["circuit"]),
        inputs=inputs,
        end_time=end_time,
        metadata=dict(metadata),
    )


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
