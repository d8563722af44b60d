"""Input coercion and rule execution for ``repro lint``.

:func:`lint` accepts everything the rest of the API accepts -- netlist
file paths, netlist/circuit-spec/experiment-spec dicts, live
:class:`~repro.specs.CircuitSpec` / :class:`~repro.specs.ExperimentSpec`
/ :class:`~repro.io.netlist.Netlist` / circuit objects -- normalises it
to a JSON document, and runs every registered rule of the matching
scope in code order, producing a deterministic
:class:`~repro.lint.diagnostics.LintReport`.

Unreadable input (missing file, invalid JSON, a document that is not an
object) raises :class:`~repro.specs.SpecError` instead of producing
diagnostics: the CLI maps that to exit code 2, distinct from exit
code 1 (readable input with error findings).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Optional, Tuple, Union

from ..specs import CircuitSpec, ExperimentSpec, SpecError
from .diagnostics import Diagnostic, LintReport
from .rules import CircuitContext, ExperimentContext, iter_rules

__all__ = ["lint", "lint_path"]


def _experiment_doc(data: Mapping[str, Any]) -> Optional[Mapping[str, Any]]:
    """The experiment-spec view of a dict, or None when it is a circuit."""
    if "kind" in data and not ({"nodes", "edges", "circuit"} & set(data)):
        return data
    return None


def _coerce(obj: Any) -> Tuple[str, Mapping[str, Any]]:
    """Normalise any lintable object to ``(scope, document)``."""
    from ..io.netlist import Netlist, netlist_to_dict

    if isinstance(obj, CircuitSpec):
        return "circuit", obj.to_dict()
    if isinstance(obj, ExperimentSpec):
        return "experiment", obj.to_dict()
    if isinstance(obj, Netlist):
        return "circuit", netlist_to_dict(
            obj.circuit,
            inputs=obj.inputs,
            end_time=obj.end_time,
            metadata=obj.metadata,
        )
    if isinstance(obj, Mapping):
        experiment = _experiment_doc(obj)
        if experiment is not None:
            return "experiment", experiment
        return "circuit", obj
    to_spec = getattr(obj, "to_spec", None)
    if callable(to_spec):
        spec = to_spec()
        if isinstance(spec, CircuitSpec):
            return "circuit", spec.to_dict()
    raise SpecError(f"cannot lint object of type {type(obj).__name__}")


def _circuit_context(doc: Mapping[str, Any]) -> CircuitContext:
    if "circuit" in doc:
        circuit = doc["circuit"]
        if not isinstance(circuit, Mapping):
            raise SpecError("netlist 'circuit' field is not an object")
        base = "/circuit"
    elif {"nodes", "edges"} & set(doc):
        circuit = doc
        base = ""
    else:
        raise SpecError(
            "document has neither a 'circuit' field nor nodes/edges"
        )
    metadata = doc.get("metadata")
    return CircuitContext(
        doc=doc,
        base=base,
        circuit=circuit,
        metadata=metadata if isinstance(metadata, Mapping) else {},
    )


def _experiment_context(doc: Mapping[str, Any]) -> ExperimentContext:
    # Spec dicts are flat ({"kind": ..., **params}); everything but the
    # kind is a parameter.
    return ExperimentContext(
        doc=doc,
        kind=doc.get("kind"),
        params={k: v for k, v in doc.items() if k != "kind"},
    )


def lint(
    obj: Any,
    *,
    source: Optional[str] = None,
) -> LintReport:
    """Run every applicable lint rule over one input.

    Parameters
    ----------
    obj:
        A netlist file path (str/Path ending in ``.json`` is *not*
        special-cased -- any str/Path is read as a JSON file), a
        netlist/circuit-spec/experiment-spec dict, or a live
        ``CircuitSpec`` / ``ExperimentSpec`` / ``Netlist`` / circuit.
    source:
        Label stamped onto every diagnostic (defaults to the file path
        when ``obj`` is one).

    Returns
    -------
    LintReport
        Every finding in rule-code order, each rule's findings in
        document order.  ``report.ok`` is False iff any finding has
        error severity.
    """
    if isinstance(obj, (str, Path)):
        return lint_path(obj, source=source)
    scope, doc = _coerce(obj)
    if scope == "experiment":
        context: Any = _experiment_context(doc)
    else:
        context = _circuit_context(doc)
    diagnostics = []
    for rule in iter_rules():
        if rule.scope != scope:
            continue
        for path, message in rule.check(context):
            diagnostics.append(
                Diagnostic(
                    code=rule.code,
                    severity=rule.severity,
                    message=message,
                    path=path,
                    source=source,
                )
            )
    return LintReport(diagnostics=tuple(diagnostics), source=source)


def lint_path(
    path: Union[str, Path], *, source: Optional[str] = None
) -> LintReport:
    """Lint a JSON document file (netlist, circuit spec, or experiment spec).

    Raises :class:`~repro.specs.SpecError` when the file cannot be read
    or parsed (the CLI's exit-code-2 case).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"{path}: cannot read ({exc})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, Mapping):
        raise SpecError(f"{path}: top-level JSON value is not an object")
    return lint(data, source=source if source is not None else str(path))
