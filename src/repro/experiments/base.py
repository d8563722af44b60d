"""The unified experiment runtime: results, provenance, and the runner.

Circuits are declarative (:mod:`repro.specs`); this module does the same
for the paper's experiments.  Every experiment is a registered *kind*
(:func:`repro.specs.register_experiment_kind`) whose runner maps a fully
resolved parameter dict to an :class:`ExperimentOutcome`;
:func:`run_experiment` wraps that call with

* parameter resolution (defaults merged, canonical JSON),
* provenance capture (spec JSON + hash, package version, backend,
  cpu_count, wall time, seed) on the returned :class:`ExperimentResult`,
* schema validation (uniform row keys, JSON-scalar cells), and
* content-addressed caching through :class:`repro.store.ArtifactStore`
  (``cache=...``): identical specs return the stored result without
  recomputation, which is what makes large parameter sweeps resumable.

This is the one way an experiment runs: registered kind ->
:func:`run_experiment` -> the kind's registered ``(params, context)``
runner, which is its implementation: it reads every parameter from the
resolved ``params`` and the execution knobs from its
:class:`ExperimentContext`.  Callers that need the kind's typed result
(numpy curves, dataclasses) read :attr:`ExperimentResult.raw`.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

from ..core.domain import DomainError
from ..engine.sweep import SweepResult, check_backend
from ..specs import (
    ExperimentSpec,
    SpecError,
    _canonical_key,
    _jsonify,
    _param,
    get_experiment_kind,
)

__all__ = [
    "RESULT_FORMAT",
    "RESULT_VERSION",
    "ExperimentContext",
    "ExperimentOutcome",
    "ExperimentResult",
    "as_experiment_spec",
    "run_experiment",
]

RESULT_FORMAT = "repro-experiment-result"
RESULT_VERSION = 1


@dataclass(frozen=True)
class ExperimentContext:
    """Execution knobs that must not change the numbers an experiment produces.

    ``backend``/``max_workers`` plumb straight into
    :func:`repro.engine.sweep.run_many` for the event-driven kinds: the
    engine of each chunk, and how many worker processes run the chunks.
    The analog kinds (``fig7``/``fig8``/``fig9``) run inline; for them
    ``max_workers`` only reaches provenance.  The sweep runner's
    determinism guarantee is what makes both knobs result-neutral, so the
    artifact store can key on the spec alone.
    ``backend="vector"`` opts engine-driven kinds (``theorem9``,
    ``scaling``, ``eta_coverage``, ...) into the NumPy batch engine of
    :mod:`repro.engine.vector`, which runs scalar -- with a warning --
    any chunk it cannot express; ``backend="auto"`` picks the engine per
    chunk from a cost model (the ``theorem9`` storage loop runs scalar).

    ``observed`` is the runners' reporting channel back to provenance:
    kinds that execute sweeps record the backend that *actually* ran
    under ``"backend_executed"`` (a vector request may have fallen back),
    so cached artifacts never claim an execution strategy that never
    happened.  Kinds whose sweeps are checkpointed additionally record
    ``"chunks_computed"``/``"chunks_resumed"`` from the sweep's
    :class:`~repro.engine.shard.ShardReport`.  :meth:`record` writes
    both from a sweep's result.

    ``checkpoint`` (an :class:`~repro.store.ArtifactStore` or directory
    path, or ``None``) asks the sweep-driven kinds (``theorem9``,
    ``comparison``, ``eta_coverage``) to checkpoint their internal sweeps
    chunk-by-chunk via :func:`repro.engine.shard.run_many_sharded` --
    result-neutral like the other knobs (resume is bit-identical), hence
    excluded from the artifact key.  ``scaling`` measures wall-clock
    throughput, so it never resumes a sweep.
    """

    backend: str = "sequential"
    max_workers: Optional[int] = None
    observed: Dict[str, Any] = field(default_factory=dict, compare=False)
    checkpoint: Optional[object] = field(default=None, compare=False)

    def record(self, sweep: SweepResult) -> None:
        """Record in ``observed`` what a sweep run with this context's
        knobs did: the backend that executed and, when it was
        checkpointed, how many chunks were computed and resumed."""
        self.observed["backend_executed"] = sweep.backend or self.backend
        if self.checkpoint is not None:
            self.observed["chunks_computed"] = sweep.shard_report.computed
            self.observed["chunks_resumed"] = sweep.shard_report.resumed


@dataclass
class ExperimentOutcome:
    """What a kind runner returns: rows plus optional extras.

    ``rows`` is the experiment's flat result table (uniform keys, JSON
    scalars/lists); ``summary`` holds experiment-level scalars (analysis
    quantities, fitted parameters); ``traces`` optionally maps trace names
    to signal dicts (:func:`repro.io.netlist.signal_to_dict`) for VCD
    export; ``raw`` is the kind's in-process result object (e.g.
    :class:`~repro.experiments.fig7.Fig7Result` with its numpy curves) --
    transient, never serialised.
    """

    rows: List[Dict[str, Any]]
    summary: Dict[str, Any] = field(default_factory=dict)
    traces: Optional[Dict[str, Dict[str, Any]]] = None
    raw: Any = None


@dataclass
class ExperimentResult:
    """Schema'd rows + parameters + provenance; round-trips through JSON.

    Two results are equal iff their spec, columns, rows, summary and traces
    are (canonical-JSON comparison); provenance is excluded -- wall time
    and host facts differ between equal reruns by construction.  ``raw``
    (the kind's in-process result object, see :class:`ExperimentOutcome`)
    and ``from_cache`` are transient: they do not survive serialisation,
    so a cache hit has ``raw=None``.
    """

    spec: ExperimentSpec
    columns: List[str]
    rows: List[Dict[str, Any]]
    summary: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    traces: Optional[Dict[str, Dict[str, Any]]] = None
    raw: Any = None
    from_cache: bool = False

    # -- schema ------------------------------------------------------------ #

    def validate(self) -> None:
        """Check the row schema: uniform keys, JSON scalar/list cells."""
        expected = list(self.columns)
        for index, row in enumerate(self.rows):
            if list(row) != expected:
                raise SpecError(
                    f"row {index} keys {list(row)} do not match the result "
                    f"columns {expected}"
                )
            for column, value in row.items():
                if isinstance(value, (list, tuple)):
                    bad = [v for v in value if isinstance(v, (dict, list, tuple))]
                    if bad:
                        raise SpecError(
                            f"row {index} column {column!r}: nested containers "
                            "are not valid result cells"
                        )
                elif isinstance(value, dict):
                    raise SpecError(
                        f"row {index} column {column!r}: mappings are not "
                        "valid result cells"
                    )
        # Round-trip safety: everything must be JSON-representable.
        _jsonify(self.rows)
        _jsonify(self.summary)
        if self.traces is not None:
            _jsonify(self.traces)

    # -- serialisation ----------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dict form (the artifact-store payload)."""
        data: Dict[str, Any] = {
            "format": RESULT_FORMAT,
            "version": RESULT_VERSION,
            "spec": self.spec.to_dict(),
            "columns": list(self.columns),
            "rows": _jsonify(self.rows),
            "summary": _jsonify(self.summary),
            "provenance": _jsonify(self.provenance),
        }
        if self.traces is not None:
            data["traces"] = _jsonify(self.traces)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        fmt = data.get("format", RESULT_FORMAT)
        if fmt != RESULT_FORMAT:
            raise SpecError(f"not an experiment result (format={fmt!r})")
        version = int(data.get("version", RESULT_VERSION))
        if version > RESULT_VERSION:
            raise SpecError(
                f"result version {version} is newer than supported "
                f"({RESULT_VERSION})"
            )
        try:
            spec = ExperimentSpec.from_dict(data["spec"])
            columns = list(data["columns"])
            # JSON serialisation sorts keys; restore the declared column
            # order so loaded results validate and tabulate like fresh ones.
            rows = [{column: row[column] for column in columns} for row in data["rows"]]
        except KeyError as exc:
            raise SpecError(f"experiment result dict is missing field {exc}") from None
        return cls(
            spec=spec,
            columns=columns,
            rows=rows,
            summary=dict(data.get("summary") or {}),
            provenance=dict(data.get("provenance") or {}),
            traces=None if data.get("traces") is None else dict(data["traces"]),
        )

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        import json

        return cls.from_dict(json.loads(text))

    # -- value semantics --------------------------------------------------- #

    def _eq_key(self) -> str:
        payload = self.to_dict()
        payload.pop("provenance", None)
        return _canonical_key(payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentResult):
            return NotImplemented
        return self._eq_key() == other._eq_key()

    # -- convenience ------------------------------------------------------- #

    def table(self, **kwargs) -> str:
        """The rows as an aligned plain-text table (:mod:`.reporting`)."""
        from .reporting import format_table

        if kwargs.get("columns") is None:
            kwargs["columns"] = self.columns
        if kwargs.get("title") is None:
            kwargs["title"] = f"experiment {self.spec.kind}"
        return format_table(self.rows, **kwargs)

    def signals(self) -> Dict[str, Any]:
        """Recorded traces as live :class:`~repro.core.transitions.Signal` objects."""
        from ..io.netlist import signal_from_dict

        if not self.traces:
            return {}
        return {name: signal_from_dict(data) for name, data in self.traces.items()}


def _check_param(ok: bool, name: str, value: Any, rule: str) -> None:
    """Raise a :class:`~repro.core.domain.DomainError` naming the
    experiment parameter ``name`` unless ``ok``: ``"<name>=<value> <rule>"``."""
    if not ok:
        raise DomainError(name, f"{name}={value} {rule}")


def _param_or_null(params: Mapping[str, Any], name: str) -> Any:
    """The null-default parameter ``name`` as :func:`repro.specs._param`
    decodes its JSON form (null, a number as a float, or a list of
    numbers as floats; a bool is not a number, and a NumPy array given
    to a runner directly reads as its list), its type error raised as a
    :class:`~repro.core.domain.DomainError`."""
    try:
        return _param({name: _jsonify(params[name])}, name, None)
    except TypeError as exc:
        raise DomainError(name, str(exc)) from None


def _number_or_null(params: Mapping[str, Any], name: str) -> Optional[float]:
    """The null-default number parameter ``name``: null, or a number as a
    float (:func:`_param_or_null`, and a list is not a number either)."""
    value = _param_or_null(params, name)
    _check_param(not isinstance(value, list), name, value, "must be a number or null")
    return value


def as_experiment_spec(
    spec: Union[str, ExperimentSpec, Mapping[str, Any]],
    params: Optional[Mapping[str, Any]] = None,
) -> ExperimentSpec:
    """Coerce a kind name, spec dict, or ExperimentSpec to an ExperimentSpec."""
    if isinstance(spec, ExperimentSpec):
        if params:
            raise SpecError("params must be folded into an ExperimentSpec, not both")
        return spec
    if isinstance(spec, str):
        return ExperimentSpec(spec, dict(params or {}))
    if isinstance(spec, Mapping):
        if params:
            raise SpecError("params must be folded into the spec dict, not both")
        return ExperimentSpec.from_dict(spec)
    raise SpecError(f"cannot interpret {type(spec).__name__} as an experiment spec")


def _provenance(
    resolved: ExperimentSpec,
    context: ExperimentContext,
    wall_time_s: float,
) -> Dict[str, Any]:
    """The facts every result carries about how it was produced."""
    from .. import __version__
    from ..store import ArtifactStore

    seed = resolved.params.get("seed")
    return {
        "spec": resolved.to_dict(),
        "spec_key": ArtifactStore.key_for(resolved),
        "package": "repro",
        "version": __version__,
        "seed": seed if isinstance(seed, (int, float)) else None,
        "backend": context.backend,
        # Recorded by kinds that execute engine sweeps (theorem9,
        # comparison, scaling, eta_coverage); null for kinds that never
        # run one (analog characterisations, pure-analysis kinds) --
        # defaulting to the *requested* backend would claim an execution
        # strategy that never ran.
        "backend_executed": context.observed.get("backend_executed"),
        # Recorded by kinds whose sweeps were checkpointed: how many
        # chunks were computed fresh vs satisfied from the checkpoint
        # store; null when no checkpointed sweep ran.
        "chunks_computed": context.observed.get("chunks_computed"),
        "chunks_resumed": context.observed.get("chunks_resumed"),
        "max_workers": context.max_workers,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_time_s": float(wall_time_s),
    }


def run_experiment(
    spec: Union[str, ExperimentSpec, Mapping[str, Any]],
    params: Optional[Mapping[str, Any]] = None,
    *,
    backend: str = "sequential",
    max_workers: Optional[int] = None,
    cache: Optional[object] = None,
    force: bool = False,
    checkpoint: Optional[object] = None,
) -> ExperimentResult:
    """Run a declarative experiment and return its provenance-carrying result.

    ``spec`` is an :class:`~repro.specs.ExperimentSpec`, a kind name (with
    optional ``params``), or a spec dict.  ``backend``/``max_workers``
    choose the sweep execution strategy (result-neutral by the engine's
    determinism guarantee); an unknown ``backend`` raises ``ValueError``
    before the cache is consulted.  ``cache`` (an
    :class:`~repro.store.ArtifactStore` or a directory path) enables the
    content-addressed artifact store: a stored result for the identical
    resolved spec is returned directly with ``from_cache=True`` (unless
    ``force``), and fresh results are stored on the way out.
    ``checkpoint`` plumbs a chunk-checkpoint store into the experiment's
    internal sweeps (the kinds that run one; see
    :class:`ExperimentContext`) -- finer-grained than ``cache``: the
    cache resumes whole experiments, the checkpoint resumes *mid-sweep*.
    """
    check_backend(backend)
    resolved = as_experiment_spec(spec, params).resolved()
    store = None
    if cache is not None:
        from ..store import as_store

        store = as_store(cache)
        if not force:
            hit = store.get(resolved)
            if hit is not None:
                hit.from_cache = True
                return hit
    info = get_experiment_kind(resolved.kind)
    context = ExperimentContext(
        backend=backend, max_workers=max_workers, checkpoint=checkpoint
    )
    start = time.perf_counter()
    outcome = info.runner(dict(resolved.params), context)
    wall_time_s = time.perf_counter() - start
    rows = [dict(_jsonify(row)) for row in outcome.rows]
    result = ExperimentResult(
        spec=resolved,
        columns=list(rows[0]) if rows else [],
        rows=rows,
        summary=dict(_jsonify(outcome.summary or {})),
        provenance=_provenance(resolved, context, wall_time_s),
        traces=None if outcome.traces is None else dict(_jsonify(outcome.traces)),
        raw=outcome.raw,
    )
    result.validate()
    if store is not None:
        store.put(result)
    return result
