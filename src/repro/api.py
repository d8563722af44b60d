"""High-level facade over the spec-based API.

Three verbs cover the common workflows, each accepting live objects *or*
their declarative specs (:mod:`repro.specs`) interchangeably:

* :func:`build` -- turn a :class:`~repro.specs.CircuitSpec` (or spec dict,
  or netlist file path) into a live :class:`~repro.circuits.circuit.Circuit`,
* :func:`simulate` -- one event-driven execution,
* :func:`sweep` -- a batched scenario family through
  :func:`repro.engine.sweep.run_many` (scalar or vector engine, inline or
  on a process pool -- specs are what make the circuit shippable to the
  workers, and the vector engine batch-evaluates scenarios through numpy),

plus :func:`monte_carlo` to assemble the eta Monte Carlo scenario family
of :func:`repro.engine.sweep.eta_monte_carlo` directly from a spec, and
the declarative experiment surface:

* :func:`experiment` -- run a registered experiment kind from an
  :class:`~repro.specs.ExperimentSpec` (or a kind name plus params),
  returning a provenance-carrying
  :class:`~repro.experiments.base.ExperimentResult`; ``cache=`` plugs in
  the content-addressed artifact store (:mod:`repro.store`),
* :func:`experiments` -- the registered kinds and their descriptions.

Typical use::

    from repro import api
    netlist = api.load("examples/netlists/inverter_chain.json")
    execution = api.simulate(netlist.circuit, netlist.inputs, netlist.end_time)
    circuit, scenarios = api.monte_carlo(netlist.circuit, netlist.inputs,
                                         netlist.end_time, n_runs=100, seed=7)
    result = api.sweep(circuit, scenarios, max_workers=4)

    thm9 = api.experiment("theorem9", {"eta_plus": 0.1}, cache="artifacts/")
    print(thm9.table())
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Union

from .core.transitions import Signal
from .engine.scheduler import CircuitTopology, Execution
from .engine.sweep import Scenario, SweepResult, eta_monte_carlo, run_many
from .specs import as_circuit

__all__ = [
    "build",
    "load",
    "lint",
    "simulate",
    "sweep",
    "monte_carlo",
    "experiment",
    "experiments",
]


def lint(obj, *, source: Optional[str] = None):
    """Statically lint a netlist, spec, or experiment definition.

    Accepts everything :func:`build` and :func:`experiment` accept --
    netlist file paths, netlist/circuit-spec/experiment-spec dicts, live
    ``CircuitSpec`` / ``ExperimentSpec`` / ``Netlist`` / circuit objects
    -- and returns a :class:`repro.lint.LintReport` of structured
    :class:`repro.lint.Diagnostic` records (rule code, severity, message,
    JSON path).  See ``docs/linting.md`` for the rule catalogue; the
    ``repro lint`` CLI subcommand wraps this with text/JSON output and
    exit-code semantics.
    """
    from .lint import lint as _lint

    return _lint(obj, source=source)


def _validate_or_raise(obj) -> None:
    """Lint ``obj`` and raise :class:`repro.lint.LintError` on errors."""
    from .lint import LintError
    from .lint import lint as _lint

    report = _lint(obj)
    if not report.ok:
        raise LintError(report)


def load(path: Union[str, Path]):
    """Load a netlist file (circuit spec plus optional stimulus defaults)."""
    from .io.netlist import load_netlist

    return load_netlist(path)


def build(spec_or_circuit):
    """Materialise a circuit from a spec, spec dict, netlist path, or circuit.

    Strings and :class:`~pathlib.Path` objects are treated as netlist file
    paths; everything else goes through :func:`repro.specs.as_circuit`.
    """
    if isinstance(spec_or_circuit, (str, Path)):
        return load(spec_or_circuit).build()
    return as_circuit(spec_or_circuit)


def _coerce_inputs(inputs: Mapping[str, object]) -> Dict[str, Signal]:
    from .io.netlist import signal_from_dict

    coerced: Dict[str, Signal] = {}
    for name, signal in inputs.items():
        coerced[name] = (
            signal if isinstance(signal, Signal) else signal_from_dict(signal)
        )
    return coerced


def simulate(
    spec_or_circuit,
    inputs: Mapping[str, object],
    end_time: float,
    *,
    on_causality: str = "error",
    max_events: int = 1_000_000,
    validate: bool = False,
) -> Execution:
    """Run one event-driven execution of a circuit or spec.

    ``inputs`` maps input-port names to :class:`Signal` objects or signal
    dicts (see :func:`repro.io.netlist.signal_from_dict`).
    ``validate=True`` lints the circuit first (see :func:`lint`) and
    raises :class:`repro.lint.LintError` on any error-severity finding.
    """
    from .circuits.simulator import simulate as _simulate

    if validate:
        _validate_or_raise(spec_or_circuit)
    return _simulate(
        build(spec_or_circuit),
        _coerce_inputs(inputs),
        end_time,
        on_causality=on_causality,
        max_events=max_events,
    )


def sweep(
    spec_or_circuit,
    scenarios: Sequence[Scenario],
    *,
    backend: str = "sequential",
    max_workers: Optional[int] = None,
    on_causality: str = "error",
    max_events: int = 1_000_000,
    chunk_size: Optional[int] = None,
    checkpoint=None,
    retry=None,
    chunk_timeout: Optional[float] = None,
    on_chunk_failure: Optional[str] = None,
    validate: bool = False,
) -> SweepResult:
    """Run a scenario family through the batched sweep runner.

    Thin wrapper over :func:`repro.engine.sweep.run_many` that first
    coerces ``spec_or_circuit`` (``CircuitTopology`` instances pass
    through untouched, so prebuilt topologies stay amortised).
    ``backend`` picks the engine of each chunk (``"sequential"``,
    ``"vector"`` or ``"auto"``) and ``max_workers`` where chunks run
    (``None`` or 1 inline, N > 1 on N worker processes).  With every
    stateful channel either seeded or overridden per scenario (the
    :func:`monte_carlo` families are) every combination produces
    bit-identical executions; a ``"vector"`` chunk the vector engine
    cannot express runs scalar, with a warning and a capability report
    on the result, and ``"auto"`` picks the engine per chunk from a
    deterministic cost model.

    ``checkpoint=`` (artifact store or directory) adds spec-keyed chunk
    checkpointing with crash-safe resume; ``retry=`` (total attempts per
    chunk whose pool worker crashed or timed out), ``chunk_timeout=``
    and ``on_chunk_failure=`` govern failing chunks (see
    :func:`repro.engine.sweep.run_many`).

    ``validate=True`` lints the circuit first (see :func:`lint`; prebuilt
    :class:`CircuitTopology` instances are exempt -- they were built from
    an already-validated circuit) and raises
    :class:`repro.lint.LintError` on any error-severity finding.
    """
    if not isinstance(spec_or_circuit, CircuitTopology):
        if validate:
            _validate_or_raise(spec_or_circuit)
        spec_or_circuit = build(spec_or_circuit)
    return run_many(
        spec_or_circuit,
        list(scenarios),
        backend=backend,
        max_workers=max_workers,
        on_causality=on_causality,
        max_events=max_events,
        chunk_size=chunk_size,
        checkpoint=checkpoint,
        retry=retry,
        chunk_timeout=chunk_timeout,
        on_chunk_failure=on_chunk_failure,
    )


def monte_carlo(
    spec_or_circuit,
    inputs: Mapping[str, object],
    end_time: float,
    n_runs: int,
    *,
    seed: int = 0,
    name: str = "mc",
):
    """Eta Monte Carlo scenario family for a circuit or spec.

    Returns ``(circuit, scenarios)`` so callers can pass the *same* built
    circuit to :func:`sweep` (building twice would re-randomise nothing --
    scenarios override every eta edge -- but would redo validation).
    """
    circuit = build(spec_or_circuit)
    scenarios = eta_monte_carlo(
        circuit, _coerce_inputs(inputs), end_time, n_runs, seed=seed, name=name
    )
    return circuit, scenarios


def experiment(
    spec_or_kind,
    params: Optional[Mapping[str, object]] = None,
    *,
    backend: str = "sequential",
    max_workers: Optional[int] = None,
    cache=None,
    force: bool = False,
    checkpoint=None,
    validate: bool = False,
):
    """Run a registered experiment kind and return its ExperimentResult.

    ``spec_or_kind`` is a kind name (``"theorem9"``, ``"fig7"``, ...; see
    :func:`experiments`), an :class:`~repro.specs.ExperimentSpec`, or a
    spec dict.  ``cache`` (an :class:`~repro.store.ArtifactStore` or a
    directory path) makes identical reruns return the stored artifact with
    ``from_cache=True``.  ``checkpoint`` additionally checkpoints the
    experiment's *internal* sweeps chunk-by-chunk (experiment kinds that
    support it, e.g. ``eta_coverage``), so a killed run resumes mid-sweep
    rather than recomputing from scratch; provenance records the
    chunks-computed/chunks-resumed split.

    ``validate=True`` lints the experiment spec first (see :func:`lint`)
    and raises :class:`repro.lint.LintError` on any error-severity
    finding.
    """
    from .experiments.base import run_experiment

    if validate:
        if isinstance(spec_or_kind, str):
            _validate_or_raise({"kind": spec_or_kind, **dict(params or {})})
        else:
            _validate_or_raise(spec_or_kind)
    return run_experiment(
        spec_or_kind,
        params,
        backend=backend,
        max_workers=max_workers,
        cache=cache,
        force=force,
        checkpoint=checkpoint,
    )


def experiments() -> Dict[str, str]:
    """Registered experiment kinds mapped to their descriptions."""
    from .specs import experiment_kinds, get_experiment_kind

    return {
        kind: get_experiment_kind(kind).description for kind in experiment_kinds()
    }
