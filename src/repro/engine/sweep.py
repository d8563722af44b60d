"""Batched execution of scenario families through one shared engine.

Every experiment driver in this repository used to re-run the simulator
one parameter point at a time, re-validating the circuit and re-deriving
its adjacency for every single run.  :func:`run_many` amortises that work:
the circuit is validated and precomputed into a
:class:`~repro.engine.scheduler.CircuitTopology` exactly once, and each
:class:`Scenario` then only pays for its own event loop.  Scenarios can
override per-edge channels (parameterised channel families, per-run eta
adversaries) and fan out over threads or -- the actually-parallel option
for this CPU-bound, pure-Python event loop -- a process pool.

Helpers:

* :func:`channel_overrides` -- build a per-edge override map from a factory
  (e.g. "replace every non-zero-delay channel with a fresh eta channel"),
* :func:`eta_monte_carlo` -- scenario family sampling an independent random
  eta adversary per channel per run (Monte Carlo over the admissible
  parameter ``H`` of the paper's execution definition),
* :func:`sweep_map` -- a generic ordered (optionally threaded) map used by
  the analog characterisation drivers for their per-condition sweeps.
"""

from __future__ import annotations

import copy
import math
import os
import pickle
import time as _time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..core.transitions import Signal
from .errors import SimulationError
from .scheduler import CircuitTopology, Engine, Execution

__all__ = [
    "Scenario",
    "RunResult",
    "SweepResult",
    "run_many",
    "channel_overrides",
    "eta_monte_carlo",
    "sweep_map",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass
class Scenario:
    """One parameter point of a sweep.

    Attributes
    ----------
    name:
        Label of the scenario (used in results and reports).
    inputs:
        Input-port signals for this run.
    end_time:
        Simulation horizon for this run.
    channels:
        Optional per-edge channel overrides (edge name -> channel); edges
        not listed keep the circuit's base channel.
    metadata:
        Free-form parameters riding along (swept values, seeds, ...).
    fingerprint:
        Optional precomputed computation-relevant canonical JSON of this
        scenario, exactly as :func:`repro.engine.shard.scenario_fingerprint`
        would derive it from the live objects.  Scenario *producers* that
        know their structure (:func:`eta_monte_carlo` varies only the
        adversary seed between runs) fill this in so checkpointed sweeps
        key their chunks without re-deriving channel specs per scenario;
        leave ``None`` for hand-built scenarios.  Excluded from equality
        (it is a cache, not state) -- and it must never disagree with the
        derived form, which ``tests/engine/test_shard.py`` pins for the
        built-in producers.
    """

    name: str
    inputs: Dict[str, Signal]
    end_time: float
    channels: Optional[Dict[str, object]] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    fingerprint: Optional[Dict[str, object]] = field(
        default=None, repr=False, compare=False
    )


@dataclass
class RunResult:
    """The execution of one scenario plus its wall-clock cost."""

    scenario: Scenario
    execution: Execution
    seconds: float


@dataclass
class SweepResult:
    """All runs of a sweep over one shared circuit topology.

    ``backend`` records the backend that actually executed the runs --
    which differs from the requested one when ``backend="vector"`` fell
    back to the scalar path; ``vector_report`` then carries the
    :class:`~repro.engine.vector.VectorCapability` explaining why.

    Sharded sweeps (``backend="auto"``, or any of
    ``checkpoint``/``retry``/``chunk_timeout``/``on_chunk_failure``)
    additionally attach a :class:`~repro.engine.shard.ShardReport` as
    ``shard_report`` (per-chunk backends with the reason each was chosen,
    resumed-vs-computed counts, attempts) and -- when chunks were quarantined under
    ``on_chunk_failure="keep"`` -- a
    :class:`~repro.engine.shard.SweepFailureReport` as ``failure_report``.
    """

    topology: CircuitTopology
    runs: List[RunResult]
    total_seconds: float
    backend: Optional[str] = None
    vector_report: Optional[object] = None
    failure_report: Optional[object] = None
    shard_report: Optional[object] = None

    @property
    def executions(self) -> List[Execution]:
        """The executions, in scenario order."""
        return [run.execution for run in self.runs]

    def execution(self, name: str) -> Execution:
        """The execution of the scenario with the given name (O(1) lookup).

        The name index is built once on first use and cached; duplicate
        scenario names make the lookup ambiguous and raise
        :class:`~repro.engine.errors.SimulationError` (the former linear
        scan silently returned the first match).
        """
        index = self.__dict__.get("_by_name")
        if index is None:
            index = {}
            first_seen: Dict[str, int] = {}
            duplicates = []
            for position, run in enumerate(self.runs):
                sname = run.scenario.name
                if sname in index:
                    duplicates.append(
                        f"{sname!r} at index {position} "
                        f"(first seen at index {first_seen[sname]})"
                    )
                else:
                    index[sname] = run
                    first_seen[sname] = position
            if duplicates:
                raise SimulationError(
                    f"duplicate scenario names: {'; '.join(duplicates)}; "
                    "execution(name) lookups would be ambiguous -- give every "
                    "scenario a unique name"
                )
            self.__dict__["_by_name"] = index
        try:
            return index[name].execution
        except KeyError:
            raise KeyError(f"no scenario named {name!r}") from None

    def __iter__(self):
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)


# --------------------------------------------------------------------------- #
# Process-pool worker machinery
# --------------------------------------------------------------------------- #
# The worker builds its topology and engine exactly once per process -- from
# the declarative CircuitSpec JSON shipped through the initializer (specs
# preserve node/edge order, so the rebuilt circuit executes bit-identically;
# no circuit object is ever pickled) -- and then executes whole scenario
# chunks, returning stripped signal payloads instead of full Execution
# objects so the parent never re-serialises the circuit per run.

_WORKER_ENGINE: Optional[Engine] = None

#: Stripped per-run payload: (node_signals, edge_signals, event_count,
#: dropped_transitions, seconds).
_RunPayload = Tuple[Dict[str, Signal], Dict[str, Signal], int, int, float]


def _process_worker_init(spec_json: str, on_causality: str, max_events: int) -> None:
    global _WORKER_ENGINE
    from ..specs import CircuitSpec

    circuit = CircuitSpec.from_json(spec_json).build()
    _WORKER_ENGINE = Engine(
        CircuitTopology(circuit), on_causality=on_causality, max_events=max_events
    )


def _process_run_chunk(scenarios: Sequence[Scenario]) -> List[_RunPayload]:
    engine = _WORKER_ENGINE
    results: List[_RunPayload] = []
    for scenario in scenarios:
        start = _time.perf_counter()
        execution = engine.run(
            scenario.inputs, scenario.end_time, channels=scenario.channels or None
        )
        results.append(
            (
                execution.node_signals,
                execution.edge_signals,
                execution.event_count,
                execution.dropped_transitions,
                _time.perf_counter() - start,
            )
        )
    return results


def _chunked(items: Sequence[_T], chunk_size: int) -> List[Sequence[_T]]:
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


def _run_many_process(
    topology: CircuitTopology,
    scenarios: Sequence[Scenario],
    *,
    on_causality: str,
    max_events: int,
    max_workers: int,
    chunk_size: Optional[int],
) -> List[RunResult]:
    from ..specs import SpecError

    try:
        spec_json = topology.circuit.to_spec().to_json(indent=None)
    except SpecError as exc:
        raise SimulationError(
            "backend='process' ships declarative CircuitSpecs to its "
            "workers, but this circuit cannot be expressed as one "
            f"({exc}); register the missing kind via "
            "repro.specs.register_channel_kind or use the thread backend"
        ) from exc
    try:
        chunks = _chunked(list(scenarios), chunk_size or max(
            1, math.ceil(len(scenarios) / (max_workers * 4))
        ))
        chunk_payloads = [pickle.dumps(chunk) for chunk in chunks]
    except Exception as exc:
        raise SimulationError(
            "backend='process' requires every scenario (inputs, channel "
            "overrides, metadata) to be picklable; use the thread backend "
            f"for closure-based channels ({exc})"
        ) from exc
    with ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_process_worker_init,
        initargs=(spec_json, on_causality, max_events),
    ) as pool:
        chunk_results = list(pool.map(_process_run_chunk_pickled, chunk_payloads))
    runs: List[RunResult] = []
    circuit = topology.circuit
    output_ports = topology.output_ports
    for chunk, results in zip(chunks, chunk_results):
        for scenario, (node_signals, edge_signals, events, dropped, secs) in zip(
            chunk, results
        ):
            output_signals = {o: node_signals[o] for o in output_ports}
            runs.append(
                RunResult(
                    scenario=scenario,
                    execution=Execution(
                        circuit=circuit,
                        node_signals=node_signals,
                        edge_signals=edge_signals,
                        output_signals=output_signals,
                        end_time=scenario.end_time,
                        event_count=events,
                        dropped_transitions=dropped,
                    ),
                    seconds=secs,
                )
            )
    return runs


def _process_run_chunk_pickled(chunk_payload: bytes) -> List[_RunPayload]:
    return _process_run_chunk(pickle.loads(chunk_payload))


def run_many(
    circuit,
    scenarios: Sequence[Scenario],
    *,
    on_causality: str = "error",
    max_events: int = 1_000_000,
    max_workers: Optional[int] = None,
    backend: str = "thread",
    chunk_size: Optional[int] = None,
    checkpoint=None,
    retry=None,
    chunk_timeout: Optional[float] = None,
    on_chunk_failure: Optional[str] = None,
) -> SweepResult:
    """Execute every scenario against one shared, precomputed topology.

    The circuit is validated and its adjacency precomputed exactly once;
    every scenario then runs through a fresh event loop (fresh kernels,
    fresh channel state) just as a standalone
    :func:`repro.circuits.simulator.simulate` call would.

    Parallelism (``max_workers`` > 1) comes in two flavours
    (``backend="sequential"`` explicitly opts out and ignores
    ``max_workers``):

    ``backend="thread"``
        A :class:`~concurrent.futures.ThreadPoolExecutor`.  The event loop
        is pure CPU-bound Python, so threads time-slice under the GIL and
        mostly *overlap* rather than speed up -- useful only when channel
        callbacks release the GIL (numpy-heavy adversaries) or for latency
        hiding.  Base channels of the circuit are stateful (adversary
        RNGs), so every edge *not* overridden by the scenario is
        deep-copied per run to keep threads from sharing mutable state.
    ``backend="process"``
        A :class:`~concurrent.futures.ProcessPoolExecutor`: real multi-core
        scaling.  The circuit is shipped once per worker as its declarative
        :class:`~repro.specs.CircuitSpec` JSON (workers rebuild it and its
        topology locally; spec node/edge order preservation keeps the
        rebuilt circuit bit-identical), scenarios are shipped in pickled
        chunks (``chunk_size``, default ``len / (4 * max_workers)``), and
        workers return stripped signal payloads.  Requires the circuit to
        be spec-representable and the scenarios to be picklable.
    ``backend="vector"``
        The NumPy-vectorized batch engine (:mod:`repro.engine.vector`):
        all scenarios of a feed-forward sweep are evaluated simultaneously
        through masked array operations, typically several times faster
        than ``sequential`` on one core for Monte Carlo families with real
        per-run work.  Circuits or channels the vector compiler cannot
        express (feedback loops, custom channel/adversary classes, ...)
        fall back to the sequential scalar path automatically -- with a
        :class:`~repro.engine.vector.VectorCapability` report attached as
        ``SweepResult.vector_report`` and a ``RuntimeWarning`` naming
        every obstacle, never silently.  ``SweepResult.backend`` records
        the backend that actually ran.  Per-run ``seconds`` are the
        batched wall time divided evenly across scenarios (the vector
        engine has no per-scenario clock).

    Determinism guarantee: with every stateful channel either seeded or
    overridden per scenario (as :func:`eta_monte_carlo` does), sequential,
    thread, process and vector backends produce bit-identical executions
    for the same scenarios -- kernels are rebuilt and channels reset per
    run, so no RNG state leaks across runs or workers.  The equivalence
    tests in ``tests/engine/test_sweep.py`` and
    ``tests/engine/test_vector.py`` pin this.

    Fault tolerance: ``backend="auto"``, or any of ``checkpoint=`` (an
    :class:`~repro.store.ArtifactStore` or directory path), ``retry=``,
    ``chunk_timeout=`` or ``on_chunk_failure=``, routes the sweep through
    the resilient sharded runner
    (:func:`repro.engine.shard.run_many_sharded`): scenarios split into
    deterministic spec-keyed chunks that are individually checkpointed,
    retried with exponential backoff, quarantined when poisonous, and
    dispatched per-chunk between the vector and scalar engines (by a
    deterministic cost model under ``backend="auto"``).  In
    sharded mode ``chunk_size`` means scenarios per chunk (default
    :data:`~repro.engine.shard.DEFAULT_CHUNK_SIZE`) and is part of the
    checkpoint identity.  See :mod:`repro.engine.shard` and
    ``docs/resilience.md`` for the full semantics.
    """
    sharded = (
        backend == "auto"
        or checkpoint is not None
        or retry is not None
        or chunk_timeout is not None
        or on_chunk_failure is not None
    )
    if sharded:
        from .shard import run_many_sharded

        return run_many_sharded(
            circuit,
            scenarios,
            checkpoint=checkpoint,
            backend=backend,
            max_workers=max_workers,
            chunk_size=chunk_size,
            retry=retry,
            chunk_timeout=chunk_timeout,
            on_chunk_failure=on_chunk_failure or "raise",
            on_causality=on_causality,
            max_events=max_events,
        )
    if backend not in ("sequential", "thread", "process", "vector"):
        raise ValueError(
            "backend must be 'auto', 'sequential', 'thread', 'process' "
            "or 'vector'"
        )
    if backend == "process" and max_workers is None:
        # An explicitly requested process backend means "use the cores":
        # silently running sequentially would ignore the caller's choice.
        max_workers = os.cpu_count() or 1
    topology = (
        circuit
        if isinstance(circuit, CircuitTopology)
        else CircuitTopology(circuit)
    )
    engine = Engine(topology, on_causality=on_causality, max_events=max_events)

    def execute(scenario: Scenario, *, isolate: bool) -> RunResult:
        channels = dict(scenario.channels) if scenario.channels else {}
        if isolate:
            for ename, edge in topology.edges.items():
                if ename not in channels:
                    channels[ename] = copy.deepcopy(edge.channel)
        start = _time.perf_counter()
        execution = engine.run(
            scenario.inputs, scenario.end_time, channels=channels or None
        )
        return RunResult(
            scenario=scenario,
            execution=execution,
            seconds=_time.perf_counter() - start,
        )

    start = _time.perf_counter()
    vector_report = None
    executed_backend = backend
    if backend == "vector":
        from .vector import VectorUnsupportedError, compile_sweep

        try:
            program = compile_sweep(
                topology,
                scenarios,
                on_causality=on_causality,
                max_events=max_events,
            )
            vector_report = program.report
            # run() can still refuse dynamically (same-instant deliveries
            # discovered mid-evaluation); that falls back like a compile
            # refusal, discarding the partial vector work.
            runs = program.run()
        except VectorUnsupportedError as exc:
            # Automatic fallback must never be silent: the capability
            # report rides on the result and the warning names every
            # obstacle, so a slow sweep is diagnosable.
            vector_report = exc.report
            executed_backend = "sequential"
            warnings.warn(
                "backend='vector' cannot express this sweep, falling back "
                f"to the sequential scalar engine ({exc.report.summary()})",
                RuntimeWarning,
                stacklevel=2,
            )
            runs = [execute(scenario, isolate=False) for scenario in scenarios]
        return SweepResult(
            topology=topology,
            runs=runs,
            total_seconds=_time.perf_counter() - start,
            backend=executed_backend,
            vector_report=vector_report,
        )
    parallel = (
        backend != "sequential"
        and max_workers is not None
        and max_workers > 1
        and len(scenarios) > 1
    )
    if parallel and backend == "process":
        runs = _run_many_process(
            topology,
            scenarios,
            on_causality=on_causality,
            max_events=max_events,
            max_workers=max_workers,
            chunk_size=chunk_size,
        )
    elif parallel:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            runs = list(pool.map(lambda s: execute(s, isolate=True), scenarios))
    else:
        runs = [execute(scenario, isolate=False) for scenario in scenarios]
        executed_backend = "sequential"
    return SweepResult(
        topology=topology,
        runs=runs,
        total_seconds=_time.perf_counter() - start,
        backend=executed_backend,
    )


def channel_overrides(
    circuit,
    factory: Callable[[object], object],
    *,
    skip_zero_delay: bool = True,
) -> Dict[str, object]:
    """Build a per-edge channel override map from a factory.

    ``factory`` is called with each edge and returns the replacement
    channel (or ``None`` to keep the base channel).  Zero-delay edges
    (ports, taps) are skipped by default, so ``channel_overrides(circuit,
    lambda e: make_channel())`` swaps exactly the timing channels of the
    circuit -- the usual way to evaluate one topology under a parameterised
    channel family.
    """
    from ..core.channel import ZeroDelayChannel

    # Circuit and CircuitTopology both expose `.edges` with the same shape.
    edges = circuit.edges
    overrides: Dict[str, object] = {}
    for ename, edge in edges.items():
        if skip_zero_delay and isinstance(edge.channel, ZeroDelayChannel):
            continue
        channel = factory(edge)
        if channel is not None:
            overrides[ename] = channel
    return overrides


def eta_monte_carlo(
    circuit,
    inputs: Dict[str, Signal],
    end_time: float,
    n_runs: int,
    *,
    seed: int = 0,
    name: str = "mc",
) -> List[Scenario]:
    """Scenario family sampling independent random eta adversaries per run.

    Every eta-involution channel edge of the circuit is overridden with a
    copy of its channel driven by a fresh
    :class:`~repro.core.adversary.RandomAdversary`, seeded independently
    per (run, edge) from a deterministic seed sequence -- Monte Carlo
    sampling over the paper's admissible parameter ``H``.  Edges with
    non-eta channels keep their base channel.  The per-(run, edge) seeding
    is what makes the scenarios embarrassingly parallel: any
    :func:`run_many` backend executes them bit-identically.
    """
    import numpy as np

    from ..core.adversary import RandomAdversary
    from ..core.eta_channel import EtaInvolutionChannel

    # Circuit and CircuitTopology both expose `.edges` with the same shape.
    edges = circuit.edges
    eta_edges = [
        (ename, edge)
        for ename, edge in edges.items()
        if isinstance(edge.channel, EtaInvolutionChannel)
    ]
    seed_seq = np.random.SeedSequence(seed)
    children = seed_seq.spawn(n_runs)

    # Precompute the per-scenario checkpoint fingerprints (see
    # Scenario.fingerprint): between runs only the adversary seed varies,
    # so the expensive part -- deriving each edge channel's spec dict --
    # happens once per edge instead of once per (run, edge).  The
    # fingerprint format keeps seeds in a separate ``channel_seeds``
    # entry, so the whole seed-free channel table (and the inputs table)
    # is one shared dict aliased by every run's fingerprint and treated
    # as immutable -- chunk keying then pools it once per chunk.
    # Circuits with unspeccable channels simply skip fingerprinting;
    # checkpointed sweeps then derive (or reject) through the generic
    # path.
    inputs_fp = base_fp = None
    try:
        from ..io.netlist import signal_to_dict
        from ..specs import ChannelSpec, SpecError, _seed_to_json

        inputs_fp = {
            port: signal_to_dict(signal) for port, signal in sorted(inputs.items())
        }
        base_fp = {}
        for ename, edge in eta_edges:
            ch = ChannelSpec.from_channel(
                edge.channel.with_adversary(RandomAdversary(seed=seed_seq))
            ).to_dict()
            adversary = dict(ch["adversary"])
            adversary.pop("seed", None)
            ch["adversary"] = adversary
            base_fp[ename] = ch
    except SpecError:
        inputs_fp = base_fp = None

    scenarios: List[Scenario] = []
    for run_index in range(n_runs):
        edge_seeds = children[run_index].spawn(len(eta_edges))
        overrides = {
            # A SeedSequence child works as a RandomAdversary seed and keeps
            # Adversary.reset() reproducible (default_rng(SeedSequence) is pure).
            ename: edge.channel.with_adversary(RandomAdversary(seed=edge_seeds[k]))
            for k, (ename, edge) in enumerate(eta_edges)
        }
        fingerprint = None
        if base_fp is not None:
            fingerprint = {"end_time": float(end_time), "inputs": inputs_fp}
            if base_fp:
                fingerprint["channels"] = base_fp
                fingerprint["channel_seeds"] = {
                    ename: _seed_to_json(edge_seeds[k])
                    for k, (ename, edge) in enumerate(eta_edges)
                }
        scenarios.append(
            Scenario(
                name=f"{name}[{run_index}]",
                inputs=inputs,
                end_time=end_time,
                channels=overrides,
                metadata={"run_index": run_index, "seed": seed},
                fingerprint=fingerprint,
            )
        )
    return scenarios


def sweep_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    max_workers: Optional[int] = None,
) -> List[_R]:
    """Ordered map over independent sweep points, optionally threaded.

    The analog characterisation drivers (Fig. 7/8/9 sweeps over supply
    voltages and variation scenarios) fan their independent condition
    sweeps out through this helper; with ``max_workers=None`` it degrades
    to a plain list comprehension, keeping results bitwise identical to the
    sequential loops it replaced.  Threads help here (unlike in the event
    loop) because these sweeps spend their time in numpy, which releases
    the GIL for array-sized work; closures over unpicklable state are also
    common in these drivers, which rules the process backend out.  For
    picklable, pure-Python workloads prefer
    ``run_many(..., backend="process")``.
    """
    items = list(items)
    if max_workers is None or max_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, items))
