"""Batched execution of scenario families through one shared engine.

Every experiment driver in this repository used to re-run the simulator
one parameter point at a time, re-validating the circuit and re-deriving
its adjacency for every single run.  :func:`run_many` amortises that work:
the circuit is validated and precomputed into a
:class:`~repro.engine.scheduler.CircuitTopology` exactly once, and each
:class:`Scenario` then only pays for its own event loop.  Scenarios can
override per-edge channels (parameterised channel families, per-run eta
adversaries); the chunked runner of :mod:`repro.engine.shard` executes
them on the scalar or vector engine, inline or on a process pool.

Helpers:

* :func:`channel_overrides` -- build a per-edge override map from a factory
  (e.g. "replace every non-zero-delay channel with a fresh eta channel"),
* :func:`eta_monte_carlo` -- scenario family sampling an independent random
  eta adversary per channel per run (Monte Carlo over the admissible
  parameter ``H`` of the paper's execution definition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.transitions import Signal
from .errors import SimulationError
from .scheduler import CircuitTopology, Execution

__all__ = [
    "Scenario",
    "RunResult",
    "SweepResult",
    "run_many",
    "channel_overrides",
    "eta_monte_carlo",
]


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

    ``backend`` joins the engines that executed the chunks with ``+``:
    ``"sequential"``, ``"vector"`` or ``"sequential+vector"`` (``None``
    for an empty sweep).  It differs from the requested backend when
    ``"auto"`` chose per chunk or a ``"vector"`` chunk fell back to the
    scalar engine; ``vector_report`` then carries the
    :class:`~repro.engine.vector.VectorCapability` naming every obstacle.

    ``shard_report`` is a :class:`~repro.engine.shard.ShardReport`: the
    executor, and per chunk the engine that ran it and why,
    resumed-vs-computed counts and attempts.  When chunks were
    quarantined under ``on_chunk_failure="keep"``, ``failure_report`` is
    a :class:`~repro.engine.shard.SweepFailureReport`.
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


def check_backend(backend: str) -> None:
    """Raise ``ValueError`` unless ``backend`` names a sweep engine.

    The check every entry point that takes ``backend=`` runs before any
    work: :func:`~repro.engine.shard.run_many_sharded` and
    :func:`repro.experiments.run_experiment` (before its cache lookup, so
    an unknown backend never reaches provenance or a stored artifact).
    """
    if backend not in ("auto", "sequential", "vector"):
        raise ValueError(
            f"backend must be 'auto', 'sequential' or 'vector', not {backend!r}; "
            "to run chunks on N worker processes pass max_workers=N (None or 1 "
            "runs them inline)"
        )


def run_many(
    circuit,
    scenarios: Sequence[Scenario],
    *,
    on_causality: str = "error",
    max_events: int = 1_000_000,
    max_workers: Optional[int] = None,
    backend: str = "sequential",
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

    Every sweep takes the same pipeline
    (:func:`repro.engine.shard.run_many_sharded`): the scenarios are
    planned into order-preserving chunks, each chunk runs on one engine,
    inline or on a process pool, and the results are collected in
    scenario order.  Two knobs choose how:

    ``backend``
        The engine of each chunk.  ``"sequential"`` runs the scalar event
        loop.  ``"vector"`` runs every chunk the NumPy batch engine
        (:mod:`repro.engine.vector`) can express on it; a chunk it cannot
        express runs scalar, with a ``RuntimeWarning`` naming the
        obstacle and the reasons collected in ``SweepResult.
        vector_report``.  ``"auto"`` picks the engine per chunk from a
        deterministic cost model (see :mod:`repro.engine.shard`).
    ``max_workers``
        Where chunks run: ``None`` or 1 inline in this process, N > 1 on
        a pool of N worker processes.  Workers receive the circuit once
        as declarative :class:`~repro.specs.CircuitSpec` JSON and the
        scenarios as pickled chunks, so the pool needs a
        spec-representable circuit and picklable scenarios; both are
        checked before any worker starts.

    ``chunk_size`` (scenarios per chunk) defaults to
    :data:`~repro.engine.shard.DEFAULT_CHUNK_SIZE` when checkpointing,
    because chunk boundaries are part of the checkpoint key, and
    otherwise to an even split across the workers -- the whole sweep in
    one chunk inline.

    Determinism guarantee: with every stateful channel either seeded or
    overridden per scenario (as :func:`eta_monte_carlo` does), every
    engine, executor and chunk size produces bit-identical executions
    for the same scenarios -- kernels are rebuilt and channels reset per
    run, so no RNG state leaks across runs or workers.  The equivalence
    tests in ``tests/engine/test_sweep.py`` and
    ``tests/engine/test_vector.py`` pin this.

    Fault tolerance: ``checkpoint=`` (an
    :class:`~repro.store.ArtifactStore` or directory path) stores every
    finished chunk under a content key, so a rerun resumes
    bit-identically.  ``retry=`` (total attempts, default 1) is for a
    chunk whose pool worker crashed or overran ``chunk_timeout=``; a
    chunk that raised would raise again and gets one attempt.  With
    ``on_chunk_failure`` unset, a chunk's own exception propagates
    unchanged; ``"raise"`` quarantines failing chunks and raises
    :class:`~repro.engine.shard.SweepFailedError` once their siblings
    finish, ``"keep"`` returns the surviving runs with a
    ``failure_report``.  See ``docs/resilience.md``.
    """
    # Imported per call, not with this module: a cached experiment imports
    # the sweep API without running a sweep.
    from . import shard

    return shard.run_many_sharded(
        circuit,
        scenarios,
        checkpoint=checkpoint,
        backend=backend,
        max_workers=max_workers,
        chunk_size=chunk_size,
        retry=retry,
        chunk_timeout=chunk_timeout,
        on_chunk_failure=on_chunk_failure,
        on_causality=on_causality,
        max_events=max_events,
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
    is what makes the scenarios embarrassingly parallel: every
    :func:`run_many` engine and executor runs them bit-identically.
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
