"""The sweep pipeline: plan chunks, execute them, collect the results.

Every :func:`repro.engine.sweep.run_many` call runs here.  A sweep is
split into deterministic, order-preserving *chunks* (:func:`make_chunks`);
each chunk runs on one engine, either inline or on a respawning process
pool; the runs are collected in scenario order.  Two knobs choose how:
``backend`` picks the engine of each chunk (``"auto"``, ``"sequential"``
or ``"vector"``), ``max_workers`` picks where chunks run (``None`` or 1
inline, N > 1 on N worker processes).

Chunk size
    An explicit ``chunk_size`` wins.  Otherwise it is
    :data:`DEFAULT_CHUNK_SIZE` when checkpointing -- chunk boundaries are
    part of the checkpoint key -- and an even split across the workers
    without a store, i.e. the whole sweep in one chunk inline.

Checkpointing (an optional store)
    With ``checkpoint=`` (an :class:`~repro.store.ArtifactStore` or
    directory path) every finished chunk is written to the store at
    once, on the sweep's own thread, under a content key -- the
    SHA-256 of the circuit's declarative spec plus the chunk's
    computation-relevant scenario JSON (inputs, channel overrides,
    horizons, engine policies; see :func:`chunk_spec`).  A write that
    fails ends the sweep with its exception at that chunk.  A killed or
    crashed sweep *resumes* by loading finished chunks and recomputing
    only the remainder, bit-identical to an uninterrupted run: the
    packed signal encoding round-trips float64 times exactly.

Retry, timeout, and failing chunks
    A chunk's run is fixed by its scenarios, so a chunk that raised
    would raise again: it gets one attempt.  Only the process pool
    retries, and only the two failures a retry can fix -- a worker that
    died (:class:`WorkerCrashError`: OOM-killed, segfaulted) and a chunk
    that overran its wall-clock ``chunk_timeout``
    (:class:`ChunkTimeoutError`).  Both are recovered by killing and
    respawning the pool; the chunk then waits an exponential backoff and
    runs again, up to ``retry=`` attempts in all.  A dead worker fails
    every chunk in flight, so only a chunk that ran alone is charged the
    crash; chunks that ran together rerun one at a time first.  What
    happens to a chunk whose last attempt failed is the same for every
    engine and executor: with ``on_chunk_failure`` unset its own
    exception propagates unchanged.  ``"raise"`` *quarantines* it -- the
    exception is captured in a structured :class:`ChunkFailure`, sibling
    chunks complete normally, and the sweep raises a
    :class:`SweepFailedError` at the end -- and ``"keep"`` returns the
    surviving runs with the :class:`SweepFailureReport` attached to
    ``SweepResult.failure_report``.

Per-chunk engine dispatch
    With ``backend="auto"`` every chunk picks its engine from a
    deterministic cost model in scalar-event units: a chunk with fewer
    scenarios than the vector break-even runs scalar without compiling,
    and a cyclic chunk whose fixpoint iteration costs more than the
    scalar engine would stops and reruns scalar.  Those are decisions,
    recorded per chunk (:class:`ChunkRecord`), not fallbacks.
    ``backend="vector"`` runs every chunk that compiles on the vector
    engine.  A chunk the vector engine cannot express falls back to the
    scalar engine, never silently: a ``RuntimeWarning`` names the
    obstacle, and the sweep's ``vector_report`` collects them per chunk.

Fault injection
    The private ``_chaos`` table of :func:`run_many_sharded` raises
    chosen faults on chosen ``(chunk, attempt)`` pairs, inline and in
    pool workers alike -- the deterministic harness the test-suite uses
    to prove resume equivalence, retry and quarantine (see
    :func:`_apply_chaos`).
"""

from __future__ import annotations

import base64
import math
import os
import pickle
import time as _time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.transitions import Signal, _decode_signals, _signal_times
from .errors import SimulationError
from .scheduler import CircuitTopology, Engine, Execution

__all__ = [
    "CHUNK_FORMAT",
    "DEFAULT_CHUNK_SIZE",
    "ChunkError",
    "ChunkTimeoutError",
    "WorkerCrashError",
    "SweepFailedError",
    "SweepChunk",
    "ChunkFailure",
    "SweepFailureReport",
    "ChunkRecord",
    "ShardReport",
    "make_chunks",
    "chunk_spec",
    "scenario_fingerprint",
    "run_many_sharded",
]

#: Artifact format tag of per-chunk checkpoint payloads.
CHUNK_FORMAT = "repro-sweep-chunk"

#: Scenarios per chunk when ``chunk_size`` is not given.  Deliberately a
#: fixed constant (never derived from the worker count): chunk boundaries
#: are part of the checkpoint key, and a resume on a machine with a
#: different core count must still hit the stored chunks.
DEFAULT_CHUNK_SIZE = 16

#: Backoff before a pool retry: the second attempt waits _BACKOFF_S, each
#: later one twice as long as the one before, at most _BACKOFF_MAX_S -- a
#: crashed worker is usually a transient resource squeeze (an OOM-killed
#: worker, a saturated machine), which waiting relieves.
_BACKOFF_S = 0.1
_BACKOFF_MAX_S = 30.0


def _backoff(attempt: int) -> float:
    """Seconds to wait before the given attempt (1-based; 0 for the first)."""
    return 0.0 if attempt <= 1 else min(_BACKOFF_S * 2.0 ** (attempt - 2), _BACKOFF_MAX_S)


# --------------------------------------------------------------------------- #
# Errors and failure reporting
# --------------------------------------------------------------------------- #


class ChunkError(SimulationError):
    """Base class of chunk-level execution failures."""


class ChunkTimeoutError(ChunkError):
    """A chunk exceeded its per-attempt wall-clock timeout."""


class WorkerCrashError(ChunkError):
    """A process worker died mid-chunk (``BrokenProcessPool``, kill, OOM)."""


@dataclass(frozen=True)
class ChunkFailure:
    """One quarantined chunk: what failed, how, and after how many tries."""

    index: int
    scenario_names: Tuple[str, ...]
    attempts: int
    kind: str  # "timeout" | "crash" | "exception"
    error: str
    error_type: str
    key: Optional[str] = None

    def summary(self) -> str:
        """One-line human-readable description of this failure."""
        names = ", ".join(self.scenario_names[:3])
        if len(self.scenario_names) > 3:
            names += f", ... ({len(self.scenario_names)} scenarios)"
        return (
            f"chunk {self.index} [{names}] failed after {self.attempts} "
            f"attempt(s): {self.kind}: {self.error}"
        )


@dataclass(frozen=True)
class SweepFailureReport:
    """Structured account of every quarantined chunk of a sweep."""

    failures: Tuple[ChunkFailure, ...]

    def __len__(self) -> int:
        return len(self.failures)

    def __iter__(self):
        return iter(self.failures)

    def summary(self) -> str:
        """One-line roll-up naming each failed chunk."""
        return (
            f"{len(self.failures)} chunk(s) quarantined: "
            + "; ".join(f.summary() for f in self.failures)
        )


class SweepFailedError(SimulationError):
    """Raised at sweep end when chunks were quarantined (``on_chunk_failure="raise"``).

    Carries the :class:`SweepFailureReport` as ``report`` and the partial
    :class:`~repro.engine.sweep.SweepResult` (surviving runs, shard
    report, any checkpointed progress) as ``result`` -- the work that
    *did* finish is never discarded, and a checkpointed rerun resumes it.
    """

    def __init__(self, report: SweepFailureReport, result) -> None:
        super().__init__(report.summary())
        self.report = report
        self.result = result


# --------------------------------------------------------------------------- #
# Chunking and content keys
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SweepChunk:
    """A contiguous slice of a sweep's scenarios, with its content key.

    ``spec``/``key`` are ``None`` unless the sweep is checkpointed --
    keying requires spec-representable scenarios, which uncheckpointed
    sweeps need not satisfy.
    """

    index: int
    scenarios: Tuple[object, ...]
    spec: Optional[Dict[str, Any]] = None
    key: Optional[str] = None

    @property
    def names(self) -> Tuple[str, ...]:
        """Scenario names of this chunk (labels only, not key material)."""
        return tuple(s.name for s in self.scenarios)


def scenario_fingerprint(scenario, *, _signal_memo=None) -> Dict[str, Any]:
    """The computation-relevant canonical JSON of one scenario.

    Covers exactly what determines the scenario's execution: input
    signals, the simulation horizon, and per-edge channel overrides as
    declarative :class:`~repro.specs.ChannelSpec` dicts.  Adversary
    *seeds* are split out of the channel dicts into a separate
    ``channel_seeds`` entry: in the common scenario family (a Monte
    Carlo sweep) the seed is the *only* thing that differs between
    scenarios, and the split lets :func:`chunk_spec` pool one shared
    seed-free channel table per chunk instead of repeating ~10 KB of
    channel parameters per scenario.  Scenario ``name`` and ``metadata``
    are display labels and deliberately excluded -- renaming runs must
    not invalidate a checkpoint.  Raises
    :class:`~repro.specs.SpecError` for channels that cannot be expressed
    as specs.

    ``_signal_memo`` is an identity-keyed cache :func:`make_chunks`
    shares across a whole sweep's fingerprints: scenario families
    typically reuse the very same input-signal objects in every scenario,
    and serialising a long pulse train once instead of once per scenario
    keeps chunk keying off the checkpoint-overhead bill.

    Scenarios whose producer precomputed ``scenario.fingerprint`` (e.g.
    :func:`~repro.engine.sweep.eta_monte_carlo`, which knows only the
    adversary seed varies between runs) return it directly -- the
    equivalence of the precomputed and derived forms is pinned by the
    test-suite.
    """
    precomputed = getattr(scenario, "fingerprint", None)
    if precomputed is not None:
        return precomputed

    from ..io.netlist import signal_to_dict
    from ..specs import ChannelSpec

    inputs: Dict[str, Any] = {}
    for port, signal in sorted(scenario.inputs.items()):
        if _signal_memo is None:
            inputs[port] = signal_to_dict(signal)
        else:
            cached = _signal_memo.get(id(signal))
            if cached is None:
                cached = _signal_memo[id(signal)] = signal_to_dict(signal)
            inputs[port] = cached
    data: Dict[str, Any] = {
        "end_time": float(scenario.end_time),
        "inputs": inputs,
    }
    if scenario.channels:
        channels: Dict[str, Any] = {}
        seeds: Dict[str, Any] = {}
        for ename, channel in sorted(scenario.channels.items()):
            ch = ChannelSpec.from_channel(channel).to_dict()
            adv = ch.get("adversary")
            if isinstance(adv, dict) and "seed" in adv:
                adv = dict(adv)
                seeds[ename] = adv.pop("seed")
                ch = dict(ch)
                ch["adversary"] = adv
            channels[ename] = ch
        data["channels"] = channels
        if seeds:
            data["channel_seeds"] = seeds
    return data


def chunk_spec(
    circuit_spec: Dict[str, Any],
    scenarios: Sequence[object],
    *,
    on_causality: str,
    max_events: int,
    _signal_memo=None,
    _text_memo=None,
) -> Dict[str, Any]:
    """The content spec a chunk checkpoint is keyed on.

    SHA-256 of this dict's canonical JSON (via
    :meth:`repro.store.ArtifactStore.key_for`) is the chunk key: it pins
    the circuit (declarative spec), every scenario's computation-relevant
    fingerprint *in order*, and the engine policies that shape results.
    Chunk boundaries are part of the identity -- resuming with a
    different ``chunk_size`` recomputes (correctly, never wrongly).

    The bulky fingerprint components -- the ``inputs`` signal table and
    the seed-free ``channels`` table -- are *pooled*: each distinct value
    is stored once in the chunk's ``pool`` list and referenced by index
    from the per-scenario entries.  Scenario families share their input
    signals and channel parameters across every scenario (only adversary
    seeds differ), so pooling shrinks the keyed spec (and the spec
    embedded in every checkpoint artifact) by an order of magnitude.
    Pooling is by *value* (canonical JSON), so the chunk key never
    depends on whether a producer happened to alias the dicts.

    ``_text_memo`` is an id-keyed canonical-text cache shared across a
    sweep's chunks by :func:`make_chunks`, so aliased pool entries are
    canonicalised once per sweep rather than once per scenario.  Each
    entry pins ``(value, text)`` -- keeping the keyed object alive is
    what makes the ``id()`` key sound (a freed dict's id can be reused
    by a different value, which would silently poison the cache).
    """
    from ..specs import _canonical_key

    pool: List[Any] = []
    pool_index: Dict[str, int] = {}

    def intern(value: Any) -> int:
        if _text_memo is not None:
            entry = _text_memo.get(id(value))
            if entry is None or entry[0] is not value:
                entry = _text_memo[id(value)] = (value, _canonical_key(value))
            text = entry[1]
        else:
            text = _canonical_key(value)
        idx = pool_index.get(text)
        if idx is None:
            idx = pool_index[text] = len(pool)
            pool.append(value)
        return idx

    fingerprints: List[Dict[str, Any]] = []
    for s in scenarios:
        fp = dict(scenario_fingerprint(s, _signal_memo=_signal_memo))
        fp["inputs"] = intern(fp["inputs"])
        if "channels" in fp:
            fp["channels"] = intern(fp["channels"])
        fingerprints.append(fp)
    return {
        "kind": "sweep_chunk",
        "format_version": 1,
        "circuit": circuit_spec,
        "on_causality": on_causality,
        "max_events": int(max_events),
        "pool": pool,
        "scenarios": fingerprints,
    }


def make_chunks(
    scenarios: Sequence[object],
    chunk_size: int,
    *,
    circuit_spec: Optional[Dict[str, Any]] = None,
    on_causality: str = "error",
    max_events: int = 1_000_000,
) -> List[SweepChunk]:
    """Split scenarios into deterministic, order-preserving chunks.

    With ``circuit_spec`` given (checkpointed sweeps), every chunk also
    carries its content spec and SHA-256 key.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    chunks: List[SweepChunk] = []
    signal_memo: Dict[int, Any] = {}
    text_memo: Dict[int, Tuple[Any, str]] = {}
    for index, start in enumerate(range(0, len(scenarios), chunk_size)):
        part = tuple(scenarios[start : start + chunk_size])
        spec = key = None
        if circuit_spec is not None:
            from ..store import ArtifactStore

            spec = chunk_spec(
                circuit_spec,
                part,
                on_causality=on_causality,
                max_events=max_events,
                _signal_memo=signal_memo,
                _text_memo=text_memo,
            )
            key = ArtifactStore.key_for(spec)
        chunks.append(SweepChunk(index=index, scenarios=part, spec=spec, key=key))
    return chunks


# --------------------------------------------------------------------------- #
# Chunk payload encoding (the checkpoint wire format)
# --------------------------------------------------------------------------- #
# A signal is stored as {"i": initial value, "t": base64 of its times
# array's native float64 bytes} -- the same bytes Signal.__reduce__ ships
# to and from process workers, so encoding is one buffer copy and
# decoding one frombytes per signal.  Transition values are never stored:
# alternation is a hard Signal invariant, so the initial value determines
# them.  Float64 bits survive the round trip exactly, which is what makes
# a resumed sweep bit-identical to an uninterrupted one.  Decoding trusts
# nothing: a run whose node or edge names differ from the topology's, or
# whose signals break the Signal invariants, makes the chunk a miss.


def _pack_signal(signal: Signal) -> Dict[str, Any]:
    return {
        "i": signal.initial_value,
        "t": base64.b64encode(_signal_times(signal)).decode("ascii"),
    }


def _encode_chunk_payload(outcome: "_ChunkOutcome") -> Dict[str, Any]:
    runs = []
    for run in outcome.runs:
        execution = run.execution
        runs.append(
            {
                "node_signals": {
                    name: _pack_signal(sig)
                    for name, sig in execution.node_signals.items()
                },
                "edge_signals": {
                    name: _pack_signal(sig)
                    for name, sig in execution.edge_signals.items()
                },
                "event_count": execution.event_count,
                "dropped_transitions": execution.dropped_transitions,
                "seconds": run.seconds,
            }
        )
    return {
        "backend": outcome.backend,
        "vector_reasons": list(outcome.vector_reasons),
        "decision": {
            "reason": outcome.reason,
            "scalar_cost": outcome.scalar_cost,
            "vector_cost": outcome.vector_cost,
        },
        "seconds": outcome.seconds,
        "runs": runs,
    }


def _optional_float(value) -> Optional[float]:
    return None if value is None else float(value)


def _decode_chunk_payload(topo: CircuitTopology, chunk: SweepChunk, payload):
    """Rebuild the chunk's RunResults from a payload, or ``None`` if damaged."""
    from .sweep import RunResult

    try:
        encoded_runs = payload["runs"]
        if len(encoded_runs) != len(chunk.scenarios):
            return None
        node_names, edge_names = set(topo.node_names), set(topo.edge_names)
        packed = []
        for data in encoded_runs:
            if (
                data["node_signals"].keys() != node_names
                or data["edge_signals"].keys() != edge_names
            ):
                return None
            for group in (data["node_signals"], data["edge_signals"]):
                packed.extend(
                    (sig["i"], base64.b64decode(sig["t"])) for sig in group.values()
                )
        signals = iter(_decode_signals(packed))
        runs = []
        for scenario, data in zip(chunk.scenarios, encoded_runs):
            node_signals = {name: next(signals) for name in data["node_signals"]}
            edge_signals = {name: next(signals) for name in data["edge_signals"]}
            output_signals = {o: node_signals[o] for o in topo.output_ports}
            runs.append(
                RunResult(
                    scenario=scenario,
                    execution=Execution(
                        circuit=topo.circuit,
                        node_signals=node_signals,
                        edge_signals=edge_signals,
                        output_signals=output_signals,
                        end_time=scenario.end_time,
                        event_count=int(data["event_count"]),
                        dropped_transitions=int(data["dropped_transitions"]),
                    ),
                    seconds=float(data["seconds"]),
                )
            )
        decision = payload.get("decision") or {}
        return _ChunkOutcome(
            runs=runs,
            backend=str(payload.get("backend", "sequential")),
            vector_reasons=tuple(payload.get("vector_reasons", ())),
            seconds=float(payload.get("seconds", 0.0)),
            payload=payload,
            reason=str(decision.get("reason", "")),
            scalar_cost=_optional_float(decision.get("scalar_cost")),
            vector_cost=_optional_float(decision.get("vector_cost")),
        )
    except (AttributeError, KeyError, TypeError, ValueError):
        # Damaged checkpoint content: treat as a miss and recompute --
        # exactly the store's own damaged-artifact discipline.
        return None


# --------------------------------------------------------------------------- #
# Chunk execution
# --------------------------------------------------------------------------- #


@dataclass
class _ChunkOutcome:
    """One executed (or resumed) chunk: live runs plus bookkeeping."""

    runs: List[object]
    backend: str
    vector_reasons: Tuple[str, ...]
    seconds: float
    payload: Optional[Dict[str, Any]] = None
    reason: str = ""
    scalar_cost: Optional[float] = None
    vector_cost: Optional[float] = None


def _execute_chunk(
    topo: CircuitTopology,
    engine: Engine,
    scenarios: Sequence[object],
    *,
    dispatch: Optional[str],
    on_causality: str,
    max_events: int,
    on_fallback: Optional[Callable[[Tuple[str, ...]], None]] = None,
) -> _ChunkOutcome:
    """Run one chunk on the engine ``dispatch`` chooses.

    ``dispatch`` is ``"auto"`` (the cost model decides), ``"vector"``
    (the vector engine whenever the chunk compiles) or ``None`` (scalar).
    Under dispatch the outcome records why its engine ran and the cost
    model's two estimates in scalar events: the scalar engine's event
    count, and the lockstep cost the vector engine paid or would pay.
    ``on_fallback`` hears the obstacles of a chunk the vector engine
    refuses, before the chunk reruns scalar (whose error, if any, then
    propagates).
    """
    from .sweep import RunResult

    start = _time.perf_counter()
    lanes = len(scenarios)
    reasons: Tuple[str, ...] = ()
    reason = ""
    scalar_cost = vector_cost = None
    if dispatch:
        from .vector import (
            _BREAK_EVEN_LANES,
            VectorUnsupportedError,
            _lockstep_cost,
            _ScalarCheaper,
            compile_sweep,
        )

        if dispatch == "auto" and lanes < _BREAK_EVEN_LANES:
            reason = (
                f"{lanes} scenario(s), below the vector break-even of "
                f"{_BREAK_EVEN_LANES}"
            )
        else:
            try:
                program = compile_sweep(
                    topo, scenarios, on_causality=on_causality, max_events=max_events
                )
                runs = program.run(_cost_limited=dispatch == "auto")
            except _ScalarCheaper as exc:
                reason = str(exc)
                scalar_cost, vector_cost = exc.scalar_cost, exc.vector_cost
            except VectorUnsupportedError as exc:
                # Per-chunk fallback: only THIS chunk pays the scalar price.
                reasons = exc.report.reasons
                reason = "the vector engine cannot run this chunk"
                if on_fallback is not None:
                    on_fallback(reasons)
            else:
                return _ChunkOutcome(
                    runs=runs,
                    backend="vector",
                    vector_reasons=(),
                    seconds=_time.perf_counter() - start,
                    reason=(
                        f"{lanes} scenarios reach the vector break-even of "
                        f"{_BREAK_EVEN_LANES}"
                        if dispatch == "auto"
                        else "backend='vector' requested"
                    ),
                    scalar_cost=float(sum(r.execution.event_count for r in runs)),
                    vector_cost=program.lockstep_cost,
                )
    runs = []
    for scenario in scenarios:
        run_start = _time.perf_counter()
        execution = engine.run(
            scenario.inputs, scenario.end_time, channels=scenario.channels or None
        )
        runs.append(
            RunResult(
                scenario=scenario,
                execution=execution,
                seconds=_time.perf_counter() - run_start,
            )
        )
    if dispatch and scalar_cost is None:
        # Acyclic lockstep takes about one step per event of the longest
        # scenario; an unsupported chunk has no vector estimate.
        events = [run.execution.event_count for run in runs]
        scalar_cost = float(sum(events))
        if not reasons:
            vector_cost = _lockstep_cost(max(events), lanes)
    return _ChunkOutcome(
        runs=runs,
        backend="sequential",
        vector_reasons=reasons,
        seconds=_time.perf_counter() - start,
        reason=reason,
        scalar_cost=scalar_cost,
        vector_cost=vector_cost,
    )


def _warn_fallback(reasons: Sequence[str]) -> None:
    """The fallback warning: a chunk the vector engine refused runs scalar."""
    warnings.warn(
        "a sweep chunk fell back to the scalar engine: the vector engine "
        f"cannot run it ({'; '.join(reasons)})",
        RuntimeWarning,
        stacklevel=2,
    )


# --------------------------------------------------------------------------- #
# Process-pool execution with kill/hang recovery
# --------------------------------------------------------------------------- #
# Workers rebuild the engine once per process from the declarative
# CircuitSpec JSON (specs preserve node/edge order, so the rebuilt circuit
# executes bit-identically; no circuit object is ever pickled) and run
# whole chunks on the engine the dispatch picks, returning the packed JSON
# payload, which the parent both decodes into live runs and (when
# checkpointing) writes to the store verbatim.

_SHARD_WORKER: Optional[Dict[str, Any]] = None


def _shard_worker_init(
    spec_json: str,
    on_causality: str,
    max_events: int,
    dispatch: Optional[str],
    chaos: Dict[str, Set[Tuple[int, int]]],
) -> None:
    global _SHARD_WORKER
    from ..specs import CircuitSpec

    circuit = CircuitSpec.from_json(spec_json).build()
    topo = CircuitTopology(circuit)
    _SHARD_WORKER = {
        "topo": topo,
        "engine": Engine(topo, on_causality=on_causality, max_events=max_events),
        "on_causality": on_causality,
        "max_events": max_events,
        "dispatch": dispatch,
        "chaos": chaos,
    }


def _apply_chaos(chaos: Dict[str, Set[Tuple[int, int]]], chunk_index: int, attempt: int) -> None:
    """Test-only fault hooks: the fault listed for this ``(chunk, attempt)``.

    ``"kill"`` ends the worker process, ``"hang"`` blocks it until the
    parent's ``chunk_timeout`` kills it (both pool-only), ``"raise"``
    raises a :class:`RuntimeError` and ``"abort"`` a
    :class:`KeyboardInterrupt`, which stands for the whole sweep process
    dying mid-flight.  Unlisted pairs execute normally.
    """
    pair = (chunk_index, attempt)
    if pair in chaos.get("kill", ()):
        os._exit(1)  # simulates an OOM-kill / segfault: no cleanup, no excuse
    if pair in chaos.get("hang", ()):
        _time.sleep(3600.0)  # parent's chunk_timeout must kill us
    if pair in chaos.get("raise", ()):
        raise RuntimeError(f"chaos: injected failure in chunk {chunk_index}")
    if pair in chaos.get("abort", ()):
        raise KeyboardInterrupt


def _shard_worker_run(chunk_index: int, attempt: int, scenarios: bytes) -> Dict[str, Any]:
    state = _SHARD_WORKER
    _apply_chaos(state["chaos"], chunk_index, attempt)
    outcome = _execute_chunk(
        state["topo"],
        state["engine"],
        pickle.loads(scenarios),
        dispatch=state["dispatch"],
        on_causality=state["on_causality"],
        max_events=state["max_events"],
    )
    return _encode_chunk_payload(outcome)


class _ProcessChunkRunner:
    """Runs chunks on a respawnable process pool with timeouts and retries."""

    def __init__(
        self,
        spec_json: str,
        *,
        on_causality: str,
        max_events: int,
        dispatch: Optional[str],
        max_workers: int,
        chunk_timeout: Optional[float],
        chaos: Dict[str, Set[Tuple[int, int]]],
    ) -> None:
        self.spec_json = spec_json
        self.on_causality = on_causality
        self.max_events = max_events
        self.dispatch = dispatch
        self.max_workers = max(1, max_workers)
        self.chunk_timeout = chunk_timeout
        self.chaos = chaos
        self._pool: Optional[ProcessPoolExecutor] = None

    def _pool_or_spawn(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_shard_worker_init,
                initargs=(
                    self.spec_json,
                    self.on_causality,
                    self.max_events,
                    self.dispatch,
                    self.chaos,
                ),
            )
        return self._pool

    def _kill_pool(self) -> None:
        # A hung or broken pool cannot be drained politely: terminate the
        # workers outright (a worker sleeping in a stuck chunk would
        # otherwise keep the interpreter alive at exit), then shut down.
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except OSError:
                pass
        pool.shutdown(wait=True, cancel_futures=True)

    def _submit(self, chunk: SweepChunk, attempt: int, scenarios: bytes):
        try:
            return self._pool_or_spawn().submit(
                _shard_worker_run, chunk.index, attempt, scenarios
            )
        except BrokenProcessPool:
            self._kill_pool()
            return self._pool_or_spawn().submit(
                _shard_worker_run, chunk.index, attempt, scenarios
            )

    def run(
        self,
        chunks: Sequence[SweepChunk],
        attempts: int,
        on_success: Callable[[SweepChunk, Dict[str, Any], int], None],
        on_failure: Callable[[SweepChunk, int, BaseException], None],
    ) -> None:
        """Drive all chunks to success or failure; callbacks per chunk.

        A chunk whose worker died or overran ``chunk_timeout`` runs again
        after a backoff, up to ``attempts`` in all; one that raised does
        not.  A worker's death is charged to the chunk only when it ran
        alone.  ``on_failure`` gets each chunk whose last attempt failed;
        an exception it raises, like one of ``on_success``, ends the run,
        and the pool with it.
        """
        # Scenarios are pickled once, before any worker starts, so an
        # unpicklable sweep fails up front and a retry re-sends bytes.
        try:
            scenarios = {chunk.index: pickle.dumps(chunk.scenarios) for chunk in chunks}
        except Exception as exc:
            raise SimulationError(
                "max_workers > 1 ships the scenarios to its workers, so every "
                "scenario (inputs, channel overrides, metadata) must be "
                f"picklable ({exc}); run closure-based channels inline "
                "(max_workers=None)"
            ) from exc
        # waiting: (chunk, attempt, ready_at); in_flight: future -> (chunk,
        # attempt, deadline).  At most max_workers chunks are in flight, so
        # a submission's timeout clock starts when a worker actually can.
        # suspects: (chunk, attempt) of the chunks in flight together when a
        # worker died; they run one at a time, before any other chunk.
        waiting = deque(
            (chunk, 1, 0.0) for chunk in sorted(chunks, key=lambda c: c.index)
        )
        in_flight: Dict[object, Tuple[SweepChunk, int, float]] = {}
        suspects: deque[Tuple[SweepChunk, int]] = deque()

        def submit(chunk, attempt) -> None:
            deadline = (
                math.inf
                if self.chunk_timeout is None
                else _time.monotonic() + self.chunk_timeout
            )
            future = self._submit(chunk, attempt, scenarios[chunk.index])
            in_flight[future] = (chunk, attempt, deadline)

        def retry_or_fail(chunk, attempt, error) -> None:
            if attempt < attempts:
                ready = _time.monotonic() + _backoff(attempt + 1)
                waiting.append((chunk, attempt + 1, ready))
            else:
                on_failure(chunk, attempt, error)

        try:
            while waiting or in_flight or suspects:
                now = _time.monotonic()
                if suspects:
                    if not in_flight:
                        submit(*suspects.popleft())
                else:
                    ready = sorted(
                        (item for item in waiting if item[2] <= now),
                        key=lambda item: item[0].index,
                    )
                    for item in ready:
                        if len(in_flight) >= self.max_workers:
                            break
                        waiting.remove(item)
                        submit(*item[:2])
                if not in_flight:
                    # Everything is backing off: sleep until the first retry.
                    _time.sleep(max(0.0, min(item[2] for item in waiting) - now))
                    continue
                # Wake for the first deadline or retry still in the future;
                # chunks already ready but waiting for a free worker wait
                # for a completion instead (counting them would spin).
                wake = min(
                    [dl for (_, _, dl) in in_flight.values()]
                    + [item[2] for item in waiting if item[2] > now],
                )
                done, _ = wait(
                    set(in_flight),
                    timeout=None if wake == math.inf else max(0.0, wake - now),
                    return_when=FIRST_COMPLETED,
                )
                broken: List[Tuple[SweepChunk, int]] = []
                for future in sorted(done, key=lambda f: in_flight[f][0].index):
                    chunk, attempt, _ = in_flight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken.append((chunk, attempt))
                        continue
                    except Exception as exc:
                        on_failure(chunk, attempt, exc)
                        continue
                    on_success(chunk, payload, attempt)
                if broken:
                    # A dead worker fails every future in flight, so the pool
                    # cannot tell which chunk killed it.  A chunk that ran
                    # alone is charged the attempt; several rerun alone, at
                    # the same attempt, until each finishes or breaks alone.
                    self._kill_pool()
                    broken += [item[:2] for item in in_flight.values()]
                    in_flight.clear()
                    if len(broken) > 1:
                        suspects.extend(sorted(broken, key=lambda item: item[0].index))
                        continue
                    ((chunk, attempt),) = broken
                    retry_or_fail(
                        chunk,
                        attempt,
                        WorkerCrashError(
                            f"process worker died while running chunk {chunk.index}"
                        ),
                    )
                    continue
                now = _time.monotonic()
                expired = [
                    future
                    for future, (_, _, deadline) in in_flight.items()
                    if deadline <= now and future not in done
                ]
                if expired:
                    for future in sorted(expired, key=lambda f: in_flight[f][0].index):
                        chunk, attempt, _ = in_flight.pop(future)
                        retry_or_fail(
                            chunk,
                            attempt,
                            ChunkTimeoutError(
                                f"chunk {chunk.index} exceeded its "
                                f"{self.chunk_timeout:g}s wall-clock timeout"
                            ),
                        )
                    # The stuck worker cannot be cancelled -- kill the pool
                    # and resubmit the innocent bystanders untouched.
                    self._kill_pool()
                    for chunk, attempt, _ in in_flight.values():
                        waiting.append((chunk, attempt, 0.0))
                    in_flight.clear()
        finally:
            self._kill_pool()


# --------------------------------------------------------------------------- #
# Chunk bookkeeping attached to SweepResult
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ChunkRecord:
    """How one chunk of a sweep was satisfied.

    Under engine dispatch (``backend="auto"`` or ``"vector"``)
    ``reason`` says why ``backend`` ran the chunk, and ``scalar_cost`` /
    ``vector_cost`` are the cost model's two estimates in scalar events
    (``vector_cost`` is ``None`` for chunks the vector engine cannot run).
    Resumed chunks report the decision stored with their checkpoint.
    """

    index: int
    scenarios: int
    backend: str
    resumed: bool
    attempts: int
    seconds: float
    vector_reasons: Tuple[str, ...] = ()
    key: Optional[str] = None
    reason: str = ""
    scalar_cost: Optional[float] = None
    vector_cost: Optional[float] = None

    @classmethod
    def _of(
        cls, chunk: SweepChunk, outcome: "_ChunkOutcome", *, resumed: bool, attempts: int
    ) -> "ChunkRecord":
        return cls(
            index=chunk.index,
            scenarios=len(chunk.scenarios),
            backend=outcome.backend,
            resumed=resumed,
            attempts=attempts,
            seconds=outcome.seconds,
            vector_reasons=outcome.vector_reasons,
            key=chunk.key,
            reason=outcome.reason,
            scalar_cost=outcome.scalar_cost,
            vector_cost=outcome.vector_cost,
        )


@dataclass(frozen=True)
class ShardReport:
    """Per-chunk accounting of a sweep (``SweepResult.shard_report``)."""

    chunk_size: int
    executor: str  # "inline" | "process"
    records: Tuple[ChunkRecord, ...]
    failed: int = 0

    @property
    def computed(self) -> int:
        """Chunks executed in this run (not loaded from the checkpoint)."""
        return sum(1 for r in self.records if not r.resumed)

    @property
    def resumed(self) -> int:
        """Chunks satisfied from the checkpoint store without recomputation."""
        return sum(1 for r in self.records if r.resumed)

    def backends(self) -> Dict[str, int]:
        """Histogram of per-chunk execution backends."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.backend] = counts.get(record.backend, 0) + 1
        return counts

    def summary(self) -> str:
        """Human-readable account: a totals line, then one line per chunk.

        Each chunk line names the engine that ran it, why, and the cost
        model's estimates in scalar events; sweeps that never dispatch
        (``backend="sequential"``) print the totals line only.
        """
        backends = ", ".join(f"{k} x {v}" for k, v in sorted(self.backends().items()))
        lines = [
            f"{self.computed} chunk(s) computed, {self.resumed} resumed, "
            f"{self.failed} failed (chunk size {self.chunk_size}, "
            f"{self.executor}; {backends or 'no chunks'})"
        ]
        for r in self.records:
            if not r.reason:
                continue
            costs = ", ".join(
                f"{name} ~{cost:.0f}"
                for name, cost in (("scalar", r.scalar_cost), ("vector", r.vector_cost))
                if cost is not None
            )
            lines.append(
                f"  chunk {r.index}{' (resumed)' if r.resumed else ''}: "
                f"{r.backend}, {r.reason}" + (f" ({costs} events)" if costs else "")
            )
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------------- #


def _circuit_spec_or_raise(topology: CircuitTopology, what: str, remedy: str) -> str:
    from ..specs import SpecError

    try:
        return topology.circuit.to_spec().to_json(indent=None)
    except SpecError as exc:
        raise SimulationError(
            f"{what} as a declarative CircuitSpec, but this circuit cannot be "
            f"expressed as one ({exc}); register the missing kind via "
            f"repro.specs.register_channel_kind or {remedy}"
        ) from exc


def _failure_kind(exc: BaseException) -> str:
    if isinstance(exc, ChunkTimeoutError):
        return "timeout"
    if isinstance(exc, WorkerCrashError):
        return "crash"
    return "exception"


def run_many_sharded(
    circuit,
    scenarios: Sequence[object],
    *,
    checkpoint=None,
    backend: str = "auto",
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    retry=None,
    chunk_timeout: Optional[float] = None,
    on_chunk_failure: Optional[str] = None,
    on_causality: str = "error",
    max_events: int = 1_000_000,
    _chaos: Optional[Dict[str, List[List[int]]]] = None,
) -> "object":
    """Execute a sweep in chunks: plan, run each chunk, collect.

    The implementation of :func:`repro.engine.sweep.run_many`, which
    passes every argument through; this entry defaults to
    ``backend="auto"`` and takes the test-only ``_chaos`` table, which
    maps a fault (see :func:`_apply_chaos`) to the ``[chunk, attempt]``
    pairs it strikes.

    Parameters
    ----------
    checkpoint:
        :class:`~repro.store.ArtifactStore` or directory path.  Finished
        chunks are written as content-keyed artifacts; chunks already in
        the store are loaded instead of recomputed, bit-identically.
    backend:
        The engine of each chunk.  ``"auto"`` picks the vector or scalar
        engine per chunk from the cost model (see the module docstring);
        ``"vector"`` runs every chunk that compiles on the vector engine;
        chunks the vector engine cannot express run scalar, with their
        reasons in ``vector_report``.  ``"sequential"`` pins the scalar
        engine.
    max_workers:
        ``None`` or 1 runs chunks inline; N > 1 runs them on a
        respawning pool of up to N worker processes (never more than
        there are chunks to compute).
    chunk_size:
        Scenarios per chunk; see the module docstring for the default.
        Part of the checkpoint identity: resume with the size you ran
        with.
    retry:
        Total attempts per chunk whose pool worker crashed or timed out
        (an int >= 1; ``None`` is one).  A chunk that raised is not
        retried: its run is fixed by its scenarios.
    chunk_timeout:
        Per-attempt wall-clock budget in seconds.  Enforced by killing
        and respawning the pool; inline execution cannot preempt a
        running chunk (a warning says so).
    on_chunk_failure:
        ``None`` (default): the exception of a chunk's last attempt
        propagates unchanged.
        ``"raise"``: quarantine failing chunks, finish their siblings,
        then raise :class:`SweepFailedError` carrying the report and the
        partial result.  ``"keep"``: return the surviving runs with
        ``failure_report`` attached.

    Returns a :class:`~repro.engine.sweep.SweepResult` whose
    ``shard_report`` records the executor and, per chunk, the engine
    that ran it, whether it was resumed, and how many attempts it took.
    """
    from ..store import as_store
    from .sweep import SweepResult, check_backend

    check_backend(backend)
    if on_chunk_failure not in (None, "raise", "keep"):
        raise ValueError("on_chunk_failure must be None, 'raise' or 'keep'")
    topology = (
        circuit if isinstance(circuit, CircuitTopology) else CircuitTopology(circuit)
    )
    if retry is None:
        retry = 1
    elif not isinstance(retry, int):
        raise TypeError(f"retry must be None or an int, not {type(retry).__name__}")
    elif retry < 1:
        raise ValueError("retry must be >= 1 (total attempts per chunk)")
    scenarios = list(scenarios)
    dispatch = None if backend == "sequential" else backend
    use_process = max_workers is not None and max_workers > 1
    chaos = {kind: {tuple(pair) for pair in pairs} for kind, pairs in (_chaos or {}).items()}
    if not use_process and chaos.keys() & {"kill", "hang"}:
        raise ValueError("the kill and hang faults strike pool workers: use max_workers > 1")
    if chunk_timeout is not None and not use_process:
        warnings.warn(
            "chunk_timeout cannot preempt in-process chunk execution; use "
            "max_workers > 1 for enforced wall-clock timeouts",
            RuntimeWarning,
            stacklevel=2,
        )

    store = as_store(checkpoint) if checkpoint is not None else None
    if chunk_size is not None:
        size = int(chunk_size)
    elif store is not None:
        size = DEFAULT_CHUNK_SIZE
    else:
        size = max(1, math.ceil(len(scenarios) / (max_workers if use_process else 1)))
    circuit_spec_json: Optional[str] = None
    circuit_spec_dict: Optional[Dict[str, Any]] = None
    if store is not None:
        circuit_spec_json = _circuit_spec_or_raise(
            topology, "checkpoint= keys chunks on the circuit", "drop checkpoint="
        )
        import json as _json

        circuit_spec_dict = _json.loads(circuit_spec_json)
        store.gc_tmp()
    elif use_process:
        circuit_spec_json = _circuit_spec_or_raise(
            topology,
            "max_workers > 1 ships the circuit to its workers",
            "run inline (max_workers=None)",
        )

    from ..specs import SpecError

    try:
        chunks = make_chunks(
            scenarios,
            size,
            circuit_spec=circuit_spec_dict,
            on_causality=on_causality,
            max_events=max_events,
        )
    except SpecError as exc:
        raise SimulationError(
            "checkpoint= requires every scenario's channel overrides to be "
            f"spec-representable so chunks can be content-keyed ({exc}); "
            "drop checkpoint= or register the missing channel kind"
        ) from exc

    start = _time.perf_counter()
    outcomes: Dict[int, _ChunkOutcome] = {}
    records: Dict[int, ChunkRecord] = {}
    failures: List[ChunkFailure] = []

    # -- resume: satisfy chunks from the checkpoint store ------------------- #
    pending: List[SweepChunk] = []
    for chunk in chunks:
        outcome = None
        if store is not None:
            payload = store.get_payload(chunk.spec, fmt=CHUNK_FORMAT, key=chunk.key)
            if payload is not None:
                outcome = _decode_chunk_payload(topology, chunk, payload)
        if outcome is None:
            pending.append(chunk)
        else:
            outcomes[chunk.index] = outcome
            records[chunk.index] = ChunkRecord._of(chunk, outcome, resumed=True, attempts=0)

    def record_success(chunk: SweepChunk, outcome: _ChunkOutcome, attempts: int) -> None:
        outcomes[chunk.index] = outcome
        records[chunk.index] = ChunkRecord._of(
            chunk, outcome, resumed=False, attempts=attempts
        )
        if store is not None:
            # Written before the sweep moves on: every chunk that finished
            # before an interrupt or a failing chunk is on disk.
            store.put_payload(
                chunk.spec,
                outcome.payload or _encode_chunk_payload(outcome),
                fmt=CHUNK_FORMAT,
                key=chunk.key,
            )

    def record_failure(chunk: SweepChunk, attempts: int, exc: BaseException) -> None:
        if on_chunk_failure is None:
            raise exc
        failures.append(
            ChunkFailure(
                index=chunk.index,
                scenario_names=chunk.names,
                attempts=attempts,
                kind=_failure_kind(exc),
                error=str(exc) or repr(exc),
                error_type=type(exc).__name__,
                key=chunk.key,
            )
        )

    # -- compute the remainder ---------------------------------------------- #
    if pending and use_process:
        runner = _ProcessChunkRunner(
            circuit_spec_json,
            on_causality=on_causality,
            max_events=max_events,
            dispatch=dispatch,
            max_workers=min(max_workers, len(pending)),
            chunk_timeout=chunk_timeout,
            chaos=chaos,
        )

        def on_success(
            chunk: SweepChunk, payload: Dict[str, Any], attempts: int
        ) -> None:
            outcome = _decode_chunk_payload(topology, chunk, payload)
            if outcome is None:  # a worker returned garbage: treat as failure
                record_failure(
                    chunk,
                    attempts,
                    ValueError("worker returned an undecodable chunk payload"),
                )
                return
            if outcome.vector_reasons:
                _warn_fallback(outcome.vector_reasons)
            record_success(chunk, outcome, attempts)

        runner.run(pending, retry, on_success, record_failure)
    elif pending:
        engine = Engine(topology, on_causality=on_causality, max_events=max_events)
        for chunk in pending:
            try:
                _apply_chaos(chaos, chunk.index, 1)
                outcome = _execute_chunk(
                    topology,
                    engine,
                    chunk.scenarios,
                    dispatch=dispatch,
                    on_causality=on_causality,
                    max_events=max_events,
                    on_fallback=_warn_fallback,
                )
            except Exception as exc:  # noqa: BLE001 - failure protocol
                # KeyboardInterrupt/SystemExit propagate: a dying sweep
                # keeps its checkpointed chunks and resumes later.
                record_failure(chunk, 1, exc)
                continue
            record_success(chunk, outcome, 1)

    # -- collect ------------------------------------------------------------- #
    ordered_records = tuple(records[i] for i in sorted(records))
    shard_report = ShardReport(
        chunk_size=size,
        executor="process" if use_process else "inline",
        records=ordered_records,
        failed=len(failures),
    )
    vector_report = None
    if dispatch:
        from .vector import VectorCapability

        by_reason: Dict[str, List[int]] = {}
        for record in ordered_records:
            for reason in record.vector_reasons:
                by_reason.setdefault(reason, []).append(record.index)
        vector_report = VectorCapability(
            not by_reason,
            tuple(
                f"{reason} [chunk(s) {', '.join(map(str, indices))}]"
                for reason, indices in sorted(by_reason.items())
            ),
        )

    runs = [run for index in sorted(outcomes) for run in outcomes[index].runs]
    failure_report = (
        SweepFailureReport(tuple(sorted(failures, key=lambda f: f.index)))
        if failures
        else None
    )
    result = SweepResult(
        topology=topology,
        runs=runs,
        total_seconds=_time.perf_counter() - start,
        backend="+".join(sorted({r.backend for r in ordered_records})) or None,
        vector_report=vector_report,
        failure_report=failure_report,
        shard_report=shard_report,
    )
    if failures and on_chunk_failure == "raise":
        raise SweepFailedError(failure_report, result)
    return result
