"""Spans around repro's layer boundaries, recorded from outside the engine.

A :class:`Tracer` replaces public functions and methods of repro with
wrappers that record one span per call: name, start, end, parent span,
span id, the benchmark call it belongs to, the thread, and a few counts
taken from the arguments or the result.  Nothing inside ``src/`` knows
about it, and :meth:`Tracer.uninstall` puts every original back, so
untimed and untraced work runs the unmodified code.

Spans stay in memory.  :func:`per_layer` turns them into per-layer self
times and counts; :func:`chrome_trace` writes them once, at the end, as
Chrome trace-event JSON that Perfetto opens.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Span fields, in the order they are stored.
NAME, START, END, PARENT, SPAN_ID, CALL, PID, TID, ARGS = range(9)

#: Per-layer metrics reported by a traced run, with unit and better direction.
#: Unprefixed metrics are taken over the timed (``wall``) calls, ``resume.``
#: metrics over the resume calls; ``cli.import*`` and ``scenario_gen_s``
#: come from set-up and from fresh-interpreter probes.
PER_LAYER = {
    "engine.vector.run_s": ("s", "lower"),
    "engine.vector.compile_s": ("s", "lower"),
    "engine.vector.compile_calls": ("count", "lower"),
    "engine.vector.scenarios": ("count", "higher"),
    "engine.vector.fallbacks": ("count", "lower"),
    "engine.capability.analyze_s": ("s", "lower"),
    "engine.capability.analyze_calls": ("count", "lower"),
    "engine.scheduler.run_s": ("s", "lower"),
    "engine.scheduler.runs": ("count", "lower"),
    "engine.scheduler.events": ("count", "lower"),
    "engine.kernel.dropped": ("count", "lower"),
    "core.adversary.draws": ("count", "lower"),
    "engine.sweep.self_s": ("s", "lower"),
    "engine.sweep.scenario_gen_s": ("s", "lower"),
    "engine.sweep.result_transitions": ("count", "lower"),
    "engine.shard.plan_s": ("s", "lower"),
    "engine.shard.self_s": ("s", "lower"),
    "engine.shard.chunks_computed": ("count", "lower"),
    "engine.shard.chunks_resumed": ("count", "higher"),
    "engine.shard.chunks_vector": ("count", "higher"),
    "engine.shard.chunks_scalar": ("count", "lower"),
    "engine.shard.attempts": ("count", "lower"),
    "store.put_s": ("s", "lower"),
    "store.puts": ("count", "lower"),
    "store.bytes_written": ("B", "lower"),
    "store.get_s": ("s", "lower"),
    "store.gets": ("count", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "experiments.self_s": ("s", "lower"),
    "experiments.rows": ("count", "higher"),
    "experiments.rows_consistent": ("count", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "resume.engine.shard.self_s": ("s", "lower"),
    "resume.engine.shard.chunks_computed": ("count", "lower"),
    "resume.engine.shard.chunks_resumed": ("count", "higher"),
    "resume.store.get_s": ("s", "lower"),
    "resume.store.gets": ("count", "lower"),
    "resume.store.hit_ratio": ("ratio", "higher"),
    "resume.experiments.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _sweep_counts(args, kwargs, result) -> Dict[str, Any]:
    transitions = 0
    for run in result.runs:
        execution = run.execution
        transitions += sum(len(s) for s in execution.node_signals.values())
        transitions += sum(len(s) for s in execution.edge_signals.values())
    return {"transitions": transitions}


def _shard_counts(args, kwargs, result) -> Dict[str, Any]:
    records = result.shard_report.records
    return {
        "computed": sum(1 for r in records if not r.resumed),
        "resumed": sum(1 for r in records if r.resumed),
        "vector": sum(1 for r in records if r.backend == "vector"),
        "scalar": sum(1 for r in records if r.backend != "vector"),
        "attempts": sum(r.attempts for r in records),
    }


def _compile_counts(args, kwargs, result) -> Dict[str, Any]:
    scenarios = kwargs["scenarios"] if "scenarios" in kwargs else args[1]
    return {"scenarios": len(scenarios)}


def _run_counts(args, kwargs, result) -> Dict[str, Any]:
    return {"events": result.event_count, "dropped": result.dropped_transitions}


def _get_counts(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _put_counts(args, kwargs, result) -> Dict[str, Any]:
    return {"bytes": result.stat().st_size}


def _experiment_counts(args, kwargs, result) -> Dict[str, Any]:
    return {
        "rows": len(result.rows),
        "consistent": sum(1 for row in result.rows if row.get("consistent") is True),
    }


class Tracer:
    """Records spans at repro's public layer boundaries while installed."""

    def __init__(self, first_id: int = 1) -> None:
        self.spans: List[list] = []
        self.call: Optional[str] = None
        self.draws: Dict[Optional[str], int] = {}
        self._draw_cell = [0]
        # Processes that merge their spans into one trace start at
        # different ids, so parent links stay unambiguous.
        self._ids = itertools.count(first_id)
        self._pid = os.getpid()
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- call boundaries ------------------------------------------------- #

    def begin_call(self, call_id: str) -> None:
        """Attribute every span that follows, on any thread, to ``call_id``."""
        self._flush_draws()
        self.call = call_id

    def end_call(self) -> None:
        """Close the current call (spans that follow belong to none)."""
        self._flush_draws()
        self.call = None

    def _flush_draws(self) -> None:
        if self._draw_cell[0]:
            self.draws[self.call] = self.draws.get(self.call, 0) + self._draw_cell[0]
            self._draw_cell[0] = 0

    def record(self, name: str, start: float, end: float, args=None) -> None:
        """Add a span measured by the caller (no parent)."""
        self.spans.append(
            [name, start, end, None, next(self._ids), self.call, self._pid,
             threading.get_ident(), args]
        )

    # -- wrapping -------------------------------------------------------- #

    def _wrapper(self, fn: Callable, name: str, counts=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                extra = {"error": type(exc).__name__}
                raise
            else:
                end = time.perf_counter()
                if counts is not None:
                    extra = counts(args, kwargs, result)
                return result
            finally:
                stack.pop()
                tracer.spans.append(
                    [name, start, end, parent, span_id, tracer.call, tracer._pid,
                     threading.get_ident(), extra]
                )

        return traced

    def _patch(self, owners: Sequence[object], attr: str, wrapper: Callable) -> None:
        for owner in owners:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries of an imported repro (idempotent)."""
        if self._patches:
            return
        import repro.api
        import repro.cli
        import repro.engine.capability as capability
        import repro.engine.scheduler as scheduler
        import repro.engine.shard as shard
        import repro.engine.sweep as sweep
        import repro.engine.vector as vector
        import repro.experiments.base as base
        import repro.experiments.theorem9 as theorem9
        from repro.core.adversary import RandomAdversary
        from repro.store import ArtifactStore

        wrap = self._wrapper
        # A function imported by name into several modules gets one wrapper,
        # patched into each, so a call produces exactly one span.
        self._patch(
            (sweep, repro.api, theorem9), "run_many",
            wrap(sweep.run_many, "engine.sweep.run_many", _sweep_counts),
        )
        self._patch(
            (sweep,), "eta_monte_carlo",
            wrap(sweep.eta_monte_carlo, "engine.sweep.eta_monte_carlo"),
        )
        self._patch(
            (shard,), "run_many_sharded",
            wrap(shard.run_many_sharded, "engine.shard.run_many_sharded", _shard_counts),
        )
        self._patch(
            (shard,), "make_chunks", wrap(shard.make_chunks, "engine.shard.make_chunks")
        )
        self._patch(
            (vector,), "compile_sweep",
            wrap(vector.compile_sweep, "engine.vector.compile_sweep", _compile_counts),
        )
        self._patch(
            (vector.VectorProgram,), "run",
            wrap(vector.VectorProgram.run, "engine.vector.run"),
        )
        self._patch(
            (capability, vector), "analyze_sweep",
            wrap(capability.analyze_sweep, "engine.capability.analyze_sweep"),
        )
        self._patch(
            (scheduler.Engine,), "run",
            wrap(scheduler.Engine.run, "engine.scheduler.run", _run_counts),
        )
        for attr in ("get", "get_payload"):
            self._patch(
                (ArtifactStore,), attr,
                wrap(getattr(ArtifactStore, attr), "store.get", _get_counts),
            )
        for attr in ("put", "put_payload"):
            self._patch(
                (ArtifactStore,), attr,
                wrap(getattr(ArtifactStore, attr), "store.put", _put_counts),
            )
        self._patch(
            (base,), "run_experiment",
            wrap(base.run_experiment, "experiments.run_experiment", _experiment_counts),
        )
        self._patch((repro.cli,), "main", wrap(repro.cli.main, "cli.main"))

        # One draw per scalar event: count only, a span each would swamp
        # the engine it measures.
        choose = RandomAdversary.choose
        cell = self._draw_cell

        @functools.wraps(choose)
        def counted_choose(*args, **kwargs):
            cell[0] += 1
            return choose(*args, **kwargs)

        self._patch((RandomAdversary,), "choose", counted_choose)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        self._flush_draws()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def export(self) -> Dict[str, Any]:
        """Spans and counters as plain JSON data."""
        self._flush_draws()
        return {
            "spans": self.spans,
            "draws": {str(k): v for k, v in self.draws.items() if k is not None},
        }


# --------------------------------------------------------------------------- #
# Derived metrics
# --------------------------------------------------------------------------- #


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span[SPAN_ID]: span[END] - span[START] for span in spans}
    for span in spans:
        parent = span[PARENT]
        if parent is not None and parent in own:
            own[parent] -= span[END] - span[START]
    return own


def call_kind(call_id: Optional[str]) -> Optional[str]:
    """``"wall:3"`` -> ``"wall"``."""
    return None if call_id is None else call_id.split(":", 1)[0]


def per_layer(
    spans: Sequence[list],
    draws: Dict[str, int],
    probes: Dict[str, List[float]],
    overhead_s: float,
) -> Dict[str, float]:
    """Per-layer metrics: sums over the calls of one kind, divided by their count.

    ``probes`` holds the fresh-interpreter measurements (``import_s``,
    ``import_scipy_s``).
    """
    own = self_times(spans)
    calls: Dict[str, set] = {}
    for span in spans:
        kind = call_kind(span[CALL])
        if kind is not None:
            calls.setdefault(kind, set()).add(span[CALL])

    def total(kind, name, how="dur", key=None, where=None) -> float:
        n = len(calls.get(kind, ()))
        if not n:
            return 0.0
        value = 0.0
        for span in spans:
            if span[NAME] != name or call_kind(span[CALL]) != kind:
                continue
            args = span[ARGS] or {}
            if where is not None and not where(args):
                continue
            if how == "dur":
                value += span[END] - span[START]
            elif how == "self":
                value += own[span[SPAN_ID]]
            elif how == "count":
                value += 1
            else:
                value += args.get(key, 0)
        return value / n

    def ratio(kind) -> float:
        gets = total(kind, "store.get", "count")
        return total(kind, "store.get", "count", where=lambda a: a.get("hit")) / gets if gets else 0.0

    failed = lambda a: a.get("error") == "VectorUnsupportedError"  # noqa: E731
    n_wall = len(calls.get("wall", ())) or 1
    metrics = {
        "engine.vector.run_s": total("wall", "engine.vector.run"),
        "engine.vector.compile_s": total("wall", "engine.vector.compile_sweep", "self"),
        "engine.vector.compile_calls": total("wall", "engine.vector.compile_sweep", "count"),
        "engine.vector.scenarios": total("wall", "engine.vector.compile_sweep", "arg", "scenarios"),
        "engine.vector.fallbacks": total("wall", "engine.vector.compile_sweep", "count", where=failed)
        + total("wall", "engine.vector.run", "count", where=failed),
        "engine.capability.analyze_s": total("wall", "engine.capability.analyze_sweep"),
        "engine.capability.analyze_calls": total("wall", "engine.capability.analyze_sweep", "count"),
        "engine.scheduler.run_s": total("wall", "engine.scheduler.run"),
        "engine.scheduler.runs": total("wall", "engine.scheduler.run", "count"),
        "engine.scheduler.events": total("wall", "engine.scheduler.run", "arg", "events"),
        "engine.kernel.dropped": total("wall", "engine.scheduler.run", "arg", "dropped"),
        "core.adversary.draws": sum(v for k, v in draws.items() if call_kind(k) == "wall") / n_wall,
        "engine.sweep.self_s": total("wall", "engine.sweep.run_many", "self"),
        "engine.sweep.scenario_gen_s": total("setup", "engine.sweep.eta_monte_carlo"),
        "engine.sweep.result_transitions": total("wall", "engine.sweep.run_many", "arg", "transitions"),
        "engine.shard.plan_s": total("wall", "engine.shard.make_chunks"),
        "engine.shard.self_s": total("wall", "engine.shard.run_many_sharded", "self"),
        "engine.shard.chunks_computed": total("wall", "engine.shard.run_many_sharded", "arg", "computed"),
        "engine.shard.chunks_resumed": total("wall", "engine.shard.run_many_sharded", "arg", "resumed"),
        "engine.shard.chunks_vector": total("wall", "engine.shard.run_many_sharded", "arg", "vector"),
        "engine.shard.chunks_scalar": total("wall", "engine.shard.run_many_sharded", "arg", "scalar"),
        "engine.shard.attempts": total("wall", "engine.shard.run_many_sharded", "arg", "attempts"),
        "store.put_s": total("wall", "store.put"),
        "store.puts": total("wall", "store.put", "count"),
        "store.bytes_written": total("wall", "store.put", "arg", "bytes"),
        "store.get_s": total("wall", "store.get"),
        "store.gets": total("wall", "store.get", "count"),
        "store.hit_ratio": ratio("wall"),
        "experiments.self_s": total("wall", "experiments.run_experiment", "self"),
        "experiments.rows": total("wall", "experiments.run_experiment", "arg", "rows"),
        "experiments.rows_consistent": total("wall", "experiments.run_experiment", "arg", "consistent"),
        "cli.import_s": _median(probes.get("import_s")),
        "cli.import_scipy_s": _median(probes.get("import_scipy_s")),
        "cli.main_s": total("wall", "cli.main", "self"),
        "resume.engine.shard.self_s": total("resume", "engine.shard.run_many_sharded", "self"),
        "resume.engine.shard.chunks_computed": total("resume", "engine.shard.run_many_sharded", "arg", "computed"),
        "resume.engine.shard.chunks_resumed": total("resume", "engine.shard.run_many_sharded", "arg", "resumed"),
        "resume.store.get_s": total("resume", "store.get"),
        "resume.store.gets": total("resume", "store.get", "count"),
        "resume.store.hit_ratio": ratio("resume"),
        "resume.experiments.self_s": total("resume", "experiments.run_experiment", "self"),
        "trace.overhead_s": overhead_s,
    }
    return metrics


def layer_table(spans: Sequence[list], draws: Dict[str, int]) -> List[tuple]:
    """(span name, call kind, calls, spans, self s per call) rows, for printing."""
    own = self_times(spans)
    calls: Dict[str, set] = {}
    rows: Dict[tuple, List[float]] = {}
    for span in spans:
        kind = call_kind(span[CALL]) or "-"
        calls.setdefault(kind, set()).add(span[CALL])
        cell = rows.setdefault((span[NAME], kind), [0, 0.0])
        cell[0] += 1
        cell[1] += own[span[SPAN_ID]]
    table = []
    for (name, kind), (count, self_s) in sorted(rows.items(), key=lambda kv: (kv[0][1], -kv[1][1])):
        n = len(calls[kind]) or 1
        table.append((name, kind, n, count / n, self_s / n))
    by_kind: Dict[str, int] = {}
    for call, count in draws.items():
        by_kind[call_kind(call)] = by_kind.get(call_kind(call), 0) + count
    for kind, count in sorted(by_kind.items()):
        n = len(calls.get(kind, ())) or 1
        table.append(("core.adversary.draws", kind, n, count / n, 0.0))
    return table


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def chrome_trace(path, spans: Sequence[list], record: Dict[str, Any]) -> None:
    """Write spans as Chrome trace-event JSON, with the run record as metadata."""
    events = []
    for span in spans:
        args = {"span": span[SPAN_ID], "parent": span[PARENT], "call": span[CALL]}
        if span[ARGS]:
            args.update(span[ARGS])
        events.append(
            {
                "name": span[NAME],
                "cat": span[NAME].rsplit(".", 1)[0],
                "ph": "X",
                "ts": span[START] * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": span[PID],
                "tid": span[TID],
                "args": args,
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": record}, handle)
