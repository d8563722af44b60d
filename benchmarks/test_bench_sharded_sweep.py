"""Benchmark: checkpointed sweeps vs the same chunks without a store.

The resilience layer aims to make fault tolerance close to free: running
the 120-scenario eta Monte Carlo sweep (the same surviving-pulse-train
workload the vector benchmark uses) through
``run_many(backend="auto", checkpoint=...)`` measured 2-7% over the
identical sweep without a checkpoint store (same 16-scenario chunks),
while a *resume*
against the finished store must skip every chunk and return
bit-identical executions, and (outside ``REPRO_BENCH_SMOKE`` runs) take
less time than the fresh checkpointed sweep.  The overhead itself is
recorded, not asserted, because a 10% wall-clock ratio is not
reproducible.  The checkpoint path stays cheap because chunk
keying pools the shared fingerprint tables, signals are packed straight
from the vector backend's result arrays, and artifact encoding+writing
happens on a background writer thread.  The measurement is recorded as
the ``sharded_sweep`` row of ``BENCH_engine.json``.

On multi-core hosts the benchmark also records the checkpointed sweep
on two worker processes (``max_workers=2``), where the per-chunk vector
dispatch and process parallelism multiply; single-core runners (CI
containers) skip that leg rather than pretend to measure parallelism.
"""

import os
import shutil
import tempfile
import time

from conftest import run_once
from repro.engine import run_many
from repro.engine.shard import DEFAULT_CHUNK_SIZE
from repro.experiments import print_table
from test_bench_engine_hot_path import _record
from test_bench_vector_backend import SCENARIOS, STAGES, _sweep_workload

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _executions_identical(a, b) -> bool:
    return all(
        ra.execution.node_signals == rb.execution.node_signals
        and ra.execution.edge_signals == rb.execution.edge_signals
        and ra.execution.event_count == rb.execution.event_count
        for ra, rb in zip(a, b)
    )


def _compare_sharded_sweep():
    topology, scenarios = _sweep_workload()
    store = tempfile.mkdtemp(prefix="repro-bench-ckpt-")
    try:
        # Warm imports, compiled tables and the allocator before timing.
        run_many(topology, scenarios[:3], backend="auto")
        run_many(topology, scenarios[:3], backend="auto", checkpoint=store)
        shutil.rmtree(store, ignore_errors=True)

        # Interleave the timed rounds and take per-leg minima, so a
        # transient slowdown of the host hits both legs instead of
        # biasing one timing block.
        repeats = 1 if SMOKE else 4
        plain_seconds = fresh_seconds = float("inf")
        plain = fresh = None
        for _ in range(repeats):
            start = time.perf_counter()
            # The plain leg uses the store's chunk width, so the two legs
            # differ only in checkpointing.
            plain = run_many(
                topology, scenarios, backend="auto", chunk_size=DEFAULT_CHUNK_SIZE
            )
            plain_seconds = min(plain_seconds, time.perf_counter() - start)
            shutil.rmtree(store, ignore_errors=True)
            start = time.perf_counter()
            fresh = run_many(topology, scenarios, backend="auto", checkpoint=store)
            fresh_seconds = min(fresh_seconds, time.perf_counter() - start)

        # Resume against the store the last fresh run just filled: every
        # chunk must come back from the checkpoint, bit-identical.
        resume_seconds = float("inf")
        resume = None
        for _ in range(max(1, repeats - 1)):
            start = time.perf_counter()
            resume = run_many(topology, scenarios, backend="auto", checkpoint=store)
            resume_seconds = min(resume_seconds, time.perf_counter() - start)

        matches = (
            _executions_identical(plain, fresh)
            and _executions_identical(plain, resume)
            and fresh.shard_report.computed == len(fresh.shard_report.records)
            and resume.shard_report.resumed == len(resume.shard_report.records)
        )
        row = {
            "backend": "auto",
            "scenarios": SCENARIOS,
            "stages": STAGES,
            "cpu_count": os.cpu_count(),
            "chunks": len(fresh.shard_report.records),
            "sharded_seconds": plain_seconds,
            "checkpoint_seconds": fresh_seconds,
            "resume_seconds": resume_seconds,
            "checkpoint_overhead": fresh_seconds / plain_seconds - 1.0,
            "outputs_match": matches,
        }

        if (os.cpu_count() or 1) >= 2:
            start = time.perf_counter()
            shutil.rmtree(store, ignore_errors=True)
            procs = run_many(
                topology, scenarios, backend="auto", max_workers=2, checkpoint=store
            )
            row["process_seconds"] = time.perf_counter() - start
            row["process_outputs_match"] = _executions_identical(plain, procs)

        _record("sharded_sweep", row)
        return row
    finally:
        shutil.rmtree(store, ignore_errors=True)


def test_sharded_checkpoint_overhead(benchmark):
    row = run_once(benchmark, _compare_sharded_sweep)
    print()
    print_table([row], title="SWEEP: sharded checkpoint overhead and resume")
    assert row["outputs_match"]
    assert row.get("process_outputs_match", True)
    # A full resume never recomputes, so it must cost less than the
    # checkpointed sweep that filled the store.  CI smoke runs only check
    # execution + bit-identical agreement.
    if not SMOKE:
        assert row["resume_seconds"] < row["checkpoint_seconds"]
