"""One worker of a benchmark run: set up a workload, time its calls, check them.

``run.py`` starts each worker as a fresh process, so the worker's set-up
time runs from process start to its first timed call.  The worker prints
one JSON object, its samples and counts, as the last line of stdout.

Workloads (see README.md for why each exists):

* ``mc_scalar``, ``mc_checkpoint`` -- the eta Monte Carlo
  family of a 32-stage eta-involution inverter chain driven by a 72-pulse
  train, through ``repro.api.sweep``.  A timed call runs the sweep; a
  resume call runs it again against a checkpoint store that already holds
  every chunk.
* ``theorem9_cli`` -- ``python -m repro experiment run theorem9`` in a
  cold child process; the resume call is the same command with ``--cache``
  pointing at a store that holds the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

from calibrate import Probe, scaled
from checks import (
    Tally,
    digest_mismatches,
    digests,
    eta_band_violations,
    same_execution,
    theorem9_problem,
)
from proc import HERE, SRC, run_child
from tracing import ARGS, NAME, Tracer

#: The Monte Carlo family: chain length, pulses, exp-channel and noise bound.
STAGES = 32
PULSES = 72
TAU, T_P, V_TH = 1.0, 0.5, 0.5
ETA_PLUS = 0.05

#: Scenarios per sweep, the engine the workload exercises, and the engine
#: its sampled scenarios are re-run on.
MONTE_CARLO = {
    "mc_scalar": (24, "sequential", "vector"),
    "mc_checkpoint": (64, "auto", "sequential"),
}
#: Scenarios per run re-run on the other engine and checked against the eta band.
SAMPLE = 6

THEOREM9_ROWS = 72
#: A child process that runs longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 60.0


class MonteCarlo:
    """An eta Monte Carlo sweep through ``repro.api.sweep``."""

    def __init__(self, name: str, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.n, self.backend, self.other = MONTE_CARLO[name]
        self.fresh_store = name == "mc_checkpoint"

    def setup(self, tracer) -> None:
        """Imports, circuit and topology, scenarios, and a warm-up call.

        The warm-up call is checkpointed: it fills the store that the
        resume calls read, and its results are the reference every later
        call is compared with.
        """
        from repro import api
        import repro.engine
        from repro.circuits import inverter_chain
        from repro.core import EtaInvolutionChannel, InvolutionPair, Signal, admissible_eta_bound
        from repro.specs import ChannelSpec

        self.api = api
        pair = InvolutionPair.exp_channel(tau=TAU, t_p=T_P, v_th=V_TH)
        self.eta = admissible_eta_bound(pair, eta_plus=ETA_PLUS)
        circuit = inverter_chain(
            STAGES, ChannelSpec.exp_eta_involution(TAU, T_P, self.eta, V_TH)
        )
        unit = pair.delta_up_inf + pair.delta_down_inf
        inputs = {
            "in": Signal.pulse_train(1.0, [4.0 * unit] * PULSES, [4.0 * unit] * (PULSES - 1))
        }
        end_time = 1.0 + 8.0 * unit * PULSES + 10.0 * STAGES * pair.delta_up_inf
        self.topology = repro.engine.CircuitTopology(circuit)
        self.eta_edges = {
            name: edge.source
            for name, edge in self.topology.edges.items()
            if isinstance(edge.channel, EtaInvolutionChannel) and not edge.channel.inverting
        }
        if tracer is not None:
            tracer.install()
            tracer.begin_call("setup:0")
        self.scenarios = repro.engine.eta_monte_carlo(
            self.topology, inputs, end_time, self.n, seed=self.seed
        )
        if tracer is not None:
            tracer.end_call()
            tracer.uninstall()
        self.store = self.scratch / "warm"
        warm = self._sweep(self.store)
        self.reference_digests = digests(warm)
        self.events = sum(run.execution.event_count for run in warm.runs)
        # Keep only the sampled executions: holding the whole warm-up result
        # would make the first timed call grow the heap that later calls reuse.
        self.picks = sorted(random.Random(self.seed).sample(range(self.n), SAMPLE))
        self.reference = {i: warm.runs[i].execution for i in self.picks}

    def _sweep(self, checkpoint=None, scenarios=None, backend=None):
        return self.api.sweep(
            self.topology,
            self.scenarios if scenarios is None else scenarios,
            backend=backend or self.backend,
            checkpoint=None if checkpoint is None else str(checkpoint),
        )

    def call(self, i: int, traced: bool):
        """The timed call (``wall_s``)."""
        if self.fresh_store:
            return self._sweep(self.scratch / f"fresh-{i}")
        return self._sweep()

    def resume(self, i: int, traced: bool):
        """The resume call (``resume_s``): every chunk is already stored."""
        return self._sweep(self.scratch / f"fresh-{i}" if self.fresh_store else self.store)

    def check(self, kind: str, result, tally: Tally) -> None:
        """Digests against the warm-up; resume calls must compute nothing."""
        failed = digest_mismatches(self.reference_digests, digests(result))
        if kind == "resume" and result.shard_report.computed:
            failed = self.n
        tally.add(self.n, failed, f"{kind} call")

    def done(self, i: int) -> None:
        if self.fresh_store:
            shutil.rmtree(self.scratch / f"fresh-{i}", ignore_errors=True)

    def verify(self, tally: Tally) -> None:
        """Re-run a seeded sample on the other engine; check the eta band."""
        picks = self.picks
        other = self._sweep(
            scenarios=[self.scenarios[i] for i in picks], backend=self.other
        )
        mismatched = sum(
            1
            for i, run in zip(picks, other.runs)
            if not same_execution(self.reference[i], run.execution)
        )
        tally.add(len(picks), mismatched, f"{self.backend} vs {self.other}")
        outside = 0
        for i in picks:
            bad = eta_band_violations(
                self.reference[i], self.eta_edges,
                tau=TAU, t_p=T_P, v_th=V_TH,
                eta_plus=self.eta.eta_plus, eta_minus=self.eta.eta_minus,
            )
            outside += bool(bad)
        tally.add(len(picks), outside, "eta band")


class Theorem9Cli:
    """``python -m repro experiment run theorem9`` in a cold child process."""

    def __init__(self, name: str, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.cache = scratch / "cache"
        self.params = {
            "adversaries": {
                "zero": {"kind": "zero"},
                "worst": {"kind": "worst"},
                "best": {"kind": "best"},
                "random": {"kind": "random", "seed": seed},
            }
        }
        self.children = 0
        self.spans = []
        self.draws = {}

    def _args(self, cached: bool):
        args = [
            "experiment", "run", "theorem9", "--backend", "auto", "--json",
            "--params-json", json.dumps(self.params),
        ]
        return args + (["--cache", self.cache] if cached else [])

    def _run(self, cached: bool, call_id=None):
        self.children += 1
        if call_id is None:
            argv = [sys.executable, "-m", "repro", *self._args(cached)]
        else:
            spans = self.scratch / f"spans-{self.children}.json"
            argv = [
                sys.executable, HERE / "tracedcli.py", spans, call_id,
                str(self.children * 10_000_000), "--", *self._args(cached),
            ]
        child = run_child(argv, timeout=CHILD_TIMEOUT_S, scratch=self.scratch)
        if call_id is not None and child.returncode == 0:
            traced = json.loads(spans.read_text())
            self.spans.extend(traced["spans"])
            for call, count in traced["draws"].items():
                self.draws[call] = self.draws.get(call, 0) + count
        return child

    @staticmethod
    def _payload(child):
        try:
            return json.loads(child.stdout)
        except ValueError:
            return None

    def setup(self, tracer) -> None:
        """Warm-up call: fills the result cache and gives the reference rows."""
        warm = self._run(cached=True)
        payload = self._payload(warm)
        problem = theorem9_problem(payload, warm.returncode, THEOREM9_ROWS)
        if problem is not None:
            raise RuntimeError(f"theorem9 warm-up failed: {problem}\n{warm.stderr[-2000:]}")
        self.reference = payload["result"]["rows"]

    def call(self, i: int, traced: bool):
        return self._run(cached=False, call_id=f"wall:{i}" if traced else None)

    def resume(self, i: int, traced: bool):
        return self._run(cached=True, call_id=f"resume:{i}" if traced else None)

    def check(self, kind: str, child, tally: Tally) -> None:
        """Exit 0, 72 consistent rows equal to the warm-up's, cache use as asked."""
        payload = self._payload(child)
        problem = theorem9_problem(payload, child.returncode, THEOREM9_ROWS)
        if problem is None and payload["result"]["rows"] != self.reference:
            problem = "rows differ from the warm-up call"
        if problem is None and payload["from_cache"] != (kind == "resume"):
            problem = f"from_cache={payload['from_cache']}"
        tally.add(1, problem is not None, f"{kind} call: {problem}")

    def done(self, i: int) -> None:
        pass

    def verify(self, tally: Tally) -> None:
        """Rerun in process on the scalar engine: same rows, and its event count."""
        from repro import api

        tracer = Tracer()
        tracer.install()
        try:
            result = api.experiment("theorem9", self.params, backend="sequential")
        finally:
            tracer.uninstall()
        self.events = sum(
            span[ARGS]["events"] for span in tracer.spans if span[NAME] == "engine.scheduler.run"
        )
        tally.add(1, result.rows != self.reference, "theorem9 sequential rows")


WORKLOADS = {**{name: MonteCarlo for name in MONTE_CARLO}, "theorem9_cli": Theorem9Cli}


def pin(cpus, k: int, probe: Probe) -> None:
    """Run this thread, the threads and processes it starts, and the probe on one CPU.

    On one CPU the checkpoint writer thread takes the GIL from the compute
    thread by time slicing, not by a handoff between CPUs whose cost
    depends on what else the host runs on the other one.
    """
    cpu = cpus[k % len(cpus)]
    os.sched_setaffinity(0, {cpu})
    probe.move(cpu)


def measure(workload, budget_s: float, tally: Tally, cpus, first: int, probe, tracer=None):
    """Alternate timed and resume calls for ``budget_s`` seconds (at least once).

    Each timed and resume pair runs on the next CPU of ``cpus``, starting
    at index ``first``, so the calls of a run sample every CPU.  Returns
    the peak memory samples and each call as ``(kind, host seconds, start,
    end)``, to be scaled by the probe samples taken between start and end.
    """
    rss = []
    calls = []
    traced = tracer is not None
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < budget_s:
        pin(cpus, first + i, probe)
        for kind, method in (("wall", workload.call), ("resume", workload.resume)):
            # Every call starts from the same collector state: which calls a
            # full collection of the live results lands in would otherwise
            # swing single calls by half their time.
            result = None
            gc.collect()
            if traced:
                tracer.begin_call(f"{kind}:{i}")
            t0 = time.perf_counter()
            try:
                result = method(i, traced)
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
                size = getattr(workload, "n", 1)
                tally.add(size, size, f"{kind}: {exc!r}")
                continue
            finally:
                t1 = time.perf_counter()
                if traced:
                    tracer.record(f"bench.{kind}", t0, t1)
                    tracer.end_call()
            # A CLI child carries its own wall time and peak memory.
            calls.append((kind, getattr(result, "wall_s", t1 - t0), t0, t1))
            if kind == "wall" and hasattr(result, "peak_rss_mb"):
                rss.append(result.peak_rss_mb)
            workload.check(kind, result, tally)
        result = None
        workload.done(i)
        i += 1
    return rss, calls


def timings(calls, samples) -> dict:
    """Host and scaled seconds of each kind of call (``wall``, ``wall_scaled``, ...)."""
    out = {"wall": [], "resume": [], "wall_scaled": [], "resume_scaled": []}
    for kind, seconds, start, end in calls:
        out[kind].append(seconds)
        out[f"{kind}_scaled"].append(scaled(seconds, samples, start, end))
    return out


def import_probes(scratch: Path, count: int = 3):
    """``import repro.cli`` in fresh interpreters: wall, and scipy's share."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    probes = {"import_s": [], "import_scipy_s": []}
    for _ in range(count):
        child = run_child([sys.executable, "-c", code], timeout=60, scratch=scratch)
        if child.returncode == 0:
            probes["import_s"].append(float(child.stdout.split()[-1]))
    child = run_child(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        timeout=60, scratch=scratch,
    )
    if child.returncode == 0:
        probes["import_scipy_s"].append(scipy_import_s(child.stderr))
    return probes


def scipy_import_s(importtime: str) -> float:
    """Cumulative seconds of the outermost ``scipy*`` imports in ``-X importtime`` output."""
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    # Lines come in post-order (children first); walk them parents-first.
    total_us = 0
    stack = []  # (depth, inside a scipy import)
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


def versions():
    import platform

    found = {"python": platform.python_version()}
    for module in ("numpy", "scipy"):
        found[module] = sys.modules[module].__version__ if module in sys.modules else None
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() of the parent just before the spawn")
    parser.add_argument("--index", type=int, default=0,
                        help="the worker's place in its run: it sets up on the "
                             "(index mod n)-th of its n allowed CPUs")
    parser.add_argument("--verify", action="store_true",
                        help="after timing, re-run a sample on the other engine "
                             "(the last worker of a run does)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    args.scratch.mkdir(parents=True, exist_ok=True)

    cpus = sorted(os.sched_getaffinity(0))
    probe = Probe(cpus[args.index % len(cpus)])
    try:
        pin(cpus, args.index, probe)
        tally = Tally()
        workload = WORKLOADS[args.workload](args.workload, args.seed, args.scratch)
        tracer = Tracer() if args.trace else None
        workload.setup(tracer)
        # Set-up objects live for the whole run.  Freezing them keeps every
        # collection during a timed call to what that call allocated, so the
        # call's time does not depend on how large the set-up heap is.
        gc.collect()
        gc.freeze()
        setup_end = time.perf_counter()
        out = {"setup_s": setup_end - args.spawned_at}
        if tracer is None:
            rss, calls = measure(workload, args.budget, tally, cpus, args.index, probe)
        else:
            _, untraced = measure(workload, args.budget / 2, tally, cpus, args.index, probe)
            if isinstance(workload, MonteCarlo):
                tracer.install()
            try:
                rss, calls = measure(
                    workload, args.budget / 2, tally, cpus, args.index, probe, tracer
                )
            finally:
                tracer.uninstall()
            export = tracer.export()
            out["spans"] = export["spans"] + getattr(workload, "spans", [])
            out["draws"] = {**export["draws"], **getattr(workload, "draws", {})}
            out["probes"] = import_probes(args.scratch)
        if args.verify:
            workload.verify(tally)
    finally:
        samples = probe.close()
    out.update(timings(calls, samples))
    out["setup_scaled"] = scaled(out["setup_s"], samples, args.spawned_at, setup_end)
    if tracer is not None:
        out["untraced_wall"] = timings(untraced, samples)["wall_scaled"]
        out["overhead_s"] = (
            statistics.median(out["wall_scaled"]) - statistics.median(out["untraced_wall"])
        )
    seconds = [s for _, s in samples]
    out.update(
        rss=rss,
        probe={"samples": len(seconds), "mean_s": statistics.fmean(seconds),
               "min_s": min(seconds), "max_s": max(seconds)},
        # theorem9_cli counts its events only in verify().
        events=getattr(workload, "events", None),
        attempted=tally.attempted,
        failed=tally.failed,
        reasons=tally.reasons,
        versions=versions(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
