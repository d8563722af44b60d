"""The repro benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload mc_scalar --seed 7 --seconds 20 --trace 0

With ``--trace 0`` the run starts three fresh worker processes one after
another; each sets the workload up and then times its calls for a third
of ``--seconds``, on one CPU at a time, moving to the next CPU after
each pair of calls.  It prints the end-to-end metrics: medians of the
set-up, timed and resume calls, each scaled by the host speed a probe
process measured while it ran (calibrate.py), and the median of peak
memory.
With ``--trace 1`` one worker times untraced calls for half the time and
traced calls for the other half, and the run prints the per-layer
metrics, a table of per-layer self times, and writes a Chrome trace to
``.perfbench/trace-<workload>-seed<seed>.json``.

Either way the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  README.md describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from proc import HERE, ROOT, SRC, run_child
from tracing import PER_LAYER, chrome_trace, layer_table, per_layer

WORKLOADS = ("mc_scalar", "mc_checkpoint", "theorem9_cli")
#: Worker processes per untraced run: each is one set-up sample.
WORKERS = 3
DEFAULT_SEED = 7
#: End-to-end metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "resume_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
#: A run that is still going this many seconds after it started is killed.
RUN_DEADLINE_S = 170.0
#: Where runs keep their scratch stores and traces, inside the checkout.
SCRATCH = ROOT / ".perfbench"


def git_sha() -> str:
    """HEAD of the checkout's git repository, or ``"unknown"`` outside one."""
    # The ceiling keeps git from reporting a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def run_worker(args, scratch: Path, index: int, budget: float, deadline: float,
               verify: bool) -> dict:
    spawned = time.perf_counter()
    child = run_child(
        [
            sys.executable, HERE / "worker.py",
            "--workload", args.workload, "--seed", str(args.seed),
            "--budget", repr(budget), "--trace", str(args.trace),
            "--scratch", scratch / f"worker-{index}", "--spawned-at", repr(spawned),
            "--index", str(index), *(["--verify"] if verify else []),
        ],
        timeout=max(1.0, deadline - spawned),
        scratch=scratch,
    )
    if child.returncode != 0:
        raise RuntimeError(
            f"worker {index} exited with {child.returncode}:\n{child.stderr[-3000:]}"
        )
    result = json.loads(child.stdout.strip().splitlines()[-1])
    result["worker_rss_mb"] = child.peak_rss_mb
    return result


def end_to_end(workers, attempted: int, failed: int) -> tuple:
    """Metric values and their sample counts, from the workers' results.

    Times are medians of host seconds scaled by the probe samples taken
    during each call (calibrate.py), pooled over the run's workers.
    """
    setups = [w["setup_scaled"] for w in workers]
    walls = [s for w in workers for s in w["wall_scaled"]]
    resumes = [s for w in workers for s in w["resume_scaled"]]
    # Memory of the process that ran the simulation: the worker itself,
    # or its CLI children when it ran none in process.
    rss = [s for w in workers for s in w["rss"]] or [w["worker_rss_mb"] for w in workers]
    events = workers[-1]["events"]
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "resume_s": statistics.median(resumes),
        "events_per_s": events / wall,
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": 1.0 - failed / attempted,
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(walls),
        "resume_s": len(resumes),
        "events_per_s": len(walls),
        "peak_rss_mb": len(rss),
        "ok_frac": attempted,
    }
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="seconds of timed calls per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    load_before = os.getloadavg()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        if args.trace:
            workers = [run_worker(args, scratch, 0, args.seconds, deadline, verify=True)]
        else:
            # Only the last worker re-runs a sample on the other engine:
            # once per run checks the outputs, and it is time no call is timed in.
            workers = [
                run_worker(args, scratch, k, args.seconds / WORKERS, deadline,
                           verify=k == WORKERS - 1)
                for k in range(WORKERS)
            ]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    load_after = os.getloadavg()

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    events = {w["events"] for w in workers if w["events"] is not None}
    if len(events) != 1:
        failed = attempted  # the workers simulated different amounts of work
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "workers": len(workers),
        "git_sha": git_sha(),
        **workers[0]["versions"],
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_1m_before": load_before[0],
        "loadavg_1m_after": load_after[0],
        "events_per_call": workers[-1]["events"],
        "failed_frac": failed / attempted,
        "failures": [r for w in workers for r in w["reasons"]],
        "setup_host_s": [w["setup_s"] for w in workers],
        "wall_host_s": [w["wall"] for w in workers],
        "resume_host_s": [w["resume"] for w in workers],
        "probe": [w["probe"] for w in workers],
    }

    if args.trace:
        worker = workers[0]
        values = per_layer(worker["spans"], worker["draws"], worker["probes"], worker["overhead_s"])
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        record["samples"] = {
            "traced_calls": len(worker["wall"]),
            "untraced_calls": len(worker["untraced_wall"]),
            "import_probes": len(worker["probes"]["import_s"]),
        }
        trace_path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        chrome_trace(trace_path, worker["spans"], record)
        print(f"per-layer self time per call ({args.workload}, seed {args.seed})")
        print(f"{'span':36} {'call':7} {'calls':>5} {'spans/call':>10} {'self s/call':>12}")
        for name, kind, calls, per_call, self_s in layer_table(worker["spans"], worker["draws"]):
            print(f"{name:36} {kind:7} {calls:5d} {per_call:10.1f} {self_s:12.6f}")
        print(f"trace: {trace_path}")
    else:
        values, record["samples"] = end_to_end(workers, attempted, failed)
        units = END_TO_END

    print(f"{args.workload} seed={args.seed} failed_frac={failed / attempted:.6g}")
    for name, value in values.items():
        print(f"  {name:40} {value:16.6g} {units[name]}")
    print("record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
