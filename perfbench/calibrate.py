"""How fast the host runs while a call runs, from a probe process on its CPU.

On the shared 2-CPU VM this benchmark was built on, every call of a
workload ran up to 2x slower at times, CPU time included.  The slow and
fast states alternate within a second, and a run can fall into a
stretch of minutes where one of them dominates, so neither the fastest
nor the median call of a run escapes them.

So each worker starts a :class:`Probe`: a small process on the worker's
CPU that wakes every ``INTERVAL_S`` and times a fixed piece of work (an
event loop of ``EVENTS`` steps in plain Python: heap, float math, dict)
in its own CPU time.  A call's scaled time is its host seconds times
``REFERENCE_S`` over the probe's mean time during the call: the seconds
the call would take on a host that runs the probe's work in
``REFERENCE_S``.  A slow stretch stretches the call and the probe alike
and cancels out; a change to repro moves the call and not the probe,
which imports nothing from repro.  The probe is a process, not a thread,
so it samples at an even pace whatever holds the GIL; it takes about 5%
of the CPU, on every call alike.

Run as a script, this file is the probe process: it samples until its
stdin closes, then prints its samples as JSON.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

#: Steps of the probe's event loop per sample.
EVENTS = 300
#: Seconds the probe sleeps between samples.
INTERVAL_S = 0.01
#: The probe's CPU seconds per sample on an unloaded host of the kind the
#: benchmark was built on (2-CPU Xeon VM, Python 3.11); it sets the scale.
REFERENCE_S = 0.00035


def _events(count: int) -> int:
    """A discrete-event loop over a ring of 64 nodes with exp-channel-like delays."""
    heap = [(0.0, 0, 1)]
    last = [0.0] * 64
    seen = {}
    for n in range(count):
        t, node, value = heapq.heappop(heap)
        gap = t - last[node]  # >= 0: pops come in time order
        last[node] = t
        delay = max(0.1, math.log(1.0 - math.exp(-(gap + 0.5))) + 0.7)
        heapq.heappush(heap, (t + delay + 0.001 * (n % 7), (node + 1) & 63, 1 - value))
        if len(heap) < 8:
            heapq.heappush(heap, (t + 2.5 * delay, (node * 7) & 63, value))
        seen[node, value] = seen.get((node, value), 0) + 1
    return len(seen)


def sample() -> float:
    """CPU seconds of one probe sample, taken now in this thread."""
    start = time.thread_time()
    _events(EVENTS)
    return time.thread_time() - start


class Probe:
    """The probe process of one worker; it follows the worker from CPU to CPU."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self.move(cpu)

    def move(self, cpu: int) -> None:
        os.sched_setaffinity(self.proc.pid, {cpu})

    def close(self) -> list:
        """Stop the probe, wait for it, and return its ``(start, seconds)`` samples.

        ``start`` is ``time.perf_counter()``, which on Linux reads
        ``CLOCK_MONOTONIC``, one clock for every process of the host.
        """
        try:
            out, _ = self.proc.communicate(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        return json.loads(out)


def scaled(seconds: float, samples, start: float, end: float) -> float:
    """``seconds`` spent in ``[start, end]``, scaled by the probe samples taken then.

    A span with no sample inside it uses the samples nearest to it.
    """
    inside = [s for t, s in samples if start <= t <= end]
    if not inside:
        nearest = min(samples, key=lambda ts: min(abs(ts[0] - start), abs(ts[0] - end)))
        inside = [nearest[1]]
    return seconds * REFERENCE_S / statistics.fmean(inside)


def _probe_main() -> None:
    samples = []
    stdin = sys.stdin.fileno()
    while True:
        samples.append((time.perf_counter(), sample()))
        if select.select([stdin], [], [], INTERVAL_S)[0]:
            break  # stdin closed: the worker is done
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _probe_main()
