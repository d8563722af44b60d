"""Child processes of the benchmark: run one, time it, read its peak memory."""

from __future__ import annotations

import os
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Root of the checkout the benchmark runs in; repro is imported from ROOT/src.
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass
class Child:
    """A finished child process."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    """The environment of a child: this one, with the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv, *, timeout: float, scratch: Path) -> Child:
    """Run ``argv`` from the checkout root and wait for it to end.

    ``wall_s`` runs from just before the spawn to the reap.  The child is
    reaped with ``wait4`` so its own peak resident memory is known.  A
    child that outlives ``timeout`` seconds is killed.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [str(a) for a in argv], stdout=out, stderr=err, cwd=ROOT, env=child_env()
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        return Child(
            returncode=proc.returncode,
            wall_s=wall,
            # ru_maxrss is in KiB on Linux.
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )
