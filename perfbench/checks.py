"""Output checks of the benchmark.

Every check counts operations (scenarios, or CLI calls) in a
:class:`Tally`; an operation that raised or failed a check counts as
failed, and ``failed / attempted`` is the run's ``failed_frac``.

The eta-band check does not trust either engine: it recomputes the
exp-channel delay ``delta(T)`` from its closed form and asks whether each
observed edge delay lies in ``[delta(T) - eta_minus, delta(T) + eta_plus]``,
which is the paper's definition of an eta-involution channel.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Dict, List, Optional, Sequence

#: Absolute slack for the eta-band check (time units of the circuit).
BAND_TOLERANCE = 1e-9


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def add(self, attempted: int, failed: int, reason: str) -> None:
        """Count ``attempted`` operations of which ``failed`` failed."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 20:
            self.reasons.append(f"{reason} ({failed} of {attempted})")

    @property
    def failed_frac(self) -> float:
        """Failed operations over attempted ones (0 when none was attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0


def run_digest(run) -> str:
    """Digest of one scenario's result.

    Covers the scenario name, the event count, the dropped count and the
    output transition times, bit for bit.
    """
    execution = run.execution
    h = hashlib.blake2b(run.scenario.name.encode(), digest_size=16)
    h.update(struct.pack("<qq", execution.event_count, execution.dropped_transitions))
    for port in sorted(execution.output_signals):
        signal = execution.output_signals[port]
        times = signal.transition_times()
        h.update(port.encode())
        h.update(struct.pack(f"<bq{len(times)}d", signal.initial_value, len(times), *times))
    return h.hexdigest()


def digests(result) -> List[str]:
    """Per-scenario digests of a sweep result, in scenario order."""
    return [run_digest(run) for run in result.runs]


def digest_mismatches(reference: Sequence[str], got: Sequence[str]) -> int:
    """Scenarios whose digest differs from the reference (all, if counts differ)."""
    if len(reference) != len(got):
        return max(len(reference), len(got))
    return sum(1 for a, b in zip(reference, got) if a != b)


def same_execution(a, b) -> bool:
    """Bit-for-bit equality of two executions: every signal and both counts."""
    return (
        a.event_count == b.event_count
        and a.dropped_transitions == b.dropped_transitions
        and a.node_signals == b.node_signals
        and a.edge_signals == b.edge_signals
    )


def exp_delay(T: float, rising: bool, tau: float, t_p: float, v_th: float) -> float:
    """The exp-channel delay ``delta_up`` / ``delta_down`` of the paper, closed form."""
    v = v_th if rising else 1.0 - v_th
    offset = t_p - tau * math.log(1.0 - v)
    if T == math.inf:
        return offset
    argument = 1.0 - math.exp(-(T + t_p - tau * math.log(v)) / tau)
    if argument <= 0.0:
        return -math.inf
    return tau * math.log(argument) + offset


def eta_band_violations(
    execution, edges: Dict[str, str], *, tau: float, t_p: float, v_th: float,
    eta_plus: float, eta_minus: float,
) -> List[str]:
    """Edges whose delays leave the eta band around ``delta(T)``.

    ``edges`` maps each non-inverting eta edge to its driving node.  The
    workload's pulses survive every stage, so the n-th output transition
    of an edge answers its n-th input transition, and
    ``T_n = t_n - o_{n-1}`` with ``T_1 = inf``.
    """
    bad = []
    for edge, source in edges.items():
        inputs = execution.node_signals[source].transition_times()
        output = execution.edge_signals[edge]
        if len(output) != len(inputs):
            bad.append(f"{edge}: {len(inputs)} inputs, {len(output)} outputs")
            continue
        previous = -math.inf
        for t, transition in zip(inputs, output):
            delta = exp_delay(t - previous, transition.value == 1, tau, t_p, v_th)
            observed = transition.time - t
            if not (
                delta - eta_minus - BAND_TOLERANCE
                <= observed
                <= delta + eta_plus + BAND_TOLERANCE
            ):
                bad.append(f"{edge}: delay {observed!r} at t={t!r}, delta(T)={delta!r}")
                break
            previous = transition.time
    return bad


def theorem9_problem(payload: Optional[dict], returncode: int, rows: int) -> Optional[str]:
    """Why a ``repro experiment run theorem9 --json`` call failed, or ``None``."""
    if returncode != 0:
        return f"exit code {returncode}"
    if payload is None:
        return "no JSON on stdout"
    got = payload.get("result", {}).get("rows", [])
    if len(got) != rows:
        return f"{len(got)} rows, expected {rows}"
    inconsistent = sum(1 for row in got if row.get("consistent") is not True)
    if inconsistent:
        return f"{inconsistent} rows not consistent"
    return None
