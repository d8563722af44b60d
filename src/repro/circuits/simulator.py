"""Event-driven execution of circuits with single-history channels.

An *execution* of a circuit assigns a signal to every node (gate/port
output) and every edge (channel output) such that channel functions, gate
functions and initial values are respected.  Because circuits may contain
feedback loops (e.g. the SPF storage loop of Fig. 5), executions cannot be
computed by evaluating channel functions in topological order; instead they
are computed by the discrete-event engine in :mod:`repro.engine.scheduler`:

* input-port transitions are the primary events,
* gates switch in zero time when any of their inputs changes,
* every gate-output transition entering a channel schedules a tentative
  output transition after the channel's delay ``delta(T) (+ eta)``,
* a newly scheduled channel output cancels still-pending outputs of the
  same channel at later-or-equal times (transport cancellation, the same
  :class:`~repro.engine.kernel.ChannelKernel` as the offline algorithm in
  :mod:`repro.core.channel`), and no-change deliveries are suppressed.

This module is the stable public API: :class:`Simulator` and
:func:`simulate` are thin wrappers that validate/precompute the circuit
once (a :class:`~repro.engine.scheduler.CircuitTopology`) and delegate to
the :class:`~repro.engine.scheduler.Engine`.  The engine supports any
:class:`~repro.core.channel.Channel` subclass, including
:class:`~repro.core.eta_channel.EtaInvolutionChannel` with an arbitrary
adversary per channel, which realises the adversarial choice of the
admissible parameter ``H`` in the paper's definition of an execution.
"""

from __future__ import annotations

from typing import Dict

from ..core.transitions import Signal
from ..engine.errors import CAUSALITY_MODES, CausalityError, SimulationError
from ..engine.scheduler import CircuitTopology, Engine, Execution
from .circuit import Circuit

__all__ = ["SimulationError", "CausalityError", "Execution", "Simulator", "simulate"]


class Simulator:
    """Discrete-event simulator for circuits of single-history channels.

    Parameters
    ----------
    circuit:
        The circuit to simulate (validated on construction).
    on_causality:
        Policy when a channel wants to emit an output transition earlier
        than an already-delivered one: ``"error"`` raises
        :class:`CausalityError`, ``"drop"`` discards the transition.
    max_events:
        Safety bound on the number of processed events (oscillating storage
        loops can generate events forever).
    """

    def __init__(
        self,
        circuit: Circuit,
        *,
        on_causality: str = "error",
        max_events: int = 1_000_000,
    ) -> None:
        if on_causality not in CAUSALITY_MODES:
            raise ValueError(f"on_causality must be one of {list(CAUSALITY_MODES)}")
        circuit.validate()
        self.circuit = circuit
        self.on_causality = on_causality
        self.max_events = int(max_events)

    def run(self, inputs: Dict[str, Signal], end_time: float) -> Execution:
        """Simulate the circuit for the given input-port signals.

        ``inputs`` maps every input-port name to its signal; transitions
        after ``end_time`` are ignored and channel outputs scheduled after
        ``end_time`` are not delivered (the returned signals are exact up
        to ``end_time``).

        The topology snapshot is taken per run (matching the seed
        simulator, which read the live circuit structure inside ``run``);
        callers that want the snapshot amortised across runs use
        :class:`~repro.engine.scheduler.Engine` or the sweep runner
        directly.
        """
        engine = Engine(
            CircuitTopology(self.circuit),
            on_causality=self.on_causality,
            max_events=self.max_events,
        )
        return engine.run(inputs, end_time)


def simulate(
    circuit: Circuit,
    inputs: Dict[str, Signal],
    end_time: float,
    *,
    on_causality: str = "error",
    max_events: int = 1_000_000,
) -> Execution:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(
        circuit, on_causality=on_causality, max_events=max_events
    ).run(inputs, end_time)
