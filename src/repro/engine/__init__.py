"""The unified simulation engine.

Three layers, each usable on its own:

* :mod:`repro.engine.kernel` -- :class:`ChannelKernel`, the single home of
  the tentative-delay / transport-cancellation / inertial-rejection
  semantics shared by the offline channel algorithm
  (:mod:`repro.core.channel`) and the event-driven simulator,
* :mod:`repro.engine.scheduler` -- the event queue with delta-cycle
  batching (:class:`Scheduler`), the precomputed circuit view
  (:class:`CircuitTopology`) and the event loop (:class:`Engine`),
* :mod:`repro.engine.sweep` -- the batched sweep entry point
  (:func:`run_many`) that amortises validation/topology across whole
  scenario families, with per-run channel overrides and Monte Carlo eta
  sampling (:func:`eta_monte_carlo`),
* :mod:`repro.engine.capability` -- the static obstacle analyzer
  (:func:`~repro.engine.capability.analyze_sweep`) deciding which sweeps
  the vector backend can express, shared verbatim with the
  :mod:`repro.lint` fallback prediction so the linter and the runtime
  can never disagree,
* :mod:`repro.engine.vector` -- the NumPy-vectorized batch backend:
  sweeps compiled into dense per-scenario arrays and evaluated for all
  scenarios simultaneously (feedback loops through an iterate-to-fixpoint
  lockstep schedule), bit-identical to the scalar engine, with a
  capability report
  (:func:`vector_capability`) for everything it cannot express,
* :mod:`repro.engine.shard` -- the one sweep pipeline behind
  :func:`run_many` (:func:`run_many_sharded`): chunks planned from the
  inputs, each run on the scalar or vector engine, inline or on a
  respawning process pool (workers receive the circuit as declarative
  :class:`repro.specs.CircuitSpec` JSON, never as a pickle), with
  optional spec-keyed chunk checkpointing and crash-safe resume,
  per-chunk wall-clock timeouts on the pool, a retry with exponential
  backoff for chunks whose worker crashed or timed out (a chunk that
  raised gets one attempt), and poison-chunk quarantine.

The scheduler and sweep layers are imported lazily (PEP 562) because
:mod:`repro.core.channel` imports the kernel at module load time; eager
imports here would create a cycle through :mod:`repro.circuits`.
"""

from .errors import CausalityError, SimulationError
from .kernel import (
    ChannelKernel,
    KernelEvent,
    PendingTransition,
    cancel_non_fifo,
    cancel_non_fifo_reference,
    pending_to_signal,
    transport_resolve,
)

__all__ = [
    # errors
    "SimulationError",
    "CausalityError",
    # kernel
    "ChannelKernel",
    "KernelEvent",
    "PendingTransition",
    "cancel_non_fifo",
    "cancel_non_fifo_reference",
    "transport_resolve",
    "pending_to_signal",
    # scheduler (lazy)
    "PORT",
    "DELIVER",
    "SETTLE",
    "Scheduler",
    "CircuitTopology",
    "Execution",
    "Engine",
    # sweep (lazy)
    "Scenario",
    "RunResult",
    "SweepResult",
    "run_many",
    "channel_overrides",
    "eta_monte_carlo",
    # vector (lazy)
    "VectorCapability",
    "VectorUnsupportedError",
    "VectorProgram",
    "vector_capability",
    "compile_sweep",
    "predraw_random_adversaries",
    # shard (lazy)
    "ChunkFailure",
    "SweepFailureReport",
    "SweepFailedError",
    "ChunkRecord",
    "ShardReport",
    "run_many_sharded",
]

_SCHEDULER_EXPORTS = {
    "PORT",
    "DELIVER",
    "SETTLE",
    "Scheduler",
    "CircuitTopology",
    "Execution",
    "Engine",
}
_SWEEP_EXPORTS = {
    "Scenario",
    "RunResult",
    "SweepResult",
    "run_many",
    "channel_overrides",
    "eta_monte_carlo",
}
_VECTOR_EXPORTS = {
    "VectorCapability",
    "VectorUnsupportedError",
    "VectorProgram",
    "vector_capability",
    "compile_sweep",
    "predraw_random_adversaries",
}
_SHARD_EXPORTS = {
    "ChunkFailure",
    "SweepFailureReport",
    "SweepFailedError",
    "ChunkRecord",
    "ShardReport",
    "run_many_sharded",
}


def __getattr__(name):
    if name in _SCHEDULER_EXPORTS:
        from . import scheduler

        return getattr(scheduler, name)
    if name in _SWEEP_EXPORTS:
        from . import sweep

        return getattr(sweep, name)
    if name in _VECTOR_EXPORTS:
        from . import vector

        return getattr(vector, name)
    if name in _SHARD_EXPORTS:
        from . import shard

        return getattr(shard, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
