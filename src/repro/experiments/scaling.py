"""Experiment SIM: event-driven simulator throughput.

The paper argues that involution channels "can easily be used with existing
tools" for dynamic timing analysis; the practical counterpart in this
reproduction is the throughput of the event-driven simulator.  This driver
measures events per second over circuit size and stimulus length, which the
benchmark harness reports alongside the figure reproductions.  It is the
registered ``scaling`` experiment kind
(``repro.api.experiment("scaling", {...})``).  The event counts are
deterministic; the ``seconds``,
``events_per_second`` and ``backend`` columns describe the *measurement*
that produced the rows (wall clock, execution strategy) and therefore
vary between otherwise-equal reruns.  Because the artifact store keys on
the spec alone, a cached scaling artifact returns the measurement it was
taken with -- rerun with ``force=True`` (``--force``) to re-measure under
a different backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from ..circuits.library import inverter_chain
from ..core.adversary import RandomAdversary
from ..core.constraint import admissible_eta_bound
from ..core.eta_channel import EtaInvolutionChannel
from ..core.involution import InvolutionPair
from ..core.transitions import Signal
from ..engine.scheduler import CircuitTopology
from ..engine.sweep import Scenario, run_many
from ..specs import register_experiment_kind
from .base import ExperimentContext, ExperimentOutcome, _check_param

__all__ = ["ScalingSample"]


@dataclass
class ScalingSample:
    """Throughput measurement for one circuit size.

    ``backend`` records the engine that *actually* ran -- e.g. ``auto``
    picks ``sequential`` for this single-scenario workload (below the
    vector break-even), and ``vector`` may fall back for unvectorizable
    channels; rows must not label scalar measurements with another name.
    """

    stages: int
    input_transitions: int
    events: int
    seconds: float
    backend: str = "sequential"

    @property
    def events_per_second(self) -> float:
        """Processed simulation events per wall-clock second."""
        if self.seconds <= 0:
            return float("inf")
        return self.events / self.seconds


def _scaling(params: dict, context: ExperimentContext) -> ExperimentOutcome:
    """The ``scaling`` kind: simulator throughput for chains of increasing depth.

    ``channel`` optionally overrides the per-stage channel: a
    :class:`~repro.specs.ChannelSpec` (or spec dict, or factory callable)
    replaces the default eta/involution exp-channel built from
    ``tau``/``t_p``/``eta_plus``.  The context's ``backend`` selects the
    :func:`~repro.engine.sweep.run_many` execution strategy whose
    throughput is measured -- ``"vector"`` opts the sweep into the
    NumPy-vectorized batch engine (falling back, with a warning, for
    channels it cannot express); event counts are backend-independent.
    """
    tau, t_p, seed = params["tau"], params["t_p"], params["seed"]
    stage_counts, input_transitions = params["stage_counts"], params["input_transitions"]
    _check_param(len(stage_counts) > 0, "stage_counts", stage_counts, "must not be empty")
    _check_param(input_transitions >= 1, "input_transitions", input_transitions, "must be at least 1")
    _check_param(seed >= 0, "seed", seed, "must be at least 0")
    pair = InvolutionPair.exp_channel(tau, t_p)
    eta = admissible_eta_bound(pair, params["eta_plus"])

    if params["channel"] is not None:
        from ..specs import as_channel_factory

        factory = as_channel_factory(params["channel"])
    elif params["use_eta"]:
        def factory():
            return EtaInvolutionChannel(
                InvolutionPair.exp_channel(tau, t_p), eta, RandomAdversary(seed=seed)
            )
    else:
        def factory():
            from ..core.involution_channel import InvolutionChannel

            return InvolutionChannel(InvolutionPair.exp_channel(tau, t_p))

    rng = np.random.default_rng(seed)
    # A random but well-separated transition sequence (no transition closer
    # than the channel's delta_min, so little cancellation distorts the count).
    gaps = rng.uniform(2.0 * t_p, 6.0 * t_p, size=input_transitions)
    times = np.cumsum(gaps) + 1.0
    stimulus = Signal.from_times([float(t) for t in times])
    end_time = float(times[-1]) + 20.0 * (t_p + tau) * max(stage_counts)

    samples: List[ScalingSample] = []
    for stages in stage_counts:
        circuit = inverter_chain(int(stages), factory)
        # Validation/topology precomputation happens outside the timed
        # region, so the sample measures pure execution throughput.
        topology = CircuitTopology(circuit)
        scenario = Scenario(
            name=f"scaling[{int(stages)}]", inputs={"in": stimulus}, end_time=end_time
        )

        backend = context.backend
        while True:
            start = time.perf_counter()
            sweep = run_many(
                topology,
                [scenario],
                max_events=10_000_000,
                backend=backend,
                max_workers=context.max_workers,
            )
            elapsed = time.perf_counter() - start
            # The one chunk's record names the engine that actually ran:
            # auto picks scalar for a single scenario, vector may fall back
            # -- the published row must say so.  When it names another
            # engine, the timed window included the cost-model decision or
            # the discarded vector attempt: re-measure on the engine that
            # actually ran, so the row's throughput is a genuine measurement.
            (record,) = sweep.shard_report.records
            if record.backend == backend:
                break
            backend = record.backend
        samples.append(
            ScalingSample(
                stages=int(stages),
                input_transitions=input_transitions,
                events=sweep.runs[0].execution.event_count,
                seconds=elapsed,
                backend=backend,
            )
        )
        context.observed["backend_executed"] = backend
    rows = [
        {
            "stages": sample.stages,
            "input_transitions": sample.input_transitions,
            "events": sample.events,
            "seconds": sample.seconds,
            "events_per_second": sample.events_per_second,
            "backend": sample.backend,
        }
        for sample in samples
    ]
    return ExperimentOutcome(
        rows=rows,
        summary={"total_events": sum(s.events for s in samples)},
        raw=samples,
    )


register_experiment_kind(
    "scaling",
    _scaling,
    description=(
        "Simulator throughput scaling: events per second of the event loop "
        "over inverter-chain depth (event counts deterministic, timings "
        "wall-clock)"
    ),
    defaults={
        "stage_counts": [4, 8, 16, 32],
        "input_transitions": 200,
        "tau": 1.0,
        "t_p": 0.5,
        "eta_plus": 0.05,
        "seed": 3,
        "use_eta": True,
        "channel": None,
    },
)
