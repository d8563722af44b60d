"""Experiment CMP: glitch-train propagation under the different delay models.

The introduction of the paper motivates the involution model by the
behaviour of the industry-standard models on fast glitch trains: pure
delays propagate every glitch unchanged, inertial delays remove all
glitches below their window in a single stage (solving bounded-time SPF,
which no physical circuit can), and the DDM attenuates glitches gradually
but is still a bounded single-history channel and hence non-faithful.
Involution/eta-involution channels attenuate glitches gradually *and*
remain faithful.

This driver propagates a train of narrow pulses through an inverter chain
modelled with each of the channel families and records how many pulses
survive at every stage -- reproducing the qualitative comparison that
motivates the paper (and Fig. 2's pulse-attenuation behaviour).  It is the
registered ``comparison`` experiment kind
(``repro.api.experiment("comparison", {...})``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..circuits.library import inverter_chain
from ..core.constraint import admissible_eta_bound
from ..core.involution import InvolutionPair
from ..core.transitions import Signal
from ..engine.sweep import Scenario, channel_overrides, run_many
from ..specs import AdversarySpec, ChannelSpec, register_experiment_kind
from .base import ExperimentContext, ExperimentOutcome, _check_param

__all__ = ["ModelComparisonResult", "default_model_factories"]


def default_model_factories(
    tau: float = 1.0,
    t_p: float = 0.5,
    *,
    eta_plus: float = 0.05,
    seed: int = 11,
) -> Dict[str, ChannelSpec]:
    """Channel specs with comparable nominal delays for all model families.

    The nominal (saturated) delay of the involution exp-channel is
    ``t_p + tau*ln(2)``; the pure/inertial/DDM channels are parametrised to
    the same nominal delay so the comparison isolates the glitch handling.
    ``api.experiment("comparison", {"factories": ...})`` takes the specs'
    dict form (``spec.to_dict()``); a direct call of the registered runner
    also accepts factory callables (:func:`repro.specs.as_channel_factory`).
    """
    pair = InvolutionPair.exp_channel(tau, t_p)
    nominal_delay = pair.delta_up_inf
    eta = admissible_eta_bound(pair, eta_plus)
    return {
        "pure": ChannelSpec("pure", delay=nominal_delay),
        "inertial": ChannelSpec("inertial", delay=nominal_delay, window=t_p),
        "ddm": ChannelSpec("ddm", delta_nominal=nominal_delay, tau_deg=tau),
        "involution": ChannelSpec.exp_involution(tau, t_p),
        "eta_involution": ChannelSpec.exp_eta_involution(
            tau, t_p, eta, adversary=AdversarySpec("random", seed=seed)
        ),
    }


@dataclass
class ModelComparisonResult:
    """Surviving pulse counts per model and stage."""

    pulse_width: float
    pulse_count: int
    stage_survivors: Dict[str, List[int]]
    output_transitions: Dict[str, int]

    def rows(self) -> List[Dict[str, object]]:
        """One row per model for reporting."""
        rows = []
        for model, survivors in sorted(self.stage_survivors.items()):
            rows.append(
                {
                    "model": model,
                    "input_pulses": self.pulse_count,
                    "survivors_per_stage": survivors,
                    "output_transitions": self.output_transitions[model],
                }
            )
        return rows


def _comparison(params: dict, context: ExperimentContext) -> ExperimentOutcome:
    """The ``comparison`` kind: one glitch train through every model's chain.

    Every model uses the same chain topology; the recorded metric is the
    number of surviving pulses at each stage output (either polarity, since
    stages invert), plus the raw transition count at the final output.
    ``factories`` values may be :class:`~repro.specs.ChannelSpec` objects,
    spec dicts, or factory callables (a test's fakes).
    """
    from ..specs import as_channel_factory

    stages, pulse_count = params["stages"], params["pulse_count"]
    for name in ("pulse_width", "gap"):
        _check_param(params[name] > 0, name, params[name], "must be positive")
    _check_param(pulse_count >= 1, "pulse_count", pulse_count, "must be at least 1")
    _check_param(params["end_time"] >= 0, "end_time", params["end_time"], "must be at least 0")
    factories = params["factories"]
    if factories is None:
        factories = default_model_factories(params["tau"], params["t_p"])
    else:
        _check_param(
            isinstance(factories, Mapping), "factories", repr(factories),
            "must be an object of channel specs",
        )
        _check_param(len(factories) > 0, "factories", factories, "must not be empty")
    factories = {
        model: as_channel_factory(channel) for model, channel in factories.items()
    }
    stimulus = Signal.pulse_train(
        1.0, [params["pulse_width"]] * pulse_count, [params["gap"]] * (pulse_count - 1)
    )
    # Every model shares the same chain topology; scenarios only swap the
    # per-stage channels, so the circuit is validated/precomputed once.
    first_factory = next(iter(factories.values()))
    circuit = inverter_chain(stages, first_factory, expose_taps=True)
    scenarios = [
        Scenario(
            name=model,
            inputs={"in": stimulus},
            end_time=params["end_time"],
            channels=channel_overrides(circuit, lambda edge: factory()),
        )
        for model, factory in factories.items()
    ]
    sweep = run_many(
        circuit,
        scenarios,
        max_events=2_000_000,
        backend=context.backend,
        max_workers=context.max_workers,
        checkpoint=context.checkpoint,
    )
    # Provenance records the strategy that actually ran (a vector request
    # may have fallen back for unvectorizable channels).
    context.record(sweep)

    stage_survivors: Dict[str, List[int]] = {}
    output_transitions: Dict[str, int] = {}
    traces: Optional[Dict[str, dict]] = {} if params["record_traces"] else None
    for run in sweep:
        model = run.scenario.name
        execution = run.execution
        survivors = []
        for stage in range(1, stages + 1):
            signal = execution.output_signals[f"q{stage}"]
            polarity = 0 if stage % 2 == 1 else 1
            survivors.append(len(signal.pulses(polarity)))
        stage_survivors[model] = survivors
        output_transitions[model] = len(execution.output_signals["out"])
        if traces is not None:
            from ..io.netlist import signal_to_dict

            traces[f"{model}.out"] = signal_to_dict(
                execution.output_signals["out"]
            )
    result = ModelComparisonResult(
        pulse_width=params["pulse_width"],
        pulse_count=pulse_count,
        stage_survivors=stage_survivors,
        output_transitions=output_transitions,
    )
    return ExperimentOutcome(
        rows=result.rows(),
        summary={
            "pulse_width": result.pulse_width,
            "pulse_count": result.pulse_count,
            "models": sorted(result.stage_survivors),
        },
        traces=traces,
        raw=result,
    )


register_experiment_kind(
    "comparison",
    _comparison,
    description=(
        "Delay-model comparison: propagate a narrow glitch train through an "
        "inverter chain under pure/inertial/DDM/involution/eta-involution "
        "channels and count surviving pulses per stage"
    ),
    defaults={
        "stages": 5,
        "pulse_width": 0.4,
        "gap": 0.6,
        "pulse_count": 8,
        "tau": 1.0,
        "t_p": 0.5,
        "factories": None,
        "end_time": 200.0,
        "record_traces": False,
    },
)
