"""Experiments THM9 and LEM5: storage-loop regimes and fixed-point quantities.

Theorem 9 of the paper partitions the input pulse lengths of the fed-back
OR (Fig. 5) into three regimes; Lemma 5/6 bound the up-times, periods and
duty cycles of any infinite pulse train in the marginal regime.  These
drivers

* sweep the input pulse length across the three regimes and compare the
  analytical classification against event-driven simulations under several
  adversaries (THM9), and
* sweep the noise bound ``eta_plus`` and tabulate ``tau``, ``Delta``,
  ``P``, ``gamma`` and ``Delta_0_tilde`` (LEM5).

Both are registered experiment kinds (``theorem9``, ``lemma5``): run them
with ``repro.api.experiment("theorem9", {...})``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..circuits.library import fed_back_or
from ..core.adversary import ZeroAdversary
from ..core.constraint import admissible_eta_bound
from ..core.eta_channel import EtaInvolutionChannel
from ..core.transitions import Signal
from ..engine.sweep import Scenario, run_many
from ..specs import AdversarySpec, register_experiment_kind
from ..spf.analysis import SPFAnalysis, SPFRegime
from .base import ExperimentContext, ExperimentOutcome, _check_param, _param_or_null

__all__ = ["RegimeObservation", "Theorem9Result", "default_adversaries"]

#: Default parameters of the exp-channel pair used when none is given.
_DEFAULT_PAIR = {"kind": "exp", "tau": 1.0, "t_p": 0.5, "v_th": 0.5}


def default_adversaries(seed: int = 7) -> Dict[str, AdversarySpec]:
    """The adversary set used by the Theorem 9 sweep (as declarative specs).

    The ``theorem9`` runner coerces each entry through
    :func:`repro.specs.as_adversary_factory`, so a direct call of the
    registered runner may also pass factory callables;
    ``api.experiment("theorem9", ...)`` takes the specs' dict form
    (``{"kind": "random", "seed": 7}``).
    """
    return {
        "zero": AdversarySpec("zero"),
        "worst": AdversarySpec("worst"),
        "best": AdversarySpec("best"),
        "random": AdversarySpec("random", seed=seed),
    }


@dataclass
class RegimeObservation:
    """One (pulse length, adversary) simulation of the storage loop."""

    delta_0: float
    adversary: str
    regime: str
    final_value: int
    n_pulses: int
    max_up_time: float
    max_duty_cycle: float
    stabilization_time: float
    consistent: bool


@dataclass
class Theorem9Result:
    """All observations of the regime sweep plus the analysis quantities."""

    analysis_summary: Dict[str, float]
    observations: List[RegimeObservation]

    def rows(self) -> List[Dict[str, object]]:
        """Flat table for reporting."""
        return [vars(obs) for obs in self.observations]

    @property
    def all_consistent(self) -> bool:
        """True if every observation is consistent with Theorem 9 / Lemma 5/6."""
        return all(obs.consistent for obs in self.observations)


def _check_consistency(
    analysis: SPFAnalysis, regime: str, delta_0: float, output: Signal
) -> bool:
    """Is an observed OR-output signal consistent with Theorem 9 and Lemma 5/6?"""
    pulses = output.pulses()
    loop_pulses = pulses[1:]  # pulse 0 is the input pulse itself
    tolerance = 1e-6 * max(1.0, analysis.delta_bound)
    if regime == SPFRegime.LATCHED:
        # Single rising transition at time 0, no falling transition.
        return len(output) == 1 and output.final_value == 1
    if regime == SPFRegime.CANCELLED:
        # Output contains only the input pulse.
        return (
            len(pulses) == 1
            and abs(pulses[0].length - delta_0) <= 1e-6 * max(1.0, delta_0)
            and output.final_value == 0
        )
    # Marginal regime: any loop pulse train must respect the Lemma 5/6 bounds
    # as long as it keeps oscillating; trains that die or latch are fine.
    if output.final_value == 1:
        return True
    for pulse in loop_pulses:
        if pulse.length > analysis.delta_bound + tolerance:
            # A pulse exceeding Delta must lead to latching (Lemma 7); since
            # the output resolved to 0 instead, this would be inconsistent --
            # unless it is the direct response to the input pulse itself.
            return False
    return True


def _theorem9(params: dict, context: ExperimentContext) -> ExperimentOutcome:
    """The ``theorem9`` kind: sweep the storage loop's input pulse length.

    For each (pulse length, adversary) pair the fed-back OR is simulated and
    the observed output is checked against the analytical predictions.
    ``pair``/``eta`` may be given as live objects or as their declarative
    spec dicts (:mod:`repro.specs`); adversary factories may be
    :class:`~repro.specs.AdversarySpec` objects, spec dicts, or callables.
    """
    from ..specs import as_adversary_factory, as_eta, as_pair

    _check_param(params["end_time"] >= 0, "end_time", params["end_time"], "must be at least 0")
    pair = as_pair(params["pair"])
    if params["eta"] is None:
        eta = admissible_eta_bound(pair, params["eta_plus"])
    else:
        eta = as_eta(params["eta"])
    analysis = SPFAnalysis(pair, eta)
    pulse_lengths = _param_or_null(params, "pulse_lengths")
    if pulse_lengths is None:
        low = max(analysis.cancel_threshold, 0.05 * analysis.delta_min)
        high = analysis.latch_threshold
        pulse_lengths = np.concatenate(
            [
                np.linspace(0.25 * low, 0.95 * low, 4),
                np.linspace(1.01 * low, 0.99 * high, 10),
                np.linspace(1.01 * high, 1.6 * high, 4),
            ]
        )
    else:
        _check_param(
            isinstance(pulse_lengths, list)
            and len(pulse_lengths) > 0
            and all(length > 0 for length in pulse_lengths),
            "pulse_lengths", params["pulse_lengths"],
            "must be a non-empty list of positive lengths",
        )
    adversaries = params["adversaries"]
    if adversaries is None:
        adversaries = default_adversaries()
    else:
        _check_param(
            isinstance(adversaries, Mapping), "adversaries", repr(adversaries),
            "must be an object of adversary specs",
        )
        _check_param(len(adversaries) > 0, "adversaries", adversaries, "must not be empty")
    adversaries = {
        name: as_adversary_factory(factory) for name, factory in adversaries.items()
    }

    # One shared storage-loop topology; every (adversary, pulse length)
    # point only overrides the feedback channel, so circuit validation and
    # adjacency precomputation are paid exactly once for the whole sweep.
    circuit = fed_back_or(EtaInvolutionChannel(pair, eta, ZeroAdversary()))
    scenarios = [
        Scenario(
            name=f"{name}@{float(delta_0):g}",
            inputs={"i": Signal.pulse(0.0, float(delta_0))},
            end_time=params["end_time"],
            channels={"feedback": EtaInvolutionChannel(pair, eta, factory())},
            metadata={"adversary": name, "delta_0": float(delta_0)},
        )
        for name, factory in adversaries.items()
        for delta_0 in pulse_lengths
    ]
    sweep = run_many(
        circuit,
        scenarios,
        max_events=params["max_events"],
        backend=context.backend,
        max_workers=context.max_workers,
        checkpoint=context.checkpoint,
    )
    # Provenance must record the strategy that actually ran: the loop
    # compiles for the vector engine, but "auto" runs it scalar (its
    # fixpoint needs ~400 passes for a handful of events), and a dynamic
    # hazard can drop an explicit "vector" run to scalar.
    context.record(sweep)

    observations: List[RegimeObservation] = []
    traces: Optional[Dict[str, dict]] = {} if params["record_traces"] else None
    for run in sweep:
        delta_0 = run.scenario.metadata["delta_0"]
        name = run.scenario.metadata["adversary"]
        output = run.execution.output_signals["or_out"]
        regime = analysis.classify(delta_0)
        pulses = output.pulses()
        loop_pulses = pulses[1:]
        duty_cycles = output.duty_cycles()[1:]
        observations.append(
            RegimeObservation(
                delta_0=delta_0,
                adversary=name,
                regime=regime,
                final_value=output.final_value,
                n_pulses=len(pulses),
                max_up_time=max((p.length for p in loop_pulses), default=0.0),
                max_duty_cycle=max(duty_cycles, default=0.0),
                stabilization_time=output.stabilization_time(),
                consistent=_check_consistency(analysis, regime, delta_0, output),
            )
        )
        if traces is not None:
            from ..io.netlist import signal_to_dict

            traces[f"{run.scenario.name}.or_out"] = signal_to_dict(output)
    result = Theorem9Result(analysis_summary=analysis.summary(), observations=observations)
    return ExperimentOutcome(
        rows=result.rows(),
        summary=dict(result.analysis_summary),
        traces=traces,
        raw=result,
    )


def _lemma5(params: dict, context: ExperimentContext) -> ExperimentOutcome:
    """The ``lemma5`` kind: the Lemma 5/6/8 quantities over an ``eta_plus`` sweep.

    For each ``eta_plus`` the maximal admissible ``eta_minus`` (backed off
    by ``back_off`` to keep constraint (C) strict) is used; the row records
    ``tau``, ``Delta``, ``gamma``, ``Delta_0_tilde`` and the regime
    boundaries.
    """
    from ..specs import as_pair

    pair = as_pair(params["pair"])
    values = params["eta_plus_values"]
    _check_param(len(values) > 0, "eta_plus_values", values, "must not be empty")
    rows: List[Dict[str, float]] = []
    for eta_plus in values:
        eta = admissible_eta_bound(pair, float(eta_plus), back_off=params["back_off"])
        rows.append({k: float(v) for k, v in SPFAnalysis(pair, eta).summary().items()})
    return ExperimentOutcome(rows=rows, raw=rows)


# --------------------------------------------------------------------------- #
# Registered experiment kinds
# --------------------------------------------------------------------------- #


register_experiment_kind(
    "theorem9",
    _theorem9,
    description=(
        "Storage-loop regime sweep (Theorem 9): simulate the fed-back OR "
        "across pulse lengths and adversaries, checking each run against "
        "the analytical regime classification"
    ),
    defaults={
        "pair": _DEFAULT_PAIR,
        "eta": None,
        "eta_plus": 0.05,
        "pulse_lengths": None,
        "adversaries": None,
        "end_time": 400.0,
        "max_events": 2_000_000,
        "record_traces": False,
    },
)

register_experiment_kind(
    "lemma5",
    _lemma5,
    description=(
        "Fixed-point quantities (Lemma 5/6/8): tabulate tau, Delta, gamma "
        "and the regime boundaries over an eta_plus sweep"
    ),
    defaults={
        "pair": _DEFAULT_PAIR,
        "eta_plus_values": [0.0, 0.02, 0.05, 0.1],
        "back_off": 1e-3,
    },
)
