"""Deviation analysis and eta-band coverage (the methodology of Fig. 8/9).

To validate the eta-involution model the paper compares, per transition,

* the *predicted* threshold-crossing time obtained from a reference delay
  function ``delta_ref(T)`` (characterised under nominal conditions, or a
  fitted exp-channel), against
* the *actual* crossing time measured on the real (here:
  analog-simulated) circuit under some variation (supply ripple, process
  variation, ...).

The difference ``D`` plotted over the previous-output-to-input delay ``T``
is the modeling error of the deterministic involution model; whenever
``D`` falls inside the admissible band ``[-eta_minus, +eta_plus]`` the
eta-involution model can reproduce the real trace exactly.  The band
itself is fixed by faithfulness: given ``eta_plus``, the paper sets
``eta_minus = delta_down(-eta_plus) - delta_min - eta_plus`` (constraint
(C) with equality, i.e. the largest admissible value).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..core.adversary import EtaBound
from ..core.constraint import max_eta_minus
from ..core.involution import InvolutionPair
from .characterize import DelayMeasurement

if TYPE_CHECKING:
    from ..experiments.base import ExperimentContext, ExperimentOutcome

__all__ = [
    "DeviationSample",
    "DeviationAnalysis",
    "compute_deviations",
    "eta_band",
]


@dataclass(frozen=True)
class DeviationSample:
    """Deviation of one measured transition from the reference prediction."""

    T: float
    deviation: float
    rising_output: bool
    measured_delta: float
    predicted_delta: float


@dataclass
class DeviationAnalysis:
    """Deviation samples plus the admissible eta band and coverage statistics."""

    samples: List[DeviationSample]
    eta: EtaBound
    label: str = ""

    # ------------------------------------------------------------------ #

    def polarity(self, rising_output: bool) -> Tuple[np.ndarray, np.ndarray]:
        """``(T, D)`` arrays for one output polarity, sorted by ``T``."""
        selected = [s for s in self.samples if s.rising_output == rising_output]
        selected.sort(key=lambda s: s.T)
        return (
            np.array([s.T for s in selected], dtype=float),
            np.array([s.deviation for s in selected], dtype=float),
        )

    def covered(self, sample: DeviationSample) -> bool:
        """True if the deviation can be absorbed by an admissible eta shift."""
        return -self.eta.eta_minus <= sample.deviation <= self.eta.eta_plus

    def coverage(self, *, T_max: Optional[float] = None) -> float:
        """Fraction of samples (optionally restricted to ``T <= T_max``) covered."""
        relevant = [
            s for s in self.samples if T_max is None or s.T <= T_max
        ]
        if not relevant:
            return float("nan")
        return sum(self.covered(s) for s in relevant) / len(relevant)

    def max_abs_deviation(self, *, T_max: Optional[float] = None) -> float:
        """Largest absolute deviation (optionally restricted to ``T <= T_max``)."""
        relevant = [
            abs(s.deviation) for s in self.samples if T_max is None or s.T <= T_max
        ]
        return max(relevant) if relevant else float("nan")

    def summary(self, *, small_T: Optional[float] = None) -> Dict[str, float]:
        """Key numbers reported by the benchmark harness."""
        T_values = [s.T for s in self.samples]
        if small_T is None and T_values:
            small_T = float(np.percentile(T_values, 25.0))
        return {
            "n_samples": float(len(self.samples)),
            "eta_plus": self.eta.eta_plus,
            "eta_minus": self.eta.eta_minus,
            "coverage_all": self.coverage(),
            "coverage_small_T": self.coverage(T_max=small_T),
            "max_abs_deviation": self.max_abs_deviation(),
            "max_abs_deviation_small_T": self.max_abs_deviation(T_max=small_T),
            "small_T_threshold": float(small_T) if small_T is not None else float("nan"),
        }


def eta_band(
    reference: InvolutionPair,
    eta_plus: float,
    *,
    back_off: float = 0.0,
) -> EtaBound:
    """The paper's eta-band dimensioning: largest ``eta_minus`` for ``eta_plus``.

    Section V sets ``eta_minus = delta_down(-eta_plus) - delta_min -
    eta_plus`` (the supremum allowed by constraint (C)); ``back_off``
    shrinks it relatively to make the constraint strict.
    """
    supremum = max_eta_minus(reference, eta_plus)
    return EtaBound(eta_plus, supremum * (1.0 - back_off))


def compute_deviations(
    measurement: DelayMeasurement,
    reference: InvolutionPair,
    eta: Optional[EtaBound] = None,
    *,
    eta_plus: Optional[float] = None,
    label: str = "",
) -> DeviationAnalysis:
    """Compare a measurement against a reference delay pair.

    For every measured sample ``(T, delta)`` the deviation is
    ``D = delta - delta_ref(T)`` with ``delta_ref`` the reference delay
    function of the sample's polarity.  The admissible band is either given
    explicitly (``eta``, an :class:`EtaBound` or its spec dict) or derived
    from ``eta_plus`` via :func:`eta_band`; ``reference`` may be a live
    pair or its spec dict.
    """
    from ..specs import as_eta, as_pair

    reference = as_pair(reference)
    if eta is not None:
        eta = as_eta(eta)
    if eta is None:
        if eta_plus is None:
            raise ValueError("either eta or eta_plus must be given")
        eta = eta_band(reference, eta_plus)
    deviations: List[DeviationSample] = []
    for sample in measurement.samples:
        delta_ref_fn = reference.delta_up if sample.rising_output else reference.delta_down
        predicted = delta_ref_fn(sample.T)
        if not math.isfinite(predicted):
            # The reference model predicts cancellation for this T; such
            # samples lie outside the model's domain and are skipped (they
            # cannot be compensated by any finite eta shift).
            continue
        deviations.append(
            DeviationSample(
                T=sample.T,
                deviation=sample.delta - predicted,
                rising_output=sample.rising_output,
                measured_delta=sample.delta,
                predicted_delta=predicted,
            )
        )
    return DeviationAnalysis(samples=deviations, eta=eta, label=label)


def _eta_coverage(params: dict, context: ExperimentContext) -> ExperimentOutcome:
    """The ``eta_coverage`` kind: Monte Carlo coverage check on the
    event-driven engine.

    The digital-side counterpart of :func:`compute_deviations`: an inverter
    chain of eta-involution channels is executed for ``n_runs`` sampled
    adversaries (:func:`repro.engine.sweep.eta_monte_carlo`) through one
    shared :func:`repro.engine.sweep.run_many` sweep (``backend`` picks the
    engine, ``max_workers`` > 1 runs chunks on worker processes -- the
    scenarios are picklable and seeded per run).  Per channel and per
    run, every output transition's crossing time is compared against the
    prediction of the *deterministic* involution delay function applied to
    the run's actual previous-output-to-input delay ``T`` -- exactly the
    per-transition methodology of Fig. 8, with the event-driven engine
    standing in for the analog substrate.  Since every sampled shift is
    admissible, the resulting deviations must all lie inside the band
    (``coverage() == 1.0``); anything less would indicate an engine/kernel
    regression, which makes this both a validation of the model's claim
    (admissible noise is exactly reproducible) and an end-to-end self-check
    of the sweep machinery.

    Transitions are matched with their generating inputs by index per
    channel; channels whose run produced cancellations (input/output counts
    differ, possible for shifts near the cancellation boundary) are skipped
    for that run.
    """
    from ..circuits.library import inverter_chain
    from ..core.adversary import ZeroAdversary
    from ..core.eta_channel import EtaInvolutionChannel
    from ..core.transitions import Signal
    from ..engine.scheduler import CircuitTopology
    from ..engine.sweep import eta_monte_carlo, run_many
    from ..experiments.base import ExperimentOutcome, _check_param, _number_or_null
    from ..specs import BUILD_ERRORS, as_eta, as_pair, located

    pair, eta = as_pair(params["pair"]), as_eta(params["eta"])
    stages, stimulus = params["stages"], params["stimulus"]
    end_time = _number_or_null(params, "end_time")
    _check_param(
        end_time is None or end_time >= 0, "end_time", params["end_time"], "must be at least 0"
    )
    label = params["label"]
    _check_param(isinstance(label, str), "label", json.dumps(label), "must be a string")
    _check_param(params["n_runs"] >= 1, "n_runs", params["n_runs"], "must be at least 1")
    _check_param(params["seed"] >= 0, "seed", params["seed"], "must be at least 0")
    if stimulus is not None:
        from ..io.netlist import signal_from_dict

        try:
            stimulus = signal_from_dict(stimulus)
        except BUILD_ERRORS as exc:
            raise located(exc, "/stimulus") from exc
    circuit = inverter_chain(
        stages, lambda: EtaInvolutionChannel(pair, eta, ZeroAdversary())
    )
    if stimulus is None:
        # A well-separated train: wide pulses with generous gaps, so no run
        # comes near the cancellation boundary.
        unit = pair.delta_up_inf + pair.delta_down_inf
        stimulus = Signal.pulse_train(1.0, [2.0 * unit] * 4, [3.0 * unit] * 3)
    inputs = {"in": stimulus}
    if end_time is None:
        last = stimulus.stabilization_time() if len(stimulus) else 0.0
        end_time = last + 10.0 * (stages + 1) * pair.delta_up_inf

    topology = CircuitTopology(circuit)
    scenarios = eta_monte_carlo(
        circuit, inputs, end_time, params["n_runs"], seed=params["seed"]
    )
    sweep = run_many(
        topology,
        scenarios,
        max_workers=context.max_workers,
        backend=context.backend,
        checkpoint=context.checkpoint,
    )
    # Provenance records the strategy that actually ran (a vector request
    # may have fallen back for unvectorizable channels).
    context.record(sweep)

    samples: List[DeviationSample] = []
    eta_edges = [
        (ename, edge)
        for ename, edge in topology.edges.items()
        if isinstance(edge.channel, EtaInvolutionChannel)
    ]
    for run in sweep:
        for ename, edge in eta_edges:
            run_in = list(run.execution.node_signals[edge.source])
            run_out = list(run.execution.edge_signals[ename])
            if len(run_in) != len(run_out):
                continue  # cancellations: index matching would misalign
            for n in range(1, len(run_in)):  # n = 0 has T = inf
                T = run_in[n].time - run_out[n - 1].time
                rising_output = run_out[n].value == 1
                delta_ref = pair.delta_up if rising_output else pair.delta_down
                predicted = delta_ref(T)
                if not math.isfinite(predicted):
                    continue
                measured = run_out[n].time - run_in[n].time
                samples.append(
                    DeviationSample(
                        T=float(T),
                        deviation=float(measured - predicted),
                        rising_output=bool(rising_output),
                        measured_delta=float(measured),
                        predicted_delta=float(predicted),
                    )
                )
    analysis = DeviationAnalysis(samples=samples, eta=eta, label=label)
    return ExperimentOutcome(
        rows=[analysis.summary()],
        summary={"label": analysis.label},
        raw=analysis,
    )


def _register() -> None:
    from ..specs import register_experiment_kind

    register_experiment_kind(
        "eta_coverage",
        _eta_coverage,
        description=(
            "Monte Carlo eta-coverage self-check: sampled admissible "
            "adversaries on an eta-involution inverter chain must deviate "
            "from the deterministic prediction only within the band "
            "(coverage == 1.0)"
        ),
        defaults={
            "pair": {"kind": "exp", "tau": 1.0, "t_p": 0.5, "v_th": 0.5},
            "eta": {"eta_plus": 0.05, "eta_minus": 0.05},
            "stages": 3,
            "n_runs": 50,
            "seed": 2018,
            "stimulus": None,
            "end_time": None,
            "label": "eta-monte-carlo",
        },
    )


_register()
