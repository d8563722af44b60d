"""Experiment drivers regenerating the paper's figures and analytical tables.

Every experiment is a registered *kind* in the declarative experiment
registry (:func:`repro.specs.register_experiment_kind`):

================  ===========================================================
``theorem9``      storage-loop regime sweep vs. the analytical classification
``lemma5``        fixed-point quantities over an ``eta_plus`` sweep
``fig7``          delay characterisation across supply voltages
``fig8``          eta-band coverage of deviations under variations
``fig9``          exp-channel fit + deviation analysis
``comparison``    glitch-train propagation under the delay-model families
``scaling``       event-driven simulator throughput
``eta_coverage``  Monte Carlo eta-coverage self-check (registered by
                  :mod:`repro.fitting.eta_coverage`)
================  ===========================================================

:func:`run_experiment` (also reachable as ``repro.api.experiment`` and
``repro experiment run``) executes a kind from an
:class:`~repro.specs.ExperimentSpec` and returns an
:class:`ExperimentResult` -- schema'd rows plus parameters and provenance
-- optionally cached in the content-addressed artifact store
(:mod:`repro.store`).  It is the only way to run one; in-process callers
that want the kind's typed result (``Fig7Result.curves``,
``Theorem9Result.all_consistent``, ...) read ``ExperimentResult.raw``.
"""

from ..specs import (
    ExperimentKind,
    ExperimentSpec,
    experiment_kinds,
    get_experiment_kind,
    register_experiment_kind,
)
from .base import (
    ExperimentContext,
    ExperimentOutcome,
    ExperimentResult,
    run_experiment,
)
from .comparison import ModelComparisonResult, default_model_factories
from .fig7 import DEFAULT_VDD_LEVELS, Fig7Curve, Fig7Result
from .fig8 import DEFAULT_SCENARIOS, Fig8Result, Fig8Scenario
from .fig9 import Fig9Result
from .reporting import format_table, format_value, print_table
from .scaling import ScalingSample
from .theorem9 import RegimeObservation, Theorem9Result, default_adversaries

# The eta_coverage kind registers itself when repro.fitting.eta_coverage is
# imported; import it here so `import repro.experiments` (which the spec
# registry's lazy loader does) always yields the complete registry.
from ..fitting import eta_coverage as _eta_coverage  # noqa: F401

__all__ = [
    "ExperimentSpec",
    "ExperimentKind",
    "ExperimentContext",
    "ExperimentOutcome",
    "ExperimentResult",
    "run_experiment",
    "experiment_kinds",
    "get_experiment_kind",
    "register_experiment_kind",
    "Fig7Result",
    "Fig7Curve",
    "DEFAULT_VDD_LEVELS",
    "Fig8Result",
    "Fig8Scenario",
    "DEFAULT_SCENARIOS",
    "Fig9Result",
    "Theorem9Result",
    "RegimeObservation",
    "default_adversaries",
    "ModelComparisonResult",
    "default_model_factories",
    "ScalingSample",
    "format_table",
    "format_value",
    "print_table",
]
