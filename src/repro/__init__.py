"""repro -- reproduction of "A Faithful Binary Circuit Model with Adversarial Noise".

The package is organised as follows:

* :mod:`repro.core` -- signals, involution delay functions, the
  eta-involution channel (the paper's contribution) and baseline channels.
* :mod:`repro.engine` -- the unified simulation engine: the shared channel
  kernel (tentative delays + transport cancellation), the event scheduler,
  and the batched sweep runner (:func:`repro.engine.run_many`).
* :mod:`repro.circuits` -- gates, circuit graphs and the event-driven
  simulator used to execute circuits built from these channels.
* :mod:`repro.spf` -- the Short-Pulse Filtration problem, the fed-back-OR
  SPF circuit of Fig. 5 and the analytical results of Section IV
  (constraint (C), worst-case pulse trains, Theorem 9).
* :mod:`repro.analog` -- a first-order analog simulator of CMOS inverter
  chains, substituting for the UMC-90/UMC-65 measurement setups of
  Section V.
* :mod:`repro.fitting` -- delay-function characterisation, exp-channel
  fitting and eta-coverage (deviation) analysis.
* :mod:`repro.experiments` -- registered experiment kinds that regenerate
  the paper's figures, run through :func:`repro.api.experiment`.

* :mod:`repro.specs` -- declarative, JSON-round-trippable specs
  (``DelaySpec``/``ChannelSpec``/``CircuitSpec``/``ExperimentSpec``) with
  kind registries and extension hooks; :mod:`repro.io` adds the JSON
  netlist file format plus CSV/VCD result exporters.
* :mod:`repro.store` -- the content-addressed artifact store caching
  experiment results by spec hash.
* :mod:`repro.api` -- the ``build``/``simulate``/``sweep``/``experiment``
  facade over specs and circuits; ``python -m repro`` (:mod:`repro.cli`)
  drives it from netlist files and experiment kinds.

Typical entry point::

    from repro import InvolutionPair, EtaInvolutionChannel, EtaBound, Signal

    pair = InvolutionPair.exp_channel(tau=1.0, t_p=0.5)
    channel = EtaInvolutionChannel(pair, EtaBound(0.05, 0.05))
    out = channel(Signal.pulse(start=0.0, length=2.0))

or, declaratively::

    from repro import ChannelSpec, api
    from repro.circuits import inverter_chain

    spec = ChannelSpec.exp_eta_involution(tau=1.0, t_p=0.5, eta=(0.05, 0.05))
    execution = api.simulate(inverter_chain(7, spec),
                             {"in": Signal.pulse(1.0, 3.0)}, end_time=60.0)
"""

from .core import (
    Adversary,
    BestCaseAdversary,
    Channel,
    ConstantDelay,
    DeCancelAdversary,
    DegradationDelayChannel,
    DelayFunction,
    DomainError,
    EtaBound,
    EtaInvolutionChannel,
    ExpDelay,
    InertialDelayChannel,
    InvolutionChannel,
    InvolutionError,
    InvolutionPair,
    Pulse,
    PureDelayChannel,
    RandomAdversary,
    SequenceAdversary,
    Signal,
    SignalError,
    SineAdversary,
    TableDelay,
    Transition,
    WorstCaseAdversary,
    ZeroAdversary,
    ZeroDelayChannel,
    admissible_eta_bound,
    constraint_C_margin,
    exp_channel_pair,
    max_eta_minus,
    max_symmetric_eta,
    satisfies_constraint_C,
)

__version__ = "2.0.0"

# The spec/api layer is exported lazily (PEP 562): `repro.api` pulls in the
# engine's scheduler/sweep modules, which must not load as a side effect of
# `import repro` inside engine worker processes.
_LAZY_EXPORTS = {
    "api": ("repro.api", None),
    "specs": ("repro.specs", None),
    "cli": ("repro.cli", None),
    "store": ("repro.store", None),
    "Spec": ("repro.specs", "Spec"),
    "SpecError": ("repro.specs", "SpecError"),
    "DelaySpec": ("repro.specs", "DelaySpec"),
    "AdversarySpec": ("repro.specs", "AdversarySpec"),
    "ChannelSpec": ("repro.specs", "ChannelSpec"),
    "CircuitSpec": ("repro.specs", "CircuitSpec"),
    "ExperimentSpec": ("repro.specs", "ExperimentSpec"),
    "ArtifactStore": ("repro.store", "ArtifactStore"),
}


def __getattr__(name):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    return module if attribute is None else getattr(module, attribute)


__all__ = [
    "api",
    "specs",
    "cli",
    "store",
    "Spec",
    "SpecError",
    "DelaySpec",
    "AdversarySpec",
    "ChannelSpec",
    "CircuitSpec",
    "ExperimentSpec",
    "ArtifactStore",
    "Signal",
    "Transition",
    "Pulse",
    "SignalError",
    "DelayFunction",
    "ExpDelay",
    "TableDelay",
    "ConstantDelay",
    "InvolutionPair",
    "InvolutionError",
    "DomainError",
    "exp_channel_pair",
    "Channel",
    "ZeroDelayChannel",
    "InvolutionChannel",
    "EtaInvolutionChannel",
    "EtaBound",
    "Adversary",
    "ZeroAdversary",
    "WorstCaseAdversary",
    "BestCaseAdversary",
    "RandomAdversary",
    "SineAdversary",
    "SequenceAdversary",
    "DeCancelAdversary",
    "PureDelayChannel",
    "InertialDelayChannel",
    "DegradationDelayChannel",
    "constraint_C_margin",
    "satisfies_constraint_C",
    "max_eta_minus",
    "max_symmetric_eta",
    "admissible_eta_bound",
    "__version__",
]
