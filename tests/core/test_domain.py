"""Each constructor is the one home of its parameter checks.

Every parameter check of a channel, delay-function or adversary
constructor raises :class:`DomainError` naming the argument -- which is
also the spec's JSON key, so ``repro lint`` reports it at that key -- and
every parameter that must be finite rejects NaN and +-inf.
"""

import math
import pickle

import pytest

from repro.core import (
    ConstantDelay,
    DegradationDelayChannel,
    EtaBound,
    ExpDelay,
    InertialDelayChannel,
    PureDelayChannel,
    RandomAdversary,
    ScaledDelay,
    SequenceAdversary,
    ShiftedDelay,
    SineAdversary,
    TableDelay,
)
from repro.core.domain import DomainError

INF = math.inf
BASE = ConstantDelay(1.0)

#: name -> (constructor of the parameter's value, parameter, one more
#: out-of-domain value).  Parameters that may be any finite real take -inf.
CASES = {
    "pure-delay": (lambda v: PureDelayChannel(v), "delay", -0.5),
    "pure-falling_delay": (lambda v: PureDelayChannel(1.0, v), "falling_delay", -0.5),
    "inertial-delay": (lambda v: InertialDelayChannel(v, 1.0), "delay", -1.0),
    "inertial-window": (lambda v: InertialDelayChannel(1.0, v), "window", -1.0),
    "inertial-window-above-delay": (lambda v: InertialDelayChannel(0.5, v), "window", 1.0),
    "ddm-delta_nominal": (lambda v: DegradationDelayChannel(v, 1.0), "delta_nominal", 0.0),
    "ddm-tau_deg": (lambda v: DegradationDelayChannel(1.0, v), "tau_deg", 0.0),
    "ddm-T0": (lambda v: DegradationDelayChannel(1.0, 1.0, v), "T0", -INF),
    "exp-tau": (lambda v: ExpDelay(v, 0.5), "tau", 0.0),
    "exp-t_p": (lambda v: ExpDelay(1.0, v), "t_p", -0.5),
    "exp-v_th": (lambda v: ExpDelay(1.0, 0.5, v), "v_th", 1.0),
    "constant-delay": (lambda v: ConstantDelay(v), "delay", -1.0),
    "shifted-shift_T": (lambda v: ShiftedDelay(BASE, v), "shift_T", -INF),
    "shifted-shift_delta": (lambda v: ShiftedDelay(BASE, 0.0, v), "shift_delta", -INF),
    "scaled-scale": (lambda v: ScaledDelay(BASE, v), "scale", 0.0),
    "eta-eta_plus": (lambda v: EtaBound(v, 0.1), "eta_plus", -0.1),
    "eta-eta_minus": (lambda v: EtaBound(0.1, v), "eta_minus", -0.1),
    "random-sigma_fraction": (
        lambda v: RandomAdversary(1, "gaussian", v),
        "sigma_fraction",
        -1.0,
    ),
    "sine-period": (lambda v: SineAdversary(v), "period", 0.0),
    "sine-phase": (lambda v: SineAdversary(1.0, v), "phase", -INF),
    "sine-amplitude_fraction": (
        lambda v: SineAdversary(1.0, 0.0, v),
        "amplitude_fraction",
        1.5,
    ),
    "table-delta_inf": (lambda v: TableDelay([0.0, 1.0], [0.5, 0.8], v), "delta_inf", 0.7),
    "table-T_samples": (lambda v: TableDelay([0.0, v], [0.5, 0.8]), "T_samples", 0.0),
    "sequence-fill": (lambda v: SequenceAdversary([0.0], fill=v), "fill", -INF),
}


@pytest.mark.parametrize("value", [math.nan, INF, "bad"], ids=["NaN", "Infinity", "out-of-domain"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_out_of_domain_value_raises_domain_error_naming_the_parameter(case, value):
    make, param, bad = CASES[case]
    with pytest.raises(DomainError) as info:
        make(bad if value == "bad" else value)
    assert info.value.param == param
    assert isinstance(info.value, ValueError)


def test_unknown_distribution_names_the_rejected_and_the_valid_ones():
    with pytest.raises(DomainError, match=r"'normal' \(expected 'uniform' or 'gaussian'\)") as info:
        RandomAdversary(1, "normal")
    assert info.value.param == "distribution"


def test_non_finite_shift_is_rejected():
    with pytest.raises(DomainError) as info:
        SequenceAdversary([0.0, math.nan])
    assert info.value.param == "shifts"


def test_in_domain_values_still_construct():
    PureDelayChannel(0.0, 0.0)
    InertialDelayChannel(0.5, 0.5)
    DegradationDelayChannel(1.0, 1.0, -2.0)
    ShiftedDelay(BASE, -3.0, -0.5)
    SineAdversary(1.0, -1.0, 0.0)
    EtaBound(0.0, 0.0)


def test_domain_error_pickles_with_its_parameter():
    error = pickle.loads(pickle.dumps(DomainError("tau", "tau must be positive")))
    assert (error.param, str(error)) == ("tau", "tau must be positive")
