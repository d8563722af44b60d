"""The stdlib Brent port returns exactly what ``scipy.optimize.brentq`` does.

A spy stands in for ``brentq`` at its five call sites -- ``delta_min``
(Lemma 1), the two constraint (C) suprema, the SPF ``tau`` and
``Delta_0_tilde`` -- and records every bracket they solve over a grid of
exp channels plus a theorem9 run at its defaults.  Each recorded call is
then solved again by scipy: roots must agree to the last bit
(``float.hex``) and failures must raise the same exception type.
"""

import itertools
import math

import pytest

import repro.core.constraint
import repro.core.involution
import repro.spf.analysis
from repro import api
from repro.core import rootfind
from repro.core.constraint import admissible_eta_bound, max_eta_plus, max_symmetric_eta
from repro.core.involution import InvolutionPair
from repro.spf.analysis import SPFAnalysis

optimize = pytest.importorskip("scipy.optimize")

CALL_SITES = (repro.core.involution, repro.core.constraint, repro.spf.analysis)

#: The solved function at each call site, by qualified name.
SOLVED = {
    "InvolutionPair._fixed_point.<locals>.equation",
    "max_eta_plus.<locals>.gap",
    "max_symmetric_eta.<locals>.gap",
    "SPFAnalysis.h",
    "SPFAnalysis._solve_delta_tilde_0.<locals>.gap",
}


def _outcome(solver, f, a, b, **tolerances):
    """The root as ``float.hex``, or the type of the exception raised."""
    try:
        return solver(f, a, b, **tolerances).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _exercise_call_sites():
    for tau, t_p, v_th in itertools.product((0.5, 1.0, 3.0), (0.1, 0.5, 2.0), (0.3, 0.5, 0.8)):
        pair = InvolutionPair.exp_channel(tau, t_p, v_th)
        max_symmetric_eta(pair)
        top = max_eta_plus(pair)
        for fraction in (0.0, 0.3, 0.9):
            eta = admissible_eta_bound(pair, fraction * top)
            SPFAnalysis(pair, eta).summary()
    result = api.experiment("theorem9", {}, backend="sequential")
    assert result.rows and all(row["consistent"] for row in result.rows)


@pytest.fixture(scope="module")
def recorded():
    calls = []

    def spy(f, a, b, **tolerances):
        calls.append((f, a, b, tolerances))
        return rootfind.brentq(f, a, b, **tolerances)

    with pytest.MonkeyPatch.context() as patch:
        for module in CALL_SITES:
            patch.setattr(module, "brentq", spy)
        _exercise_call_sites()
    return calls


def test_every_call_site_is_recorded(recorded):
    assert {f.__qualname__ for f, *_ in recorded} == SOLVED


def test_port_matches_scipy_on_every_recorded_bracket(recorded):
    mismatches = [
        (f.__qualname__, a, b, ours, theirs)
        for f, a, b, tolerances in recorded
        if (ours := _outcome(rootfind.brentq, f, a, b, **tolerances))
        != (theirs := _outcome(optimize.brentq, f, a, b, **tolerances))
    ]
    assert not mismatches, mismatches[:5]


def _cubic(x):
    return x**3 - 2.0 * x - 5.0


def _step(x):
    # No interpolation step is ever good enough, so Brent bisects: about
    # 1000 halvings to shrink this bracket to xtol, far past 100 iterations.
    return -1.0 if x < 0.3 else 1.0


#: A bracket that exhausts the iteration limit.
UNCONVERGED = (_step, -1e300, 1e300, {"xtol": 1e-15, "rtol": 4 * 2.0**-52})


def _cliff(x):
    # Finite below 1.5, -inf beyond: the shape of the solvers' gap
    # functions near a delay function's pole.
    return 1.5 - x if x < 1.5 else -math.inf


@pytest.mark.parametrize(
    "f, a, b, tolerances",
    [
        (_cubic, 2.0, 3.0, {"xtol": 1e-14, "rtol": 1e-13}),
        (_cubic, 3.0, 2.0, {"xtol": 1e-15, "rtol": 1e-14}),
        UNCONVERGED,
        (_cubic, 3.0, 4.0, {"xtol": 1e-14, "rtol": 1e-13}),
        (lambda x: x - 1.0, 1.0, 4.0, {"xtol": 1e-14, "rtol": 1e-13}),
        (lambda x: x - 4.0, 1.0, 4.0, {"xtol": 1e-14, "rtol": 1e-13}),
        (lambda x: math.nan if x > 0.5 else x, 0.0, 1.0, {"xtol": 1e-14, "rtol": 1e-13}),
        (_cliff, 0.0, 2.0, {"xtol": 1e-14, "rtol": 1e-13}),
        (math.atan, -1e6, 1.0, {"xtol": 1e-15, "rtol": 1e-14}),
    ],
    ids=[
        "cubic",
        "reversed-bracket",
        "maxiter-exhausted",
        "same-sign",
        "root-at-a",
        "root-at-b",
        "nan-value",
        "minus-inf-values",
        "wide-bracket",
    ],
)
def test_port_matches_scipy_on_edge_cases(f, a, b, tolerances):
    assert _outcome(rootfind.brentq, f, a, b, **tolerances) == _outcome(
        optimize.brentq, f, a, b, **tolerances
    )


def test_error_contract():
    with pytest.raises(ValueError, match="different signs"):
        rootfind.brentq(_cubic, 3.0, 4.0, xtol=1e-14, rtol=1e-13)
    with pytest.raises(ValueError, match="NaN"):
        rootfind.brentq(lambda x: math.nan, 0.0, 1.0, xtol=1e-14, rtol=1e-13)
    f, a, b, tolerances = UNCONVERGED
    with pytest.raises(RuntimeError, match="100 iterations"):
        rootfind.brentq(f, a, b, **tolerances)
    assert type(rootfind.brentq(_cubic, 2, 3, xtol=1e-14, rtol=1e-13)) is float
