"""Brent's bracketing root finder, in the standard library only.

The solvers in :mod:`repro.core` and :mod:`repro.spf` need one scalar
root per call (``delta_min``, the constraint (C) suprema, the SPF
``tau`` and ``Delta_0_tilde``).  :func:`brentq` finds it without
importing scipy, whose ``scipy.optimize`` import would otherwise be
most of a cold ``repro experiment run theorem9``.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["brentq"]

#: Iterations before :func:`brentq` gives up (scipy's default ``maxiter``).
_MAXITER = 100


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    xtol: float,
    rtol: float,
) -> float:
    """A root of ``f`` in the sign-changing bracket ``[a, b]``.

    Brent's method (R. P. Brent, *Algorithms for Minimization Without
    Derivatives*, Prentice-Hall, 1973, ch. 4), ported line by line from
    scipy's C implementation ``scipy/optimize/Zeros/brentq.c``
    (BSD-3-Clause).  The port performs the same floating-point
    operations in the same order, so it returns the float
    ``scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)`` returns,
    bit for bit.  It also raises what scipy raises: ``ValueError`` when
    ``f(a)`` and ``f(b)`` have the same sign or ``f`` returns NaN,
    ``RuntimeError`` when scipy's default 100 iterations do not
    converge.

    The root is accepted once the bracket half-width falls below
    ``(xtol + rtol * |x|) / 2``.
    """
    # ``pre`` is the previous iterate, ``cur`` the current one and
    # ``blk`` the contrapoint: f(blk) and f(cur) always differ in sign.
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            # C's MIN(a, b) is ``a < b ? a : b``; min() differs on NaN.
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:
                limit = abs(spre)
            if 2 * abs(stry) < limit:
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, value is {xcur:f}")
