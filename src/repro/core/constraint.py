"""Constraint (C) on the admissible noise of eta-involution channels.

Faithfulness of the eta-involution model (Section IV of the paper) requires
the noise bound of the channel in the SPF storage loop to satisfy::

    (C)    eta_plus + eta_minus < delta_down(-eta_plus) - delta_min

This module provides predicates and helpers around (C):

* :func:`satisfies_constraint_C` -- check a given ``(pair, eta)``,
* :func:`constraint_C_margin` -- signed slack of the inequality,
* :func:`max_eta_minus` -- the largest admissible ``eta_minus`` for a given
  ``eta_plus`` (the dimensioning rule used in Section V of the paper:
  ``eta_minus = delta_down(-eta_plus) - delta_min - eta_plus``),
* :func:`max_symmetric_eta` -- the largest ``eta`` with
  ``eta_plus = eta_minus = eta`` still admissible,
* :func:`admissible_eta_bound` -- construct an :class:`EtaBound` from an
  ``eta_plus`` using the paper's rule, optionally backing off by a safety
  factor so the strict inequality holds.
"""

from __future__ import annotations

import math
from typing import Optional

from .adversary import EtaBound
from .domain import DomainError
from .involution import InvolutionPair
from .rootfind import brentq

__all__ = [
    "constraint_C_margin",
    "satisfies_constraint_C",
    "max_eta_minus",
    "max_symmetric_eta",
    "admissible_eta_bound",
]


def constraint_C_margin(pair: InvolutionPair, eta: EtaBound) -> float:
    """Signed slack of constraint (C).

    Returns ``delta_down(-eta_plus) - delta_min - (eta_plus + eta_minus)``;
    the constraint holds iff the result is strictly positive.
    """
    value = pair.delta_down(-eta.eta_plus)
    if not math.isfinite(value):
        return -math.inf
    return value - pair.delta_min - (eta.eta_plus + eta.eta_minus)


def satisfies_constraint_C(pair: InvolutionPair, eta: EtaBound) -> bool:
    """True iff ``(pair, eta)`` satisfies constraint (C) strictly."""
    return constraint_C_margin(pair, eta) > 0.0


def max_eta_minus(pair: InvolutionPair, eta_plus: float) -> float:
    """Largest ``eta_minus`` admissible for the given ``eta_plus``.

    This is the dimensioning rule used for the paper's experiments
    (Section V): ``eta_minus = delta_down(-eta_plus) - delta_min -
    eta_plus``.  The returned value is the supremum; to satisfy the strict
    inequality an actual bound must stay below it.  Raises
    :class:`~repro.core.domain.DomainError` naming ``eta_plus`` if even
    ``eta_minus = 0`` is inadmissible for this ``eta_plus``.
    """
    if eta_plus < 0:
        raise DomainError("eta_plus", f"eta_plus must be non-negative, got {eta_plus}")
    supremum = pair.delta_down(-eta_plus) - pair.delta_min - eta_plus
    if not math.isfinite(supremum) or supremum <= 0:
        raise DomainError(
            "eta_plus",
            f"eta_plus={eta_plus} admits no eta_minus >= 0 under constraint (C); "
            f"the supremum evaluates to {supremum}",
        )
    return supremum


def max_eta_plus(pair: InvolutionPair) -> float:
    """Supremum of admissible ``eta_plus`` values (with ``eta_minus = 0``).

    Constraint (C) with ``eta_minus = 0`` reads
    ``eta_plus < delta_down(-eta_plus) - delta_min``; the left side is
    increasing and the right side decreasing in ``eta_plus``, so the
    supremum is the unique root of ``delta_down(-x) - delta_min - x``.
    Note the paper's observation that (C) implies ``eta_plus < delta_min``.
    """

    def gap(x: float) -> float:
        value = pair.delta_down(-x)
        if not math.isfinite(value):
            return -math.inf
        return value - pair.delta_min - x

    lo, hi = 0.0, pair.delta_min
    if gap(lo) <= 0:
        return 0.0
    g_hi = gap(hi)
    while g_hi > 0:
        hi *= 1.5
        g_hi = gap(hi)
        if hi > 1e6 * max(pair.delta_min, 1.0):  # pragma: no cover - defensive
            raise RuntimeError("could not bracket max_eta_plus")
    return brentq(gap, lo, hi, xtol=1e-15, rtol=1e-14)


def max_symmetric_eta(pair: InvolutionPair) -> float:
    """Supremum of ``eta`` such that ``EtaBound.symmetric(eta)`` satisfies (C).

    Solves ``2*eta = delta_down(-eta) - delta_min`` for the unique positive
    root (left side increasing, right side decreasing from a positive
    value at 0 for strictly causal channels).
    """

    def gap(x: float) -> float:
        value = pair.delta_down(-x)
        if not math.isfinite(value):
            return -math.inf
        return value - pair.delta_min - 2.0 * x

    lo = 0.0
    if gap(lo) <= 0:
        return 0.0
    hi = pair.delta_min
    g_hi = gap(hi)
    while g_hi > 0:
        hi *= 1.5
        g_hi = gap(hi)
        if hi > 1e6 * max(pair.delta_min, 1.0):  # pragma: no cover - defensive
            raise RuntimeError("could not bracket max_symmetric_eta")
    return brentq(gap, lo, hi, xtol=1e-15, rtol=1e-14)


def admissible_eta_bound(
    pair: InvolutionPair,
    eta_plus: float,
    *,
    back_off: float = 1e-3,
    eta_minus: Optional[float] = None,
) -> EtaBound:
    """Construct an admissible :class:`EtaBound` for the given ``eta_plus``.

    If ``eta_minus`` is not given, it is set to the paper's dimensioning
    value ``delta_down(-eta_plus) - delta_min - eta_plus`` reduced by the
    relative ``back_off`` so that the strict inequality of (C) holds.
    Raises :class:`~repro.core.domain.DomainError` if the requested bound
    cannot satisfy (C).
    """
    if eta_minus is None:
        supremum = max_eta_minus(pair, eta_plus)
        eta_minus = supremum * (1.0 - back_off)
    bound = EtaBound(eta_plus, eta_minus)
    if not satisfies_constraint_C(pair, bound):
        raise DomainError(
            "eta_minus",
            f"requested bound {bound!r} violates constraint (C) "
            f"(margin {constraint_C_margin(pair, bound):g})",
        )
    return bound
