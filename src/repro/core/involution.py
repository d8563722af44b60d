"""Involution delay-function pairs.

An involution channel (Függer et al., DATE 2015) is characterised by two
strictly increasing concave delay functions

* ``delta_up   : (-delta_down_inf, inf) -> (-inf, delta_up_inf)``
* ``delta_down : (-delta_up_inf,  inf) -> (-inf, delta_down_inf)``

with finite limits ``delta_up_inf`` / ``delta_down_inf`` that satisfy the
*involution property* (Eq. 1 of the DATE'18 paper)::

    -delta_up(-delta_down(T)) = T     and     -delta_down(-delta_up(T)) = T.

This module provides :class:`InvolutionPair`, which bundles the two
functions, validates the property numerically, computes ``delta_min``
(the unique fixed point with ``delta_up(-delta_min) = delta_min =
delta_down(-delta_min)``, Lemma 1) and offers constructors for the common
cases (exp-channels, and completing a pair from only one of the two
functions via the involution property).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .delay_functions import DelayFunction, ExpDelay, FunctionalDelay, TableDelay
from .rootfind import brentq

__all__ = ["InvolutionPair", "InvolutionError", "exp_channel_pair"]


class InvolutionError(ValueError):
    """Raised when a pair of delay functions is not a valid involution pair."""


class InvolutionPair:
    """A pair ``(delta_up, delta_down)`` satisfying the involution property.

    Parameters
    ----------
    delta_up, delta_down:
        The delay functions for rising and falling output transitions.
    validate:
        If True (default), the involution property, strict causality and
        monotonicity are checked numerically on a grid of test points.
    strict_causality_required:
        The faithfulness results require ``delta_up(0) > 0`` and
        ``delta_down(0) > 0``; set to False to allow non-strictly-causal
        pairs (only useful for negative tests).
    """

    def __init__(
        self,
        delta_up: DelayFunction,
        delta_down: DelayFunction,
        *,
        validate: bool = True,
        strict_causality_required: bool = True,
        tolerance: float = 1e-6,
    ) -> None:
        self.delta_up = delta_up
        self.delta_down = delta_down
        self.tolerance = float(tolerance)
        if validate:
            self._validate(strict_causality_required)
        self._delta_min: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def exp_channel(cls, tau: float, t_p: float, v_th: float = 0.5) -> "InvolutionPair":
        """The paper's exp-channel pair with RC constant ``tau``, pure delay
        ``t_p`` and normalised threshold ``v_th``."""
        up = ExpDelay(tau, t_p, v_th, rising=True)
        down = ExpDelay(tau, t_p, v_th, rising=False)
        return cls(up, down)

    @classmethod
    def from_up(cls, delta_up: DelayFunction, *, validate: bool = True) -> "InvolutionPair":
        """Complete a pair from ``delta_up`` alone.

        The involution property forces ``delta_down(T) = -delta_up^{-1}(-T)``;
        this constructor builds that function by numerical inversion.
        """
        delta_down = _involution_partner(delta_up)
        return cls(delta_up, delta_down, validate=validate)

    @classmethod
    def from_down(cls, delta_down: DelayFunction, *, validate: bool = True) -> "InvolutionPair":
        """Complete a pair from ``delta_down`` alone (see :meth:`from_up`)."""
        delta_up = _involution_partner(delta_down)
        return cls(delta_up, delta_down, validate=validate)

    @classmethod
    def from_samples(
        cls,
        T_up: Sequence[float],
        delta_up: Sequence[float],
        T_down: Sequence[float],
        delta_down: Sequence[float],
        *,
        validate: bool = False,
    ) -> "InvolutionPair":
        """Build a pair from measured samples of both delay functions.

        Measured pairs generally satisfy the involution property only
        approximately, hence validation defaults to off; use
        :meth:`involution_residual` to quantify the mismatch.
        """
        up = TableDelay(T_up, delta_up)
        down = TableDelay(T_down, delta_down)
        return cls(up, down, validate=validate)

    # ------------------------------------------------------------------ #
    # Core quantities
    # ------------------------------------------------------------------ #

    @property
    def delta_up_inf(self) -> float:
        """Finite limit of ``delta_up`` for large ``T``."""
        return self.delta_up.delta_inf()

    @property
    def delta_down_inf(self) -> float:
        """Finite limit of ``delta_down`` for large ``T``."""
        return self.delta_down.delta_inf()

    @property
    def delta_min(self) -> float:
        """The unique positive ``delta_min`` with
        ``delta_up(-delta_min) = delta_min = delta_down(-delta_min)`` (Lemma 1).

        For exp-channels this equals the pure-delay component ``t_p``.
        """
        if self._delta_min is None:
            self._delta_min = self._solve_delta_min()
        return self._delta_min

    def _solve_delta_min(self) -> float:
        root_up = self._fixed_point(self.delta_up)
        root_down = self._fixed_point(self.delta_down)
        scale = max(abs(root_up), abs(root_down), 1e-12)
        if abs(root_up - root_down) > 0.25 * scale:
            # For exact involution pairs both delay functions share the fixed
            # point (Lemma 1); a gross mismatch indicates an invalid pair.
            # Measured/interpolated pairs are allowed a modest discrepancy and
            # get the average.
            raise InvolutionError(
                f"delta_min mismatch between delta_up ({root_up:g}) and "
                f"delta_down ({root_down:g}); pair violates the involution property"
            )
        return 0.5 * (root_up + root_down)

    def _fixed_point(self, delay: DelayFunction) -> float:
        """Solve ``delay(-d) = d`` for the unique positive ``d``."""

        def equation(d: float) -> float:
            value = delay(-d)
            if not math.isfinite(value):
                return -math.inf
            return value - d

        lo = 0.0
        if equation(lo) <= 0:
            raise InvolutionError(
                "channel is not strictly causal: delta(0) <= 0, no positive delta_min"
            )
        # The root lies before the pole of delay(-d): cap d below the point
        # where -d leaves the domain (and below the partner's delta_inf).
        cap = -delay.domain_low()
        if not math.isfinite(cap) or cap <= 0:
            cap = max(10.0 * delay.delta_inf(), 1.0)
        hi = cap * (1.0 - 1e-12)
        shrink = 0
        while not math.isfinite(delay(-hi)) or equation(hi) >= 0:
            if equation(hi) >= 0 and math.isfinite(delay(-hi)):
                # Function still positive near the pole: expand the cap (can
                # only happen for delay functions without a finite pole).
                hi = hi * 2.0 + 1.0
            else:
                hi = lo + 0.999 * (hi - lo)
            shrink += 1
            if shrink > 200:
                raise InvolutionError("could not bracket delta_min")
        return brentq(equation, lo, hi, xtol=1e-14, rtol=1e-13)

    def derivative_up(self, T: float) -> float:
        """``delta_up'(T)``."""
        return self.delta_up.derivative(T)

    def derivative_down(self, T: float) -> float:
        """``delta_down'(T)``."""
        return self.delta_down.derivative(T)

    # ------------------------------------------------------------------ #
    # Involution property
    # ------------------------------------------------------------------ #

    def involution_residual(self, T_values: Optional[Iterable[float]] = None) -> float:
        """Maximum absolute residual of the involution property.

        Evaluates ``|-delta_up(-delta_down(T)) - T|`` (and the symmetric
        expression) on a set of test points.  Near the saturation of the
        inner delay function the outer function operates close to its pole,
        where floating-point noise in the inner value is magnified by the
        outer derivative; the raw residual is therefore divided by that
        sensitivity (which equals ``1/delta'(T)`` by Lemma 1), yielding a
        well-conditioned measure equivalent to the error in delay space.
        """
        if T_values is None:
            T_values = self._default_test_points()
        worst = 0.0
        for T in T_values:
            d_down = self.delta_down(T)
            if math.isfinite(d_down) and -d_down > self.delta_up.domain_low():
                error = abs(-self.delta_up(-d_down) - T)
                sensitivity = max(abs(self.delta_up.derivative(-d_down)), 1.0)
                worst = max(worst, error / sensitivity)
            d_up = self.delta_up(T)
            if math.isfinite(d_up) and -d_up > self.delta_down.domain_low():
                error = abs(-self.delta_down(-d_up) - T)
                sensitivity = max(abs(self.delta_down.derivative(-d_up)), 1.0)
                worst = max(worst, error / sensitivity)
        return worst

    def satisfies_involution(self, tolerance: Optional[float] = None) -> bool:
        """True if the involution property holds up to ``tolerance``."""
        tol = self.tolerance if tolerance is None else tolerance
        return self.involution_residual() <= tol

    def _default_test_points(self) -> np.ndarray:
        scale = max(self.delta_up_inf, self.delta_down_inf, 1e-9)
        low = max(self.delta_up.domain_low(), self.delta_down.domain_low())
        start = low + 0.05 * scale if math.isfinite(low) else -2.0 * scale
        return np.linspace(start, 10.0 * scale, 41)

    def _validate(self, strict_causality_required: bool) -> None:
        if not math.isfinite(self.delta_up_inf) or not math.isfinite(self.delta_down_inf):
            raise InvolutionError("involution delay functions must have finite limits")
        if strict_causality_required:
            if self.delta_up(0.0) <= 0.0 or self.delta_down(0.0) <= 0.0:
                raise InvolutionError(
                    "involution channel must be strictly causal: delta(0) > 0"
                )
        # Monotonicity spot check.
        for func in (self.delta_up, self.delta_down):
            pts = self._default_test_points()
            vals = [func(float(t)) for t in pts]
            finite = [(t, v) for t, v in zip(pts, vals) if math.isfinite(v)]
            for (t1, v1), (t2, v2) in zip(finite, finite[1:]):
                if v2 < v1 - 1e-9 * max(1.0, abs(v1)):
                    raise InvolutionError(
                        f"delay function {func!r} is not increasing between "
                        f"T={t1:g} and T={t2:g}"
                    )
        residual = self.involution_residual()
        scale = max(self.delta_up_inf, self.delta_down_inf, 1.0)
        if residual > max(self.tolerance, 1e-6 * scale):
            raise InvolutionError(
                f"involution property violated: max residual {residual:g}"
            )

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def swapped(self) -> "InvolutionPair":
        """Return the pair with up and down roles exchanged.

        This is the delay pair seen by an *inverting* gate's output, where
        a rising input edge produces a falling output edge.
        """
        return InvolutionPair(
            self.delta_down, self.delta_up, validate=False, tolerance=self.tolerance
        )

    def describe(self) -> str:
        """Human-readable summary of the key channel quantities."""
        return (
            f"InvolutionPair(delta_min={self.delta_min:.6g}, "
            f"delta_up_inf={self.delta_up_inf:.6g}, "
            f"delta_down_inf={self.delta_down_inf:.6g})"
        )

    def __repr__(self) -> str:
        return f"InvolutionPair(up={self.delta_up!r}, down={self.delta_down!r})"


def _involution_partner(delta: DelayFunction) -> DelayFunction:
    """Return the unique partner forced by the involution property.

    If ``delta`` is the up-delay, the partner is the down-delay
    ``T -> -delta^{-1}(-T)`` (and symmetrically).  The partner's limit is
    ``-domain_low`` of ``delta`` and its domain lower end is
    ``-delta_inf`` of ``delta``.
    """

    def partner(T: float) -> float:
        return -delta.inverse(-T)

    def partner_derivative(T: float) -> float:
        x = delta.inverse(-T)
        d = delta.derivative(x)
        if d == 0:
            return math.inf
        return 1.0 / d

    partner_inf = -delta.domain_low()
    partner_domain_low = -delta.delta_inf()
    if not math.isfinite(partner_inf):
        raise InvolutionError(
            "cannot build involution partner: delay function has an unbounded domain "
            "towards -inf (its partner would have an infinite delta_inf)"
        )
    return FunctionalDelay(
        partner,
        delta_inf=partner_inf,
        domain_low=partner_domain_low,
        derivative=partner_derivative,
        name="InvolutionPartner",
    )


def exp_channel_pair(tau: float, t_p: float, v_th: float = 0.5) -> InvolutionPair:
    """Convenience alias for :meth:`InvolutionPair.exp_channel`."""
    return InvolutionPair.exp_channel(tau, t_p, v_th)
