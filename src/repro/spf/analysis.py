"""Analytical results of Section IV: worst-case pulse trains and Theorem 9.

Given an involution pair ``(delta_up, delta_down)`` and a noise bound
``eta = [-eta_minus, +eta_plus]`` satisfying constraint (C), the paper
derives closed-form quantities describing the behaviour of the fed-back OR
storage loop (Fig. 5) under the worst-case adversary (rising transitions
maximally late, falling maximally early):

* the fixed-point period ``tau`` -- smallest positive root of
  ``delta_down(eta_plus - tau) + delta_up(-eta_minus - tau) = tau``
  (Eq. 6), guaranteed to lie in
  ``(eta_plus + delta_min, min(delta_down_inf - eta_minus,
  delta_up_inf + eta_plus))``,
* the worst-case self-repeating pulse up-time ``Delta = delta_down(eta_plus
  - tau) < delta_min`` (Eq. 5 and Eq. 9),
* the period ``P = tau`` and duty cycle ``gamma = Delta / P < 1`` (Lemma 6),
* the worst-case pulse-train map ``f`` (Eq. 2) and the first-pulse map
  ``g`` (Lemma 8) with its threshold ``Delta_0_tilde``,
* the geometric growth factor ``a = 1 + delta_up'(0)`` governing the
  stabilisation time ``O(log_a(1 / (Delta_0 - Delta_0_tilde)))`` (Lemma 7),
* the regime classification of Theorem 9.

All of it is packaged in :class:`SPFAnalysis`.  With ``eta = (0, 0)`` the
quantities reduce to those of the deterministic involution model
(DATE 2015), which the tests check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.adversary import EtaBound
from ..core.constraint import constraint_C_margin, satisfies_constraint_C
from ..core.domain import DomainError
from ..core.involution import InvolutionPair
from ..core.rootfind import brentq

__all__ = ["SPFRegime", "WorstCaseTrain", "SPFAnalysis"]


def _geometric_then_linear_grid(lo: float, hi: float, points: int):
    """Yield candidates in (lo, hi]: dense near ``lo`` first, then uniform.

    The smallest fixed point usually lies close above ``lo``; probing a
    geometric refinement near ``lo`` before the uniform sweep keeps the
    returned bracket tight around it.
    """
    span = hi - lo
    for exponent in range(20, 0, -1):
        yield lo + span * 0.5**exponent
    for index in range(1, points + 1):
        yield lo + span * index / points


class SPFRegime:
    """Names of the three regimes of Theorem 9."""

    CANCELLED = "cancelled"  # Delta_0 <= delta_up_inf - delta_min - eta+ - eta-
    MARGINAL = "marginal"  # in between: may die, oscillate or latch
    LATCHED = "latched"  # Delta_0 >= delta_up_inf + eta+

    ALL = (CANCELLED, MARGINAL, LATCHED)


@dataclass
class WorstCaseTrain:
    """Result of iterating the worst-case pulse-train map.

    Attributes
    ----------
    up_times:
        Up-times ``Delta_0, Delta_1, ...`` of the OR-output pulses under the
        worst-case adversary (``Delta_0`` is the input pulse length).
    outcome:
        ``"died"`` (loop resolves to 0), ``"locked"`` (resolves to 1) or
        ``"ongoing"`` (still oscillating after ``max_pulses`` iterations).
    pulses:
        Number of complete pulses produced after the input pulse.
    """

    up_times: List[float]
    outcome: str

    @property
    def pulses(self) -> int:
        return max(0, len(self.up_times) - 1)


class SPFAnalysis:
    """Closed-form analysis of the SPF storage loop for a channel and noise bound.

    Parameters
    ----------
    pair:
        Involution delay pair of the feedback channel.
    eta:
        Noise bound; must satisfy constraint (C) for the fixed-point
        quantities to exist (checked on construction unless
        ``require_constraint=False``; a ``DomainError`` naming ``eta``
        otherwise).
    """

    def __init__(
        self,
        pair: InvolutionPair,
        eta: EtaBound = EtaBound.zero(),
        *,
        require_constraint: bool = True,
    ) -> None:
        self.pair = pair
        self.eta = eta
        if require_constraint and not satisfies_constraint_C(pair, eta):
            raise DomainError(
                "eta",
                "noise bound violates constraint (C): margin "
                f"{constraint_C_margin(pair, eta):g}",
            )
        self._tau: Optional[float] = None
        self._delta_tilde_0: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Shorthands
    # ------------------------------------------------------------------ #

    @property
    def delta_min(self) -> float:
        """``delta_min`` of the feedback channel."""
        return self.pair.delta_min

    @property
    def delta_up_inf(self) -> float:
        """``delta_up_inf`` of the feedback channel."""
        return self.pair.delta_up_inf

    @property
    def delta_down_inf(self) -> float:
        """``delta_down_inf`` of the feedback channel."""
        return self.pair.delta_down_inf

    @property
    def eta_plus(self) -> float:
        """Upper noise bound ``eta_plus``."""
        return self.eta.eta_plus

    @property
    def eta_minus(self) -> float:
        """Lower noise bound ``eta_minus``."""
        return self.eta.eta_minus

    # ------------------------------------------------------------------ #
    # Fixed point (Lemma 5)
    # ------------------------------------------------------------------ #

    def h(self, tau: float) -> float:
        """The fixed-point function ``h(tau)`` of Eq. 7."""
        a = self.pair.delta_down(self.eta_plus - tau)
        b = self.pair.delta_up(-self.eta_minus - tau)
        if not (math.isfinite(a) and math.isfinite(b)):
            return -math.inf
        return a + b - tau

    def tau_bracket(self) -> Tuple[float, float]:
        """The bracket ``(tau_0, tau_1)`` of Eq. 8 containing the fixed point."""
        tau_0 = self.eta_plus + self.delta_min
        tau_1 = min(self.delta_down_inf - self.eta_minus, self.delta_up_inf + self.eta_plus)
        return tau_0, tau_1

    @property
    def tau(self) -> float:
        """Smallest positive fixed point of Eq. 6 (the worst-case period ``P``)."""
        if self._tau is None:
            self._tau = self._solve_tau()
        return self._tau

    def _solve_tau(self) -> float:
        tau_0, tau_1 = self.tau_bracket()
        if not tau_0 < tau_1:
            raise ValueError(
                f"empty fixed-point bracket ({tau_0:g}, {tau_1:g}); "
                "constraint (C) violated?"
            )
        h_lo = self.h(tau_0)
        if h_lo <= 0:
            raise ValueError(
                f"h(tau_0) = {h_lo:g} <= 0 at the lower bracket end; "
                "constraint (C) violated?"
            )
        # h(tau) -> -inf towards the upper end of the bracket (possibly well
        # before tau_1 for measured/extrapolated delay pairs whose domain is
        # narrower than an exact involution pair's).  Scan the bracket for a
        # point where h is finite and negative, preferring the smallest such
        # tau so brentq finds the *smallest* positive fixed point.
        hi = None
        for candidate in _geometric_then_linear_grid(tau_0, tau_1, 512):
            value = self.h(candidate)
            if math.isfinite(value) and value < 0:
                hi = candidate
                break
        if hi is None:
            raise ValueError("could not bracket the fixed point tau")
        return brentq(self.h, tau_0, hi, xtol=1e-14, rtol=1e-13)

    @property
    def period(self) -> float:
        """Worst-case self-repeating period ``P = tau`` (Lemma 5)."""
        return self.tau

    @property
    def delta_bound(self) -> float:
        """Worst-case up-time bound ``Delta = delta_down(eta_plus - tau) < delta_min``."""
        return self.pair.delta_down(self.eta_plus - self.tau)

    @property
    def duty_cycle_bound(self) -> float:
        """Duty-cycle bound ``gamma = Delta / P < 1`` (Lemma 6)."""
        return self.delta_bound / self.period

    @property
    def growth_factor(self) -> float:
        """Geometric growth factor ``a = 1 + delta_up'(0) > 1`` (Lemma 7)."""
        return 1.0 + self.pair.derivative_up(0.0)

    # ------------------------------------------------------------------ #
    # Worst-case pulse-train maps (Eq. 2 and Lemma 8)
    # ------------------------------------------------------------------ #

    def worst_case_map(self, delta_prev: float) -> float:
        """The map ``f`` of Eq. 2: up-time of the next OR pulse.

        Returns ``-inf`` when the pulse dies (the corresponding tentative
        transitions cancel or leave the delay-function domain).
        """
        rise_delay = self.pair.delta_up(-delta_prev)
        if not math.isfinite(rise_delay):
            return -math.inf
        T_fall = delta_prev - self.eta_plus - rise_delay
        fall_delay = self.pair.delta_down(T_fall)
        if not math.isfinite(fall_delay):
            return -math.inf
        return fall_delay + delta_prev - self.eta_minus - self.eta_plus - rise_delay

    def worst_case_down_time(self, delta_n: float) -> float:
        """Down-time following a pulse of up-time ``delta_n``: ``P_n - Delta_n``.

        ``P_n = delta_up(-Delta_n) + eta_plus`` is the worst-case period of
        pulse ``n`` (see the proof of Lemma 5).
        """
        rise_delay = self.pair.delta_up(-delta_n)
        if not math.isfinite(rise_delay):
            return -math.inf
        return rise_delay + self.eta_plus - delta_n

    def first_pulse_map(self, delta_0: float) -> float:
        """The map ``g`` of Lemma 8: up-time ``Delta_1`` of the first loop pulse."""
        T_fall = delta_0 - self.eta_plus - self.delta_up_inf
        fall_delay = self.pair.delta_down(T_fall)
        if not math.isfinite(fall_delay):
            return -math.inf
        return fall_delay + delta_0 - self.eta_minus - self.eta_plus - self.delta_up_inf

    @property
    def delta_tilde_0(self) -> float:
        """The input-pulse threshold ``Delta_0_tilde`` of Lemma 8.

        Input pulses longer than ``Delta_0_tilde`` are guaranteed (even
        under the worst-case adversary) to produce ``Delta_1 >= Delta`` and
        hence to latch the storage loop to 1.
        """
        if self._delta_tilde_0 is None:
            self._delta_tilde_0 = self._solve_delta_tilde_0()
        return self._delta_tilde_0

    def _solve_delta_tilde_0(self) -> float:
        target = self.delta_bound

        def gap(delta_0: float) -> float:
            value = self.first_pulse_map(delta_0)
            if not math.isfinite(value):
                return -math.inf if value < 0 else math.inf
            return value - target

        lo = self.eta_plus + self.delta_up_inf - self.delta_min
        hi = self.eta_plus + self.eta_minus + self.delta_up_inf
        # g(lo) <= 0 <= Delta and g(hi) = delta_down(eta_minus) > Delta per
        # Lemma 8; nudge the ends inwards until both are finite.
        span = hi - lo
        lo_eff = lo + 1e-12 * max(1.0, abs(lo))
        while not math.isfinite(gap(lo_eff)):
            lo_eff += 1e-6 * span
            if lo_eff >= hi:
                raise ValueError("could not bracket Delta_0_tilde (lower end)")
        hi_eff = hi - 1e-12 * max(1.0, abs(hi))
        while not math.isfinite(gap(hi_eff)):
            hi_eff -= 1e-6 * span
            if hi_eff <= lo_eff:
                raise ValueError("could not bracket Delta_0_tilde (upper end)")
        g_lo, g_hi = gap(lo_eff), gap(hi_eff)
        if g_lo > 0:
            # The whole marginal band already latches; the threshold
            # degenerates to the lower regime boundary.
            return lo
        if g_hi < 0:
            raise ValueError(
                "first_pulse_map never reaches Delta on the marginal band; "
                "the delay pair violates the assumptions of Lemma 8"
            )
        return brentq(gap, lo_eff, hi_eff, xtol=1e-14, rtol=1e-13)

    # ------------------------------------------------------------------ #
    # Theorem 9
    # ------------------------------------------------------------------ #

    @property
    def cancel_threshold(self) -> float:
        """Upper bound of the cancelled regime: ``delta_up_inf - delta_min - eta+ - eta-``."""
        return self.delta_up_inf - self.delta_min - self.eta_plus - self.eta_minus

    @property
    def latch_threshold(self) -> float:
        """Lower bound of the latched regime: ``delta_up_inf + eta_plus``."""
        return self.delta_up_inf + self.eta_plus

    def classify(self, delta_0: float) -> str:
        """Theorem 9 regime of an input pulse of length ``delta_0``."""
        if delta_0 <= 0:
            raise ValueError("pulse lengths must be positive")
        if delta_0 >= self.latch_threshold:
            return SPFRegime.LATCHED
        if delta_0 <= self.cancel_threshold:
            return SPFRegime.CANCELLED
        return SPFRegime.MARGINAL

    def resolves_to_one(self, delta_0: float) -> bool:
        """True if the loop is *guaranteed* to latch to 1 for this input pulse.

        This is the case for the latched regime and for marginal pulses
        longer than ``Delta_0_tilde`` (Lemma 8 + Lemma 7); shorter marginal
        pulses may die, oscillate or latch depending on the adversary.
        """
        regime = self.classify(delta_0)
        if regime == SPFRegime.LATCHED:
            return True
        if regime == SPFRegime.CANCELLED:
            return False
        return delta_0 > self.delta_tilde_0

    def stabilization_pulses(self, delta_0: float) -> float:
        """Upper bound on the number of loop pulses before latching (Lemma 7/8).

        For ``delta_0 > Delta_0_tilde`` the pulse up-times grow at least
        geometrically with factor ``a = 1 + delta_up'(0)``; the loop locks
        once the up-time exceeds the latched-regime threshold, after at most
        ``log_a((latch_threshold - Delta) / (delta_0 - Delta_0_tilde))``
        pulses (plus one).  Returns ``inf`` for pulses not guaranteed to
        latch and ``0`` for the latched regime.
        """
        regime = self.classify(delta_0)
        if regime == SPFRegime.LATCHED:
            return 0.0
        if regime == SPFRegime.CANCELLED or delta_0 <= self.delta_tilde_0:
            return math.inf
        gap = delta_0 - self.delta_tilde_0
        span = max(self.latch_threshold - self.delta_bound, gap)
        return 1.0 + math.log(span / gap) / math.log(self.growth_factor)

    def stabilization_time_bound(self, delta_0: float) -> float:
        """Coarse upper bound on the time until the OR output stabilises to 1.

        Each pulse of the train takes at most
        ``delta_up_inf + eta_plus + delta_down_inf`` of wall-clock time, so
        the bound is ``stabilization_pulses * (delta_up_inf + eta_plus +
        delta_down_inf)``.
        """
        pulses = self.stabilization_pulses(delta_0)
        if not math.isfinite(pulses):
            return math.inf
        per_pulse = self.delta_up_inf + self.eta_plus + self.delta_down_inf
        return pulses * per_pulse + self.latch_threshold

    # ------------------------------------------------------------------ #
    # Worst-case train iteration
    # ------------------------------------------------------------------ #

    def worst_case_train(self, delta_0: float, max_pulses: int = 10_000) -> WorstCaseTrain:
        """Iterate the worst-case pulse-train maps starting from ``delta_0``.

        The first loop pulse uses the first-pulse map ``g`` (the previous
        output transition is at ``-inf``); subsequent pulses use ``f``.
        Iteration stops when the pulse dies (up-time ``<= 0``), when the
        loop locks (down-time ``<= 0`` or the up-time leaves the domain of
        ``delta_up``), or after ``max_pulses``.
        """
        if delta_0 <= 0:
            raise ValueError("pulse lengths must be positive")
        ups = [delta_0]
        if delta_0 >= self.latch_threshold:
            return WorstCaseTrain(ups, "locked")
        current = self.first_pulse_map(delta_0)
        for _ in range(max_pulses):
            if not math.isfinite(current) or current <= 0:
                return WorstCaseTrain(ups, "died")
            ups.append(current)
            if current >= self.delta_down_inf:
                return WorstCaseTrain(ups, "locked")
            down = self.worst_case_down_time(current)
            if not math.isfinite(down) or down <= 0:
                return WorstCaseTrain(ups, "locked")
            current = self.worst_case_map(current)
        return WorstCaseTrain(ups, "ongoing")

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def summary(self) -> dict:
        """All key quantities in a dictionary (the rows and summaries of the
        theorem9, lemma5, fig8 and fig9 experiments)."""
        return {
            "delta_min": self.delta_min,
            "delta_up_inf": self.delta_up_inf,
            "delta_down_inf": self.delta_down_inf,
            "eta_plus": self.eta_plus,
            "eta_minus": self.eta_minus,
            "constraint_C_margin": constraint_C_margin(self.pair, self.eta),
            "tau": self.tau,
            "Delta": self.delta_bound,
            "period": self.period,
            "gamma": self.duty_cycle_bound,
            "Delta_0_tilde": self.delta_tilde_0,
            "cancel_threshold": self.cancel_threshold,
            "latch_threshold": self.latch_threshold,
            "growth_factor": self.growth_factor,
        }

    def __repr__(self) -> str:
        return (
            f"SPFAnalysis(delta_min={self.delta_min:.4g}, eta={self.eta!r}, "
            f"tau={self.tau:.4g}, Delta={self.delta_bound:.4g}, "
            f"gamma={self.duty_cycle_bound:.4g})"
        )
