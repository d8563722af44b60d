"""Delay functions for single-history channels.

A single-history channel is characterised by a delay function
``delta: (T_low, inf) -> (-inf, delta_inf)`` mapping the
previous-output-to-input time ``T`` to the input-to-output delay
``delta(T)`` (paper, Fig. 1).  Involution channels use a *pair* of such
functions (one per transition polarity) that satisfy the involution
property; this module provides the individual delay functions, the
:class:`InvolutionPair` lives in :mod:`repro.core.involution`.

Provided implementations:

* :class:`ExpDelay` -- the closed-form delay of a first-order RC stage
  switching at a threshold voltage (the paper's *exp-channel*),
* :class:`TableDelay` -- monotone interpolation of measured ``(T, delta)``
  samples (used for characterised delay functions, cf. Fig. 7),
* :class:`ShiftedDelay` / :class:`ScaledDelay` -- affine re-parametrisations,
* :class:`ConstantDelay` -- the degenerate pure-delay function (baseline).
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .domain import DomainError

__all__ = [
    "DelayFunction",
    "ExpDelay",
    "TableDelay",
    "ShiftedDelay",
    "ScaledDelay",
    "ConstantDelay",
    "FunctionalDelay",
    "numeric_derivative",
    "numeric_inverse",
]


def numeric_derivative(func: Callable[[float], float], x: float, h: float = 1e-6) -> float:
    """Central finite-difference derivative of ``func`` at ``x``."""
    return (func(x + h) - func(x - h)) / (2.0 * h)


def numeric_inverse(
    func: Callable[[float], float],
    y: float,
    lo: float,
    hi: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Invert a strictly increasing ``func`` on ``[lo, hi]`` by bisection.

    Returns ``x`` with ``func(x) == y`` up to ``tol``.  Used to build the
    down-delay of an involution pair from its up-delay (and vice versa)
    when no closed form is available.
    """
    flo, fhi = func(lo), func(hi)
    if not (flo <= y <= fhi):
        raise ValueError(
            f"target {y} outside function range [{flo}, {fhi}] on [{lo}, {hi}]"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if abs(fmid - y) <= tol or (hi - lo) <= tol:
            return mid
        if fmid < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class DelayFunction:
    """A strictly increasing, concave delay function ``delta(T)``.

    Subclasses must implement :meth:`__call__` and :meth:`delta_inf` (the
    finite limit ``lim_{T -> inf} delta(T)``) and :meth:`domain_low` (the
    open lower end of the domain; ``delta`` tends to ``-inf`` there).
    """

    def __call__(self, T: float) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def delta_inf(self) -> float:
        """The finite limit of ``delta(T)`` as ``T -> inf``."""
        raise NotImplementedError  # pragma: no cover - interface

    def domain_low(self) -> float:
        """Open lower bound of the domain (``delta -> -inf`` there)."""
        raise NotImplementedError  # pragma: no cover - interface

    # ------------------------------------------------------------------ #
    # Generic numeric helpers
    # ------------------------------------------------------------------ #

    def derivative(self, T: float, h: float = 1e-6) -> float:
        """Derivative ``delta'(T)``; numeric unless overridden."""
        low = self.domain_low()
        if math.isfinite(low):
            h = min(h, max((T - low) / 4.0, 1e-12))
        return numeric_derivative(self, T, h)

    def inverse(self, value: float) -> float:
        """Return ``T`` such that ``delta(T) == value``.

        The generic implementation brackets the root starting from the
        domain and expands towards ``+inf``.
        """
        if value >= self.delta_inf():
            raise ValueError(
                f"value {value} is not attained (delta_inf = {self.delta_inf()})"
            )
        low = self.domain_low()
        if math.isfinite(low):
            lo = low + 1e-12 * max(1.0, abs(low))
            while self(lo) > value:
                lo = low + (lo - low) / 2.0
                if lo - low < 1e-300:
                    raise ValueError("could not bracket inverse near domain boundary")
        else:
            lo = -1.0
            while self(lo) > value:
                lo *= 2.0
                if lo < -1e18:
                    raise ValueError("could not bracket inverse towards -inf")
        hi = max(lo + 1.0, 1.0)
        while self(hi) < value:
            hi = hi * 2.0 + 1.0
            if hi > 1e18:
                raise ValueError("could not bracket inverse towards +inf")
        return numeric_inverse(self, value, lo, hi)

    def is_strictly_causal_at_zero(self) -> bool:
        """True if ``delta(0) > 0`` (strict causality at T = 0)."""
        return self(0.0) > 0.0

    def sample(self, times: Sequence[float]) -> np.ndarray:
        """Evaluate the delay function on an array of ``T`` values."""
        return np.array([self(float(t)) for t in times], dtype=float)

    def describe(self) -> str:
        """Short human-readable description (used in reports)."""
        return (
            f"{type(self).__name__}(delta(0)={self(0.0):.6g}, "
            f"delta_inf={self.delta_inf():.6g}, domain_low={self.domain_low():.6g})"
        )


class ExpDelay(DelayFunction):
    """Delay of a first-order RC stage with switching threshold.

    This is the paper's *exp-channel* delay.  With RC constant ``tau``,
    pure-delay component ``t_p`` and normalised threshold ``v_th``
    (``V_th / V_DD``), the rising delay is::

        delta_up(T)   = tau * ln(1 - exp(-(T + t_p - tau*ln(v_th)) / tau))
                        + t_p - tau * ln(1 - v_th)

    and the falling delay is obtained by swapping ``v_th`` and
    ``1 - v_th``.  Pass ``rising=True`` for ``delta_up`` and
    ``rising=False`` for ``delta_down``; equivalently, ``ExpDelay`` with
    threshold ``v_th`` and ``ExpDelay`` with threshold ``1 - v_th`` form an
    involution pair.

    For ``v_th = 1/2`` the pair is symmetric and ``delta_min = t_p``.
    """

    def __init__(self, tau: float, t_p: float, v_th: float = 0.5, rising: bool = True) -> None:
        # Written so NaN fails too: every comparison with NaN is False.
        if not 0 < tau < math.inf:
            raise DomainError("tau", f"tau must be positive and finite, got {tau}")
        if not 0.0 < v_th < 1.0:
            raise DomainError("v_th", f"normalised threshold must be in (0, 1), got {v_th}")
        if not 0 < t_p < math.inf:
            raise DomainError(
                "t_p", f"pure delay component t_p must be positive and finite, got {t_p}"
            )
        self.tau = float(tau)
        self.t_p = float(t_p)
        self.v_th = float(v_th)
        self.rising = bool(rising)
        # The threshold that enters the exponential: v_th for the rising
        # delay, 1 - v_th for the falling delay.
        self._v_eff = self.v_th if rising else 1.0 - self.v_th
        # Per-polarity constants, hoisted out of the per-transition calls:
        # delta(T) = tau * ln(1 - exp(-(T + shift) / tau)) + offset with
        # shift = t_p - tau*ln(v_eff) and offset = t_p - tau*ln(1 - v_eff)
        # (the latter is also delta_inf, the former's negative domain_low).
        self._shift = self.t_p - self.tau * math.log(self._v_eff)
        self._offset = self.t_p - self.tau * math.log(1.0 - self._v_eff)
        self._inv_tau = 1.0 / self.tau

    # -- closed forms --------------------------------------------------- #

    def __call__(self, T: float) -> float:
        argument = 1.0 - math.exp(-(T + self._shift) * self._inv_tau)
        if argument <= 0.0:
            return -math.inf
        return self.tau * math.log(argument) + self._offset

    def delta_inf(self) -> float:
        return self._offset

    def domain_low(self) -> float:
        # delta -> -inf as T -> -(t_p - tau*ln(v_eff)) which equals the
        # negative of the partner delay's delta_inf.
        return -self._shift

    def derivative(self, T: float, h: float = 1e-6) -> float:
        e = math.exp(-(T + self._shift) * self._inv_tau)
        if e >= 1.0:
            return math.inf
        return e / (1.0 - e)

    def inverse(self, value: float) -> float:
        # Solve value = tau*ln(1 - exp(-(T + t_p - tau*ln(v))/tau)) + t_p - tau*ln(1-v)
        v = self._v_eff
        tau = self.tau
        inner = math.exp((value - self.t_p + tau * math.log(1.0 - v)) / tau)
        if inner >= 1.0:
            raise ValueError(f"value {value} >= delta_inf {self.delta_inf()}")
        return -tau * math.log(1.0 - inner) - self.t_p + tau * math.log(v)

    def partner(self) -> "ExpDelay":
        """The delay function of the opposite polarity (same physical stage)."""
        return ExpDelay(self.tau, self.t_p, self.v_th, rising=not self.rising)

    def __repr__(self) -> str:
        kind = "up" if self.rising else "down"
        return f"ExpDelay({kind}, tau={self.tau:g}, t_p={self.t_p:g}, v_th={self.v_th:g})"


class ConstantDelay(DelayFunction):
    """A constant (pure) delay, ``delta(T) = d`` for all ``T``.

    This is *not* an involution delay (it has no pole), but it is used by
    the non-faithful baseline channels in :mod:`repro.core.baselines`.
    """

    def __init__(self, delay: float) -> None:
        if not 0 <= delay < math.inf:
            raise DomainError("delay", f"delay={delay} must be finite and non-negative")
        self.delay = float(delay)

    def __call__(self, T: float) -> float:
        return self.delay

    def delta_inf(self) -> float:
        return self.delay

    def domain_low(self) -> float:
        return -math.inf

    def derivative(self, T: float, h: float = 1e-6) -> float:
        return 0.0

    def __repr__(self) -> str:
        return f"ConstantDelay({self.delay:g})"


class ShiftedDelay(DelayFunction):
    """``delta(T) = base(T - shift_T) + shift_delta``.

    Useful for re-centring a characterised delay function, e.g. to impose a
    particular ``delta_min`` or pure-delay component.
    """

    def __init__(self, base: DelayFunction, shift_T: float = 0.0, shift_delta: float = 0.0) -> None:
        for param, value in (("shift_T", shift_T), ("shift_delta", shift_delta)):
            if not math.isfinite(value):
                raise DomainError(param, f"{param}={value} must be finite")
        self.base = base
        self.shift_T = float(shift_T)
        self.shift_delta = float(shift_delta)

    def __call__(self, T: float) -> float:
        return self.base(T - self.shift_T) + self.shift_delta

    def delta_inf(self) -> float:
        return self.base.delta_inf() + self.shift_delta

    def domain_low(self) -> float:
        return self.base.domain_low() + self.shift_T

    def derivative(self, T: float, h: float = 1e-6) -> float:
        return self.base.derivative(T - self.shift_T, h)

    def __repr__(self) -> str:
        return f"ShiftedDelay({self.base!r}, dT={self.shift_T:g}, dD={self.shift_delta:g})"


class ScaledDelay(DelayFunction):
    """``delta(T) = scale * base(T / scale)`` -- a time-unit rescaling.

    Rescaling preserves the involution property, strict causality, and
    concavity, so it is the canonical way to convert a characterised delay
    function between units (e.g. ps to ns).
    """

    def __init__(self, base: DelayFunction, scale: float) -> None:
        if not 0 < scale < math.inf:
            raise DomainError("scale", f"scale={scale} must be finite and positive")
        self.base = base
        self.scale = float(scale)

    def __call__(self, T: float) -> float:
        return self.scale * self.base(T / self.scale)

    def delta_inf(self) -> float:
        return self.scale * self.base.delta_inf()

    def domain_low(self) -> float:
        return self.scale * self.base.domain_low()

    def derivative(self, T: float, h: float = 1e-6) -> float:
        return self.base.derivative(T / self.scale, h / self.scale)

    def __repr__(self) -> str:
        return f"ScaledDelay({self.base!r}, scale={self.scale:g})"


class FunctionalDelay(DelayFunction):
    """Wrap an arbitrary callable as a delay function.

    The caller is responsible for the callable being strictly increasing
    and concave on ``(domain_low, inf)`` with limit ``delta_inf``.
    """

    def __init__(
        self,
        func: Callable[[float], float],
        delta_inf: float,
        domain_low: float,
        derivative: Optional[Callable[[float], float]] = None,
        name: str = "FunctionalDelay",
    ) -> None:
        self._func = func
        self._delta_inf = float(delta_inf)
        self._domain_low = float(domain_low)
        self._derivative = derivative
        self._name = name

    def __call__(self, T: float) -> float:
        if T <= self._domain_low:
            return -math.inf
        return self._func(T)

    def delta_inf(self) -> float:
        return self._delta_inf

    def domain_low(self) -> float:
        return self._domain_low

    def derivative(self, T: float, h: float = 1e-6) -> float:
        if self._derivative is not None:
            return self._derivative(T)
        return super().derivative(T, h)

    def __repr__(self) -> str:
        return f"{self._name}(delta_inf={self._delta_inf:g})"


class TableDelay(DelayFunction):
    """Delay function interpolated from measured ``(T, delta)`` samples.

    The characterisation procedure of :mod:`repro.fitting.characterize`
    produces discrete samples of the delay function of a real (here:
    analog-simulated) gate; this class turns them into a usable
    :class:`DelayFunction` by monotone linear interpolation with an
    exponential saturating tail towards ``delta_inf`` on the right and a
    logarithmic divergence towards ``-inf`` on the left of the sampled
    range.

    Parameters
    ----------
    T_samples, delta_samples:
        Strictly increasing sample points.  ``delta_samples`` must be
        strictly increasing as well (the physical delay function is).
    delta_inf:
        Saturation value; defaults to a small margin above the largest
        sample.
    """

    def __init__(
        self,
        T_samples: Sequence[float],
        delta_samples: Sequence[float],
        delta_inf: Optional[float] = None,
    ) -> None:
        T = np.asarray(T_samples, dtype=float)
        d = np.asarray(delta_samples, dtype=float)
        if T.ndim != 1 or d.ndim != 1 or len(T) != len(d):
            raise DomainError(
                "delta_samples", "T_samples and delta_samples must be 1-D of equal length"
            )
        if len(T) < 2:
            raise DomainError("T_samples", "need at least two samples")
        for param, samples in (("T_samples", T), ("delta_samples", d)):
            if not np.all(np.isfinite(samples)):
                raise DomainError(param, f"{param} must be finite")
        order = np.argsort(T)
        T, d = T[order], d[order]
        if np.any(np.diff(T) <= 0):
            raise DomainError("T_samples", "T samples must be strictly increasing")
        d = np.maximum.accumulate(d)
        eps = 1e-12 * max(1.0, float(np.max(np.abs(d))))
        for i in range(1, len(d)):
            if d[i] <= d[i - 1]:
                d[i] = d[i - 1] + eps
        self.T_samples = T
        self.delta_samples = d
        if delta_inf is None:
            span = float(d[-1] - d[0])
            delta_inf = float(d[-1]) + max(0.05 * span, eps)
        if not d[-1] < delta_inf < math.inf:
            raise DomainError(
                "delta_inf",
                f"delta_inf={delta_inf} must be finite and exceed the largest delta sample",
            )
        self._delta_inf = float(delta_inf)
        # Right tail: delta(T) = delta_inf - A*exp(-(T - T_last)/tau_tail)
        # matched to value and slope at the last sample.
        self._A = self._delta_inf - float(d[-1])
        slope_right = float((d[-1] - d[-2]) / (T[-1] - T[-2]))
        slope_right = max(slope_right, 1e-15)
        self._tau_tail = self._A / slope_right
        # Left tail: delta(T) = d0 + s0*tau_left*ln(1 + (T - T0)/tau_left)
        # diverges to -inf at T -> T0 - tau_left, matched to slope at T0.
        # The pole is kept at or below -delta(T0) so the extrapolated function
        # remains strictly causal (delta(0) > 0) and has a positive fixed
        # point delta(-d) = d even when the samples do not reach far into the
        # negative-T region.
        slope_left = float((d[1] - d[0]) / (T[1] - T[0]))
        slope_left = max(slope_left, 1e-15)
        self._slope_left = slope_left
        self._tau_left = max(self._A / slope_left, float(T[0]) + float(d[0]), 1e-12)
        self._domain_low = float(T[0]) - self._tau_left
        # Precomputed interpolation tables: per-segment slopes (shared by the
        # scalar bisect path and the vectorized searchsorted path) plus plain
        # Python float lists, which the scalar hot path indexes without any
        # numpy-scalar boxing.
        self._slopes = np.diff(d) / np.diff(T)
        self._T_list = [float(x) for x in T]
        self._d_list = [float(x) for x in d]
        self._slope_list = [float(x) for x in self._slopes]
        self._T0 = float(T[0])
        self._Tn = float(T[-1])
        self._d0 = float(d[0])

    def __call__(self, T: float) -> float:
        if T <= self._domain_low:
            return -math.inf
        if T < self._T0:
            return self._d0 + self._slope_left * self._tau_left * math.log(
                1.0 + (T - self._T0) / self._tau_left
            )
        if T > self._Tn:
            return self._delta_inf - self._A * math.exp(-(T - self._Tn) / self._tau_tail)
        T_list = self._T_list
        i = bisect.bisect_right(T_list, T) - 1
        if i >= len(T_list) - 1:
            return self._d_list[-1]
        return self._d_list[i] + self._slope_list[i] * (T - T_list[i])

    def sample(self, times: Sequence[float]) -> np.ndarray:
        """Vectorized evaluation over an array of ``T`` values.

        One ``np.searchsorted`` against the precomputed slope table replaces
        the per-element Python calls of the generic implementation; the
        extrapolation tails and the ``-inf`` domain guard are applied with
        array masks, matching the scalar path exactly.
        """
        T = np.asarray(times, dtype=float)
        out = np.empty(T.shape, dtype=float)
        below = T <= self._domain_low
        left = ~below & (T < self._T0)
        right = T > self._Tn
        inner = ~(below | left | right)
        out[below] = -math.inf
        # The extrapolation tails go through math.log/math.exp element by
        # element: NumPy's SIMD transcendentals can differ from libm in
        # the last ulp on some hosts, which would break the exact
        # scalar-path match this method advertises.  Tails are a small
        # fraction of any realistic sample grid.
        if np.any(left):
            out[left] = np.fromiter(
                (
                    self._d0
                    + self._slope_left
                    * self._tau_left
                    * math.log(1.0 + (t - self._T0) / self._tau_left)
                    for t in T[left].tolist()
                ),
                dtype=float,
                count=int(np.count_nonzero(left)),
            )
        if np.any(right):
            out[right] = np.fromiter(
                (
                    self._delta_inf
                    - self._A * math.exp(-(t - self._Tn) / self._tau_tail)
                    for t in T[right].tolist()
                ),
                dtype=float,
                count=int(np.count_nonzero(right)),
            )
        if np.any(inner):
            T_inner = T[inner]
            idx = np.searchsorted(self.T_samples, T_inner, side="right") - 1
            # T exactly at the largest sample: the scalar path returns the
            # last sample value directly; interpolating the final segment
            # instead can differ in the last ulp ((d/b)*b != d).
            at_last = idx >= len(self._slopes)
            idx = np.clip(idx, 0, len(self._slopes) - 1)
            values = self.delta_samples[idx] + self._slopes[idx] * (
                T_inner - self.T_samples[idx]
            )
            values[at_last] = self._d_list[-1]
            out[inner] = values
        return out

    def delta_inf(self) -> float:
        return self._delta_inf

    def domain_low(self) -> float:
        return self._domain_low

    def support(self) -> Tuple[float, float]:
        """The sampled ``T`` range (outside it the tails extrapolate)."""
        return float(self.T_samples[0]), float(self.T_samples[-1])

    def __repr__(self) -> str:
        lo, hi = self.support()
        return (
            f"TableDelay({len(self.T_samples)} samples, T in [{lo:g}, {hi:g}], "
            f"delta_inf={self._delta_inf:g})"
        )
