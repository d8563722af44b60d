"""Adversary strategies for eta-involution channels.

The eta-involution channel (DATE 2018) perturbs every tentative output
transition by an *adversarial* shift ``eta_n`` taken from the interval
``[-eta_minus, +eta_plus]``.  The model itself is non-deterministic: an
execution is valid if *some* admissible sequence of shifts produces it.
For simulation and analysis we therefore need concrete strategies that
resolve the non-determinism.  This module provides the strategies used in
the paper's proofs and experiments:

* :class:`ZeroAdversary` -- always ``eta_n = 0`` (reduces the channel to a
  deterministic involution channel; used by the bounded-time SPF
  impossibility argument).
* :class:`WorstCaseAdversary` -- rising transitions maximally late
  (``+eta_plus``), falling transitions maximally early (``-eta_minus``).
  This is the adversary of Lemma 5 that minimises pulse up-times in the
  storage loop and defines the self-repeating worst-case pulse train.
* :class:`RandomAdversary` -- i.i.d. random shifts (uniform or truncated
  Gaussian), modelling bounded random jitter/noise.
* :class:`SineAdversary` -- deterministic, slowly varying shifts, modelling
  e.g. supply-voltage ripple (flicker-like perturbations).
* :class:`SequenceAdversary` -- replay an explicit shift sequence (the
  "admissible parameter" H of the formal model).
* :class:`DeCancelAdversary` -- tries to keep pulses alive that the
  deterministic channel would cancel (Fig. 4, trace out2).
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, List, Optional

import numpy as np

from .domain import DomainError

__all__ = [
    "EtaBound",
    "Adversary",
    "ZeroAdversary",
    "WorstCaseAdversary",
    "BestCaseAdversary",
    "RandomAdversary",
    "SineAdversary",
    "SequenceAdversary",
    "DeCancelAdversary",
]

#: Raw draws a :class:`RandomAdversary` takes from its generator at a time.
BLOCK = 64


class EtaBound:
    """The admissible shift interval ``[-eta_minus, +eta_plus]``.

    Both bounds are finite and non-negative; ``eta_plus`` limits how much
    later an output transition may occur than the deterministic involution
    delay predicts, ``eta_minus`` how much earlier.
    """

    __slots__ = ("eta_plus", "eta_minus")

    def __init__(self, eta_plus: float, eta_minus: float) -> None:
        for name, value in (("eta_plus", eta_plus), ("eta_minus", eta_minus)):
            # Written so NaN fails too: every comparison with NaN is False.
            if not 0 <= value < math.inf:
                raise DomainError(
                    name, f"eta bound {name}={value} must be finite and non-negative"
                )
        self.eta_plus = float(eta_plus)
        self.eta_minus = float(eta_minus)

    @classmethod
    def zero(cls) -> "EtaBound":
        """The degenerate bound with no allowed perturbation."""
        return cls(0.0, 0.0)

    @classmethod
    def symmetric(cls, eta: float) -> "EtaBound":
        """Symmetric bound ``[-eta, +eta]``."""
        return cls(eta, eta)

    @property
    def width(self) -> float:
        """Total width ``eta_plus + eta_minus`` of the interval."""
        return self.eta_plus + self.eta_minus

    def contains(self, eta: float, tolerance: float = 1e-12) -> bool:
        """True if ``eta`` lies within the admissible interval."""
        return -self.eta_minus - tolerance <= eta <= self.eta_plus + tolerance

    def clip(self, eta: float) -> float:
        """Clamp a proposed shift into the admissible interval."""
        return min(max(eta, -self.eta_minus), self.eta_plus)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EtaBound):
            return NotImplemented
        return self.eta_plus == other.eta_plus and self.eta_minus == other.eta_minus

    def __repr__(self) -> str:
        return f"EtaBound(+{self.eta_plus:g}, -{self.eta_minus:g})"


class Adversary:
    """Base class of adversary strategies.

    A strategy is queried once per input transition and must return a shift
    within the channel's :class:`EtaBound`.  The query receives the
    transition index, its time, polarity and the previous-output-to-input
    delay ``T``; strategies may ignore any of these.
    """

    def reset(self) -> None:
        """Reset internal state before a new channel evaluation."""

    def choose(self, index: int, time: float, rising: bool, T: float, bound: EtaBound) -> float:
        """Return the shift ``eta_n`` for the ``index``-th input transition."""
        raise NotImplementedError  # pragma: no cover - interface

    def sequence(self, n: int, bound: EtaBound, rising_first: bool = True) -> List[float]:
        """Convenience: materialise the first ``n`` choices for alternating
        transitions starting with a rising one (times/T are passed as 0)."""
        self.reset()
        rising = rising_first
        out = []
        for i in range(n):
            out.append(self.choose(i, 0.0, rising, 0.0, bound))
            rising = not rising
        return out


class ZeroAdversary(Adversary):
    """Always chooses ``eta_n = 0`` (deterministic involution behaviour)."""

    def choose(self, index: int, time: float, rising: bool, T: float, bound: EtaBound) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "ZeroAdversary()"


class WorstCaseAdversary(Adversary):
    """Rising transitions maximally late, falling maximally early.

    This is the worst case of Lemma 5: it minimises the up-times of the
    pulse train circulating in the SPF storage loop (and simultaneously
    maximises its period), defining the bounds ``Delta`` and ``P``.
    """

    def choose(self, index: int, time: float, rising: bool, T: float, bound: EtaBound) -> float:
        return bound.eta_plus if rising else -bound.eta_minus

    def __repr__(self) -> str:
        return "WorstCaseAdversary()"


class BestCaseAdversary(Adversary):
    """Rising transitions maximally early, falling maximally late.

    The mirror image of :class:`WorstCaseAdversary`: it maximises pulse
    up-times, i.e. helps pulses survive.  Useful as the other extreme when
    bracketing the reachable set of behaviours.
    """

    def choose(self, index: int, time: float, rising: bool, T: float, bound: EtaBound) -> float:
        return -bound.eta_minus if rising else bound.eta_plus

    def __repr__(self) -> str:
        return "BestCaseAdversary()"


class RandomAdversary(Adversary):
    """I.i.d. random shifts within the admissible interval.

    Parameters
    ----------
    seed:
        Seed for the underlying NumPy generator (None for entropy-seeded).
    distribution:
        ``"uniform"`` draws uniformly on ``[-eta_minus, +eta_plus]``;
        ``"gaussian"`` draws a zero-mean Gaussian with standard deviation
        ``sigma_fraction * (eta_plus + eta_minus) / 2`` truncated (clipped)
        to the admissible interval.
    sigma_fraction:
        The Gaussian's width relative to the half-width of the interval;
        finite and non-negative.

    The generator's raw stream is drawn :data:`BLOCK` (64) values at a
    time -- ``rng.random`` for uniform, ``rng.standard_normal`` for
    gaussian -- and :meth:`choose` maps one raw draw per shift with the
    bound it is given, by the formula NumPy applies per scalar call.  So
    every shift is, bit for bit, the float one scalar
    ``rng.uniform(-eta_minus, eta_plus)`` (or ``rng.normal(0.0, sigma)``
    followed by :meth:`EtaBound.clip`) would return, and a zero-width
    gaussian returns 0.0 without consuming a draw.  The unused tail of a
    block stays with the adversary, pickles with it, and is consumed by
    the next :meth:`choose`; so after a run :attr:`rng` stands up to
    ``BLOCK - 1`` draws past the last shift returned.  :meth:`reset`
    restarts the stream from the seed.
    """

    #: The accepted ``distribution`` names.
    DISTRIBUTIONS = ("uniform", "gaussian")

    def __init__(
        self,
        seed: Optional[int] = None,
        distribution: str = "uniform",
        sigma_fraction: float = 0.5,
    ) -> None:
        if distribution not in self.DISTRIBUTIONS:
            expected = " or ".join(map(repr, self.DISTRIBUTIONS))
            raise DomainError(
                "distribution", f"unknown distribution {distribution!r} (expected {expected})"
            )
        sigma_fraction = float(sigma_fraction)
        # Written so NaN fails too: every comparison with NaN is False.
        if not 0 <= sigma_fraction < math.inf:
            raise DomainError(
                "sigma_fraction",
                f"sigma_fraction={sigma_fraction} must be finite and non-negative",
            )
        self._seed = seed
        self.distribution = distribution
        self.sigma_fraction = sigma_fraction
        # The generator is created lazily on the first draw: every channel
        # is reset at the start of every simulation run, but in large
        # circuits most channels never see a transition, and generator
        # construction (~10 us each) would dominate the engine's per-run
        # setup cost.
        self._rng: Optional[np.random.Generator] = None
        self._block = array("d")
        self._next = BLOCK  # index of the next unused draw; BLOCK = spent

    def reset(self) -> None:
        self._rng = None
        self._next = BLOCK

    @property
    def rng(self) -> np.random.Generator:
        """The underlying generator (re-seeded lazily after every reset).

        It runs ahead of the shifts returned by up to ``BLOCK - 1`` draws,
        the unused tail of the current block.
        """
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return self._rng

    def _draw(self) -> float:
        """The next raw draw of the stream, refilling the block when spent."""
        i = self._next
        if i == BLOCK:
            if self.distribution == "uniform":
                raw = self.rng.random(size=BLOCK)
            else:
                raw = self.rng.standard_normal(size=BLOCK)
            self._block = array("d", raw.tobytes())
            i = 0
        self._next = i + 1
        return self._block[i]

    def choose(self, index: int, time: float, rising: bool, T: float, bound: EtaBound) -> float:
        # NumPy's scalar uniform(low, high) is low + (high - low) * random(),
        # and normal(loc, scale) is loc + scale * standard_normal().
        if self.distribution == "uniform":
            low = -bound.eta_minus
            return low + (bound.eta_plus - low) * self._draw()
        sigma = self.sigma_fraction * bound.width / 2.0
        if sigma == 0.0:
            return 0.0
        return bound.clip(0.0 + sigma * self._draw())

    def __repr__(self) -> str:
        return f"RandomAdversary(seed={self._seed!r}, distribution={self.distribution!r})"


class SineAdversary(Adversary):
    """Deterministic slowly-varying shifts ``A * sin(2*pi*time/period + phase)``.

    Models low-frequency disturbances such as supply ripple: the shift is a
    function of the (absolute) transition time, clipped to the admissible
    interval.  ``amplitude_fraction`` scales the amplitude relative to the
    one-sided eta bounds so the choice is always admissible.
    """

    def __init__(self, period: float, phase: float = 0.0, amplitude_fraction: float = 1.0) -> None:
        period, phase = float(period), float(phase)
        amplitude_fraction = float(amplitude_fraction)
        if not 0 < period < math.inf:
            raise DomainError("period", f"period={period} must be finite and positive")
        if not math.isfinite(phase):
            raise DomainError("phase", f"phase={phase} must be finite")
        if not 0.0 <= amplitude_fraction <= 1.0:
            raise DomainError(
                "amplitude_fraction", f"amplitude_fraction={amplitude_fraction} must be in [0, 1]"
            )
        self.period = period
        self.phase = phase
        self.amplitude_fraction = amplitude_fraction

    def choose(self, index: int, time: float, rising: bool, T: float, bound: EtaBound) -> float:
        s = math.sin(2.0 * math.pi * time / self.period + self.phase)
        amplitude = bound.eta_plus if s >= 0 else bound.eta_minus
        return bound.clip(self.amplitude_fraction * amplitude * s)

    def __repr__(self) -> str:
        return (
            f"SineAdversary(period={self.period:g}, phase={self.phase:g}, "
            f"amplitude_fraction={self.amplitude_fraction:g})"
        )


class SequenceAdversary(Adversary):
    """Replay an explicit sequence of shifts (the parameter ``H`` of the model).

    Shifts beyond the end of the sequence default to ``fill`` (0 by
    default).  Each shift is validated against the channel's bound; an
    inadmissible value raises ``ValueError`` rather than being silently
    clipped, because the formal model only quantifies over admissible H.
    """

    def __init__(self, shifts: Iterable[float], fill: float = 0.0, clip: bool = False) -> None:
        self.shifts = [float(s) for s in shifts]
        self.fill = float(fill)
        self.clip_values = bool(clip)
        if not all(map(math.isfinite, self.shifts)):
            raise DomainError("shifts", "every shift must be finite")
        if not math.isfinite(self.fill):
            raise DomainError("fill", f"fill={self.fill} must be finite")

    def choose(self, index: int, time: float, rising: bool, T: float, bound: EtaBound) -> float:
        eta = self.shifts[index] if index < len(self.shifts) else self.fill
        if self.clip_values:
            return bound.clip(eta)
        if not bound.contains(eta):
            raise ValueError(
                f"shift {eta} at index {index} is outside the admissible interval "
                f"[-{bound.eta_minus}, {bound.eta_plus}]"
            )
        return eta

    def __repr__(self) -> str:
        return f"SequenceAdversary({self.shifts!r}, fill={self.fill:g})"


class DeCancelAdversary(Adversary):
    """Try to keep pulses alive that the deterministic channel would cancel.

    Rising transitions are shifted maximally early and falling transitions
    maximally late, so the tentative output pulse is as long as possible
    and FIFO order is preserved whenever admissible shifts can achieve it.
    This realises the "de-cancelled" second pulse of Fig. 4 (out2).
    """

    def choose(self, index: int, time: float, rising: bool, T: float, bound: EtaBound) -> float:
        return -bound.eta_minus if rising else bound.eta_plus

    def __repr__(self) -> str:
        return "DeCancelAdversary()"
