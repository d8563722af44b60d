"""The eta-involution channel: involution delays with adversarial noise.

This is the paper's central contribution (Section III).  The channel
computes the deterministic involution delay ``delta(T)`` and then adds a
per-transition shift ``eta_n`` chosen (adversarially, randomly, or
deterministically) from the interval ``[-eta_minus, +eta_plus]``::

    delta_n = delta_up(max(T_n, -delta_up_inf)) + eta_n   (rising output)
    delta_n = delta_down(max(T_n, -delta_down_inf)) + eta_n (falling output)

The ``max``-terms guard against arguments outside the delay function's
domain (a short glitch after a long stable phase); the resulting ``-inf``
delay makes the transition cancel with its predecessor, which the paper
notes is the only sensible interpretation.

Faithfulness of the model requires the noise bound to satisfy constraint
(C) of the paper, ``eta_plus + eta_minus < delta_down(-eta_plus) -
delta_min`` -- this is *not* enforced at construction time (the channel is
perfectly well defined without it) but can be checked via
:meth:`EtaInvolutionChannel.satisfies_constraint_C` or the helpers in
:mod:`repro.core.constraint`.
"""

from __future__ import annotations

import math
from array import array
from typing import List, Optional, Sequence

from .adversary import Adversary, EtaBound, SequenceAdversary, ZeroAdversary
from .channel import Channel, PendingTransition
from .involution import InvolutionPair
from .transitions import Signal

__all__ = ["EtaInvolutionChannel"]


class EtaInvolutionChannel(Channel):
    """Involution channel with bounded per-transition adversarial shifts.

    Parameters
    ----------
    pair:
        The underlying involution delay pair.
    eta:
        The admissible shift interval (an :class:`EtaBound`).
    adversary:
        Strategy resolving the non-determinism.  Defaults to
        :class:`ZeroAdversary`, i.e. deterministic involution behaviour.
    inverting:
        Logical inversion of the channel (see :class:`Channel`).
    """

    def __init__(
        self,
        pair: InvolutionPair,
        eta: EtaBound,
        adversary: Optional[Adversary] = None,
        *,
        inverting: bool = False,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(inverting=inverting, name=name)
        self.pair = pair
        self.eta = eta
        self.adversary = adversary if adversary is not None else ZeroAdversary()
        # One float64 per shift: a sweep keeps every channel's record.
        self._last_etas: array[float] = array("d")
        # Hot-path constants (delay_for runs once per transition): polarity
        # function references, limits, domain edges and the admissible
        # interval, hoisted out of the per-call method lookups.
        self._delta_up = pair.delta_up
        self._delta_down = pair.delta_down
        self._up_inf = pair.delta_up.delta_inf()
        self._down_inf = pair.delta_down.delta_inf()
        self._up_low = pair.delta_up.domain_low()
        self._down_low = pair.delta_down.domain_low()
        self._eta_lo = -eta.eta_minus - 1e-12
        self._eta_hi = eta.eta_plus + 1e-12

    # ------------------------------------------------------------------ #
    # Constructors / accessors
    # ------------------------------------------------------------------ #

    @classmethod
    def exp_channel(
        cls,
        tau: float,
        t_p: float,
        eta: EtaBound,
        v_th: float = 0.5,
        adversary: Optional[Adversary] = None,
        *,
        inverting: bool = False,
        name: Optional[str] = None,
    ) -> "EtaInvolutionChannel":
        """Construct an eta-perturbed exp-channel."""
        return cls(
            InvolutionPair.exp_channel(tau, t_p, v_th),
            eta,
            adversary,
            inverting=inverting,
            name=name,
        )

    @property
    def delta_min(self) -> float:
        """``delta_min`` of the underlying involution pair."""
        return self.pair.delta_min

    @property
    def delta_up_inf(self) -> float:
        """Limit of the up-delay for large ``T``."""
        return self.pair.delta_up_inf

    @property
    def delta_down_inf(self) -> float:
        """Limit of the down-delay for large ``T``."""
        return self.pair.delta_down_inf

    @property
    def last_eta_choices(self) -> List[float]:
        """The shift sequence used in the most recent evaluation."""
        return self._last_etas.tolist()

    def satisfies_constraint_C(self) -> bool:
        """True if the noise bound satisfies constraint (C) of the paper."""
        from .constraint import satisfies_constraint_C

        return satisfies_constraint_C(self.pair, self.eta)

    def with_adversary(self, adversary: Adversary) -> "EtaInvolutionChannel":
        """Return a copy of this channel using a different adversary."""
        return EtaInvolutionChannel(
            self.pair,
            self.eta,
            adversary,
            inverting=self.inverting,
            name=self.name,
        )

    # ------------------------------------------------------------------ #
    # Channel interface
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        self.adversary.reset()
        self._last_etas = array("d")

    def delay_for(self, T: float, rising_output: bool, index: int, time: float) -> float:
        if rising_output:
            delta, inf_limit, low = self._delta_up, self._up_inf, self._up_low
        else:
            delta, inf_limit, low = self._delta_down, self._down_inf, self._down_low
        eta_n = self.adversary.choose(index, time, rising_output, T, self.eta)
        if not (self._eta_lo <= eta_n <= self._eta_hi):
            raise ValueError(
                f"adversary produced inadmissible shift {eta_n} outside "
                f"[-{self.eta.eta_minus}, {self.eta.eta_plus}]"
            )
        self._last_etas.append(eta_n)
        if T == math.inf:
            return inf_limit + eta_n
        # The max-term guard of the paper: arguments at or below the domain
        # edge of the delay function (written -delta_up_inf in the paper for
        # the symmetric case; the edge is -delta_down_inf for delta_up in
        # general) yield a -inf delay, which makes the transition cancel with
        # its still-pending predecessor.
        if T <= low:
            return -math.inf
        value = delta(T)
        if not math.isfinite(value):
            return -math.inf
        return value + eta_n

    # ------------------------------------------------------------------ #
    # Admissible-parameter (H) interface of the formal model
    # ------------------------------------------------------------------ #

    def apply_with_choices(self, signal: Signal, choices: Sequence[float]) -> Signal:
        """Evaluate the channel under an explicit admissible parameter ``H``.

        ``choices[n]`` is the shift applied to the n-th input transition;
        missing entries default to 0.  Raises ``ValueError`` if any choice
        is inadmissible.
        """
        replay = self.with_adversary(SequenceAdversary(choices))
        return replay.apply(signal)

    def deterministic_output(self, signal: Signal) -> Signal:
        """Output of the underlying deterministic involution channel
        (all shifts zero) -- the dotted transitions in Fig. 4."""
        return self.with_adversary(ZeroAdversary()).apply(signal)

    def pending_with_etas(self, signal: Signal) -> List[PendingTransition]:
        """Tentative transitions annotated with the adversarial shifts used."""
        pending = self.pending_transitions(signal)
        for p, eta_n in zip(pending, self._last_etas):
            p.eta = eta_n
        return pending

    def __repr__(self) -> str:
        return (
            f"EtaInvolutionChannel({self.pair!r}, eta={self.eta!r}, "
            f"adversary={self.adversary!r}, inverting={self.inverting})"
        )
