"""Error types of the simulation engine.

Defined here (rather than in :mod:`repro.circuits.simulator`) so that the
channel kernel, the scheduler and the compatibility wrappers can all share
them without import cycles; :mod:`repro.circuits` re-exports both names,
so existing ``from repro.circuits import SimulationError`` imports keep
working.
"""

from __future__ import annotations

__all__ = ["CAUSALITY_MODES", "SimulationError", "CausalityError"]

#: The engine's causality policies (``on_causality``): raise a
#: :class:`CausalityError`, or drop the offending transition.
CAUSALITY_MODES = ("error", "drop")


class SimulationError(RuntimeError):
    """Raised for runtime simulation problems (runaway loops, bad inputs)."""


class CausalityError(SimulationError):
    """Raised when a channel schedules an output before already-delivered ones.

    This cannot happen for the circuits analysed in the paper (the offending
    transition would have cancelled a still-pending predecessor); it can be
    triggered by exotic channels or very large eta bounds.  The engine's
    ``on_causality`` policy can be set to ``"drop"`` to silently discard such
    transitions instead (mimicking what an HDL simulator would do).
    """
