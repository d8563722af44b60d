"""The one error a model constructor raises for an out-of-domain argument.

The paper's results hold only inside the model's parameter domains:
finite delay limits, positive time constants, thresholds inside (0, 1), a
finite noise interval ``[-eta_minus, eta_plus]``.  Each channel,
delay-function and adversary constructor checks its own arguments and
raises :class:`DomainError` naming the one that failed; ``repro lint``
reports that error at the parameter's JSON pointer instead of keeping a
copy of the check.
"""

from __future__ import annotations

from typing import Tuple, Type

__all__ = ["DomainError"]


class DomainError(ValueError):
    """A constructor argument outside its mathematical domain.

    ``param`` names the argument, which is also its key in the spec's JSON
    form.  A parameter that must be finite rejects NaN and +-inf too.
    """

    def __init__(self, param: str, message: str) -> None:
        super().__init__(message)
        self.param = param

    def __reduce__(self) -> Tuple[Type["DomainError"], Tuple[str, str]]:
        # Pickled across the sweep's process pool: rebuild with both fields.
        return type(self), (self.param, self.args[0])
