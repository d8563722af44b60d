"""Zero-time Boolean gates.

In the circuit model of the paper, a *gate* is characterised by a
(zero-time) Boolean function and an initial Boolean value that defines its
output until time 0.  All timing behaviour lives in the channels attached
to the gate; the gate itself switches instantaneously.

:class:`GateType` bundles the Boolean function with a name and arity;
:data:`GATE_LIBRARY` provides the usual combinational gates.  Arbitrary
functions (e.g. majority, truth tables) can be defined with
:meth:`GateType.from_function` or :meth:`GateType.from_truth_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

__all__ = [
    "GateType",
    "GATE_LIBRARY",
    "BUF",
    "INV",
    "AND2",
    "OR2",
    "NAND2",
    "NOR2",
    "XOR2",
    "XNOR2",
    "AND3",
    "OR3",
    "MUX2",
    "MAJ3",
]


@dataclass(frozen=True)
class GateType:
    """A combinational gate type.

    Attributes
    ----------
    name:
        Human-readable name (also used when printing circuits).
    arity:
        Number of input pins.
    function:
        Callable mapping a tuple of ``arity`` Boolean values (0/1 ints) to
        the output value.
    """

    name: str
    arity: int
    function: Callable[[Tuple[int, ...]], int] = field(compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"gate name must be a string, got {self.name!r}")
        if type(self.arity) is not int or self.arity < 1:
            raise ValueError(f"gate arity must be an integer of at least 1, got {self.arity!r}")

    def evaluate(self, inputs: Sequence[int]) -> int:
        """Evaluate the gate on the given input values."""
        if len(inputs) != self.arity:
            raise ValueError(
                f"gate {self.name} expects {self.arity} inputs, got {len(inputs)}"
            )
        values = tuple(int(bool(v)) for v in inputs)
        result = self.function(values)
        if result not in (0, 1):
            raise ValueError(f"gate {self.name} returned non-Boolean value {result!r}")
        return result

    def __call__(self, *inputs: int) -> int:
        return self.evaluate(inputs)

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_function(cls, name: str, arity: int, function: Callable[..., int]) -> "GateType":
        """Build a gate type from a function taking ``arity`` separate args."""
        return cls(name, arity, lambda values: int(bool(function(*values))))

    @classmethod
    def from_truth_table(cls, name: str, arity: int, table: Dict[Tuple[int, ...], int]) -> "GateType":
        """Build a gate type from an explicit truth table.

        Each key is a tuple of ``arity`` input values and maps to the
        output; inputs and outputs are the ints 0 and 1 (a ``bool`` is not
        one).  Missing rows default to 0.
        """
        frozen = dict(table)
        gate = cls(name, arity, lambda values: frozen.get(values, 0))
        for key, value in frozen.items():
            row = (*key, value)
            if len(key) != arity or not all(type(v) is int and v in (0, 1) for v in row):
                raise ValueError(
                    f"gate {name!r} truth-table row {list(row)} is not {arity} "
                    "binary inputs and a binary output"
                )
        return gate

    def truth_table(self) -> Dict[Tuple[int, ...], int]:
        """Enumerate the full truth table of the gate."""
        table = {}
        for index in range(2 ** self.arity):
            row = tuple((index >> bit) & 1 for bit in reversed(range(self.arity)))
            table[row] = int(self.evaluate(row))
        return table

    def __reduce__(self):
        # Gate functions are typically lambdas (unpicklable), but every
        # zero-time Boolean gate is fully described by its truth table, so
        # gate types pickle by table instead -- which is what makes whole
        # circuits picklable and the process-based sweep backend possible.
        # Library gates restore to the registry instance (keeping the
        # hand-written function, which is faster than a table lookup).
        return (
            _restore_gate_type,
            (self.name, self.arity, tuple(sorted(self.truth_table().items()))),
        )


def _restore_gate_type(name: str, arity: int, rows: Tuple[Tuple[Tuple[int, ...], int], ...]) -> "GateType":
    """Unpickle a :class:`GateType` (library instance or truth-table rebuild).

    The library short-circuit requires the shipped truth table to match --
    a custom gate that merely reuses a library name must restore to its
    own function, not the library's.
    """
    library_gate = GATE_LIBRARY.get(name)
    if (
        library_gate is not None
        and library_gate.arity == arity
        and tuple(sorted(library_gate.truth_table().items())) == tuple(rows)
    ):
        return library_gate
    return GateType.from_truth_table(name, arity, dict(rows))


BUF = GateType("BUF", 1, lambda v: v[0])
INV = GateType("INV", 1, lambda v: 1 - v[0])
AND2 = GateType("AND2", 2, lambda v: v[0] & v[1])
OR2 = GateType("OR2", 2, lambda v: v[0] | v[1])
NAND2 = GateType("NAND2", 2, lambda v: 1 - (v[0] & v[1]))
NOR2 = GateType("NOR2", 2, lambda v: 1 - (v[0] | v[1]))
XOR2 = GateType("XOR2", 2, lambda v: v[0] ^ v[1])
XNOR2 = GateType("XNOR2", 2, lambda v: 1 - (v[0] ^ v[1]))
AND3 = GateType("AND3", 3, lambda v: v[0] & v[1] & v[2])
OR3 = GateType("OR3", 3, lambda v: v[0] | v[1] | v[2])
MUX2 = GateType("MUX2", 3, lambda v: v[1] if v[0] else v[2])
MAJ3 = GateType("MAJ3", 3, lambda v: int(v[0] + v[1] + v[2] >= 2))

#: Registry of the predefined gate types by name.
GATE_LIBRARY: Dict[str, GateType] = {
    g.name: g
    for g in (BUF, INV, AND2, OR2, NAND2, NOR2, XOR2, XNOR2, AND3, OR3, MUX2, MAJ3)
}
