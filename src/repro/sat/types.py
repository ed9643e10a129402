"""Shared SAT types and literal conventions.

Variables are positive integers ``1..n``; a literal is ``+v`` (variable true)
or ``-v`` (variable false), DIMACS style.  Internally the solver packs a
literal as ``2*v`` (positive) / ``2*v + 1`` (negative) for array indexing.
"""

from __future__ import annotations

from enum import Enum
from operator import index
from typing import Dict, Iterable, List


class SolverResult(Enum):
    """Outcome of a SAT solve call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # resource limit hit


class Model:
    """A satisfying assignment, queryable by DIMACS literal."""

    def __init__(self, values: Dict[int, bool]) -> None:
        self._values = dict(values)

    def __getitem__(self, variable: int) -> bool:
        return self._values[variable]

    def value(self, literal: int) -> bool:
        """Truth value of a (possibly negative) literal."""
        v = self._values[abs(literal)]
        return v if literal > 0 else not v

    def true_variables(self) -> List[int]:
        return sorted(v for v, val in self._values.items() if val)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, variable: int) -> bool:
        return variable in self._values


def as_literal(value) -> int:
    """``value`` as a DIMACS literal: a non-zero integer, as a plain ``int``.

    numpy integers pass; ``ValueError`` names a value that is 0 or not an
    integer — ``1.5`` is rejected, never truncated to 1.
    """
    try:
        literal = index(value)
    except TypeError:
        raise ValueError(f"literal {value!r} is not an integer") from None
    if literal == 0:
        raise ValueError("literal 0 is reserved in DIMACS clauses")
    return literal


def as_literals(values: Iterable) -> List[int]:
    """:func:`as_literal` over a clause or an assumption list."""
    if not isinstance(values, (list, tuple)):
        values = list(values)  # the fallback below reads it again
    try:
        literals = list(map(index, values))  # the fast path, in C
        if 0 not in literals:
            return literals
    except TypeError:
        pass
    return [as_literal(value) for value in values]  # raises, naming it
