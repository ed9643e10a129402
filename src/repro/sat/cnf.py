"""CNF formula builder with named variables.

Encoders (like the exact QLS solver) allocate variables by semantic key —
``("map", q, p, t)`` — and emit clauses through helper combinators.  The
builder keeps the key<->index bijection so models can be decoded.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .types import Model, as_literals


class CnfBuilder:
    """Accumulates clauses over named boolean variables."""

    def __init__(self) -> None:
        self._index: Dict[Hashable, int] = {}
        self._names: List[Optional[Hashable]] = [None]  # 1-based
        self.clauses: List[List[int]] = []

    # -- variables ------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._names) - 1

    def var(self, key: Hashable) -> int:
        """Variable index for ``key``, allocating on first use."""
        index = self._index.get(key)
        if index is None:
            index = len(self._names)
            self._index[key] = index
            self._names.append(key)
        return index

    def fresh(self, prefix: str = "aux") -> int:
        """Anonymous auxiliary variable."""
        return self.var((prefix, len(self._names)))

    def name_of(self, index: int) -> Hashable:
        """Key of variable ``index`` (auxiliaries return their tuple)."""
        return self._names[index]

    def has_var(self, key: Hashable) -> bool:
        return key in self._index

    # -- clause emission ------------------------------------------------------

    def add(self, clause: Sequence[int]) -> None:
        """Add a raw DIMACS clause.

        Raises ``ValueError`` for a literal that is 0 or not an integer.
        """
        self.clauses.append(as_literals(clause))

    def add_unit(self, literal: int) -> None:
        self.add([literal])

    def implies(self, antecedent: int, consequent: int) -> None:
        """a -> b."""
        self.add([-antecedent, consequent])

    def implies_all(self, antecedent: int, consequents: Iterable[int]) -> None:
        """a -> (b1 and b2 and ...)."""
        for c in consequents:
            self.add([-antecedent, c])

    def implies_or(self, antecedent: int, disjunction: Sequence[int]) -> None:
        """a -> (b1 or b2 or ...)."""
        self.add([-antecedent] + list(disjunction))

    def iff(self, a: int, b: int) -> None:
        """a <-> b."""
        self.add([-a, b])
        self.add([a, -b])

    def iff_and(self, target: int, conjuncts: Sequence[int]) -> None:
        """target <-> (c1 and c2 and ...)."""
        for c in conjuncts:
            self.add([-target, c])
        self.add([target] + [-c for c in conjuncts])

    def iff_or(self, target: int, disjuncts: Sequence[int]) -> None:
        """target <-> (d1 or d2 or ...)."""
        for d in disjuncts:
            self.add([target, -d])
        self.add([-target] + list(disjuncts))

    def at_most_one(self, literals: Sequence[int]) -> None:
        """Pairwise at-most-one (fine for the small groups used here)."""
        lits = list(literals)
        for i in range(len(lits)):
            for j in range(i + 1, len(lits)):
                self.add([-lits[i], -lits[j]])

    def at_least_one(self, literals: Sequence[int]) -> None:
        self.add(list(literals))

    def exactly_one(self, literals: Sequence[int]) -> None:
        self.at_least_one(literals)
        self.at_most_one(literals)

    # -- decoding ------------------------------------------------------------

    def true_keys(self, model: Model) -> List[Hashable]:
        """Keys of the named variables assigned true in ``model``."""
        result = []
        for key, index in self._index.items():
            if index in model and model[index]:
                result.append(key)
        return result

    def value(self, model: Model, key: Hashable) -> bool:
        """Truth value of the named variable ``key``."""
        return model[self._index[key]]

    def stats(self) -> Dict[str, int]:
        return {"vars": self.num_vars, "clauses": len(self.clauses)}

    def to_dimacs(self, comment: str = "") -> str:
        """Serialize the accumulated formula as DIMACS CNF text.

        The bridge to external solver backends and the cube-and-conquer
        fan-out: one serialization is shared by every cube task.
        """
        from . import dimacs
        return dimacs.dumps(self.num_vars, self.clauses, comment)
