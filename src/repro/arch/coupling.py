"""Device coupling graphs — the paper's ``GC(P, EP)``.

A coupling graph is an undirected, connected, simple graph over physical
qubits.  Layout-synthesis tools consume three things from it: adjacency
(can this 2q gate run here?), all-pairs shortest-path distances (routing
heuristics), and degrees (the QUBIKOS non-isomorphism argument), so all
three are precomputed and cached.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


class CouplingError(ValueError):
    """Raised for malformed coupling graphs."""


class CouplingGraph:
    """Immutable connected coupling graph over ``num_qubits`` physical qubits."""

    def __init__(self, num_qubits: int, edges: Iterable[Edge],
                 name: str = "device") -> None:
        self.num_qubits = int(num_qubits)
        self.name = name
        if self.num_qubits <= 0:
            raise CouplingError("coupling graph needs at least one qubit")
        edge_set: Set[Edge] = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise CouplingError(f"self-loop ({a}, {b}) in coupling graph")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise CouplingError(f"edge ({a}, {b}) out of range")
            edge_set.add((a, b) if a < b else (b, a))
        self.edges: Tuple[Edge, ...] = tuple(sorted(edge_set))
        self._adj: List[FrozenSet[int]] = self._build_adjacency()
        if self.num_qubits > 1 and not self._is_connected():
            raise CouplingError(f"coupling graph {name!r} is not connected")
        self._dist: Optional[np.ndarray] = None
        self._dist_rows: Optional[List[List[int]]] = None
        self._diameter: Optional[int] = None
        #: Content digest, cached by ``repro.service.fingerprint``.
        self._fingerprint: Optional[str] = None

    def _build_adjacency(self) -> List[FrozenSet[int]]:
        adj: List[Set[int]] = [set() for _ in range(self.num_qubits)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return [frozenset(s) for s in adj]

    def _is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nxt in self._adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == self.num_qubits

    # -- adjacency ------------------------------------------------------------

    def neighbors(self, p: int) -> FrozenSet[int]:
        """The paper's ``Neighbor(p, GC)``."""
        return self._adj[p]

    def degree(self, p: int) -> int:
        return len(self._adj[p])

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj[a]

    def num_edges(self) -> int:
        return len(self.edges)

    def max_degree(self) -> int:
        return max(len(s) for s in self._adj)

    def min_degree(self) -> int:
        return min(len(s) for s in self._adj)

    def average_degree(self) -> float:
        return 2.0 * len(self.edges) / self.num_qubits

    def degree_sequence(self) -> List[int]:
        return sorted((len(s) for s in self._adj), reverse=True)

    def qubits_with_degree_above(self, threshold: int) -> List[int]:
        """Physical qubits with degree strictly greater than ``threshold``."""
        return [p for p in range(self.num_qubits) if len(self._adj[p]) > threshold]

    def is_fully_connected(self) -> bool:
        """True for complete graphs (QUBIKOS cannot be generated on these)."""
        return len(self.edges) == self.num_qubits * (self.num_qubits - 1) // 2

    # -- distances ------------------------------------------------------------

    @property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path hop counts (BFS per source, cached)."""
        if self._dist is None:
            n = self.num_qubits
            dist = np.full((n, n), -1, dtype=np.int32)
            for source in range(n):
                dist[source, source] = 0
                queue = deque([source])
                while queue:
                    cur = queue.popleft()
                    for nxt in self._adj[cur]:
                        if dist[source, nxt] < 0:
                            dist[source, nxt] = dist[source, cur] + 1
                            queue.append(nxt)
            self._dist = dist
        return self._dist

    @property
    def distance_rows(self) -> List[List[int]]:
        """The distance matrix as nested Python lists (cached).

        Scalar indexing on plain lists is several times faster than numpy
        element access, and SWAP scoring is the routing hot path; caching
        the converted form here means :class:`repro.qls.sabre.SabreCostModel`
        no longer re-runs ``distance_matrix.tolist()`` per ``route()`` call.
        Treat the result as read-only.
        """
        if self._dist_rows is None:
            self._dist_rows = self.distance_matrix.tolist()
        return self._dist_rows

    def distance(self, a: int, b: int) -> int:
        """Shortest-path hop count between physical qubits ``a`` and ``b``."""
        return int(self.distance_matrix[a, b])

    def diameter(self) -> int:
        if self._diameter is None:
            self._diameter = int(self.distance_matrix.max())
        return self._diameter

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One shortest path from ``a`` to ``b`` inclusive."""
        if a == b:
            return [a]
        parent: Dict[int, int] = {a: a}
        queue = deque([a])
        while queue:
            cur = queue.popleft()
            for nxt in self._adj[cur]:
                if nxt not in parent:
                    parent[nxt] = cur
                    if nxt == b:
                        path = [b]
                        while path[-1] != a:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    queue.append(nxt)
        raise CouplingError(f"no path between {a} and {b}")

    # -- misc ---------------------------------------------------------------

    def edge_index(self) -> Dict[Edge, int]:
        """Stable edge -> index map (used by SAT encodings)."""
        return {edge: i for i, edge in enumerate(self.edges)}

    def subgraph_on(self, qubits: Sequence[int]) -> List[Edge]:
        """Edges of the induced subgraph on ``qubits`` (original labels)."""
        keep = set(qubits)
        return [e for e in self.edges if e[0] in keep and e[1] in keep]

    def to_networkx(self):
        """Export as a :mod:`networkx` graph (for cross-checking)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_qubits))
        graph.add_edges_from(self.edges)
        return graph

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingGraph):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self.edges == other.edges

    def __repr__(self) -> str:
        return (f"CouplingGraph(name={self.name!r}, qubits={self.num_qubits}, "
                f"edges={len(self.edges)})")
