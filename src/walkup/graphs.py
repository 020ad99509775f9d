"""Small immutable simple graphs on dense integer vertices 0..n-1.

Used for dual graphs of complexes and for the host graphs of tree families.
Adjacency is kept in CSR (compressed sparse rows) form, two ``array("i")``:
``offsets`` of length n + 1 and ``nbrs``, where the neighbours of v are
``nbrs[offsets[v]:offsets[v + 1]]`` in increasing order, so each edge is
stored twice, once from each end.  No edge tuple is stored: ``edges`` is
generated from the arrays when asked.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, pairwise
from typing import Iterable

from .errors import DomainError


class Graph:
    __slots__ = ("_n", "_offsets", "_nbrs", "_hash")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]] = ()):
        if num_vertices < 0:
            raise DomainError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(num_vertices)]
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise DomainError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._init(list(map(list, adj)))

    def _init(self, adj: list[list[int]]) -> None:
        for around in adj:
            around.sort()
        object.__setattr__(self, "_n", len(adj))
        object.__setattr__(self, "_offsets",
                           array("i", accumulate(map(len, adj), initial=0)))
        object.__setattr__(self, "_nbrs", array("i", chain.from_iterable(adj)))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_adjacency(cls, adj: list[list[int]]) -> "Graph":
        """Package-internal: v is adjacent to the ids in the list ``adj[v]``,
        which the caller guarantees in range, symmetric and free of v and of
        repeats.  Skips the per-edge checks of ``__init__``."""
        G = object.__new__(cls)
        G._init(adj)
        return G

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def _row(self, v: int) -> array:
        if not 0 <= v < self._n:
            raise DomainError(f"vertex {v} out of range [0, {self._n})")
        return self._nbrs[self._offsets[v]:self._offsets[v + 1]]

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The sorted pairs (u, v), u < v, generated from the arrays."""
        nbrs = self._nbrs
        return tuple((u, v) for u, (a, b) in enumerate(pairwise(self._offsets))
                     for v in nbrs[a:b] if u < v)

    @property
    def num_edges(self) -> int:
        return len(self._nbrs) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._row(v))

    def degree(self, v: int) -> int:
        return len(self._row(v))

    def has_edge(self, u: int, v: int) -> bool:
        self._row(v)  # v must be a vertex too
        return v in self._row(u)

    def connected_components(self) -> tuple[tuple[int, ...], ...]:
        seen = bytearray(self._n)
        comps = []
        for s in range(self._n):
            if not seen[s]:
                seen[s] = 1
                comp = [s]
                for u in comp:  # the loop also visits what it appends
                    for w in self._row(u):
                        if not seen[w]:
                            seen[w] = 1
                            comp.append(w)
                comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def is_connected(self) -> bool:
        return self._n == 0 or len(self.connected_components()) == 1

    def is_tree(self) -> bool:
        return self._n >= 1 and self.num_edges == self._n - 1 and self.is_connected()

    def is_induced_subtree(self, vertices: Iterable[int]) -> bool:
        """True iff the induced subgraph on ``vertices`` is a tree."""
        vs = set(vertices)
        if not vs:
            return False
        self._row(min(vs)), self._row(max(vs))  # every id is a vertex
        order = [next(iter(vs))]
        seen = set(order)
        degrees = 0  # summed inside the set: twice its induced edge count
        for u in order:  # the loop also visits what it appends
            for w in self._row(u):
                if w in vs:
                    degrees += 1
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
        return len(seen) == len(vs) and degrees == 2 * len(vs) - 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self._n, self._offsets, self._nbrs) == (other._n, other._offsets, other._nbrs)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._n, self.edges))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Graph(vertices={self._n}, edges={self.num_edges})"
