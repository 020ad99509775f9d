"""Small immutable simple graphs on dense integer vertices 0..n-1.

Used for dual graphs of complexes and for the host graphs of tree families.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import DomainError


class Graph:
    __slots__ = ("_n", "_edges", "_adj", "_hash")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]] = ()):
        if num_vertices < 0:
            raise DomainError("vertex count must be non-negative")
        canon: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise DomainError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            canon.add((u, v) if u < v else (v, u))
        adj: tuple[set[int], ...] = tuple(set() for _ in range(num_vertices))
        for u, v in canon:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_n", num_vertices)
        object.__setattr__(self, "_edges", tuple(sorted(canon)))
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in adj))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def connected_components(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self._n
        comps = []
        for s in range(self._n):
            if seen[s]:
                continue
            comp = []
            queue = deque([s])
            seen[s] = True
            while queue:
                u = queue.popleft()
                comp.append(u)
                for w in self._adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def is_connected(self) -> bool:
        if self._n == 0:
            return True
        return len(self.connected_components()) == 1

    def is_tree(self) -> bool:
        return self._n >= 1 and self.is_connected() and len(self._edges) == self._n - 1

    def is_induced_subtree(self, vertices: Iterable[int]) -> bool:
        """True iff the induced subgraph on ``vertices`` is a tree."""
        vs = set(vertices)
        if not vs:
            return False
        seen = {next(iter(vs))}
        queue = deque(seen)
        degrees = 0  # summed inside the set: twice its induced edge count
        while queue:
            for w in self._adj[queue.popleft()]:
                if w in vs:
                    degrees += 1
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return len(seen) == len(vs) and degrees == 2 * len(vs) - 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._n, self._edges))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Graph(vertices={self._n}, edges={len(self._edges)})"
