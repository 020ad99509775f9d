"""Seeded random generators for stacked balls, spheres and tree-shaped complexes.

Every generator takes an explicit seed (or an already-seeded ``Random``), so
runs are reproducible and no shared RNG state exists.
"""

from __future__ import annotations

import bisect
import itertools
import random

from .core import Complex
from .errors import DomainError


def _rng(seed: int | random.Random) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


class _Ridges:
    """Ridge counts of a growing facet set, with the free ridges (those in
    exactly one facet) kept as a sorted list, so that ``rng.choice`` draws
    from the same sequence as a full rescan would give."""

    def __init__(self, facet: tuple[int, ...]):
        self.count: dict[tuple[int, ...], int] = {}
        self.free: list[tuple[int, ...]] = []
        self.add(facet)

    def add(self, facet: tuple[int, ...]) -> None:
        """Record a facet that is not yet in the set."""
        for ridge in itertools.combinations(facet, len(facet) - 1):
            c = self.count.get(ridge, 0) + 1
            self.count[ridge] = c
            if c == 1:
                bisect.insort(self.free, ridge)
            elif c == 2:
                del self.free[bisect.bisect_left(self.free, ridge)]

    def neighbors(self, facet: tuple[int, ...]) -> int:
        """Facets sharing a ridge with ``facet``, which is not in the set;
        two distinct facets share at most one ridge."""
        return sum(self.count.get(ridge, 0)
                   for ridge in itertools.combinations(facet, len(facet) - 1))


def random_stacked_ball(dim: int, num_facets: int,
                        seed: int | random.Random = 0) -> Complex:
    """Grow a stacked ball by gluing fresh apexes onto random free ridges."""
    if dim < 1 or num_facets < 1:
        raise DomainError("need dim >= 1 and at least one facet")
    rng = _rng(seed)
    facets = [tuple(range(dim + 1))]
    ridges = _Ridges(facets[0])
    next_vertex = dim + 1
    while len(facets) < num_facets:
        # the apex is fresh and the largest id, so the facet is new and sorted
        facet = rng.choice(ridges.free) + (next_vertex,)
        facets.append(facet)
        ridges.add(facet)
        next_vertex += 1
    return Complex(facets)


def random_stacked_sphere(dim: int, num_ball_facets: int,
                          seed: int | random.Random = 0) -> Complex:
    """Boundary of a random stacked (dim+1)-ball."""
    return random_stacked_ball(dim + 1, num_ball_facets, seed).boundary_complex()


def random_tree_complex(dim: int, num_facets: int,
                        seed: int | random.Random = 0,
                        fresh_vertex_prob: float = 0.6) -> Complex:
    """Pure complex with a tree dual graph, possibly reusing vertices.

    Each new facet glues onto one free ridge; the extra vertex is fresh with
    the given probability and otherwise drawn from the existing vertices,
    rejecting candidates that would create a second dual-graph neighbor.
    Covers non-ball examples like a ring of simplices closing over old
    vertices.
    """
    if dim < 1 or num_facets < 1:
        raise DomainError("need dim >= 1 and at least one facet")
    rng = _rng(seed)
    first = tuple(range(dim + 1))
    facets: set[tuple[int, ...]] = {first}
    ridges = _Ridges(first)
    vertices = set(range(dim + 1))
    next_vertex = dim + 1
    while len(facets) < num_facets:
        ridge = rng.choice(ridges.free)
        new_facet = None
        if rng.random() >= fresh_vertex_prob:
            pool = sorted(vertices - set(ridge))
            rng.shuffle(pool)
            for v in pool[:8]:  # bounded retries, then fall back to a fresh vertex
                cand = tuple(sorted(ridge + (v,)))
                if cand not in facets and ridges.neighbors(cand) == 1:
                    new_facet = cand
                    break
        if new_facet is None:
            new_facet = ridge + (next_vertex,)
            next_vertex += 1
        facets.add(new_facet)
        ridges.add(new_facet)
        vertices.update(new_facet)
    return Complex(facets)


def standard_ball(dim: int) -> Complex:
    """The single d-simplex."""
    if dim < 0:
        raise DomainError("dimension must be non-negative")
    return Complex([tuple(range(dim + 1))])


def standard_sphere(dim: int) -> Complex:
    """Boundary of the (d+1)-simplex."""
    if dim < 0:
        raise DomainError("dimension must be non-negative")
    return Complex(itertools.combinations(range(dim + 2), dim + 1))


def cross_polytope_boundary(dim: int) -> Complex:
    """Boundary of the dim-dimensional cross polytope: a non-stacked sphere.

    Vertices 2i and 2i+1 are the antipodal pair of axis i; facets pick one
    vertex from every pair.
    """
    if dim < 1:
        raise DomainError("dimension must be at least 1")
    facets = []
    for choice in itertools.product((0, 1), repeat=dim):
        facets.append(tuple(2 * i + c for i, c in enumerate(choice)))
    return Complex(facets)


def attach_along_codim2(K: Complex, seed: int | random.Random = 0) -> Complex:
    """Append one facet meeting the complex only in a codimension-2 face.

    Turns a stacked ball into a complex with a disconnected dual graph; used
    as a negative control for the stacked-ball recognizer.
    """
    rng = _rng(seed)
    if K.dim < 2:
        raise DomainError("need dimension >= 2 for a codimension-2 attachment")
    base = rng.choice(K.faces(K.dim - 2))
    fresh = max(K.vertices) + 1
    extra = tuple(sorted(base + (fresh, fresh + 1)))
    return Complex(K.facets + (extra,))
