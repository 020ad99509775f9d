"""Automorphism groups of pure simplicial complexes.

A permutation is the tuple of images of the dense vertex ids 0..n-1.  The
search maps vertices to vertices by individualization-refinement: the
coloring starts uniform and is refined to a fixed point against a color on
each edge uv of K, its co-degree profile (the sorted facet counts through
uvw, one for each third vertex w), and branching assigns one vertex of the
rarest color class at a time.  The colors come from one pass over the
facets; no face table is read.  Pairs that share no face carry no color and
need no key (``_refine_pair`` says why).  The first round splits vertices
by their multisets of edge colors, which fix each vertex's degree, its
facet degree and the edge count of its link (half the summed lengths of its
edges' profiles), so the whole link f-vector when d <= 3.  For d >= 4 they
need not fix its middle counts; ``TestUniformStartAgainstVertexInvariants``
checks that a start from the full vertex invariants refines to the same
partitions.  The catalog complexes are 2-neighborly, so plain degrees are
useless; the edge colors are what make the search near-linear there.

No group element is enumerated.  The search is pruned by the automorphisms
already found (McKay and Piperno, "Practical graph isomorphism, II", 2014):
it returns a generating set and takes the order as the product of the
base-point orbit lengths along the stabilizer chain (Seress, "Permutation
Group Algorithms", 2003).  Every generator is verified against the facet
set at the leaf that produced it, so a refinement bug cannot report a
non-automorphism.  ``group_elements`` expands the generators on demand.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import lcm

from . import classify
from .core import Complex, _Record
from .errors import CapacityError, DomainError

Perm = tuple[int, ...]
_Edges = list[list[tuple[int, int]]]  # (neighbour, edge color) per vertex

AUT_VERTEX_CAP = 64


def compose(p: Perm, q: Perm) -> Perm:
    """Composition acting left to right on images: (p o q)(i) = p[q[i]]."""
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def permutation_order(p: Perm) -> int:
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = p[v]
            length += 1
        order = lcm(order, length)
    return order


def _require_dense(K: Complex) -> int:
    n = K.num_vertices
    if K.vertices != tuple(range(n)):
        raise DomainError("automorphism operations need dense vertex ids 0..n-1")
    return n


def is_automorphism(K: Complex, p: Perm) -> bool:
    """True iff the permutation maps the facet set onto itself."""
    n = _require_dense(K)
    if len(p) != n:
        raise DomainError(f"permutation length {len(p)} != vertex count {n}")
    if sorted(p) != list(range(n)):
        raise DomainError("not a bijection on the vertex set")
    facet_set = {frozenset(f) for f in K.facets}
    return all(frozenset(p[v] for v in f) in facet_set for f in K.facets)


def _pair_invariants(K: Complex, n: int) -> _Edges:
    """Edge lists: (u, c) at v for each edge uv of K, where the color c
    interns the co-degree profile of uv in order of first sight.

    The profile fixes the number of facets through uv: its sum counts each
    of them once for each of its d - 1 other vertices when d >= 2, and for
    d = 1 every edge is a facet.  The edges come from the pairs of the
    facets, so a graph's edges, which have empty profiles, still get keys.
    """
    profiles: dict[tuple[int, int], list[int]] = {
        pair: [] for f in K.facets for pair in itertools.combinations(f, 2)}
    triple_count = Counter(triple for f in K.facets
                           for triple in itertools.combinations(f, 3))
    for triple, cnt in triple_count.items():
        for pair in itertools.combinations(triple, 2):
            profiles[pair].append(cnt)
    intern: dict[tuple[int, ...], int] = {}
    edges: _Edges = [[] for _ in range(n)]
    for (u, v), counts in profiles.items():
        c = intern.setdefault(tuple(sorted(counts)), len(intern))
        edges[u].append((v, c))
        edges[v].append((u, c))
    return edges


def _refine_pair(dom: list[int], cod: list[int], pinv: _Edges, n: int):
    """Refine both colorings in lockstep; None when class profiles diverge.

    v is keyed by its color and the sorted codes color(u) * n^2 + c of its
    edges uv (colors are at most n; edge colors are no more than the edges,
    so fewer than n^2).  Both colorings enter with equal class sizes (the
    root is uniform; v -> w gives both color n, w in v's cell), so v's
    non-neighbours' colors follow from this key: each round gives the
    partition and verdict of a dense key.
    """
    nn = n * n

    def keys(col: list[int]) -> list[tuple]:
        return [(col[v], tuple(sorted(col[u] * nn + c for u, c in pinv[v])))
                for v in range(n)]

    while True:
        dkeys, ckeys = keys(dom), keys(cod)
        if sorted(dkeys) != sorted(ckeys):
            return None
        intern = {k: i for i, k in enumerate(sorted(set(dkeys)))}
        ndom, ncod = [intern[k] for k in dkeys], [intern[k] for k in ckeys]
        if len(intern) == len(set(dom)):
            return ndom, ncod
        dom, cod = ndom, ncod


class GroupDescription(_Record):
    """Exact order plus a generating set; structure tag only when cyclic."""

    order: int
    generators: tuple[Perm, ...]
    structure: str | None

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "structure": self.structure,
            "generators": [list(g) for g in self.generators],
        }


def group_closure(generators, n: int) -> frozenset[Perm]:
    """All products of the generators, by breadth-first multiplication."""
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        fresh = []
        for g in frontier:
            for h in gens:
                p = compose(g, h)
                if p not in elems:
                    elems.add(p)
                    fresh.append(p)
        frontier = fresh
    return frozenset(elems)


def _individualize(dom: list[int], cod: list[int], v: int, w: int,
                   pinv: _Edges, n: int):
    """Give v (domain) and w (codomain) one fresh color, then refine."""
    dom = list(dom)
    cod = list(cod)
    dom[v] = cod[w] = n  # interned colors live in [0, n), so n is unused
    return _refine_pair(dom, cod, pinv, n)


def _target(colors: list[int], n: int) -> tuple[int, int] | None:
    """Base point and its color: least vertex of the smallest non-singleton
    class, or None when the coloring is discrete."""
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    multi = [(len(vs), vs[0], c) for c, vs in classes.items() if len(vs) > 1]
    if not multi:
        return None
    _, v, color = min(multi)
    return v, color


def _orbit(v: int, generators: list[Perm]) -> set[int]:
    orbit = {v}
    frontier = [v]
    while frontier:
        frontier = [g[x] for x in frontier for g in generators
                    if g[x] not in orbit]
        orbit.update(frontier)
    return orbit


def _search(K: Complex, n: int) -> tuple[int, list[Perm]]:
    """Order and generators of Aut(K) by an orbit-pruned search.

    The first individualize-and-refine path, always taking the least vertex
    of the target cell, ends in the identity.  Its base points v_0, v_1, ...
    define the stabilizer chain G_0 >= G_1 >= ...; every automorphism of G_i
    maps v_i into the target cell of level i.  Levels are visited from the
    deepest up, and by induction the generators found so far generate
    G_{i+1}.  A cell point w already in their orbit of v_i needs no search;
    for any other w one automorphism of the subtree (v_i -> w) is sought
    and, when it exists, becomes a generator.  The orbit of v_i then equals
    the G_i-orbit, and |G_i| = |orbit of v_i| * |G_{i+1}|.  The root
    coloring is uniform; the module docstring says what its first round fixes.
    """
    pinv = _pair_invariants(K, n)
    colors = _refine_pair([0] * n, [0] * n, pinv, n)[0]

    def first_automorphism(dom: list[int], cod: list[int]) -> Perm | None:
        step = _target(dom, n)
        if step is None:
            # discrete: both colorings are permutations of 0..n-1
            p = compose(inverse(cod), dom)
            return p if is_automorphism(K, p) else None
        v, color = step
        for w in range(n):
            if cod[w] == color:
                child = _individualize(dom, cod, v, w, pinv, n)
                if child is not None:
                    p = first_automorphism(*child)
                    if p is not None:
                        return p
        return None

    path = []
    while (step := _target(colors, n)) is not None:
        path.append((colors, *step))
        colors = _individualize(colors, colors, step[0], step[0], pinv, n)[0]
    order = 1
    generators: list[Perm] = []
    for colors, v, color in reversed(path):
        orbit = {v}
        for w in range(n):
            if colors[w] != color or w in orbit:
                continue
            child = _individualize(colors, colors, v, w, pinv, n)
            p = first_automorphism(*child) if child is not None else None
            if p is not None:
                generators.append(p)
                orbit = _orbit(v, generators)
        order *= len(orbit)
    return order, generators


def automorphism_group(K: Complex) -> GroupDescription:
    """Exact automorphism group of a pure complex with at most 64 vertices.

    No group element is listed: the search returns a generating set whose
    members are each verified against the facet set at their leaf, and the
    order is the product of the base-point orbit lengths along the
    stabilizer chain.  The structure tag is ``Z_n`` exactly when the
    generators commute pairwise and the lcm of their orders is the group
    order (a finite abelian group is cyclic iff its exponent equals its
    order).  The description is deterministic: it does not depend on
    hashing or scheduling.  It is memoized on the complex.
    """
    n = _require_dense(K)
    if n > AUT_VERTEX_CAP:
        raise CapacityError(
            f"{n} vertices exceed the automorphism search cap of {AUT_VERTEX_CAP}")
    if K.is_empty:
        raise DomainError("the empty complex has no automorphism group")
    return K._memo("automorphism_group", lambda: _describe(K, n))


def _describe(K: Complex, n: int) -> GroupDescription:
    order, generators = _search(K, n)
    structure = None
    if order == 1:
        structure = "Z_1"
    elif all(compose(g, h) == compose(h, g)
             for g, h in itertools.combinations(generators, 2)) \
            and lcm(*map(permutation_order, generators)) == order:
        structure = f"Z_{order}"
    return GroupDescription(order=order, generators=tuple(generators),
                            structure=structure)


def group_elements(K: Complex) -> frozenset[Perm]:
    """The full element set of Aut(K), expanded from the generators."""
    desc = automorphism_group(K)
    return group_closure(desc.generators, _require_dense(K))


def verify_aut_equality(M: Complex) -> bool:
    """Check Aut(M) = Aut(boundary of M) as permutation groups.

    ``M`` must be a member of Kbar of dimension at least 5; its boundary
    shares the vertex set, so both groups act on the same points.  The two
    orders must agree and each group's generators must preserve the other
    complex's facets; no element set is expanded.
    """
    if M.dim < 5:
        raise DomainError("automorphism equality check needs dimension >= 5")
    if not classify.in_walkup_class(M, "Kbar"):
        raise DomainError("complex is not in Kbar of its dimension")
    boundary = M.boundary_complex()
    if boundary.vertices != M.vertices:
        return False
    mine, theirs = automorphism_group(M), automorphism_group(boundary)
    return mine.order == theirs.order \
        and all(is_automorphism(boundary, g) for g in mine.generators) \
        and all(is_automorphism(M, g) for g in theirs.generators)
