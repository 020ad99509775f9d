"""Recognition procedures for pure complexes.

Dual graphs, (weak) pseudomanifold tests, stacked balls and spheres, the
Walkup classes and the face-vector lower-bound report.

One walk of the top boundary table of a weak pseudomanifold, from facet 0
across each ridge to the facet on its other side, says whether the dual
graph is connected and, on a closed complex, whether the facet orientations
close up; ``is_pseudomanifold``, the orientability test of ``homology`` and
the dual-tree test behind ``is_stacked_ball`` read it.  The dual graph itself
is built only where adjacency is read: the Kbar subtree test of each vertex
star and the tree-family construction.

The stacked-sphere recognizer works by reverse stacking moves: a vertex
whose link is the boundary of a simplex is removed and its star replaced by
the single facet on the link's vertex set, unless that is a facet already.
Each move inverts one stacking step, so a complex reduces to the boundary
of a simplex exactly when it is a stacked sphere; any qualifying vertex is
the apex over a leaf of the underlying tree, so the order does not matter.
One loop gives the verdict and the residual, what is left when no move
applies: homeomorphic to K, it is where ``homology`` takes Betti numbers.

Walkup membership reads vertex stars.  K(d) reduces every vertex link of
the residual R (no open link reduces), whose facets are the ridges of the
star opposite the vertex in R's top boundary table.  That is exact: a move
at v, which fills in tau, changes only the links of v and of the vertices u
of tau.  The link of v in K is the boundary of tau, which reduces.  The link
of u in K is its link after the move with the facet tau - u stellarly
subdivided by v; tau is not a facet of K, so undoing that subdivision is a
move of the link reduction, and as the verdict of the reduction does not
depend on the order of its moves, each link reduces exactly when it did
before the move.  A stacked 4-sphere leaves the 6 links of the boundary of
the 5-simplex.  Kbar(d) asks each star of K to span d more vertices than
facets and to induce a dual subtree (no ridge in three facets allows that).
"""

from __future__ import annotations

import itertools
from array import array
from math import comb
from operator import sub

from .core import Complex, GeneralComplex, _Record
from .errors import DomainError
from .graphs import Graph

WALKUP_VARIANTS = ("K", "Kbar", "Kstar")


def dual_graph(K: Complex) -> Graph:
    """Graph on facet indices; facets are adjacent iff they share a ridge.

    Memoized on the complex.
    """
    if K.dim < 1:
        raise DomainError("dual graph needs a pure complex of dimension >= 1")
    return K._memo("dual_graph", lambda: _dual_graph(K))


def _dual_graph(K: Complex) -> Graph:
    """A view of the top boundary table; two facets share at most one ridge."""
    _, start, entries = K._cofaces(K.dim)
    owners = [k // (K.dim + 1) for k in entries]
    adj: list[list[int]] = [[] for _ in range(K.num_facets)]
    for a, b in itertools.pairwise(start):
        for x, y in itertools.combinations(owners[a:b], 2):
            adj[x].append(y)
            adj[y].append(x)
    return Graph._from_adjacency(adj)


def is_weak_pseudomanifold(K: Complex) -> bool:
    """True iff every (dim-1)-face lies in at most two facets."""
    if K.dim < 1:
        raise DomainError("weak pseudomanifold test needs dimension >= 1")
    return max(_ridge_degrees(K)) <= 2


def is_closed(K: Complex) -> bool:
    """True iff every (dim-1)-face lies in exactly two facets."""
    if K.dim < 1:
        raise DomainError("closedness test needs dimension >= 1")
    return _ridge_degrees(K) == {2}


def _ridge_degrees(K: Complex) -> frozenset[int]:
    """The numbers of facets that the ridges lie in, read from the top
    table; memoized."""
    def degrees() -> frozenset[int]:
        start = K._cofaces(K.dim)[1]
        return frozenset(map(sub, itertools.islice(start, 1, None), start))
    return K._memo("ridge_degrees", degrees)


def is_pseudomanifold(K: Complex) -> bool:
    """True iff every (dim-1)-face lies in at most two facets and the dual
    graph is connected, as the walk of the top table finds it."""
    return is_weak_pseudomanifold(K) and _facet_walk(K)[0]


def _facet_walk(K: Complex) -> tuple[bool, bool | None]:
    """Walk the top boundary table of a weak pseudomanifold (the caller
    checks it) from facet 0, across each ridge in two facets to the other
    one.  Returns whether every facet was reached and, when every ridge lies
    in two facets, whether the facet orientations close up consistently
    (else None).  Memoized."""
    return K._memo("facet_walk", lambda: _walk_facets(K))


def _walk_facets(K: Complex) -> tuple[bool, bool | None]:
    (rows, start, entries), w = K._cofaces(K.dim), K.dim + 1
    # orient[a] = eps_a (-1)^(a w), so facet a's sign on its ridge at row
    # entry k, eps_a (-1)^(k - a w), is orient[a] (-1)^k
    orient = [1] + [0] * (K.num_facets - 1)
    order = array("i", [0])  # facets in the order they were reached
    consistent = True
    for a in order:  # the loop also visits what it appends
        base, s = a * w, orient[a]
        for k in range(base, base + w):
            r = rows[k]
            i = start[r]
            if start[r + 1] - i == 1:
                continue  # a boundary ridge: no facet on its other side
            e = entries[i] + entries[i + 1]  # k and the other facet's entry
            b = (e - k) // w
            want = s if e % 2 else -s  # s (-1)^k = -want (-1)^(e - k)
            if orient[b] == 0:
                orient[b] = want
                order.append(b)
            elif orient[b] != want:
                consistent = False
    return len(order) == K.num_facets, consistent if is_closed(K) else None


def _has_tree_dual_graph(K: Complex) -> bool:
    """``dual_graph(K).is_tree()``, read from the top table and the walk.

    In a weak pseudomanifold each ridge in two facets is one dual edge, and
    no two ridges give the same edge: two distinct facets share at most one
    ridge, as two ridges of one facet span all of it.  The table holds
    (d+1) f_d entries, one per facet and ridge of it, on f_{d-1} ridges in
    one or two facets each, so (d+1) f_d - f_{d-1} ridges lie in two.  A
    complex that is not weak has a ridge in three or more facets, which puts
    a triangle in the dual graph, so its dual graph is no tree.
    """
    if not is_weak_pseudomanifold(K):
        return False
    start = K._cofaces(K.dim)[1]
    edges = (K.dim + 1) * K.num_facets - (len(start) - 1)
    return edges == K.num_facets - 1 and _facet_walk(K)[0]


def is_stacked_ball(K: Complex) -> bool:
    """The vertex count f_0 = f_d + d plus a tree dual graph, read from the
    top table and the facet walk (``_has_tree_dual_graph``); no dual graph
    is built.

    The single facet is a stacked ball.  A tree dual graph alone is not
    enough: the equality of the vertex count is what rules out complexes
    that glue a ring of facets into a tree shape without adding vertices.
    """
    if K.dim < 1:
        raise DomainError("stacked ball test needs dimension >= 1")
    return K.num_vertices == K.num_facets + K.dim and _has_tree_dual_graph(K)


def is_stacked_sphere(K: Complex) -> bool:
    """Reverse-stacking reduction to the boundary of a simplex.

    The input must be a closed complex (every ridge in exactly two facets,
    see ``is_closed``); any other complex raises ``DomainError``.  Moves that
    end at a simplex boundary undo stackings; a stacked sphere meets an
    existing tau only there, as tau and the star close up into all of K.
    """
    if K.dim < 1:
        raise DomainError("stacked sphere test needs dimension >= 1")
    if not is_closed(K):
        raise DomainError("complex is not closed")
    R = stacking_residual(K)
    return R.num_vertices == R.num_facets == K.dim + 2


def stacking_residual(K: GeneralComplex) -> GeneralComplex:
    """What reverse-stacking moves leave of K, homeomorphic to it; memoized.
    K itself when no move applies or K is no ``Complex`` of dimension >= 1."""
    def residual():  # None: no move applied
        incidence, _ = _unstack(K.facets, K.dim)
        return None if len(incidence) == K.num_vertices else Complex._from_canonical(
            tuple(sorted(set().union(*incidence.values()))))
    if not isinstance(K, Complex) or K.dim < 1:
        return K
    return K._memo("stacking_residual", residual) or K


def _reverse_stacking(facets, d: int) -> bool:
    """``is_stacked_sphere`` on distinct d-faces, with no closedness test: a
    move keeps the facet count of every ridge not through the removed
    vertex, and each ridge through it lies in two of its d+1 facets, so a
    ridge in one or three facets stays, and a simplex boundary has none."""
    incidence, count = _unstack(facets, d)
    return len(incidence) == count == d + 2  # all (d+1)-subsets of d+2


def _unstack(facets, d: int) -> tuple[dict[int, set], int]:
    """Reverse stacking moves on distinct d-faces, until none applies or a
    simplex boundary is left: the star of v, d+1 facets on d+2 vertices,
    becomes the facet tau on v's link unless tau is one already.  Returns
    each vertex left mapped to its facets, and the facet count."""
    incidence: dict[int, set] = {}
    for f in facets:
        for v in f:
            incidence.setdefault(v, set()).add(f)
    count = len(facets)  # a move removes the d+1 facets of a star, adds tau
    # a vertex's star changes only when a move fills in a facet through it,
    # so the list holds every vertex that can qualify
    queue = [v for v, stars in incidence.items() if len(stars) == d + 1]
    while queue and not len(incidence) == count == d + 2:
        v = queue.pop()
        stars = incidence.get(v, ())
        if len(stars) != d + 1:
            continue
        around = set().union(*stars)
        around.discard(v)
        # d+1 distinct d-subsets of d+1 vertices: the link bounds a simplex
        if len(around) != d + 1:
            continue
        tau = tuple(sorted(around))
        if tau in incidence[tau[0]]:
            continue  # each vertex of tau is still a key
        for f in stars:
            for u in f:
                if u != v:
                    incidence[u].discard(f)
        del incidence[v]
        count -= d
        for u in tau:
            incidence[u].add(tau)
            if len(incidence[u]) == d + 1:
                queue.append(u)
    return incidence, count


def in_walkup_class(K: Complex, variant: str) -> bool:
    """Membership in K(d), Kbar(d) or Kstar(d), read from the vertex stars.

    ``K``: every link reduces to a simplex boundary (an open one never
    does), read on the links of the reverse-stacking residual: a move leaves
    each link's verdict as it was (see the module docstring).  ``Kbar``:
    every star, a cone over its link, spans d more vertices than facets and
    induces a dual subtree (a ridge in three facets never does).  ``Kstar``:
    ``K`` plus 2-neighborly.  Memoized; ``Kstar`` reuses ``K``.
    """
    if variant not in WALKUP_VARIANTS:
        raise DomainError(f"unknown Walkup variant {variant!r}; "
                          f"expected one of {WALKUP_VARIANTS}")
    if K.dim < 2:
        raise DomainError("Walkup class test needs dimension >= 2")
    return K._memo(("walkup", variant), lambda: _walkup_verdict(K, variant))


def _walkup_verdict(K: Complex, variant: str) -> bool:
    if variant == "Kstar":
        return K.is_neighborly(2) and in_walkup_class(K, "K")
    if variant == "Kbar":
        # the dual graph is built only once a star passes its vertex count
        facets, d = K.facets, K.dim
        return all(len({u for i in star for u in facets[i]}) == len(star) + d
                   and dual_graph(K).is_induced_subtree(star)
                   for star in K.vertex_incidence(d).values())
    R = stacking_residual(K)  # K(d) holds for K iff it holds for R
    facets, d = R.facets, R.dim
    # the link facets of v: the ridges of its star opposite v
    rows, ridges, w = R._cofaces(d)[0], R.faces(d - 1), d + 1
    links = ([ridges[rows[a * w + facets[a].index(v)]] for a in star]
             for v, star in R.vertex_incidence(d).items())
    return all(_reverse_stacking(link, d - 1) for link in links)


def cone(K: Complex) -> Complex:
    """Join with one fresh apex vertex appended to every facet."""
    if K.is_empty:
        raise DomainError("cannot cone the empty complex")
    apex = max(K.vertices) + 1
    return Complex(f + (apex,) for f in K.facets)


class BoundEntry(_Record):
    """One row of the lower-bound report: dimension j against its bound."""

    j: int
    bound: int
    actual: int

    @property
    def satisfied(self) -> bool:
        return self.actual >= self.bound

    @property
    def equality(self) -> bool:
        return self.actual == self.bound


class BoundReport(_Record):
    """Face-vector lower bounds for a closed d-manifold with given beta_1.

    ``entries`` holds the per-dimension bounds (a); ``b_lhs >= b_rhs`` is the
    vertex-count bound (b), whose equality characterizes the 2-neighborly
    Walkup-class members.  Manifoldness of the input is the caller's
    responsibility and is recorded, not fully verified.
    """

    dimension: int
    beta1: int
    entries: tuple[BoundEntry, ...]
    b_lhs: int
    b_rhs: int
    manifoldness: str

    @property
    def b_satisfied(self) -> bool:
        return self.b_lhs >= self.b_rhs

    @property
    def b_equality(self) -> bool:
        return self.b_lhs == self.b_rhs

    @property
    def all_equalities(self) -> bool:
        return self.b_equality and all(e.equality for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "beta1": self.beta1,
            "per_dimension": [
                {"j": e.j, "bound": e.bound, "actual": e.actual,
                 "satisfied": e.satisfied, "equality": e.equality}
                for e in self.entries
            ],
            "vertex_bound": {"lhs": self.b_lhs, "rhs": self.b_rhs,
                             "satisfied": self.b_satisfied,
                             "equality": self.b_equality},
            "manifoldness": self.manifoldness,
        }


def check_lower_bounds(K: Complex, beta1: int, *, verify_links: bool = False) -> BoundReport:
    """Evaluate the face-vector lower bounds for a closed d-manifold, d >= 3.

    (a) per dimension j:  f_j >= C(d+1, j) f_0 + j C(d+2, j+1) (beta1 - 1)
        for j < d, and f_d >= d f_0 + (d-1)(d+2)(beta1 - 1);
    (b) C(f_0 - d - 1, 2) >= C(d+2, 2) beta1.

    ``beta1`` is the first Betti number with GF(2) coefficients, supplied by
    the caller.  With ``verify_links`` the vertex links are checked to be
    stacked spheres or boundary simplices, which certifies manifoldness for
    Walkup-class inputs; anything else is reported as unverified.
    """
    d = K.dim
    if d < 3:
        raise DomainError("lower bounds apply to dimension >= 3")
    fv = K.f_vector()
    f0 = fv[0]
    entries = []
    for j in range(1, d + 1):
        if j < d:
            bound = comb(d + 1, j) * f0 + j * comb(d + 2, j + 1) * (beta1 - 1)
        else:
            bound = d * f0 + (d - 1) * (d + 2) * (beta1 - 1)
        entries.append(BoundEntry(j=j, bound=bound, actual=fv[j]))
    manifoldness = "asserted by caller"
    if verify_links:
        # the boundary of a simplex is itself a stacked sphere, so this is
        # the K(d) membership test
        manifoldness = ("verified: all vertex links are stacked spheres"
                        if in_walkup_class(K, "K") else "unverified manifoldness")
    return BoundReport(
        dimension=d,
        beta1=beta1,
        entries=tuple(entries),
        b_lhs=comb(f0 - d - 1, 2),
        b_rhs=comb(d + 2, 2) * beta1,
        manifoldness=manifoldness,
    )
