"""Recognition procedures for pure complexes.

Dual graphs, (weak) pseudomanifold tests, stacked balls and spheres, the
Walkup classes and the face-vector lower-bound report.

The stacked-sphere recognizer works by reverse stacking moves: a vertex
whose link is the boundary of a simplex is removed and its star replaced by
the single facet on the link's vertex set.  Each such move inverts one
stacking step, so a complex reduces to the boundary of a simplex exactly
when it is a stacked sphere.  Any qualifying vertex is the apex over a
leaf of the underlying tree, so a stacked sphere reduces from whichever
one is taken, and a run that succeeds is a sequence of inverse stackings,
which certifies stackedness: the verdict does not depend on the order.

Walkup membership reads the vertex stars of K: K(d) reduces every link
(no open link reduces), whose facets are the ridges of the star opposite
the vertex in the top boundary table, and Kbar(d) asks each star to span d
more vertices than facets and to induce a dual subtree (no ridge in three
facets allows that).
"""

from __future__ import annotations

import itertools
from math import comb

from .core import Complex, _Record
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
    return all(b - a <= 2 for a, b in itertools.pairwise(K._cofaces(K.dim)[1]))


def is_closed(K: Complex) -> bool:
    """True iff every (dim-1)-face lies in exactly two facets."""
    if K.dim < 1:
        raise DomainError("closedness test needs dimension >= 1")
    return all(b - a == 2 for a, b in itertools.pairwise(K._cofaces(K.dim)[1]))


def is_pseudomanifold(K: Complex) -> bool:
    return is_weak_pseudomanifold(K) and dual_graph(K).is_connected()


def is_stacked_ball(K: Complex) -> bool:
    """Tree dual graph plus the vertex count f_0 = f_d + d.

    The single facet is a stacked ball.  A tree dual graph alone is not
    enough: the equality of the vertex count is what rules out complexes
    that glue a ring of facets into a tree shape without adding vertices.
    """
    if K.dim < 1:
        raise DomainError("stacked ball test needs dimension >= 1")
    return _spans_stacked_ball(K, range(K.num_facets), K.num_vertices)


def _spans_stacked_ball(K: Complex, star, num_vertices: int) -> bool:
    """True iff the facets at ``star``, on ``num_vertices`` vertices, form a
    stacked ball; three on one ridge would be a triangle, not a subtree."""
    return num_vertices == len(star) + K.dim and dual_graph(K).is_induced_subtree(star)


def is_stacked_sphere(K: Complex) -> bool:
    """Greedy reverse-stacking reduction to the boundary of a simplex.

    The input must be a closed complex (every ridge in exactly two facets,
    see ``is_closed``); any other complex raises ``DomainError``.
    """
    if K.dim < 1:
        raise DomainError("stacked sphere test needs dimension >= 1")
    if not is_closed(K):
        raise DomainError("complex is not closed")
    return _reverse_stacking(K.facets, K.dim)


def _reverse_stacking(facets, d: int) -> bool:
    """``is_stacked_sphere`` on distinct d-faces, with no closedness test: a
    move keeps the facet count of every ridge not through the removed
    vertex, and each ridge through it lies in two of its d+1 facets, so a
    ridge in one or three facets stays, and a simplex boundary has none."""
    incidence: dict[int, set] = {}
    for f in facets:
        for v in f:
            incidence.setdefault(v, set()).add(f)
    count = len(facets)  # a move removes the d+1 facets of a star, adds tau
    # a vertex's star changes only when a move fills in a facet through it,
    # so the list holds every vertex that can qualify
    queue = [v for v, stars in incidence.items() if len(stars) == d + 1]

    while True:
        # d+2 distinct (d+1)-subsets of d+2 vertices are necessarily all of
        # them, so this is the boundary of a simplex
        if len(incidence) == d + 2 and count == d + 2:
            return True
        while queue:
            v = queue.pop()
            stars = incidence.get(v, ())
            if len(stars) != d + 1:
                continue
            around: set[int] = set()
            for f in stars:
                around.update(f)
            around.discard(v)
            if len(around) == d + 1:
                # the d+1 link facets are distinct d-subsets of d+1
                # vertices, so the link is the boundary of a simplex
                break
        else:
            return False
        tau = tuple(sorted(around))
        if tau in incidence[tau[0]]:
            # the filled-in facet already exists (each vertex of tau is still
            # a key); a stacked sphere has it only as the simplex boundary
            return False
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


def in_walkup_class(K: Complex, variant: str) -> bool:
    """Membership in K(d), Kbar(d) or Kstar(d), read from the vertex stars.

    ``K``: every link reduces to a simplex boundary (an open one never
    does).  ``Kbar``: every star, a cone over its link, spans d more vertices
    than facets and induces a dual subtree (a ridge in three facets never
    does).  ``Kstar``: ``K`` plus 2-neighborly.  Memoized; ``Kstar`` reuses ``K``.
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
    facets, d = K.facets, K.dim
    if variant == "K":  # the link facets of v: the ridges of its star opposite v
        rows, ridges, w = K._cofaces(d)[0], K.faces(d - 1), d + 1
        links = ([ridges[rows[a * w + facets[a].index(v)]] for a in star]
                 for v, star in K.vertex_incidence(d).items())
        return all(_reverse_stacking(link, d - 1) for link in links)
    return all(_spans_stacked_ball(K, star, len({u for i in star for u in facets[i]}))
               for star in K.vertex_incidence(d).values())


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
