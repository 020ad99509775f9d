"""Exact simplicial homology over GF(2) and over the rationals.

Boundary matrices are indexed by the canonical (sorted) face order of the
complex, and the face obtained by deleting the i-th vertex carries sign
(-1)^i.  Every rank comes from the one exact sparse elimination of ``linalg``
that serves both fields.  Betti numbers are taken on a coreduced complex
(Mrozek and Batko 2009): a base vertex per component goes (H_j(K) = H_j(K, v)
for j > 0, and beta_0 drops by 1), then each face whose boundary in what is
left is one face b, together with b.  The coefficient is +-1, a unit over
GF(2) and Q, so one pass serves both fields, and what is left keeps the
restriction of d, with no fill-in.  Coreduction fixes no rank: those of what
is left all come from eliminations, taken top-down with clearing (Chen and
Kerber 2011; Bauer, Kerber and Reininghaus 2014): the j-faces that were
pivot columns of d_{j+1} are left out of d_j, which keeps rank d_j as
d_j d_{j+1} = 0.  Torsion is out of scope.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, compress, cycle, repeat

from . import classify
from .core import Complex, GeneralComplex
from .errors import CapacityError, DomainError
from .linalg import _fraction_free_into, _sparse_rank, _xor_into

GF2 = "GF2"
Q = "Q"

TIGHTNESS_VERTEX_CAP = 16

_COMBINE = {GF2: _xor_into, Q: _fraction_free_into}


def normalize_field(field: str) -> str:
    f = field.strip().upper()
    if f in ("GF2", "GF(2)", "Z2", "F2"):
        return GF2
    if f in ("Q", "QQ", "RATIONAL", "RATIONALS"):
        return Q
    raise DomainError(f"unknown coefficient field {field!r}")


@dataclass(frozen=True)
class ChainBoundary:
    """Boundary map from j-chains to (j-1)-chains.

    ``columns[c]`` lists the (row, sign) incidences of the c-th j-face; over
    GF(2) every sign is 1.  Row and column index maps are exposed through
    ``row_faces`` / ``col_faces`` in canonical face order.
    """

    dimension: int
    field: str
    row_faces: tuple[tuple[int, ...], ...]
    col_faces: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_faces), len(self.col_faces))

    def rank(self) -> int:
        # the columns feed the kernel as rows: the transpose has the same rank
        return len(_sparse_rank([dict(col) for col in self.columns],
                                _COMBINE[self.field]))


def _boundary_rows(K: GeneralComplex, j: int) -> array:
    """For each j-face in canonical order, the positions in ``K.faces(j - 1)``
    of its j + 1 facets: the i-th lacks the i-th vertex, so has sign (-1)^i.
    Read backwards, lexicographic j-subsets come in that order."""
    index = {f: i for i, f in enumerate(K.faces(j - 1))}
    col = list(map(index.__getitem__, chain.from_iterable(
        map(combinations, reversed(K.faces(j)), repeat(j)))))
    return array("i", col[::-1])


def _coreduction(K: GeneralComplex):
    """The boundary rows of every dimension, the alive mask of each dimension
    after coreduction and the number of bases; memoized, for both fields.
    In each dimension, breadth first from the rows removed below, each face
    with one alive row goes with it; each vertex still alive is a base."""
    def run():
        store = [array("i")] + [_boundary_rows(K, j) for j in range(1, K.dim + 1)]
        alive = [bytearray(b"\x01") * len(K.faces(j)) for j in range(K.dim + 1)]
        base = 0
        for j in range(1, K.dim + 1):
            col, w, rows, faces = store[j], j + 1, alive[j - 1], alive[j]
            # CSR transpose: row r is at positions entries[start[r]:start[r+1]]
            start = [0] * (len(rows) + 1)
            for r in col:
                start[r + 1] += 1
            start = list(accumulate(start))
            fill, entries = start[:-1], array("i", [0]) * len(col)
            for k, r in enumerate(col):
                entries[fill[r]] = k
                fill[r] += 1
            left = bytearray([w]) * len(faces)  # rows not yet passed on

            def cascade(queue: deque[int]) -> None:
                while queue:  # pass each removed row on to its cofaces
                    r = queue.popleft()
                    for k in entries[start[r]:start[r + 1]]:
                        a = k // w
                        left[a] -= 1
                        if left[a] == 1 and faces[a]:
                            seg = col[a * w:a * w + w]
                            # its one row left, unless that went already
                            for b in compress(seg, map(rows.__getitem__, seg)):
                                faces[a] = rows[b] = 0
                                queue.append(b)

            cascade(deque(r for r, up in enumerate(rows) if not up))
            for v in range(len(rows)) if j == 1 else ():
                if rows[v]:
                    base += 1
                    rows[v] = 0
                    cascade(deque([v]))
        return store, alive, base
    return K._memo("coreduction", run)


def _top_down_ranks(dim: int, field: str, rows_of) -> list[int]:
    """rank d_j for j = 0, ..., dim + 1 (0 at both ends), by clearing:
    ``rows_of(j, cleared)`` lists the columns of d_j as {row: sign} dicts but
    those of ``cleared``, the pivot columns of d_{j+1}; j = dim down to 1."""
    ranks = [0] * (dim + 2)
    cleared: set[int] = set()
    for j in range(dim, 0, -1):
        cleared = set(_sparse_rank(rows_of(j, cleared), _COMBINE[field]))
        ranks[j] = len(cleared)
    return ranks


def boundary_matrix(K: GeneralComplex, j: int, field: str = GF2) -> ChainBoundary:
    """Boundary matrix from j-faces to (j-1)-faces, 1 <= j <= dim."""
    field = normalize_field(field)
    if not 1 <= j <= K.dim:
        raise DomainError(f"boundary dimension {j} out of range [1, {K.dim}]")
    signs = [1] if field == GF2 else [(-1) ** i for i in range(j + 1)]
    pairs = zip(_boundary_rows(K, j), cycle(signs))
    return ChainBoundary(dimension=j, field=field, row_faces=K.faces(j - 1),
                         col_faces=K.faces(j),
                         columns=tuple(zip(*[pairs] * (j + 1))))


def composes_to_zero(K: GeneralComplex, j: int, field: str = GF2) -> bool:
    """Check the chain-complex identity: boundary of boundary vanishes."""
    field = normalize_field(field)
    if not 2 <= j <= K.dim:
        raise DomainError(f"composition needs 2 <= j <= {K.dim}")
    outer = boundary_matrix(K, j - 1, field)
    inner = boundary_matrix(K, j, field)
    for col in inner.columns:
        acc: dict[int, int] = {}
        for r, s in col:
            for rr, ss in outer.columns[r]:
                acc[rr] = acc.get(rr, 0) + s * ss
        if field == GF2:
            if any(v % 2 for v in acc.values()):
                return False
        elif any(acc.values()):
            return False
    return True


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers (beta_0, ..., beta_d) over the tagged coefficient field."""

    field: str
    values: tuple[int, ...]

    @property
    def alternating_sum(self) -> int:
        return sum(v if j % 2 == 0 else -v for j, v in enumerate(self.values))

    def __getitem__(self, j: int) -> int:
        return self.values[j]

    def __len__(self) -> int:
        return len(self.values)


def betti_numbers(K: GeneralComplex, field: str = GF2) -> BettiVector:
    """Betti numbers by exact elimination: beta_j = dim ker d_j - rank d_{j+1}."""
    if K.is_empty:
        raise DomainError("the empty complex has no Betti numbers")
    field = normalize_field(field)
    return K._memo(("betti", field), lambda: _betti(K, field))


def _betti(K: GeneralComplex, field: str) -> BettiVector:
    store, alive, base = _coreduction(K)

    def rows_of(j: int, cleared: set[int]) -> list[dict[int, int]]:
        take = bytearray(alive[j])
        for i in cleared:
            take[i] = 0
        if 1 not in take:
            return []  # skip the pass over the rows of a dimension left empty
        keys = [r if up else -1 for r, up in enumerate(alive[j - 1])]  # -1: dead
        pairs = zip(map(keys.__getitem__, store[j]),
                    cycle([(-1) ** i for i in range(j + 1)]))
        # in one pass in C, each j + 1 consecutive pairs become a column
        rows = list(map(dict, compress(zip(*[pairs] * (j + 1)), take)))
        for row in rows:
            row.pop(-1, None)
        return rows

    ranks = _top_down_ranks(K.dim, field, rows_of)
    return BettiVector(field=field, values=tuple(
        alive[j].count(1) - ranks[j] - ranks[j + 1] + (base if j == 0 else 0)
        for j in range(K.dim + 1)))


def _oriented_adjacency(K: Complex):
    """Dual edges as (facet a, facet b, sign product) from shared ridges."""
    out = []
    for ridge, owners in K.ridge_incidence().items():
        if len(owners) != 2:
            raise DomainError("complex is not closed")
        a, b = owners
        rset = set(ridge)
        fa, fb = K.facets[a], K.facets[b]
        ia = fa.index(next(v for v in fa if v not in rset))
        ib = fb.index(next(v for v in fb if v not in rset))
        out.append((a, b, (-1) ** (ia + ib)))
    return out


def is_orientable(K: Complex) -> bool:
    """Propagate facet orientations across the dual graph.

    Adjacent facets must induce opposite orientations on their shared ridge;
    the complex is orientable iff the propagation closes without
    contradiction.  Requires a closed connected weak pseudomanifold.  The
    verdict is memoized on the complex.
    """
    if K.dim < 1:
        raise DomainError("orientability needs dimension >= 1")
    return K._memo("orientable", lambda: _propagate_orientation(K))


def _propagate_orientation(K: Complex) -> bool:
    if not classify.is_weak_pseudomanifold(K):
        raise DomainError("not a weak pseudomanifold")
    adjacency = _oriented_adjacency(K)  # raises if not closed
    neighbors: dict[int, list[tuple[int, int]]] = {i: [] for i in range(K.num_facets)}
    for a, b, sign in adjacency:
        neighbors[a].append((b, sign))
        neighbors[b].append((a, sign))
    orient = [0] * K.num_facets
    orient[0] = 1
    queue = deque([0])
    seen = 1
    while queue:
        a = queue.popleft()
        for b, sign in neighbors[a]:
            # epsilon_a * (-1)^{ia} = -epsilon_b * (-1)^{ib}
            want = -orient[a] * sign
            if orient[b] == 0:
                orient[b] = want
                seen += 1
                queue.append(b)
    if seen != K.num_facets:
        raise DomainError("dual graph is not connected")
    return all(orient[b] == -orient[a] * sign for a, b, sign in adjacency)


@dataclass(frozen=True)
class TypeReport:
    """Homeomorphism type certified through Walkup-class membership."""

    dimension: int
    chi: int
    beta1: int
    orientable: bool
    euler_formula_ok: bool
    type_string: str

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "chi": self.chi,
            "beta1": self.beta1,
            "orientable": self.orientable,
            "euler_formula_ok": self.euler_formula_ok,
            "type": self.type_string,
        }


def sphere_bundle_type(d: int, beta1: int, orientable: bool) -> str:
    """Type string for a connected d-manifold all of whose links are stacked."""
    if beta1 == 0:
        return f"S{d}"
    base = f"(S{d - 1}xS1)^#{beta1}"
    return base if orientable else base + " twisted"


def identify_type(K: Complex) -> TypeReport:
    """Certify the homeomorphism type of a connected K(d) member, d >= 4.

    Such complexes triangulate a connected sum of sphere bundles over the
    circle (or the sphere itself when beta_1 = 0); the bundle is twisted iff
    the complex is non-orientable.  This is a certificate derived from class
    membership, not an independent homeomorphism test.
    """
    if K.dim < 4:
        raise DomainError("type identification needs dimension >= 4")
    if not K.is_connected():
        raise DomainError("complex is not connected")
    if not classify.in_walkup_class(K, "K"):
        raise DomainError("complex is not in the Walkup class K(d)")
    chi = K.euler_characteristic
    beta1 = betti_numbers(K, GF2)[1]
    orientable = is_orientable(K)
    # sphere bundles over the circle have chi = 0; connected sums then give
    # 2 - 2*beta1 in even dimensions and 0 in odd ones
    euler_ok = (chi == 2 - 2 * beta1) if K.dim % 2 == 0 else (chi == 0)
    return TypeReport(
        dimension=K.dim,
        chi=chi,
        beta1=beta1,
        orientable=orientable,
        euler_formula_ok=euler_ok,
        type_string=sphere_bundle_type(K.dim, beta1, orientable),
    )


def _gray_subsets(n: int):
    """Yield (toggled position, subset mask) covering all nonempty subsets."""
    mask = 0
    for k in range(1, 1 << n):
        t = (k & -k).bit_length() - 1
        mask ^= 1 << t
        yield t, mask


def is_tight_bruteforce(K: GeneralComplex, field: str = GF2) -> bool:
    """Check tightness by enumerating every induced subcomplex.

    K is tight when, for every nonempty vertex subset W, the map
    H_j(Y) -> H_j(K) induced by the inclusion of the subcomplex Y on W is
    injective in every degree j.  Ordering the faces of Y first makes
    d^K_{j+1} block upper-triangular, with d^Y_{j+1} and the relative map
    d^{K,Y}_{j+1} (the columns of faces outside Y, rows in Y dropped) on the
    diagonal, and by the long exact sequence of the pair
    rank d^K_{j+1} - rank d^Y_{j+1} - rank d^{K,Y}_{j+1}
    = dim ker(H_j(Y) -> H_j(K)).  So only ranks are taken: in degree 0 the
    kernel is trivial iff beta_0(Y) = 1 (K is connected), in degree j >= 1
    the deficit must vanish wherever beta_j(Y) > 0, and the top degree never
    fails.  Capped at 2^16 subsets; larger inputs must use the certificate
    path.
    """
    field = normalize_field(field)
    n = K.num_vertices
    if n == 0:
        raise DomainError("the empty complex cannot be tight")
    if n > TIGHTNESS_VERTEX_CAP:
        raise CapacityError(
            f"{n} vertices exceed the 2^{TIGHTNESS_VERTEX_CAP}-subset brute force; "
            "use the certificate path (certify_tight)")
    if not K.is_connected():
        return False

    dim = K.dim
    vpos = {v: i for i, v in enumerate(K.vertices)}
    face_masks = [[sum(1 << vpos[v] for v in f) for f in K.faces(j)]
                  for j in range(dim + 1)]
    stars = [K.vertex_incidence(j) for j in range(dim + 1)]
    with_vertex = [[star[v] for star in stars] for v in K.vertices]
    # columns[j]: the (row, sign) incidences of each j-face in d_j
    columns = [()] + [boundary_matrix(K, j, field).columns
                      for j in range(1, dim + 1)]
    rank_k = _top_down_ranks(dim, field, lambda j, cleared: [
        dict(col) for i, col in enumerate(columns[j]) if i not in cleared])

    active: list[set[int]] = [set() for _ in range(dim + 1)]
    for t, mask in _gray_subsets(n):
        if mask >> t & 1:
            for j, acts in enumerate(active):
                acts.update(i for i in with_vertex[t][j]
                            if face_masks[j][i] & ~mask == 0)
        else:
            for acts, touched in zip(active, with_vertex[t]):
                acts.difference_update(touched)
        rank_y = _top_down_ranks(dim, field, lambda j, cleared: [
            dict(columns[j][i]) for i in active[j] if i not in cleared])
        betti_y = [len(active[j]) - rank_y[j] - rank_y[j + 1]
                   for j in range(dim + 1)]
        if betti_y[0] != 1:
            return False
        for j in range(1, dim):
            if betti_y[j] == 0:
                continue
            inside = active[j]
            relative = [{r: s for r, s in col if r not in inside}
                        for i, col in enumerate(columns[j + 1])
                        if i not in active[j + 1]]
            if rank_k[j + 1] - rank_y[j + 1] != len(
                    _sparse_rank(relative, _COMBINE[field])):
                return False
    return True


@dataclass(frozen=True)
class TightCertificate:
    """Tightness and strong minimality certified through class membership."""

    dimension: int
    in_kstar: bool
    orientable: bool | None
    field: str | None
    tight: bool
    strongly_minimal: bool
    certified: bool
    beta1: int | None
    detail: str

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "in_kstar": self.in_kstar,
            "orientable": self.orientable,
            "field": self.field,
            "tight": self.tight,
            "strongly_minimal": self.strongly_minimal,
            "certified": self.certified,
            "beta1": self.beta1,
            "detail": self.detail,
        }


def certify_tight(K: Complex) -> TightCertificate:
    """Certify tightness for 2-neighborly Walkup-class manifolds.

    In dimension 4 (and any dimension other than 3) membership in the
    2-neighborly class plus orientability over the field is the whole
    certificate: orientable members are Q-tight, and every complex is
    GF(2)-orientable, so non-orientable members are GF(2)-tight.  In
    dimension 3 tightness additionally requires
    20 beta_1 = (f_0 - 4)(f_0 - 5).  Tight members are strongly minimal.
    A complex outside the class yields verdict "not certified", not an
    error.
    """
    d = K.dim
    if d not in (3, 4):
        raise DomainError("tightness certificates cover dimensions 3 and 4")
    if not classify.in_walkup_class(K, "Kstar"):
        return TightCertificate(
            dimension=d, in_kstar=False, orientable=None, field=None,
            tight=False, strongly_minimal=False, certified=False, beta1=None,
            detail="not certified: not a 2-neighborly Walkup-class member")
    orientable = is_orientable(K)
    field = Q if orientable else GF2
    beta1 = betti_numbers(K, field)[1]
    if d == 3:
        f0 = K.num_vertices
        tight = 20 * beta1 == (f0 - 4) * (f0 - 5)
        detail = (f"dimension 3 equality 20*beta1 = (f0-4)(f0-5): "
                  f"{20 * beta1} vs {(f0 - 4) * (f0 - 5)}")
        return TightCertificate(
            dimension=d, in_kstar=True, orientable=orientable, field=field,
            tight=tight, strongly_minimal=tight, certified=tight, beta1=beta1,
            detail=detail)
    return TightCertificate(
        dimension=d, in_kstar=True, orientable=orientable, field=field,
        tight=True, strongly_minimal=True, certified=True, beta1=beta1,
        detail=f"{field}-orientable 2-neighborly Walkup-class member")
