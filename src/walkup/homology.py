"""Exact simplicial homology over GF(2) and over the rationals.

Boundary matrices are indexed by the canonical (sorted) face order of the
complex, and the face obtained by deleting the i-th vertex carries sign
(-1)^i.  Every rank comes from the one exact sparse elimination of ``linalg``
that serves both fields.  Betti numbers of a pure K are those of its
reverse-stacking residual (``classify.stacking_residual``; Bjoerner and Lutz
2000): a move swaps the ball star(v) for the ball tau, not yet a face, on the
same boundary, so it keeps the homeomorphism type.  That is coreduced (Mrozek
and Batko 2009): a base vertex per component goes (H_j(K) = H_j(K, v) for
j > 0, and beta_0 drops by 1), then each face whose boundary in what is left
is one face b, together with b.  The coefficient is +-1, a unit over GF(2) and
Q, so one pass serves both fields, and what is left keeps the restriction of
d, with no fill-in.  Coreduction fixes no rank: those of what is left all come
from eliminations, taken top-down with clearing (Chen and Kerber 2011; Bauer,
Kerber and Reininghaus 2014): the j-faces that were pivot columns of d_{j+1}
are left out of d_j, which keeps rank d_j as d_j d_{j+1} = 0.  Torsion is out
of scope.

The cascade and the kernel also run under a face mask of K, on an induced
subcomplex Y or on the pair (K, Y), and the brute-force tightness check
reads both.  By the long exact sequence of the pair,
sum beta(Y) + sum beta(K, Y) - sum beta(K) is twice the total dimension of
ker(H_*(Y) -> H_*(K)), so it is 0 iff every map is injective (Kuehnel
1995).  Two checks can fail: a negative or an odd difference is a bug.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, compress, cycle, pairwise

from . import classify
from .core import Complex, GeneralComplex, _Record
from .errors import CapacityError, DomainError
from .linalg import _fraction_free_into, _sparse_rank, _xor_into

GF2 = "GF2"
Q = "Q"

TIGHTNESS_VERTEX_CAP = 16

_COMBINE = {GF2: _xor_into, Q: _fraction_free_into}
# byte tables: a count of 0 becomes 1 and any other 0, or the reverse
_ZERO = bytes([1]) + bytes(255)
_NONZERO = bytes([0]) + bytes([1]) * 255


def normalize_field(field: str) -> str:
    f = field.strip().upper()
    if f in ("GF2", "GF(2)", "Z2", "F2"):
        return GF2
    if f in ("Q", "QQ", "RATIONAL", "RATIONALS"):
        return Q
    raise DomainError(f"unknown coefficient field {field!r}")


class ChainBoundary(_Record):
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


def _coreduction(K: GeneralComplex, alive: list[bytearray] | None = None,
                 relative: bool = False):
    """The alive mask of each dimension after coreduction and the number of
    bases.  In each dimension, breadth first from the rows removed below,
    each face with one alive row goes with it; each vertex still alive is a
    base.  ``alive``, the initial masks, is consumed; by default every face
    is alive and the result is memoized, for both fields.  Given masks are
    the faces of a subcomplex L, so only rows that coreduction removed are
    passed on.  ``relative`` masks are the faces outside L, the cells of
    C(K)/C(L): every dead row is passed on, so the alive faces lose L's rows
    and each base is a component of K that misses L."""
    if alive is None:
        return K._memo("coreduction", lambda: _coreduction(
            K, [bytearray(b"\x01") * len(K.faces(j)) for j in range(K.dim + 1)]))
    base, gone = 0, []  # gone: the faces that the pass below removed
    for j in range(1, K.dim + 1):
        (col, start, entries), w = K._cofaces(j), j + 1
        rows, faces, went = alive[j - 1], alive[j], []
        left = bytearray([w]) * len(faces)  # rows not yet passed on

        def cascade(queue: deque[int]) -> None:
            while queue:  # pass each removed row on to its cofaces
                r = queue.popleft()
                for k in entries[start[r]:start[r + 1]]:
                    a = k // w
                    if not faces[a]:
                        continue  # a dead face never goes with a row
                    left[a] -= 1
                    if left[a] == 1:
                        seg = col[a * w:a * w + w]
                        # its one row left, unless that went already
                        for b in compress(seg, map(rows.__getitem__, seg)):
                            faces[a] = rows[b] = 0
                            went.append(a)
                            queue.append(b)

        cascade(deque(compress(range(len(rows)), rows.translate(_ZERO))
                      if relative else sorted(gone)))
        for v in range(len(rows)) if j == 1 else ():
            if rows[v]:
                base += 1
                rows[v] = 0
                cascade(deque([v]))
        gone = went
    return alive, base


def _top_down_ranks(K: GeneralComplex, field: str,
                    alive: list[bytearray]) -> list[int]:
    """rank d_j for j = 0, ..., dim + 1 (0 at both ends) on the alive faces,
    each boundary restricted to alive rows; j = dim down to 1, by clearing:
    the j-faces that were pivot columns of d_{j+1} are left out of d_j."""
    ranks = [0] * (K.dim + 2)
    cleared: list[int] = []
    for j in range(K.dim, 0, -1):
        col, w = K._cofaces(j)[0], j + 1
        rows, take = alive[j - 1], bytearray(alive[j])
        for a in cleared:
            take[a] = 0
        if 1 not in take:
            cleared = []  # skip the pass over the faces of an empty dimension
            continue
        signs = [(-1) ** i for i in range(w)]
        cleared = _sparse_rank([
            {b: s for b, s in zip(col[a * w:a * w + w], signs) if rows[b]}
            for a in compress(range(len(take)), take)], _COMBINE[field])
        ranks[j] = len(cleared)
    return ranks


def boundary_matrix(K: GeneralComplex, j: int, field: str = GF2) -> ChainBoundary:
    """Boundary matrix from j-faces to (j-1)-faces, 1 <= j <= dim."""
    field = normalize_field(field)
    if not 1 <= j <= K.dim:
        raise DomainError(f"boundary dimension {j} out of range [1, {K.dim}]")
    signs = [1] if field == GF2 else [(-1) ** i for i in range(j + 1)]
    pairs = zip(K._cofaces(j)[0], cycle(signs))
    return ChainBoundary(dimension=j, field=field, row_faces=K.faces(j - 1),
                         col_faces=K.faces(j),
                         columns=tuple(zip(*[pairs] * (j + 1))))


def composes_to_zero(K: GeneralComplex, j: int, field: str = GF2) -> bool:
    """Check the chain-complex identity: boundary of boundary vanishes."""
    field = normalize_field(field)
    if not 2 <= j <= K.dim:
        raise DomainError(f"composition needs 2 <= j <= {K.dim}")
    outer = boundary_matrix(K, j - 1, field).columns
    for col in boundary_matrix(K, j, field).columns:
        acc: dict[int, int] = {}
        for r, s in col:
            for rr, ss in outer[r]:
                acc[rr] = acc.get(rr, 0) + s * ss
        if any(v % 2 if field == GF2 else v for v in acc.values()):
            return False
    return True


class BettiVector(_Record):
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
    """beta_j = dim ker d_j - rank d_{j+1} on ``classify.stacking_residual(K)``."""
    if K.is_empty:
        raise DomainError("the empty complex has no Betti numbers")
    field = normalize_field(field)
    return K._memo(("betti", field), lambda: BettiVector(
        field=field, values=_betti(classify.stacking_residual(K), field)))


def _betti(K: GeneralComplex, field: str, alive: list[bytearray] | None = None,
           relative: bool = False) -> tuple[int, ...]:
    """(beta_0, ..., beta_dim) of the alive faces, taken as ``_coreduction``
    takes them: all of K by default, else a subcomplex or, ``relative``, the
    pair (K, subcomplex).  Given masks are consumed; nothing is memoized
    for them."""
    alive, base = _coreduction(K, alive, relative)
    ranks = _top_down_ranks(K, field, alive)
    return tuple(
        alive[j].count(1) - ranks[j] - ranks[j + 1] + (base if j == 0 else 0)
        for j in range(K.dim + 1))


def is_orientable(K: Complex) -> bool:
    """Read the facet orientations off the walk of the top boundary table
    (``classify`` runs it once per complex and memoizes it).

    Adjacent facets must induce opposite orientations on their shared ridge;
    the complex is orientable iff the orientations propagated from facet 0
    close up without contradiction.  Requires a closed pseudomanifold: every
    ridge in exactly two facets (``classify.is_closed``) and a connected dual
    graph; anything else raises ``DomainError``.
    """
    if K.dim < 1:
        raise DomainError("orientability needs dimension >= 1")
    if not classify.is_closed(K):
        raise DomainError("complex is not closed")
    connected, consistent = classify._facet_walk(K)
    if not connected:
        raise DomainError("dual graph is not connected")
    return consistent


class TypeReport(_Record):
    """Homeomorphism type certified through Walkup-class membership."""

    dimension: int
    chi: int
    beta1: int
    orientable: bool
    euler_formula_ok: bool
    type_string: str

    def to_dict(self) -> dict:
        doc = dict(self.__dict__)
        doc["type"] = doc.pop("type_string")
        return doc


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
    return TypeReport(dimension=K.dim, chi=chi, beta1=beta1,
                      orientable=orientable, euler_formula_ok=euler_ok,
                      type_string=sphere_bundle_type(K.dim, beta1, orientable))


def is_tight_bruteforce(K: GeneralComplex, field: str = GF2) -> bool:
    """Check tightness by enumerating every induced subcomplex.

    K is tight when, for every nonempty vertex subset W, each map
    H_j(Y) -> H_j(K) induced by the inclusion of the subcomplex Y on W is
    injective.  With k_j its kernel's dimension, the long exact sequence of
    the pair gives beta_j(K, Y) = beta_j(K) - beta_j(Y) + k_j + k_{j-1} and
    k_dim = 0, so sum beta(Y) + sum beta(K, Y) - sum beta(K) = 2 sum_j k_j,
    and K is tight at W iff this excess is 0.  beta_0(Y) > 1 fails at once
    (K is connected); beta(Y) = (1, 0, ..., 0) passes without the relative
    run.  A negative or odd excess raises ``RuntimeError`` naming W and the
    sums.  Capped at 2^16 subsets; larger inputs must use the certificate
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

    total = sum(betti_numbers(K, field).values)
    faces = [f for j in range(K.dim + 1) for f in K.faces(j)]
    cuts = list(accumulate(K.f_vector(), initial=0))
    # one byte per face of K: through[t] is 1 where the face holds the t-th
    # vertex, as an int, so that one sum counts the vertices outside W
    through = [int.from_bytes(bytes(v in f for f in faces), "little")
               for v in K.vertices]
    outside = sum(through)  # W empty; no byte exceeds the face size

    def masks(table: bytes) -> list[bytearray]:  # faces whose count maps to 1
        kept = bytearray(outside.to_bytes(len(faces), "little").translate(table))
        return [kept[a:b] for a, b in pairwise(cuts)]

    mask = 0
    for k in range(1, 1 << n):  # Gray code: one vertex joins or leaves W
        t = (k & -k).bit_length() - 1
        mask ^= 1 << t
        outside += -through[t] if mask >> t & 1 else through[t]
        inside = _betti(K, field, masks(_ZERO))
        if inside[0] > 1:
            return False
        if sum(inside) == 1:
            continue
        relative = _betti(K, field, masks(_NONZERO), relative=True)
        excess = sum(inside) + sum(relative) - total
        if excess < 0 or excess % 2:
            W = [v for i, v in enumerate(K.vertices) if mask >> i & 1]
            raise RuntimeError(f"Betti sums at W = {W}: {sum(inside)} (Y_W) + "
                               f"{sum(relative)} (K, Y_W) - {total} (K) = "
                               f"{excess}, not even and non-negative")
        if excess:
            return False
    return True


class TightCertificate(_Record):
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
        return dict(self.__dict__)


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
    tight, detail = True, f"{field}-orientable 2-neighborly Walkup-class member"
    if d == 3:
        f0 = K.num_vertices
        tight = 20 * beta1 == (f0 - 4) * (f0 - 5)
        detail = (f"dimension 3 equality 20*beta1 = (f0-4)(f0-5): "
                  f"{20 * beta1} vs {(f0 - 4) * (f0 - 5)}")
    return TightCertificate(
        dimension=d, in_kstar=True, orientable=orientable, field=field,
        tight=tight, strongly_minimal=tight, certified=tight, beta1=beta1,
        detail=detail)
