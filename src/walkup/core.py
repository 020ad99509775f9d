"""Kernel for finite abstract simplicial complexes.

A vertex is a non-negative integer.  A face is the strictly increasing tuple
of its vertices; the sorted tuple is the canonical form used everywhere
(container ordering, matrix indexing, file output), so all derived data is
deterministic.  Complexes are immutable after construction and safe to share
between threads.  Derived facts (face tables, ridge incidence, the boundary
complex, Betti numbers, orientability, class membership, the automorphism
group) are memoized per instance: every entry is a deterministic function of
the facets and is written with ``dict.setdefault``, so threads that race on
one entry compute equal values and all of them return the one that was
stored.  Equal but distinct instances keep separate memos.

``Complex`` is the pure case (all maximal faces of equal dimension) and
carries the geometric operations: links, stars, skeletons, boundary.
``GeneralComplex`` allows maximal faces of mixed dimension; it is what
induced subcomplexes produce and is the input type accepted by the homology
routines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Sequence

from .errors import DomainError

Face = tuple[int, ...]


def as_face(vertices: Iterable[int]) -> Face:
    """Canonical face form: strictly increasing tuple of vertex ids.

    Raises ``DomainError`` on duplicate or negative vertices.
    """
    face = tuple(sorted(vertices))
    if not face:
        raise DomainError("a face needs at least one vertex")
    prev = -1
    for v in face:
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError(f"vertex ids must be integers, got {v!r}")
        if v < 0:
            raise DomainError(f"vertex ids must be non-negative, got {v}")
        if v == prev:
            raise DomainError(f"duplicate vertex {v} in face {face}")
        prev = v
    return face


@dataclass(frozen=True)
class FaceVector:
    """Face counts (f_0, ..., f_d) of a complex."""

    counts: tuple[int, ...]

    @property
    def chi(self) -> int:
        """Euler characteristic: the alternating sum of the counts."""
        return sum(c if j % 2 == 0 else -c for j, c in enumerate(self.counts))

    def __getitem__(self, j: int) -> int:
        return self.counts[j]

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)


class GeneralComplex:
    """Simplicial complex given by its maximal faces, possibly of mixed dimension."""

    __slots__ = ("_maximal", "_dim", "_vertices", "_facts", "_hash")

    def __init__(self, maximal_faces: Iterable[Iterable[int]]):
        self._init(self._drop_non_maximal({as_face(f) for f in maximal_faces}))

    def _init(self, maximal: tuple[Face, ...]) -> None:
        """Shared initialiser: store canonical maximal faces, derive the rest."""
        object.__setattr__(self, "_maximal", maximal)
        object.__setattr__(self, "_dim",
                           max((len(f) for f in maximal), default=0) - 1)
        verts: set[int] = set()
        for f in maximal:
            verts.update(f)
        object.__setattr__(self, "_vertices", tuple(sorted(verts)))
        object.__setattr__(self, "_facts", {})
        object.__setattr__(self, "_hash", None)

    def _memo(self, key, compute):
        """The memoized fact ``key``, computed by ``compute()`` on first use.

        Package-internal.  A ``compute`` that raises stores nothing, so a
        rejected input is rejected again on the next call.
        """
        try:
            return self._facts[key]
        except KeyError:
            return self._facts.setdefault(key, compute())

    # slots on a non-dataclass: block accidental attribute writes
    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def _drop_non_maximal(faces: set[Face]) -> tuple[Face, ...]:
        sizes = {len(f) for f in faces}
        if len(sizes) <= 1:
            return tuple(sorted(faces))
        by_len_desc = sorted(faces, key=len, reverse=True)
        kept: list[frozenset[int]] = []
        out: list[Face] = []
        for f in by_len_desc:
            fs = frozenset(f)
            if any(fs < k for k in kept):
                continue
            kept.append(fs)
            out.append(f)
        return tuple(sorted(out, key=lambda f: (len(f), f)))

    @property
    def maximal_faces(self) -> tuple[Face, ...]:
        return self._maximal

    @property
    def dim(self) -> int:
        """Dimension of the largest face; -1 for the empty complex."""
        return self._dim

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def is_empty(self) -> bool:
        return not self._maximal

    @property
    def is_pure(self) -> bool:
        return len({len(f) for f in self._maximal}) <= 1

    def faces(self, j: int) -> tuple[Face, ...]:
        """All j-dimensional faces, sorted; j must lie in [0, dim]."""
        if not 0 <= j <= self._dim:
            raise DomainError(f"face dimension {j} out of range [0, {self._dim}]")
        return self._memo(("faces", j), lambda: self._enumerate_faces(j + 1))

    def _enumerate_faces(self, k: int) -> tuple[Face, ...]:
        found: set[Face] = set()
        for f in self._maximal:
            if len(f) == k:
                found.add(f)
            elif len(f) > k:
                found.update(itertools.combinations(f, k))
        return tuple(sorted(found))

    def f_vector(self) -> FaceVector:
        """Face counts per dimension; raises on the empty complex."""
        if self.is_empty:
            raise DomainError("the empty complex has no face vector")
        return FaceVector(tuple(len(self.faces(j)) for j in range(self._dim + 1)))

    @property
    def euler_characteristic(self) -> int:
        return self.f_vector().chi

    def vertex_components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the vertex set, via shared faces."""
        parent = {v: v for v in self._vertices}

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for f in self._maximal:
            r = find(f[0])
            for v in f[1:]:
                parent[find(v)] = r
        groups: dict[int, list[int]] = {}
        for v in self._vertices:
            groups.setdefault(find(v), []).append(v)
        return tuple(tuple(g) for g in sorted(groups.values()))

    def is_connected(self) -> bool:
        return len(self.vertex_components()) == 1

    def induced_subcomplex(self, vertices: Iterable[int]):
        """All faces spanned by the given vertex subset.

        The result is reported by its maximal faces and may be non-pure; a
        pure result comes back as a ``Complex``.  Requires every requested
        vertex to belong to this complex.
        """
        w = set(vertices)
        unknown = w - set(self._vertices)
        if unknown:
            raise DomainError(f"vertices {sorted(unknown)} not in the complex")
        candidates = {tuple(sorted(set(f) & w)) for f in self._maximal}
        candidates.discard(())
        sub = GeneralComplex(candidates)
        if sub.is_pure and not sub.is_empty:
            return Complex(sub.maximal_faces)
        return sub

    def relabeled(self, mapping: Mapping[int, int] | Sequence[int]):
        """Apply an injective vertex relabeling and return the same kind of complex."""
        image = {v: mapping[v] for v in self._vertices}
        if len(set(image.values())) != len(image):
            raise DomainError("relabeling is not injective on the vertex set")
        return type(self)(tuple(image[v] for v in f) for f in self._maximal)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneralComplex):
            return NotImplemented
        return self._maximal == other._maximal

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._maximal)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(dim={self._dim}, "
                f"vertices={self.num_vertices}, maximal={len(self._maximal)})")


class Complex(GeneralComplex):
    """Pure simplicial complex: every maximal face (facet) has dimension ``dim``."""

    __slots__ = ()

    def __init__(self, facets: Iterable[Iterable[int]]):
        canon = {as_face(f) for f in facets}
        sizes = {len(f) for f in canon}
        if len(sizes) > 1:
            raise DomainError(f"facets of unequal dimension: sizes {sorted(sizes)}")
        # equal-size faces are automatically maximal; skip the subset scan
        self._init(tuple(sorted(canon)))

    @property
    def facets(self) -> tuple[Face, ...]:
        return self._maximal

    @property
    def num_facets(self) -> int:
        return len(self._maximal)

    def ridge_incidence(self) -> dict[Face, tuple[int, ...]]:
        """Map each (dim-1)-face to the sorted indices of facets containing it."""
        return self._memo("ridge_incidence", self._incidence)

    def _incidence(self) -> dict[Face, tuple[int, ...]]:
        inc: dict[Face, list[int]] = {}
        for i, f in enumerate(self._maximal):
            for ridge in itertools.combinations(f, len(f) - 1):
                inc.setdefault(ridge, []).append(i)
        return {r: tuple(ix) for r, ix in inc.items()}

    def star(self, v: int) -> "Complex":
        """Subcomplex of all facets containing the vertex v."""
        if v not in set(self._vertices):
            raise DomainError(f"vertex {v} not in the complex")
        return Complex(f for f in self._maximal if v in f)

    def link(self, face: int | Iterable[int]) -> "Complex":
        """Facets containing ``face``, with ``face`` deleted.

        ``face`` may be a single vertex or any face of the complex; the link
        of a facet is the empty complex.
        """
        f = as_face((face,) if isinstance(face, int) else face)
        fs = set(f)
        out = [tuple(v for v in facet if v not in fs)
               for facet in self._maximal if fs <= set(facet)]
        if not out:
            raise DomainError(f"{f} is not a face of the complex")
        if out == [()]:
            return Complex(())
        return Complex(out)

    def boundary_complex(self) -> "Complex":
        """Pure (dim-1)-complex of the ridges lying in exactly one facet.

        Requires a weak pseudomanifold (every ridge in at most two facets);
        returns the empty complex when the input is closed.  Memoized, so
        the boundary's own memo (its automorphism group, say) is kept too.
        """
        return self._memo("boundary_complex", self._boundary)

    def _boundary(self) -> "Complex":
        if self.is_empty or self._dim == 0:
            return Complex(())
        boundary = []
        for ridge, owners in self.ridge_incidence().items():
            if len(owners) > 2:
                raise DomainError(
                    f"not a weak pseudomanifold: face {ridge} lies in "
                    f"{len(owners)} facets")
            if len(owners) == 1:
                boundary.append(ridge)
        return Complex(boundary)

    def skeleton(self, j: int) -> "Complex":
        """Pure j-complex on all j-faces."""
        return Complex(self.faces(j))

    def is_neighborly(self, l: int = 2) -> bool:
        """True iff every l-subset of the vertices is a face."""
        if not 1 <= l <= self._dim + 1:
            raise DomainError(f"l={l} out of range [1, {self._dim + 1}]")
        return len(self.faces(l - 1)) == comb(self.num_vertices, l)
