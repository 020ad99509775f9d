"""Kernel for finite abstract simplicial complexes.

A vertex is a non-negative integer.  A face is the strictly increasing tuple
of its vertices; the sorted tuple is the canonical form used everywhere
(container ordering, matrix indexing, file output), so all derived data is
deterministic.  Complexes are immutable after construction and safe to share
between threads.  Derived facts (face tables, vertex incidence, the boundary
table of each dimension, the face counts, the ridge degrees, vertex
components, the boundary complex, the dual graph, the walk of the top table,
Betti numbers, class membership, the automorphism group) are memoized per
instance: every entry is a deterministic function of the facets and is
written with ``dict.setdefault``, so threads that race on one entry compute
equal values and all of them return the one that was stored.  Equal but
distinct instances keep separate memos.

The boundary table of dimension j, the only code that derives which
(j-1)-faces bound which j-faces, serves every reader of that relation.  Ridge
incidence and the dual graph are views of the top table; one walk of it
decides strong connectivity and orientation, and K(d) membership reads the
link facets of each vertex from it without building the link.  A face count
reads the table of its dimension when one was built and otherwise counts an
unsorted set, so counting builds no table.

``Complex`` is the pure case (all maximal faces of equal dimension) and
carries the geometric operations: links, stars, skeletons, boundary.
``GeneralComplex`` allows maximal faces of mixed dimension; it is what
induced subcomplexes produce and is the input type accepted by the homology
routines.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, combinations, pairwise, repeat
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


class _Record:
    """Immutable record whose fields are the class's own annotations, in
    declaration order.

    Package-internal base of the result types; unlike ``dataclasses`` it
    generates no code, so defining a record costs almost nothing at import.
    A class attribute named like a field is its default.  Construction is
    positional or by keyword and then calls ``__post_init__``; equality and
    hashing go by the field values, within one class.  Fields live in the
    instance ``__dict__``; setting or deleting an attribute raises
    ``AttributeError``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} "
                            f"fields, got {len(args)}")
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls._defaults:
                values[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected or repeated "
                            f"fields {sorted(kwargs)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validation hook; raise to reject the values."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items()) + ")")


class FaceVector(_Record):
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

    def vertex_incidence(self, j: int) -> dict[int, tuple[int, ...]]:
        """Map each vertex, in increasing order, to the sorted positions in
        ``faces(j)`` of the j-faces that contain it.

        The one table through which faces are found by a vertex: a (j-1)-face
        of the link of v is a j-face through v.
        """
        faces = self.faces(j)

        def stars() -> dict[int, tuple[int, ...]]:
            inc: dict[int, list[int]] = {v: [] for v in self._vertices}
            for i, f in enumerate(faces):
                for v in f:
                    inc[v].append(i)
            return {v: tuple(ix) for v, ix in inc.items()}
        return self._memo(("vertex_incidence", j), stars)

    def _cofaces(self, j: int) -> tuple[array, array, array]:
        """The boundary table ``(rows, start, entries)`` of dimension j,
        1 <= j <= dim; memoized.  ``rows[a*(j+1) + i]`` is the position in
        ``faces(j - 1)`` of the a-th j-face's i-th facet, which lacks its
        i-th vertex (sign (-1)^i).  Transposed, the (j-1)-face at position r
        lies in the j-faces ``k // (j+1)``, k in ``entries[start[r]:start[r+1]]``
        (increasing)."""
        def table():
            index = {f: i for i, f in enumerate(self.faces(j - 1))}
            # read backwards, lexicographic j-subsets come in row order
            rows = array("i", map(index.__getitem__, chain.from_iterable(
                map(combinations, reversed(self.faces(j)), repeat(j)))))
            rows.reverse()
            start = [0] * (len(index) + 1)
            del index
            for r in rows:
                start[r + 1] += 1
            start = list(accumulate(start))
            fill, entries = start[:-1], array("i", [0]) * len(rows)
            for k, r in enumerate(rows):
                entries[fill[r]] = k
                fill[r] += 1
            return rows, array("i", start), entries
        return self._memo(("cofaces", j), table)

    def _enumerate_faces(self, k: int) -> tuple[Face, ...]:
        if k == self._dim + 1 and self.is_pure:
            return self._maximal  # already sorted and free of repeats
        if k == 1:
            return tuple((v,) for v in self._vertices)
        found: set[Face] = set()
        for f in self._maximal:
            if len(f) == k:
                found.add(f)
            elif len(f) > k:
                found.update(combinations(f, k))
        return tuple(sorted(found))

    def f_vector(self) -> FaceVector:
        """Face counts per dimension; raises on the empty complex.  Memoized;
        builds no face table (see the module docstring)."""
        if self.is_empty:
            raise DomainError("the empty complex has no face vector")
        return self._memo("f_vector", lambda: FaceVector(
            tuple(map(self._count_faces, range(self._dim + 1)))))

    def _count_faces(self, j: int) -> int:
        table = self._facts.get(("faces", j))
        if table is not None:
            return len(table)
        if j == 0:
            return len(self._vertices)
        if j == self._dim and self.is_pure:
            return len(self._maximal)
        return len(set(chain.from_iterable(
            map(combinations, self._maximal, repeat(j + 1)))))

    @property
    def euler_characteristic(self) -> int:
        return self.f_vector().chi

    def vertex_components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the vertex set, via shared faces."""
        return self._memo("vertex_components", self._vertex_components)

    def _vertex_components(self) -> tuple[tuple[int, ...], ...]:
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

    @classmethod
    def _from_canonical(cls, facets: tuple[Face, ...]) -> "Complex":
        """Package-internal: the complex on ``facets``, which the caller
        guarantees are canonical faces of one size, distinct and sorted.
        Skips ``as_face``."""
        K = object.__new__(cls)
        K._init(facets)
        return K

    @property
    def facets(self) -> tuple[Face, ...]:
        return self._maximal

    @property
    def num_facets(self) -> int:
        return len(self._maximal)

    def ridge_incidence(self) -> dict[Face, tuple[int, ...]]:
        """Map each (dim-1)-face to the sorted indices of facets containing
        it: a view of the top boundary table."""
        def view() -> dict[Face, tuple[int, ...]]:
            d = self._dim
            if d < 1:  # the empty face, in every facet of a 0-complex
                return {(): tuple(range(len(self._maximal)))} if d == 0 else {}
            _, start, entries = self._cofaces(d)
            return {ridge: tuple(k // (d + 1) for k in entries[a:b]) for ridge, (a, b)
                    in zip(self.faces(d - 1), pairwise(start))}
        return self._memo("ridge_incidence", view)

    def _star_facets(self, v: int) -> list[Face]:
        """The facets through the vertex v; empty when v is not a vertex."""
        star = self.vertex_incidence(self._dim).get(v, ()) if self._maximal else ()
        return [self._maximal[i] for i in star]

    def star(self, v: int) -> "Complex":
        """Subcomplex of all facets containing the vertex v."""
        (v,) = as_face((v,))
        facets = self._star_facets(v)
        if not facets:
            raise DomainError(f"vertex {v} not in the complex")
        return Complex(facets)

    def link(self, face: int | Iterable[int]) -> "Complex":
        """Facets containing ``face``, with ``face`` deleted.

        ``face`` may be a single vertex or any face of the complex; the link
        of a facet is the empty complex.  Only the star of the face's first
        vertex is read.
        """
        f = as_face(face if isinstance(face, Iterable) else (face,))
        fs = set(f)
        out = [tuple(v for v in facet if v not in fs)
               for facet in self._star_facets(f[0]) if fs <= set(facet)]
        if not out:
            raise DomainError(f"{f} is not a face of the complex")
        if out == [()]:
            return Complex(())
        # deleting the same vertices from sorted distinct facets that all
        # contain them leaves sorted distinct canonical faces
        return Complex._from_canonical(tuple(out))

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
        _, start, _ = self._cofaces(self._dim)
        boundary = []
        for ridge, (a, b) in zip(self.faces(self._dim - 1), pairwise(start)):
            if b - a > 2:
                raise DomainError(f"not a weak pseudomanifold: face {ridge} "
                                  f"lies in {b - a} facets")
            if b - a == 1:
                boundary.append(ridge)
        # ridges in canonical order are distinct canonical faces of one size
        return Complex._from_canonical(tuple(boundary))

    def skeleton(self, j: int) -> "Complex":
        """Pure j-complex on all j-faces."""
        return Complex(self.faces(j))

    def is_neighborly(self, l: int = 2) -> bool:
        """True iff every l-subset of the vertices is a face."""
        if not 1 <= l <= self._dim + 1:
            raise DomainError(f"l={l} out of range [1, {self._dim + 1}]")
        counts = self._facts.get("f_vector")  # else count that one dimension
        found = self._count_faces(l - 1) if counts is None else counts[l - 1]
        return found == comb(self.num_vertices, l)
