"""Built-in generators for the named complexes and their expected properties.

The four 5-dimensional complexes are produced from their cyclic orbit
presentations (label class k of group order m occupies vertex ids
[k*m, (k+1)*m), so expansions are bit-reproducible); their boundaries are
the four closed 4-manifolds.  ``expected`` returns each entry's record.

Entry names are stable ASCII identifiers (``A5_21``, ``M4_41``, ...); the
parametrized families are addressed as ``standard_sphere(d)`` and
``standard_ball(d)``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb

from . import construct, generators
from .construct import OrbitPresentation, TreeFamily, basic_facets_from_strings
from .core import Complex, _Record
from .errors import DomainError
from .graphs import Graph

ORBIT_BASIC_FACETS: dict[str, tuple[tuple[str, ...], int, tuple[tuple[str, str], ...]]] = {
    # name -> (label classes, group order, ((facet name, labeled vertices), ...))
    "A5_21": (("a", "b", "c"), 7, (
        ("sigma", "a0 a1 a2 b0 b1 c0"),
        ("kappa", "a1 a2 b0 b1 b2 c0"),
        ("tau",   "a1 a2 a3 b0 b1 b2"),
        ("alpha", "a0 a1 b0 b1 c0 c3"),
        ("beta",  "a0 a1 b0 b3 c0 c3"),
        ("mu",    "a0 b0 b3 c0 c3 c4"),
        ("nu",    "a0 a3 b3 c0 c3 c4"),
        ("gamma", "a3 b3 c0 c3 c4 c6"),
    )),
    "B5_21": (("a", "b", "c"), 7, (
        ("sigma", "a0 a1 a2 b0 b1 c0"),
        ("kappa", "a0 a1 a2 b1 b2 c0"),
        ("tau",   "a0 a1 a2 a3 b1 b2"),
        ("alpha", "a0 a1 b0 b1 c0 c3"),
        ("beta",  "a0 b0 b1 b3 c0 c3"),
        ("mu",    "a0 b0 b3 c0 c3 c4"),
        ("nu",    "a3 b0 b3 c0 c3 c4"),
        ("gamma", "a3 b3 c0 c3 c4 c6"),
    )),
    "B5_26": (("a", "b"), 13, (
        ("sigma", "a0 a10 a11 a12 b9 b10"),
        ("tau",   "a0 a1 a10 a11 a12 b10"),
        ("alpha", "a0 a11 a12 b5 b9 b10"),
        ("beta",  "a0 a11 a12 b2 b5 b10"),
        ("gamma", "a0 a7 a12 b2 b5 b10"),
        ("mu",    "a7 a12 b0 b2 b5 b10"),
        ("delta", "a7 b0 b2 b5 b8 b10"),
    )),
    "A5_41": (("a",), 41, (
        ("sigma", "a36 a37 a38 a39 a40 a0"),
        ("alpha", "a36 a37 a38 a39 a0 a6"),
        ("beta",  "a37 a38 a39 a0 a6 a13"),
        ("gamma", "a38 a39 a0 a6 a13 a20"),
        ("delta", "a39 a0 a6 a13 a20 a27"),
        ("mu",    "a6 a13 a20 a27 a34 a0"),
    )),
}

BOUNDARY_OF = {
    "M4_21": "A5_21",
    "N4_21": "B5_21",
    "N4_26": "B5_26",
    "M4_41": "A5_41",
}

# offsets of the tree through host-path index i, per path class
TREE_OFFSETS = {
    "u": (0, 1, 2, 3, 4, 5),
    "x": (0, 2, 3, 4, 5, 35),
    "y": (0, 2, 3, 4, 28, 35),
    "z": (0, 2, 3, 21, 28, 35),
    "w": (0, 2, 14, 21, 28, 35),
    "v": (0, 7, 14, 21, 28, 35),
}


class CatalogEntry(_Record):
    """Reference record for a catalog complex (the summary-table row)."""

    name: str
    kind: str
    f_vector: tuple[int, ...] | None = None
    chi: int | None = None
    beta1: int | None = None
    aut_order: int | None = None
    aut_structure: str | None = None
    orientable: bool | None = None
    type_string: str | None = None
    facet_count: int | None = None


_EXPECTED: dict[str, CatalogEntry] = {
    "M4_21": CatalogEntry(
        name="M4_21", kind="boundary", f_vector=(21, 210, 490, 525, 210),
        chi=-14, beta1=8, aut_order=7, aut_structure="Z_7", orientable=True,
        type_string="(S3xS1)^#8", facet_count=210),
    "N4_21": CatalogEntry(
        name="N4_21", kind="boundary", f_vector=(21, 210, 490, 525, 210),
        chi=-14, beta1=8, aut_order=7, aut_structure="Z_7", orientable=False,
        type_string="(S3xS1)^#8 twisted", facet_count=210),
    "N4_26": CatalogEntry(
        name="N4_26", kind="boundary", f_vector=(26, 325, 780, 845, 338),
        chi=-26, beta1=14, aut_order=13, aut_structure="Z_13", orientable=False,
        type_string="(S3xS1)^#14 twisted", facet_count=338),
    "M4_41": CatalogEntry(
        name="M4_41", kind="boundary", f_vector=(41, 820, 2050, 2255, 902),
        chi=-82, beta1=42, aut_order=41, aut_structure="Z_41", orientable=True,
        type_string="(S3xS1)^#42", facet_count=902),
    "A5_21": CatalogEntry(
        name="A5_21", kind="orbit", facet_count=56, aut_order=7,
        aut_structure="Z_7"),
    "B5_21": CatalogEntry(
        name="B5_21", kind="orbit", facet_count=56, aut_order=7,
        aut_structure="Z_7"),
    "B5_26": CatalogEntry(
        name="B5_26", kind="orbit", facet_count=91, aut_order=13,
        aut_structure="Z_13"),
    "A5_41": CatalogEntry(
        name="A5_41", kind="orbit", facet_count=246, aut_order=41,
        aut_structure="Z_41"),
    "S4_6": CatalogEntry(
        name="S4_6", kind="formula", f_vector=(6, 15, 20, 15, 6), chi=2,
        beta1=0, aut_order=720, orientable=True, type_string="S4",
        facet_count=6),
    "nonball_example": CatalogEntry(
        name="nonball_example", kind="formula", f_vector=(7, 18, 16, 5),
        chi=0, facet_count=5),
}

TABLE1_NAMES = ("M4_21", "N4_21", "N4_26", "M4_41")

_PARAM_RE = re.compile(r"^(standard_sphere|standard_ball)\((\d+)\)$")


def presentation(name: str) -> OrbitPresentation:
    """Orbit presentation of one of the four 5-complexes."""
    if name not in ORBIT_BASIC_FACETS:
        raise DomainError(f"no orbit presentation for {name!r}")
    classes, order, rows = ORBIT_BASIC_FACETS[name]
    return OrbitPresentation(
        classes=classes, order=order,
        basic_facets=basic_facets_from_strings(r for _, r in rows))


def names() -> tuple[str, ...]:
    fixed = sorted(set(_EXPECTED) | {"A5_41_tree_family"})
    return tuple(fixed) + ("standard_sphere(d)", "standard_ball(d)")


@lru_cache(maxsize=None)
def get(name: str):
    """Deterministic complex (or tree family) for a catalog name."""
    if name in ORBIT_BASIC_FACETS:
        return construct.expand_orbit(presentation(name))
    if name in BOUNDARY_OF:
        return get(BOUNDARY_OF[name]).boundary_complex()
    if name == "S4_6":
        return generators.standard_sphere(4)
    if name == "nonball_example":
        # ring of five tetrahedra: the dual graph is a path, yet the
        # carrier is not a ball (the ends of the ring share a vertex)
        return Complex([(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5),
                        (3, 4, 5, 6), (0, 4, 5, 6)])
    if name == "A5_41_tree_family":
        return a541_tree_family()
    m = _PARAM_RE.match(name)
    if m:
        d = int(m.group(2))
        maker = (generators.standard_sphere if m.group(1) == "standard_sphere"
                 else generators.standard_ball)
        return maker(d)
    raise DomainError(f"unknown catalog name {name!r}")


def expected(name: str) -> CatalogEntry:
    """Reference record for a catalog name."""
    if name in _EXPECTED:
        return _EXPECTED[name]
    m = _PARAM_RE.match(name)
    if m:
        d = int(m.group(2))
        # the boundary of the (d+1)-simplex, or the d-simplex itself
        n = d + 2 if m.group(1) == "standard_sphere" else d + 1
        fv = tuple(comb(n, j + 1) for j in range(d + 1))
        if m.group(1) == "standard_sphere":
            return CatalogEntry(name=name, kind="formula", f_vector=fv,
                                chi=2 if d % 2 == 0 else 0, beta1=0,
                                orientable=True, type_string=f"S{d}",
                                facet_count=d + 2)
        return CatalogEntry(name=name, kind="formula", f_vector=fv, chi=1,
                            beta1=0, facet_count=1)
    raise DomainError(f"unknown catalog name {name!r}")


def _host_vertex(cls: str, i: int) -> int:
    order = ("u", "x", "y", "z", "w", "v")
    return order.index(cls) * 41 + i % 41


@lru_cache(maxsize=1)
def a541_tree_family() -> TreeFamily:
    """Host graph (two 41-cycles joined by 41 six-vertex paths) and its trees.

    Tree i is induced on 36 host vertices: six consecutive u's, six v's in
    steps of seven, and the path vertices at the offsets in
    ``TREE_OFFSETS``; the subsets defined by the host vertices reproduce the
    orbit facets of the 41-vertex complex.
    """
    edges = []
    for i in range(41):
        edges.append((_host_vertex("u", i), _host_vertex("u", i + 1)))
        edges.append((_host_vertex("v", i), _host_vertex("v", i + 7)))
        path = ("u", "x", "y", "z", "w", "v")
        for a, b in zip(path, path[1:]):
            edges.append((_host_vertex(a, i), _host_vertex(b, i)))
    host = Graph(246, edges)
    trees = []
    for i in range(41):
        members = set()
        for cls, offsets in TREE_OFFSETS.items():
            for off in offsets:
                members.add(_host_vertex(cls, i + off))
        trees.append(frozenset(members))
    return TreeFamily(host=host, trees=tuple(trees), dimension=5)

