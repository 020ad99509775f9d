"""Building neighborly Kbar-members from subtree families, and back.

A ``TreeFamily`` is a host graph together with one vertex subset per tree;
when every subset induces a subtree of the right size, the trees pairwise
intersect, every host vertex lies in exactly d+1 trees, and two host
vertices share exactly d trees precisely when they are adjacent, the family
defines a pure d-complex: the facet attached to host vertex u is the set of
tree indices containing u.  The construction inverts cleanly: for a
neighborly Kbar-member, the facets containing a fixed vertex form an induced
subtree of the dual graph, and collecting those subtrees recovers a family
the construction maps back to the same complex.

``OrbitPresentation`` is the compact generator format for complexes with a
cyclic symmetry: a handful of basic facets over indexed label classes,
expanded by shifting every index modulo the group order.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import Iterable

from . import classify
from .core import Complex, _Record
from .errors import DomainError
from .graphs import Graph


class TreeFamily(_Record):
    """Host graph plus one vertex subset per tree; ``dimension`` is d."""

    host: Graph
    trees: tuple[frozenset[int], ...]
    dimension: int

    @property
    def num_trees(self) -> int:
        return len(self.trees)

    def __post_init__(self):
        for i, t in enumerate(self.trees):
            bad = [v for v in t if not 0 <= v < self.host.num_vertices]
            if bad:
                raise DomainError(f"tree {i} has vertices {sorted(bad)} "
                                  "outside the host graph")
        if self.dimension < 1:
            raise DomainError("dimension must be at least 1")


def defines_subset(family: TreeFamily, u: int) -> frozenset[int]:
    """Indices of the trees containing host vertex u."""
    if not 0 <= u < family.host.num_vertices:
        raise DomainError(f"host vertex {u} out of range")
    return frozenset(i for i, t in enumerate(family.trees) if u in t)


class HypothesisReport(_Record):
    """Pass/fail per construction hypothesis, with counterexample witnesses.

    Condition 0: every tree subset induces a subtree with n-d vertices.
    Condition 1: the trees pairwise intersect.
    Condition 2: every host vertex lies in exactly d+1 trees.
    Condition 3: two host vertices lie together in exactly d trees iff they
    are adjacent in the host graph.
    """

    tree_failures: tuple[tuple[int, str], ...]
    intersection_failures: tuple[tuple[int, int], ...]
    coverage_failures: tuple[tuple[int, int], ...]
    pair_failures: tuple[tuple[int, int, int, bool], ...]

    @property
    def passed(self) -> bool:
        return not (self.tree_failures or self.intersection_failures
                    or self.coverage_failures or self.pair_failures)

    def summary(self) -> str:
        if self.passed:
            return "all construction hypotheses hold"
        lines = []
        if self.tree_failures:
            lines.append(f"condition 0 (induced subtrees of size n-d): "
                         f"{len(self.tree_failures)} failing trees, e.g. "
                         f"{self.tree_failures[:5]}")
        if self.intersection_failures:
            lines.append(f"condition 1 (pairwise intersection): "
                         f"{len(self.intersection_failures)} disjoint pairs, "
                         f"e.g. {self.intersection_failures[:5]}")
        if self.coverage_failures:
            lines.append(f"condition 2 (each vertex in exactly d+1 trees): "
                         f"{len(self.coverage_failures)} failing vertices, "
                         f"e.g. {self.coverage_failures[:5]}")
        if self.pair_failures:
            lines.append(f"condition 3 (d shared trees iff edge): "
                         f"{len(self.pair_failures)} failing pairs, e.g. "
                         f"{self.pair_failures[:5]}")
        return "\n".join(lines)


def verify_hypotheses(family: TreeFamily) -> HypothesisReport:
    """Check all construction hypotheses, collecting witnesses instead of failing fast."""
    host = family.host
    trees = family.trees
    n = len(trees)
    d = family.dimension

    tree_failures = []
    for i, t in enumerate(trees):
        if len(t) != n - d:
            tree_failures.append((i, f"has {len(t)} vertices, expected {n - d}"))
        elif not host.is_induced_subtree(t):
            tree_failures.append((i, "does not induce a subtree"))

    subsets = [defines_subset(family, u) for u in range(host.num_vertices)]

    covered = {pair for hat in subsets for pair in combinations(sorted(hat), 2)}
    intersection_failures = [(i, j) for i in range(n) for j in range(i + 1, n)
                             if (i, j) not in covered]

    coverage_failures = [(u, len(hat)) for u, hat in enumerate(subsets)
                         if len(hat) != d + 1]

    # trees through each host vertex as a bitmask: shared trees are one AND
    masks = [sum(1 << i for i in hat) for hat in subsets]
    pair_failures = []
    for u, mask in enumerate(masks):
        neighbors = host.neighbors(u)
        shared = [(mask & m).bit_count() for m in masks[u + 1:]]
        # a pair fails when exactly one of "d shared trees" and "edge" holds
        d_shared = {v for v, s in enumerate(shared, u + 1) if s == d}
        for v in sorted(d_shared.symmetric_difference(
                w for w in neighbors if w > u)):
            pair_failures.append((u, v, shared[v - u - 1], v in neighbors))

    return HypothesisReport(
        tree_failures=tuple(tree_failures),
        intersection_failures=tuple(intersection_failures),
        coverage_failures=tuple(coverage_failures),
        pair_failures=tuple(pair_failures),
    )


class HypothesisError(DomainError):
    """Raised when a construction is attempted from a failing family."""

    def __init__(self, report: HypothesisReport):
        self.report = report
        super().__init__("tree family fails the construction hypotheses:\n"
                         + report.summary())


def complex_from_tree_family(family: TreeFamily) -> Complex:
    """Build the complex whose facets are the subsets defined by host vertices.

    Tree indices become vertex ids directly, so the facet attached to host
    vertex u is literally the set of trees through u.  The advertised
    conclusions are asserted on the result: a d-pseudomanifold, 2-neighborly,
    in Kbar(d), with dual graph isomorphic to the host.
    """
    report = verify_hypotheses(family)
    if not report.passed:
        raise HypothesisError(report)
    host = family.host
    d = family.dimension
    hats = [tuple(sorted(defines_subset(family, u)))
            for u in range(host.num_vertices)]
    if len(set(hats)) != len(hats):
        raise DomainError("two host vertices define the same facet")
    K = Complex(hats)
    assert K.dim == d
    assert classify.is_pseudomanifold(K)
    assert K.is_neighborly(2)
    # vertex links in dimension 1 are bare point sets; the class test starts at 2
    assert d < 2 or classify.in_walkup_class(K, "Kbar")
    facet_index = {f: i for i, f in enumerate(K.facets)}
    dual = classify.dual_graph(K)
    image_edges = {tuple(sorted((facet_index[hats[u]], facet_index[hats[v]])))
                   for u, v in host.edges}
    assert image_edges == set(dual.edges), \
        "dual graph does not match the host graph"
    return K


def tree_family_from_complex(M: Complex) -> TreeFamily:
    """Recover the subtree family of a neighborly Kbar-member.

    The i-th tree is the set of facet indices containing the i-th smallest
    vertex; the host is the dual graph.  The output always satisfies the
    construction hypotheses, so the round trip through
    ``complex_from_tree_family`` reproduces the complex (up to the canonical
    dense re-indexing of its vertices).
    """
    if M.dim < 2:
        raise DomainError("tree family recovery needs dimension >= 2")
    if not M.is_neighborly(2):
        raise DomainError("complex is not 2-neighborly")
    if not classify.in_walkup_class(M, "Kbar"):
        raise DomainError("complex is not in Kbar of its dimension")
    host = classify.dual_graph(M)
    trees = tuple(frozenset(star) for star in M.vertex_incidence(M.dim).values())
    family = TreeFamily(host=host, trees=trees, dimension=M.dim)
    report = verify_hypotheses(family)
    assert report.passed, "recovered family unexpectedly fails the hypotheses"
    return family


_LABEL_RE = re.compile(r"^([A-Za-z]+)(\d+)$")

Label = tuple[str, int]


class OrbitPresentation(_Record):
    """Cyclic-orbit generator: label classes, group order, basic facets."""

    classes: tuple[str, ...]
    order: int
    basic_facets: tuple[tuple[Label, ...], ...]

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("group order must be positive")
        if len(set(self.classes)) != len(self.classes):
            raise DomainError("duplicate label classes")
        for facet in self.basic_facets:
            for cls, idx in facet:
                if cls not in self.classes:
                    raise DomainError(f"unknown label class {cls!r}")
                if not 0 <= idx < self.order:
                    raise DomainError(
                        f"label index {cls}{idx} outside [0, {self.order})")

    def vertex_id(self, label: Label) -> int:
        """Label class k occupies the id block [k*order, (k+1)*order)."""
        cls, idx = label
        return self.classes.index(cls) * self.order + idx

    @property
    def num_vertices(self) -> int:
        return len(self.classes) * self.order


def parse_label(token: str) -> Label:
    m = _LABEL_RE.match(token)
    if not m:
        raise DomainError(f"malformed label token {token!r}")
    return (m.group(1), int(m.group(2)))


def basic_facets_from_strings(rows: Iterable[str]) -> tuple[tuple[Label, ...], ...]:
    return tuple(tuple(parse_label(tok) for tok in row.split()) for row in rows)


def expand_orbit(presentation: OrbitPresentation) -> Complex:
    """Apply every shift of the cyclic group to the basic facets.

    Raises ``DomainError`` when a shifted facet repeats a vertex.
    """
    m = presentation.order
    facets = []
    for facet in presentation.basic_facets:
        # a shift permutes the labels, so a facet collapses under some
        # shift exactly when it repeats a label, that is under shift 0
        if len(set(facet)) != len(facet):
            raise DomainError(f"facet {facet} collapses under shift 0")
        facets.extend([presentation.vertex_id((cls, (idx + shift) % m))
                       for cls, idx in facet] for shift in range(m))
    return Complex(facets)
