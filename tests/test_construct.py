"""Tree-family construction, its inverse, and orbit expansion."""

import itertools
import random

import pytest

from walkup import (DomainError, Graph, OrbitPresentation, TreeFamily,
                    catalog, complex_from_tree_family, defines_subset,
                    expand_orbit, is_automorphism, is_pseudomanifold,
                    tree_family_from_complex, verify_hypotheses)
from walkup.construct import HypothesisError
from walkup.catalog import a541_tree_family, presentation
from walkup.generators import random_stacked_ball
from walkup.classify import cone


class TestDefinesSubset:
    def test_u_path_formulas(self):
        fam = a541_tree_family()
        # class blocks of 41: u, x, y, z, w, v
        offsets = {
            0: (0, -1, -2, -3, -4, -5),        # u
            1: (0, -2, -3, -4, -5, -35),       # x
            2: (0, -2, -3, -4, -28, -35),      # y
            3: (0, -2, -3, -21, -28, -35),     # z
            4: (0, -2, -14, -21, -28, -35),    # w
            5: (0, -7, -14, -21, -28, -35),    # v
        }
        for cls, offs in offsets.items():
            for i in (0, 1, 17, 40):
                hat = defines_subset(fam, cls * 41 + i)
                assert hat == frozenset((i + o) % 41 for o in offs)

    def test_vertex_in_no_tree(self):
        fam = TreeFamily(host=Graph(3, [(0, 1)]),
                         trees=(frozenset({0}), frozenset({1})), dimension=1)
        assert defines_subset(fam, 2) == frozenset()

    def test_unknown_vertex(self):
        fam = a541_tree_family()
        with pytest.raises(DomainError):
            defines_subset(fam, 246)


class TestVerifyHypotheses:
    def test_catalog_family_passes(self):
        report = verify_hypotheses(a541_tree_family())
        assert report.passed
        assert report.summary() == "all construction hypotheses hold"

    def test_deleting_a_tree_breaks_coverage_everywhere_on_it(self):
        fam = a541_tree_family()
        removed = fam.trees[40]
        smaller = TreeFamily(host=fam.host, trees=fam.trees[:40],
                             dimension=fam.dimension)
        report = verify_hypotheses(smaller)
        assert not report.passed
        failing = {u for u, _ in report.coverage_failures}
        assert removed <= failing

    def test_non_subtree_witness(self):
        host = Graph(3, [(0, 1), (1, 2)])  # path; {0, 2} is not connected
        fam = TreeFamily(host=host,
                         trees=(frozenset({0, 1}), frozenset({1, 2}),
                                frozenset({0, 2})),
                         dimension=1)
        report = verify_hypotheses(fam)
        assert (2, "does not induce a subtree") in report.tree_failures

    def test_wrong_tree_size_witnessed(self):
        host = Graph(3, [(0, 1), (1, 2), (0, 2)])
        fam = TreeFamily(host=host,
                         trees=(frozenset({0, 1}), frozenset({1, 2}),
                                frozenset({0})),
                         dimension=1)
        report = verify_hypotheses(fam)
        assert any(i == 2 and "expected 2" in why
                   for i, why in report.tree_failures)

    def test_summary_names_each_failing_condition(self):
        # two disjoint one-vertex trees on an edge: conditions 1 to 3 fail
        fam = TreeFamily(Graph(2, [(0, 1)]), (frozenset({0}), frozenset({1})), 1)
        assert verify_hypotheses(fam).summary().splitlines() == [
            "condition 1 (pairwise intersection): 1 disjoint pairs, "
            "e.g. ((0, 1),)",
            "condition 2 (each vertex in exactly d+1 trees): 2 failing "
            "vertices, e.g. ((0, 1), (1, 1))",
            "condition 3 (d shared trees iff edge): 1 failing pairs, "
            "e.g. ((0, 1, 0, True),)",
        ]


def _reference_pair_failures(family: TreeFamily):
    """Condition 3 pair by pair, with frozenset intersections."""
    subsets = [defines_subset(family, u)
               for u in range(family.host.num_vertices)]
    out = []
    for u in range(len(subsets)):
        for v in range(u + 1, len(subsets)):
            shared = len(subsets[u] & subsets[v])
            edge = family.host.has_edge(u, v)
            if (shared == family.dimension) != edge:
                out.append((u, v, shared, edge))
    return tuple(out)


class TestPairConditionAgainstReference:
    """Condition 3 with tree bitmasks gives the witnesses, in the order, of
    the frozenset version, also when host edges are added or removed."""

    @staticmethod
    def _families():
        fam = a541_tree_family()
        yield fam
        rng = random.Random(11)
        edges = list(fam.host.edges)
        non_edges = [(u, v) for u in range(40) for v in range(u + 1, 60)
                     if not fam.host.has_edge(u, v)]
        for removed, added in ((5, 0), (0, 5), (12, 12), (len(edges), 30)):
            kept = rng.sample(edges, len(edges) - removed)
            host = Graph(fam.host.num_vertices,
                         kept + rng.sample(non_edges, added))
            yield TreeFamily(host=host, trees=fam.trees,
                             dimension=fam.dimension)
        yield TreeFamily(host=fam.host, trees=fam.trees[:40],
                         dimension=fam.dimension)
        small = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        for k in range(1, 4):
            trees = tuple(frozenset(rng.sample(range(5), 3)) for _ in range(4))
            yield TreeFamily(host=small, trees=trees, dimension=k)

    def test_same_witnesses_in_the_same_order(self):
        seen_failures = 0
        for family in self._families():
            expected = _reference_pair_failures(family)
            assert verify_hypotheses(family).pair_failures == expected
            seen_failures += len(expected)
        assert seen_failures > 0

    def test_both_kinds_of_failure_witnessed(self):
        fam = a541_tree_family()
        u, v = fam.host.edges[0]
        far = next(w for w in range(fam.host.num_vertices)
                   if w != u and not fam.host.has_edge(u, w))
        host = Graph(fam.host.num_vertices,
                     [e for e in fam.host.edges if e != (u, v)]
                     + [tuple(sorted((u, far)))])
        report = verify_hypotheses(TreeFamily(host=host, trees=fam.trees,
                                              dimension=fam.dimension))
        assert report.pair_failures == _reference_pair_failures(
            TreeFamily(host=host, trees=fam.trees, dimension=fam.dimension))
        kinds = {edge for _, _, _, edge in report.pair_failures}
        assert kinds == {True, False}
        assert (u, v, fam.dimension, False) in report.pair_failures


class TestComplexFromTreeFamily:
    def test_catalog_family_reproduces_orbit_expansion(self):
        K = complex_from_tree_family(a541_tree_family())
        assert K == catalog.get("A5_41")
        assert K.num_facets == 246 and K.num_vertices == 41

    def test_failing_family_raises_with_report(self):
        host = Graph(3, [(0, 1), (1, 2)])
        fam = TreeFamily(host=host,
                         trees=(frozenset({0, 1}), frozenset({1, 2}),
                                frozenset({0, 2})),
                         dimension=1)
        with pytest.raises(HypothesisError) as err:
            complex_from_tree_family(fam)
        assert not err.value.report.passed

    def test_smallest_passing_family_found_by_brute_force(self):
        # exhaustive search over small hosts for a working dimension-1 family
        found = None
        for n_host in range(2, 5):
            all_edges = list(itertools.combinations(range(n_host), 2))
            for k in range(len(all_edges) + 1):
                for edges in itertools.combinations(all_edges, k):
                    host = Graph(n_host, edges)
                    # one tree per host vertex count is forced by counting:
                    # sum of tree sizes = host vertices * (d+1)
                    for n in range(2, 5):
                        if n * (n - 1) != n_host * 2:
                            continue
                        for trees in itertools.combinations(
                                [frozenset(c) for c in
                                 itertools.combinations(range(n_host), n - 1)],
                                n):
                            fam = TreeFamily(host=host, trees=trees,
                                             dimension=1)
                            if verify_hypotheses(fam).passed:
                                found = fam
                                break
                        if found:
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        assert found is not None
        assert found.host.num_vertices == 3  # the triangle host is smallest
        K = complex_from_tree_family(found)
        assert K.dim == 1
        assert is_pseudomanifold(K)

    def test_dual_graph_isomorphic_to_host(self):
        fam = a541_tree_family()
        K = complex_from_tree_family(fam)
        from walkup import dual_graph
        dual = dual_graph(K)
        assert dual.num_edges == fam.host.num_edges
        degs = sorted(dual.degree(v) for v in range(dual.num_vertices))
        host_degs = sorted(fam.host.degree(v)
                           for v in range(fam.host.num_vertices))
        assert degs == host_degs


class TestTreeFamilyFromComplex:
    def test_41_vertex_complex(self):
        fam = tree_family_from_complex(catalog.get("A5_41"))
        assert fam.num_trees == 41
        assert all(len(t) == 36 for t in fam.trees)
        assert fam.host.num_vertices == 246

    def test_21_vertex_complex(self):
        fam = tree_family_from_complex(catalog.get("A5_21"))
        assert fam.num_trees == 21
        assert all(len(t) == 16 for t in fam.trees)

    def test_round_trip_is_identity_on_catalog(self, five_complexes):
        for K in five_complexes.values():
            fam = tree_family_from_complex(K)
            assert complex_from_tree_family(fam) == K

    def test_non_neighborly_member_rejected(self):
        ball = random_stacked_ball(2, 4, seed=11)
        with pytest.raises(DomainError):
            tree_family_from_complex(cone(ball))

    def test_ridges_in_at_most_two_facets_of_construction(self):
        K = complex_from_tree_family(a541_tree_family())
        assert all(len(owners) <= 2 for owners in K.ridge_incidence().values())


class TestExpandOrbit:
    def test_catalog_counts(self):
        assert expand_orbit(presentation("A5_21")).num_facets == 56
        assert expand_orbit(presentation("B5_26")).num_facets == 91

    def test_single_fixed_facet(self):
        pres = OrbitPresentation(classes=("a", "b"), order=1,
                                 basic_facets=((("a", 0), ("b", 0)),))
        K = expand_orbit(pres)
        assert K.num_facets == 1

    def test_malformed_labels_rejected(self):
        with pytest.raises(DomainError):
            OrbitPresentation(classes=("a",), order=7,
                              basic_facets=((("a", 7), ("a", 0)),))
        with pytest.raises(DomainError):
            OrbitPresentation(classes=("a",), order=7,
                              basic_facets=((("b", 0), ("a", 0)),))

    def test_expansion_invariant_under_shift(self):
        for name in ("A5_21", "B5_21", "B5_26", "A5_41"):
            pres = presentation(name)
            K = expand_orbit(pres)
            m = pres.order
            shift = tuple(pres.vertex_id((c, (i + 1) % m))
                          for c in pres.classes for i in range(m))
            assert is_automorphism(K, shift)

    def test_repeated_label_rejected(self):
        pres = OrbitPresentation(classes=("a", "b"), order=3,
                                 basic_facets=((("a", 0), ("b", 1), ("a", 0)),))
        with pytest.raises(DomainError, match="collapses under shift 0"):
            expand_orbit(pres)

    def test_collapsing_facet_rejected(self):
        pres = OrbitPresentation(classes=("a",), order=2,
                                 basic_facets=((("a", 0), ("a", 1)),))
        K = expand_orbit(pres)  # the two shifts give the same facet
        assert K.num_facets == 1
