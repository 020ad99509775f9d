"""Recognition procedures: dual graphs, stackedness, Walkup classes, bounds."""

import itertools
import random
from math import comb

import pytest

from walkup import (Complex, DomainError, catalog, check_lower_bounds,
                    classify, cone, dual_graph, in_walkup_class, is_closed,
                    is_pseudomanifold, is_stacked_ball, is_stacked_sphere,
                    is_weak_pseudomanifold)
from walkup.generators import (attach_along_codim2, cross_polytope_boundary,
                               random_stacked_ball, random_tree_complex,
                               standard_ball, standard_sphere)

BALL_SEED = 20406


def dual_edges_by_pairwise_scan(K):
    """Oracle: all-pairs facet intersection scan."""
    edges = set()
    facets = [set(f) for f in K.facets]
    for a in range(len(facets)):
        for b in range(a + 1, len(facets)):
            if len(facets[a] & facets[b]) == K.dim:
                edges.add((a, b))
    return edges


class TestDualGraph:
    def test_simplex_boundary_dual_is_complete(self):
        dual = dual_graph(standard_sphere(4))
        assert dual.num_vertices == 6
        assert set(dual.edges) == set(itertools.combinations(range(6), 2))

    def test_two_facets_single_edge(self):
        dual = dual_graph(Complex([(0, 1, 2, 3), (1, 2, 3, 4)]))
        assert dual.edges == ((0, 1),)

    def test_largest_catalog_dual_size(self):
        dual = dual_graph(catalog.get("A5_41"))
        assert dual.num_vertices == 246
        assert dual.num_edges == 287

    def test_edges_match_pairwise_intersection_scan(self):
        for K in [standard_sphere(3), catalog.get("nonball_example"),
                  catalog.get("A5_21"),
                  random_tree_complex(3, 12, seed=5)]:
            dual = dual_graph(K)
            assert set(dual.edges) == dual_edges_by_pairwise_scan(K)


class TestPseudomanifolds:
    def test_simplex_boundary(self):
        assert is_weak_pseudomanifold(standard_sphere(4))
        assert is_pseudomanifold(standard_sphere(4))
        assert is_closed(standard_sphere(4))

    def test_three_facets_sharing_a_triangle(self):
        K = Complex([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)])
        assert not is_weak_pseudomanifold(K)

    def test_catalog_five_complex_is_weak_pseudomanifold(self):
        K = catalog.get("A5_21")
        assert is_weak_pseudomanifold(K)
        # oracle: direct multiplicity scan over all 4-faces
        counts = {}
        for f in K.facets:
            for ridge in itertools.combinations(f, 5):
                counts[ridge] = counts.get(ridge, 0) + 1
        assert max(counts.values()) <= 2

    def test_disconnected_pair_is_not_pseudomanifold(self):
        assert not is_pseudomanifold(Complex([(0, 1, 2, 3), (4, 5, 6, 7)]))

    def test_91_facet_catalog_complex_is_pseudomanifold(self):
        assert is_pseudomanifold(catalog.get("B5_26"))


class TestStackedBall:
    def test_ring_of_five_tetrahedra_rejected(self):
        K = catalog.get("nonball_example")
        assert dual_graph(K).is_tree()
        assert K.num_vertices != K.num_facets + K.dim
        assert not is_stacked_ball(K)

    def test_single_facet(self):
        assert is_stacked_ball(standard_ball(5))

    def test_vertex_stars_of_41_vertex_complex(self):
        A = catalog.get("A5_41")
        star = A.star(0)
        assert star.num_facets == 36
        assert star.num_vertices == 41
        assert is_stacked_ball(star)

    def test_random_balls_recognized_and_spoiled_ones_rejected(self):
        rng = random.Random(BALL_SEED)
        for _ in range(150):
            d = rng.randint(2, 5)
            m = rng.randint(1, 30)
            ball = random_stacked_ball(d, m, seed=rng.randint(0, 10 ** 9))
            assert is_stacked_ball(ball)
            spoiled = attach_along_codim2(ball, seed=rng.randint(0, 10 ** 9))
            assert not is_stacked_ball(spoiled)

    def test_vertex_bound_for_tree_dual_graphs(self):
        rng = random.Random(BALL_SEED + 1)
        for _ in range(150):
            d = rng.randint(2, 5)
            m = rng.randint(1, 25)
            K = random_tree_complex(d, m, seed=rng.randint(0, 10 ** 9))
            assert dual_graph(K).is_tree()
            assert K.num_vertices <= K.num_facets + K.dim


class TestStackedSphere:
    def test_boundary_simplex_base_case(self):
        assert is_stacked_sphere(standard_sphere(4))

    def test_boundary_of_two_facet_ball(self):
        B = Complex([(0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)])
        assert is_stacked_sphere(B.boundary_complex())

    def test_vertex_links_of_21_vertex_manifold(self):
        M = catalog.get("M4_21")
        for v in M.vertices[:5]:
            assert is_stacked_sphere(M.link(v))

    def test_cross_polytope_rejected(self):
        assert not is_stacked_sphere(cross_polytope_boundary(3))
        assert not is_stacked_sphere(cross_polytope_boundary(4))

    def test_open_complex_rejected_with_error(self):
        with pytest.raises(DomainError):
            is_stacked_sphere(standard_ball(3))

    def test_disconnected_closed_complex_is_not_a_sphere(self):
        two = Complex(list(standard_sphere(2).facets)
                      + [tuple(v + 10 for v in f)
                         for f in standard_sphere(2).facets])
        assert not is_stacked_sphere(two)

    def test_random_sphere_boundaries(self):
        rng = random.Random(BALL_SEED + 2)
        for _ in range(100):
            d = rng.randint(1, 4)
            m = rng.randint(1, 20)
            ball = random_stacked_ball(d + 1, m, seed=rng.randint(0, 10 ** 9))
            assert is_stacked_sphere(ball.boundary_complex())

    def test_cycles_are_stacked_1_spheres(self):
        for n in range(3, 9):
            cyc = Complex([(i, (i + 1) % n) for i in range(n)])
            assert is_stacked_sphere(cyc)

    def test_reduction_skips_a_filled_in_facet_already_present(self):
        # vertices 0 and 1 qualify, but the edge each would fill in is there
        # already, so both are skipped and no other move applies; applying
        # the move anyway would leave three edges on three vertices and read
        # as a triangle
        assert not classify._reverse_stacking([(0, 1), (0, 2), (1, 2), (2, 3)], 1)


class TestCone:
    def test_cone_over_simplex_boundary(self):
        C = cone(standard_sphere(3))
        assert C.dim == 4
        assert C.num_facets == 5
        assert C.num_vertices == 6

    def test_cone_over_stacked_ball_is_stacked(self):
        ball = random_stacked_ball(2, 3, seed=7)
        assert is_stacked_ball(cone(ball))

    def test_cone_over_single_facet(self):
        C = cone(standard_ball(2))
        assert C == standard_ball(3)

    def test_cone_round_trip_equivalence(self):
        rng = random.Random(BALL_SEED + 3)
        for _ in range(40):
            ball = random_stacked_ball(rng.randint(2, 4), rng.randint(1, 12),
                                       seed=rng.randint(0, 10 ** 9))
            assert is_stacked_ball(cone(ball)) == is_stacked_ball(ball)
            spoiled = attach_along_codim2(ball, seed=rng.randint(0, 10 ** 9))
            assert is_stacked_ball(cone(spoiled)) == is_stacked_ball(spoiled)
        non = catalog.get("nonball_example")
        assert is_stacked_ball(cone(non)) == is_stacked_ball(non) == False


class TestWalkupClasses:
    def test_41_vertex_complex_in_kbar(self):
        assert in_walkup_class(catalog.get("A5_41"), "Kbar")

    def test_21_vertex_boundary_in_kstar(self):
        assert in_walkup_class(catalog.get("M4_21"), "Kstar")

    def test_simplex_boundary_in_k(self):
        assert in_walkup_class(standard_sphere(4), "K")

    def test_cross_polytope_not_in_k(self):
        assert not in_walkup_class(cross_polytope_boundary(4), "K")

    def test_open_complex_not_in_k(self):
        assert not in_walkup_class(standard_ball(4), "K")

    def test_kbar_implies_skeleton_equality(self, five_complexes):
        for K in five_complexes.values():
            assert in_walkup_class(K, "Kbar")
            d = K.dim
            assert K.skeleton(d - 2) == K.boundary_complex().skeleton(d - 2)

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            in_walkup_class(standard_sphere(3), "Kplus")


class TestLowerBounds:
    def test_41_vertex_manifold_hits_equality_everywhere(self):
        report = check_lower_bounds(catalog.get("M4_41"), beta1=42)
        assert report.b_lhs == comb(36, 2) == 630
        assert report.b_rhs == 15 * 42 == 630
        assert report.b_equality
        assert report.all_equalities
        assert [e.actual for e in report.entries] == [820, 2050, 2255, 902]

    def test_21_vertex_manifold_equality(self):
        report = check_lower_bounds(catalog.get("M4_21"), beta1=8)
        assert report.b_lhs == comb(16, 2) == 120 == 15 * 8 == report.b_rhs
        assert report.all_equalities

    def test_simplex_boundary_equalities(self):
        K = standard_sphere(4)
        report = check_lower_bounds(K, beta1=0)
        j1 = report.entries[0]
        assert j1.j == 1 and j1.bound == 15 and j1.actual == 15 and j1.equality
        # bound at j=1 agrees with the Euler-characteristic form
        chi = K.euler_characteristic
        assert j1.bound == 5 * 6 - 15 * chi // 2
        assert report.b_lhs == comb(1, 2) == 0 == report.b_rhs
        assert report.all_equalities

    def test_strict_mode_verifies_links(self):
        report = check_lower_bounds(catalog.get("M4_21"), beta1=8,
                                    verify_links=True)
        assert report.manifoldness.startswith("verified")
        bad = check_lower_bounds(cross_polytope_boundary(5), beta1=0,
                                 verify_links=True)
        assert bad.manifoldness == "unverified manifoldness"

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            check_lower_bounds(standard_sphere(2), beta1=0)
