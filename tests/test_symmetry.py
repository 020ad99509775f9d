"""Automorphism search: prescribed actions, full groups, relabeling behavior."""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from walkup import (CapacityError, Complex, DomainError, GroupDescription,
                    automorphism_group, catalog, group_closure, group_elements,
                    is_automorphism, symmetry, verify_aut_equality)
from walkup.catalog import presentation
from walkup.construct import orbit_shift_permutation
from walkup.generators import random_stacked_ball, standard_sphere
from walkup.symmetry import compose, inverse, permutation_order

RELABEL_SEED = 90125
# automorphism_group(K).to_dict() for the nine catalog complexes, as
# reported by the element-enumerating search this one replaced
PINNED_GROUPS = json.loads(
    (Path(__file__).parent / "aut_catalog.json").read_text())


def random_permutation(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


class TestIsAutomorphism:
    def test_identity(self):
        K = catalog.get("B5_26")
        assert is_automorphism(K, tuple(range(K.num_vertices)))

    def test_shift_on_41_vertex_complex(self):
        K = catalog.get("A5_41")
        shift = tuple((i + 1) % 41 for i in range(41))
        assert is_automorphism(K, shift)

    def test_any_transposition_on_simplex_boundary(self):
        S = standard_sphere(4)
        p = list(range(6))
        p[0], p[3] = p[3], p[0]
        assert is_automorphism(S, tuple(p))

    def test_non_automorphism(self):
        K = catalog.get("A5_21")
        p = list(range(21))
        p[0], p[1] = p[1], p[0]
        assert not is_automorphism(K, tuple(p))

    def test_length_mismatch_raises(self):
        with pytest.raises(DomainError):
            is_automorphism(standard_sphere(2), (0, 1, 2))

    def test_non_bijection_raises(self):
        with pytest.raises(DomainError):
            is_automorphism(standard_sphere(2), (0, 0, 1, 2))


class TestAutomorphismGroup:
    def test_expected_orders(self):
        for name in ("A5_21", "B5_21", "B5_26", "A5_41",
                     "M4_21", "N4_21", "N4_26", "M4_41"):
            desc = automorphism_group(catalog.get(name))
            want = catalog.expected(name)
            assert desc.order == want.aut_order, name
            assert desc.structure == want.aut_structure, name

    def test_simplex_boundary_full_symmetric_group(self):
        desc = automorphism_group(standard_sphere(4))
        assert desc.order == 720
        assert desc.structure is None  # not cyclic

    def test_generators_are_automorphisms_and_generate(self):
        for name in ("B5_26", "M4_21"):
            K = catalog.get(name)
            desc = automorphism_group(K)
            for g in desc.generators:
                assert is_automorphism(K, g)
            assert len(group_closure(desc.generators, K.num_vertices)) \
                == desc.order

    def test_every_reported_element_is_an_automorphism(self):
        for K in (catalog.get("A5_21"), standard_sphere(3)):
            for p in group_elements(K):
                assert is_automorphism(K, p)

    def test_known_non_cyclic_group_orders(self):
        from walkup.generators import cross_polytope_boundary
        # signed axis permutations: 2^d * d!
        assert automorphism_group(cross_polytope_boundary(3)).order == 48
        assert automorphism_group(cross_polytope_boundary(4)).order == 384
        # interchangeable components: order 3! * 3! * 2
        two = Complex([(0, 1, 2), (3, 4, 5)])
        assert automorphism_group(two).order == 72
        # dihedral symmetry of the square
        c4 = Complex([(0, 1), (1, 2), (2, 3), (0, 3)])
        assert automorphism_group(c4).order == 8

    def test_prescribed_orbit_generator_is_found(self):
        for name in ("A5_21", "B5_21", "B5_26", "A5_41"):
            K = catalog.get(name)
            shift = orbit_shift_permutation(presentation(name))
            assert is_automorphism(K, shift)
            assert shift in group_elements(K)

    def test_capacity_guard(self):
        big = random_stacked_ball(2, 70, seed=0)
        dense = big.relabeled({v: i for i, v in enumerate(big.vertices)})
        with pytest.raises(CapacityError):
            automorphism_group(dense)

    def test_non_dense_ids_rejected(self):
        K = Complex([(0, 2, 3)])
        with pytest.raises(DomainError):
            automorphism_group(K)

    def test_trivial_group(self):
        # a star with arms of pairwise different lengths has no symmetry
        K = Complex([(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        desc = automorphism_group(K)
        assert desc.order == 1
        assert desc.structure == "Z_1"
        assert desc.generators == ()

    def test_abelian_but_not_cyclic(self):
        # swap of the lone edge times reflection of the path: Z_2 x Z_2
        desc = automorphism_group(Complex([(0, 1), (2, 3), (3, 4)]))
        assert desc.order == 4
        assert desc.structure is None

    def test_non_abelian_catalog_group(self):
        desc = automorphism_group(catalog.get("S4_6"))
        assert desc.order == 720
        assert desc.structure is None

    def test_non_abelian_despite_exponent_equal_to_order(self):
        # a ring of three triangles: S_3, generated by an involution and a
        # 3-cycle that do not commute, so lcm 6 alone would claim Z_6
        desc = automorphism_group(Complex([(0, 1, 3), (1, 4, 5), (2, 3, 4)]))
        assert desc.order == 6
        assert sorted(map(permutation_order, desc.generators)) == [2, 3]
        assert desc.structure is None

    @pytest.mark.parametrize("name", sorted(PINNED_GROUPS))
    def test_reported_group_is_pinned(self, name):
        K = catalog.get(name)
        desc = automorphism_group(K)
        assert desc.to_dict() == PINNED_GROUPS[name]
        assert all(is_automorphism(K, g) for g in desc.generators)

    def test_refinement_work_is_bounded(self, monkeypatch):
        real = symmetry._refine_pair
        calls = []

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(symmetry, "_refine_pair", counting)
        K = Complex(catalog.get("M4_41").facets)  # a fresh, empty memo
        assert automorphism_group(K).order == 41
        assert len(calls) <= 10

    def test_refinement_divergence_prunes_a_branch(self, monkeypatch):
        # C6 + C3 + C3: all 12 vertices have degree 2, so colour refinement
        # cannot split the uniform start, and mapping a hexagon vertex onto
        # a triangle vertex is refuted only after individualizing further
        real = symmetry._refine_pair
        diverged = []

        def counting(*args):
            result = real(*args)
            diverged.append(result is None)
            return result

        monkeypatch.setattr(symmetry, "_refine_pair", counting)
        cycles = [(0, 6), (6, 9), (9, 12)]  # (first vertex, end) of each cycle
        K = Complex(tuple(sorted((a + i, a + (i + 1) % (b - a))))
                    for a, b in cycles for i in range(b - a))
        assert K.vertices == tuple(range(12)) and K.num_facets == 12
        # |D_6| * |D_3|^2 * 2 for the swap of the two triangles
        assert automorphism_group(K).order == 12 * 6 * 6 * 2
        assert any(diverged)

    def test_search_is_exact_when_refinement_prunes_nothing(self, monkeypatch):
        # a refinement that compares only colour multisets is sound but
        # weak, so the search meets leaves that are not automorphisms and
        # subtrees with none; the leaf check alone must keep it exact
        def coarse(dom, cod, pinv, n):
            if sorted(dom) != sorted(cod):
                return None
            intern = {c: i for i, c in enumerate(sorted(set(dom)))}
            return [intern[c] for c in dom], [intern[c] for c in cod]

        monkeypatch.setattr(symmetry, "_refine_pair", coarse)
        dead_ends = []

        def tracer(frame, event, arg):
            if frame.f_code.co_name != "first_automorphism":
                return None
            frame.f_trace_lines = False

            def local(frame, event, arg):
                # None with a target cell: every child of a branch failed
                if event == "return" and arg is None \
                        and frame.f_locals.get("step") is not None:
                    dead_ends.append(1)
            return local

        rng = random.Random(RELABEL_SEED + 1)
        for _ in range(24):
            n = rng.randint(4, 7)
            k = rng.randint(2, 3)
            faces = rng.sample(list(itertools.combinations(range(n), k)),
                               rng.randint(n - 2, n + 2))
            K = Complex(faces)
            if K.vertices != tuple(range(K.num_vertices)):
                continue
            facets = set(K.facets)
            brute = sum(all(tuple(sorted(p[v] for v in f)) in facets
                            for f in facets)
                        for p in itertools.permutations(range(K.num_vertices)))
            previous = sys.gettrace()
            if not dead_ends:  # trace until the branch has been seen
                sys.settrace(tracer)
            try:
                desc = automorphism_group(K)
            finally:
                sys.settrace(previous)
            assert desc.order == brute
            assert all(is_automorphism(K, g) for g in desc.generators)
        assert dead_ends

    def test_determinism_across_recomputation(self):
        K = catalog.get("B5_26")
        first = automorphism_group(K).to_dict()
        second = automorphism_group(Complex(K.facets)).to_dict()
        assert first == second


class TestRelabeling:
    def test_order_invariant_under_relabeling(self):
        rng = random.Random(RELABEL_SEED)
        K = catalog.get("A5_21")
        base = automorphism_group(K).order
        for _ in range(5):
            q = random_permutation(21, rng)
            moved = K.relabeled(q)
            assert automorphism_group(moved).order == base

    def test_conjugation_of_element_sets(self):
        rng = random.Random(RELABEL_SEED + 1)
        K = catalog.get("A5_21")
        elements = group_elements(K)
        q = random_permutation(21, rng)
        moved = K.relabeled(q)
        conjugated = {compose(q, compose(p, inverse(q))) for p in elements}
        assert group_elements(moved) == conjugated

    def test_small_complex_conjugation(self):
        rng = random.Random(RELABEL_SEED + 2)
        S = standard_sphere(2)
        elements = group_elements(S)
        assert len(elements) == 24
        q = random_permutation(4, rng)
        assert group_elements(S.relabeled(q)) == \
            {compose(q, compose(p, inverse(q))) for p in elements}


class TestAutEquality:
    def test_equality_for_all_catalog_five_complexes(self, five_complexes):
        for K in five_complexes.values():
            assert verify_aut_equality(K)

    def test_easy_inclusion(self, five_complexes):
        for K in five_complexes.values():
            boundary_elements = group_elements(K.boundary_complex())
            assert group_elements(K) <= boundary_elements

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            verify_aut_equality(standard_sphere(3))

    def test_equal_orders_alone_do_not_pass(self, monkeypatch):
        # report the boundary's group conjugated by the swap (0 1): same
        # order, but its generator no longer preserves the facets of M
        M = catalog.get("A5_21")
        boundary = M.boundary_complex()
        swap = (1, 0) + tuple(range(2, M.num_vertices))
        real = symmetry.automorphism_group

        def conjugated(K):
            desc = real(K)
            if K != boundary:
                return desc
            gens = tuple(compose(swap, compose(g, swap))
                         for g in desc.generators)
            return GroupDescription(desc.order, gens, desc.structure)

        monkeypatch.setattr(symmetry, "automorphism_group", conjugated)
        assert not verify_aut_equality(M)


class TestPermutationHelpers:
    def test_order_and_inverse(self):
        p = (1, 2, 0, 4, 3)
        assert permutation_order(p) == 6
        assert compose(p, inverse(p)) == (0, 1, 2, 3, 4)
