"""Homology engine: boundary matrices, Betti numbers, orientability, tightness."""

import random

import pytest

from walkup import (CapacityError, Complex, DomainError, GF2, Q, catalog,
                    betti_numbers, boundary_matrix, certify_tight,
                    composes_to_zero, homology, identify_type, is_orientable,
                    is_tight_bruteforce)
from walkup.generators import (cross_polytope_boundary, random_stacked_ball,
                               random_stacked_sphere, standard_ball,
                               standard_sphere)
from walkup.linalg import gf2_rank, int_rank

HOMOLOGY_SEED = 5150


def sparse_rows(mat):
    """Rows of a boundary matrix as {column: sign} dicts, from its columns."""
    rows = [dict() for _ in mat.row_faces]
    for c, col in enumerate(mat.columns):
        for r, s in col:
            rows[r][c] = s
    return rows


def bit_rows(mat):
    """Rows packed as ints (GF(2) view; signs reduced mod 2)."""
    return [sum(1 << c for c in row) for row in sparse_rows(mat)]


def gf2_rank_of_transpose(mat):
    """Oracle: rank computed on the transposed bit matrix."""
    rows, cols = mat.shape
    t = [0] * cols
    for r, bits in enumerate(bit_rows(mat)):
        while bits:
            c = (bits & -bits).bit_length() - 1
            t[c] |= 1 << r
            bits &= bits - 1
    return gf2_rank(t)


def int_rank_of_transpose(mat):
    rows = [dict() for _ in range(len(mat.col_faces))]
    for r, row in enumerate(sparse_rows(mat)):
        for c, v in row.items():
            rows[c][r] = v
    return int_rank(rows)


def top_down_ranks(K, field):
    """The ranks by clearing, taken on every face of K."""
    every = [bytearray(b"\x01") * len(K.faces(j)) for j in range(K.dim + 1)]
    return homology._top_down_ranks(K, field, every)


class TestBoundaryMatrix:
    def test_triangle_boundary_rank(self):
        K = Complex([(0, 1), (1, 2), (0, 2)])
        m = boundary_matrix(K, 1, Q)
        assert m.shape == (3, 3)
        assert m.rank() == 2

    def test_composition_vanishes_on_simplex_boundary(self):
        S = standard_sphere(3)
        for field in (GF2, Q):
            for j in range(2, S.dim + 1):
                assert composes_to_zero(S, j, field)

    def test_shape_of_top_boundary_of_21_vertex_manifold(self):
        m = boundary_matrix(catalog.get("M4_21"), 4, GF2)
        assert m.shape == (525, 210)

    def test_entry_signs(self):
        K = standard_ball(2)
        m = boundary_matrix(K, 2, Q)
        assert [row.get(0, 0) for row in sparse_rows(m)] == [1, -1, 1]

    def test_composition_on_catalog_entries(self, five_complexes,
                                            four_manifolds):
        for K in list(five_complexes.values()) + list(four_manifolds.values()):
            for field in (GF2, Q):
                for j in range(2, K.dim + 1):
                    assert composes_to_zero(K, j, field)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            boundary_matrix(standard_ball(2), 3, GF2)

    @pytest.mark.parametrize("field", [GF2, Q])
    def test_composition_check_catches_a_corrupted_incidence(self, monkeypatch,
                                                             field):
        real = homology.boundary_matrix

        def corrupted(K, j, field):
            m = real(K, j, field)
            if j < K.dim:
                return m
            (row, _), *rest = m.columns[0]  # the first facet loses a ridge
            return homology.ChainBoundary(
                dimension=m.dimension, field=m.field, row_faces=m.row_faces,
                col_faces=m.col_faces,
                columns=(((row, 0), *rest), *m.columns[1:]))

        S = standard_sphere(3)
        assert composes_to_zero(S, 3, field)
        monkeypatch.setattr(homology, "boundary_matrix", corrupted)
        assert not composes_to_zero(S, 3, field)


class TestBettiNumbers:
    def test_first_betti_of_21_vertex_orientable(self):
        assert betti_numbers(catalog.get("M4_21"), GF2)[1] == 8

    def test_first_betti_of_26_vertex(self):
        assert betti_numbers(catalog.get("N4_26"), GF2)[1] == 14

    def test_simplex_boundary_over_q(self):
        assert betti_numbers(standard_sphere(4), Q).values == (1, 0, 0, 0, 1)

    def test_41_vertex_manifold_full_vector(self):
        M = catalog.get("M4_41")
        b = betti_numbers(M, GF2)
        assert b.values == (1, 42, 0, 42, 1)
        assert b.alternating_sum == -82
        # independent rank oracle: transposed elimination on every matrix
        for j in range(1, 5):
            m = boundary_matrix(M, j, GF2)
            assert gf2_rank(bit_rows(m)) == gf2_rank_of_transpose(m)

    def test_rational_ranks_match_transpose_oracle(self):
        for name in ("M4_21", "N4_21"):
            K = catalog.get(name)
            for j in range(1, K.dim + 1):
                m = boundary_matrix(K, j, Q)
                # rank() eliminates the transpose; the rows must agree
                assert int_rank(sparse_rows(m)) == m.rank() \
                    == int_rank_of_transpose(m)

    def test_euler_poincare_on_catalog(self, five_complexes, four_manifolds):
        for K in list(five_complexes.values()) + list(four_manifolds.values()):
            chi = K.euler_characteristic
            for field in (GF2, Q):
                assert betti_numbers(K, field).alternating_sum == chi

    def test_800_facet_stacked_sphere_both_fields(self, monkeypatch):
        # 3,202 facets: full boundary matrices, reduced row by row in face
        # order, against the one facet that coreduction leaves
        S = random_stacked_sphere(4, 800, seed=1)
        ranks = {field: [0] + [boundary_matrix(S, j, field).rank()
                               for j in range(1, 5)] + [0]
                 for field in (GF2, Q)}
        assert ranks[GF2] == ranks[Q]
        kernel = homology._sparse_rank
        fed = []

        def counting_kernel(rows, combine):
            fed.append(len(rows))
            return kernel(rows, combine)

        monkeypatch.setattr(homology, "_sparse_rank", counting_kernel)
        for field in (GF2, Q):
            fed.clear()
            assert betti_numbers(S, field).values == (1, 0, 0, 0, 1)
            # coreduction leaves one facet: the kernel sees its column at most
            assert sum(fed) <= 1
            assert top_down_ranks(S, field) == ranks[field]

    def test_stacked_spheres_coreduce_to_one_facet(self):
        for d in (2, 3, 4):
            for seed in (1, 2, 3):
                alive, base = homology._coreduction(
                    random_stacked_sphere(d, 60, seed=seed))
                assert base == 1
                assert [m.count(1) for m in alive] == [0] * d + [1]

    def test_neighborly_manifold_keeps_the_complement_of_a_star(self):
        # f = (41, 820, 2050, 2255, 902); the closed star of vertex 0 goes
        alive, base = homology._coreduction(Complex(catalog.get("M4_41").facets))
        assert base == 1
        assert [m.count(1) for m in alive] == [0, 630, 1680, 1925, 792]

    def test_top_down_ranks_match_full_elimination(self):
        rp2 = Complex([(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                       (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)])
        torus = Complex(t for i in range(7) for t in (
            (i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7)))
        assert betti_numbers(torus, Q).values == (1, 2, 1)
        # N4_26 has a pivot that is not +-1 over Q; A5_21 has a boundary
        for K in (catalog.get("N4_21"), catalog.get("N4_26"),
                  catalog.get("A5_21"), rp2, torus):
            for field in (GF2, Q):
                full = [0] + [boundary_matrix(K, j, field).rank()
                              for j in range(1, K.dim + 1)] + [0]
                assert top_down_ranks(K, field) == full, (K, field)

    def test_gf2_poincare_duality_on_closed_manifolds(self, four_manifolds):
        for K in four_manifolds.values():
            b = betti_numbers(K, GF2).values
            assert b == tuple(reversed(b))

    def test_q_and_gf2_agree_on_orientable_entries(self):
        for name in ("M4_21", "M4_41", "S4_6", "standard_sphere(2)",
                     "standard_sphere(3)", "standard_ball(4)"):
            K = catalog.get(name)
            assert betti_numbers(K, GF2).values == betti_numbers(K, Q).values

    def test_circle_betti(self):
        K = Complex([(0, 1), (1, 2), (0, 2)])
        assert betti_numbers(K, Q).values == (1, 1)
        assert betti_numbers(K, GF2).values == (1, 1)

    def test_general_complex_betti(self):
        K = Complex([(0, 1, 2, 3), (1, 2, 3, 4)])
        sub = K.induced_subcomplex({0, 1, 2, 4})
        assert betti_numbers(sub, GF2).values == (1, 0, 0)


class TestOrientability:
    def test_catalog_verdicts(self):
        assert is_orientable(catalog.get("M4_21"))
        assert not is_orientable(catalog.get("N4_21"))
        assert not is_orientable(catalog.get("N4_26"))
        assert is_orientable(catalog.get("M4_41"))
        assert is_orientable(standard_sphere(4))

    def test_cross_check_against_rational_top_betti(self):
        for name in ("M4_21", "N4_21", "N4_26", "S4_6"):
            K = catalog.get(name)
            assert is_orientable(K) == (betti_numbers(K, Q)[K.dim] == 1)

    def test_rejects_open_complex(self):
        with pytest.raises(DomainError):
            is_orientable(standard_ball(3))

    def test_rejects_disconnected(self):
        two = Complex(list(standard_sphere(2).facets)
                      + [tuple(v + 10 for v in f)
                         for f in standard_sphere(2).facets])
        with pytest.raises(DomainError):
            is_orientable(two)


class TestIdentifyType:
    def test_orientable_41_vertex(self):
        rep = identify_type(catalog.get("M4_41"))
        assert rep.type_string == "(S3xS1)^#42"
        assert rep.orientable and rep.beta1 == 42 and rep.euler_formula_ok

    def test_twisted_26_vertex(self):
        rep = identify_type(catalog.get("N4_26"))
        assert rep.type_string == "(S3xS1)^#14 twisted"
        assert not rep.orientable and rep.beta1 == 14

    def test_simplex_boundary_degenerate_case(self):
        rep = identify_type(standard_sphere(4))
        assert rep.type_string == "S4"
        assert rep.beta1 == 0 and rep.euler_formula_ok

    def test_rejects_low_dimension(self):
        with pytest.raises(DomainError):
            identify_type(standard_sphere(3))

    def test_odd_dimension_uses_vanishing_euler_characteristic(self):
        rep = identify_type(standard_sphere(5))
        assert rep.type_string == "S5"
        assert rep.euler_formula_ok  # chi = 0 in odd dimensions

    def test_rejects_non_class_member(self):
        with pytest.raises(DomainError):
            identify_type(cross_polytope_boundary(5))


class TestTightnessBruteForce:
    def test_simplex_boundary_is_tight(self):
        assert is_tight_bruteforce(standard_sphere(4), GF2)

    def test_disconnected_is_not_tight(self):
        assert not is_tight_bruteforce(Complex([(0, 1), (2, 3)]), GF2)

    def test_four_cycle_is_not_tight(self):
        c4 = Complex([(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not is_tight_bruteforce(c4, GF2)
        assert not is_tight_bruteforce(c4, Q)

    def test_triangle_is_tight_both_fields(self):
        tri = Complex([(0, 1), (1, 2), (0, 2)])
        assert is_tight_bruteforce(tri, GF2)
        assert is_tight_bruteforce(tri, Q)

    def test_small_simplex_boundaries_tight_over_q(self):
        assert is_tight_bruteforce(standard_sphere(2), Q)
        assert is_tight_bruteforce(standard_sphere(3), Q)

    def test_stacked_sphere_with_extra_vertex_not_tight(self):
        # one stacking move on the simplex boundary kills 2-neighborliness
        S = random_stacked_sphere(2, 2, seed=3)
        assert not is_tight_bruteforce(S, GF2)

    def test_projective_plane_distinguishes_fields(self):
        # found by exhaustive search: the unique closed 2-pseudomanifold on
        # 6 vertices with every edge in two triangles and chi = 1
        rp2 = Complex([(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                       (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)])
        assert rp2.euler_characteristic == 1
        assert all(len(o) == 2 for o in rp2.ridge_incidence().values())
        assert betti_numbers(rp2, GF2).values == (1, 1, 1)
        assert betti_numbers(rp2, Q).values == (1, 0, 0)
        assert is_tight_bruteforce(rp2, GF2)
        assert not is_tight_bruteforce(rp2, Q)
        assert not is_orientable(rp2)

    @pytest.mark.parametrize("field", [GF2, Q])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_a_miscounted_betti_number_raises(self, monkeypatch, field, delta):
        # the Betti sums of Y_W, of (K, Y_W) and of K differ by an even,
        # non-negative number; a count off by one on one W must not pass
        rp2 = Complex([(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                       (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)])
        real = homology._betti
        relative_runs = []

        def miscounted(K, field, alive=None, relative=False):
            got = real(K, field, alive, relative)
            if relative:
                relative_runs.append(alive)
                if len(relative_runs) == 1:
                    return (got[0] + delta, *got[1:])
            return got

        monkeypatch.setattr(homology, "_betti", miscounted)
        total = sum(betti_numbers(rp2, field).values)
        with pytest.raises(RuntimeError,
                           match=rf"at W = \[[0-9, ]+\]: .* - {total} \(K\) = "):
            is_tight_bruteforce(rp2, field)
        assert len(relative_runs) == 1

    def test_capacity_guard(self):
        big = random_stacked_ball(2, 20, seed=1)
        assert big.num_vertices > 16
        facts = dict(big._facts)
        with pytest.raises(CapacityError):
            is_tight_bruteforce(big, GF2)
        assert big._facts == facts  # refused before any table is built


class TestCertifyTight:
    def test_catalog_certificates(self, four_manifolds):
        expected_fields = {"M4_21": Q, "N4_21": GF2, "N4_26": GF2, "M4_41": Q}
        for name, K in four_manifolds.items():
            cert = certify_tight(K)
            assert cert.certified and cert.tight and cert.strongly_minimal
            assert cert.field == expected_fields[name]

    def test_simplex_boundary_certified(self):
        cert = certify_tight(standard_sphere(4))
        assert cert.in_kstar and cert.orientable and cert.certified
        assert cert.field == Q

    def test_non_member_not_certified(self):
        cert = certify_tight(cross_polytope_boundary(5))
        assert not cert.in_kstar and not cert.certified and not cert.tight

    def test_dimension_three_branch(self):
        cert = certify_tight(standard_sphere(3))
        assert cert.in_kstar and cert.tight and cert.certified
        bigger = random_stacked_sphere(3, 2, seed=9)
        cert2 = certify_tight(bigger)
        assert not cert2.certified  # not 2-neighborly once stacked

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            certify_tight(standard_sphere(2))

    def test_certificate_agrees_with_brute_force_where_feasible(self):
        S = standard_sphere(4)
        cert = certify_tight(S)
        assert cert.certified and cert.field == Q
        # a rational tightness certificate implies tightness over any field
        assert is_tight_bruteforce(S, Q)
        assert is_tight_bruteforce(S, GF2)


class TestChainIdentityOnRandomComplexes:
    def test_boundary_of_boundary_vanishes(self):
        rng = random.Random(HOMOLOGY_SEED)
        for _ in range(60):
            d = rng.randint(2, 4)
            ball = random_stacked_ball(d, rng.randint(2, 10),
                                       seed=rng.randint(0, 10 ** 9))
            sphere = ball.boundary_complex()
            for K in (ball, sphere):
                for field in (GF2, Q):
                    for j in range(2, K.dim + 1):
                        assert composes_to_zero(K, j, field)
