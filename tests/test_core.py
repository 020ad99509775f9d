"""Core complex operations against independent brute-force oracles."""

import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from walkup import Complex, DomainError, GeneralComplex, as_face, catalog, core
from walkup.generators import (random_stacked_sphere, standard_ball,
                               standard_sphere)


def brute_force_faces(K, j):
    """Oracle: scan all (j+1)-subsets of the vertex set for containment."""
    out = set()
    facet_sets = [set(f) for f in K.maximal_faces]
    for cand in itertools.combinations(K.vertices, j + 1):
        cs = set(cand)
        if any(cs <= fs for fs in facet_sets):
            out.add(cand)
    return out


class CountingTuple(tuple):
    """A tuple that counts the elements read from it."""

    reads = 0

    def __getitem__(self, i):
        item = super().__getitem__(i)
        self.reads += len(item) if isinstance(i, slice) else 1
        return item

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()

    def __contains__(self, x):
        self.reads += len(self)
        return super().__contains__(x)


def small_complexes():
    return [
        Complex([(0, 1, 2, 3), (1, 2, 3, 4)]),
        standard_sphere(4),
        standard_ball(5),
        Complex([(0, 1, 2), (0, 2, 3)]),
        Complex([(0, 1), (1, 2), (2, 3), (0, 3)]),
        catalog.get("nonball_example"),
    ]


# a strategy for small pure complexes: random facets of fixed size
@st.composite
def pure_complexes(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=dim + 1, max_value=7))
    count = draw(st.integers(min_value=1, max_value=6))
    all_facets = list(itertools.combinations(range(n), dim + 1))
    chosen = draw(st.lists(st.sampled_from(all_facets), min_size=1,
                           max_size=count))
    return Complex(chosen)


class TestFaces:
    def test_face_canonical_form(self):
        assert as_face([3, 1, 2]) == (1, 2, 3)
        with pytest.raises(DomainError):
            as_face([1, 1, 2])
        with pytest.raises(DomainError):
            as_face([-1, 2])
        with pytest.raises(DomainError):
            as_face([])

    def test_simplex_boundary_edge_count(self):
        assert len(standard_sphere(4).faces(1)) == 15  # all pairs of 6 vertices

    def test_two_tetrahedra_triangles(self):
        K = Complex([(0, 1, 2, 3), (1, 2, 3, 4)])
        oracle = brute_force_faces(K, 2)
        assert len(oracle) == 7
        assert set(K.faces(2)) == oracle

    def test_full_facet_list_of_largest_catalog_complex(self):
        assert len(catalog.get("A5_41").faces(5)) == 246

    def test_faces_out_of_range(self):
        K = standard_ball(2)
        with pytest.raises(DomainError):
            K.faces(3)
        with pytest.raises(DomainError):
            K.faces(-1)

    @given(pure_complexes())
    def test_face_counts_match_brute_force(self, K):
        for j in range(K.dim + 1):
            assert set(K.faces(j)) == brute_force_faces(K, j)

    def test_facet_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            Complex([(0, 1, 2), (0, 1)])


class TestFaceVector:
    def test_boundary_of_41_vertex_complex(self):
        fv = catalog.get("M4_41").f_vector()
        assert tuple(fv.counts) == (41, 820, 2050, 2255, 902)
        assert fv.chi == -82

    def test_boundary_of_21_vertex_complex(self):
        fv = catalog.get("M4_21").f_vector()
        assert tuple(fv.counts) == (21, 210, 490, 525, 210)
        assert fv.chi == -14

    def test_simplex_boundary(self):
        fv = standard_sphere(4).f_vector()
        assert tuple(fv.counts) == (6, 15, 20, 15, 6)
        assert fv.chi == 2

    def test_chi_recomputed_independently(self):
        for K in small_complexes():
            counts = [len(brute_force_faces(K, j)) for j in range(K.dim + 1)]
            chi = sum(c if j % 2 == 0 else -c for j, c in enumerate(counts))
            assert K.f_vector().chi == chi

    def test_empty_complex_has_no_f_vector(self):
        with pytest.raises(DomainError):
            Complex(()).f_vector()


class TestLinkAndStar:
    def test_link_in_simplex_boundary(self):
        S = standard_sphere(4)
        for v in S.vertices:
            link = S.link(v)
            rest = tuple(u for u in S.vertices if u != v)
            assert link == Complex(itertools.combinations(rest, 4))

    def test_link_of_vertex_in_path_complex(self):
        K = Complex([(0, 1, 2), (0, 2, 3)])
        assert K.link(0) == Complex([(1, 2), (2, 3)])

    def test_link_of_facet_is_empty(self):
        K = standard_ball(3)
        assert K.link((0, 1, 2, 3)).is_empty

    def test_link_errors_on_non_face(self):
        K = Complex([(0, 1, 2, 3), (1, 2, 3, 4)])
        with pytest.raises(DomainError):
            K.link((0, 4))

    def test_star_sizes(self):
        S = standard_sphere(4)
        assert all(S.star(v).num_facets == 5 for v in S.vertices)
        K = Complex([(0, 1, 2, 3), (1, 2, 3, 4)])
        assert K.star(4) == Complex([(1, 2, 3, 4)])
        with pytest.raises(DomainError):
            K.star(9)

    def test_star_and_link_reject_non_integer_vertices(self):
        K = Complex([(0, 1, 2, 3), (1, 2, 3, 4)])
        for bad in (True, 1.0, "1", None, -1):
            with pytest.raises(DomainError):
                K.star(bad)
            with pytest.raises(DomainError):
                K.link(bad)
        assert K.star(1) == K

    def test_empty_complex_has_no_links_or_stars(self):
        with pytest.raises(DomainError, match="not a face"):
            Complex(()).link(0)
        with pytest.raises(DomainError, match="not in the complex"):
            Complex(()).star(0)

    def test_link_reads_only_the_star(self, monkeypatch):
        K = random_stacked_sphere(4, 800, seed=1)
        stars = K.vertex_incidence(K.dim)  # built once, reading every facet
        facets = CountingTuple(K.facets)
        object.__setattr__(K, "_maximal", facets)
        canonicalised = []
        monkeypatch.setattr(core, "as_face",
                            lambda f: canonicalised.append(f) or as_face(f))
        for v in K.vertices:
            before = facets.reads
            link = K.link(v)
            assert facets.reads - before <= len(stars[v]) == link.num_facets
        # only the argument is canonicalised, not each link facet again
        assert len(canonicalised) == K.num_vertices
        for edge in K.faces(1)[::50]:
            before = facets.reads
            K.link(edge)
            assert facets.reads - before <= len(stars[edge[0]])

    def test_vertex_incidence_against_scan(self):
        for K in small_complexes() + [GeneralComplex([(0, 1, 2), (2, 3)])]:
            for j in range(K.dim + 1):
                faces = K.faces(j)
                assert K.vertex_incidence(j) == {
                    v: tuple(i for i, f in enumerate(faces) if v in f)
                    for v in K.vertices}

    def test_star_of_41_vertex_complex_has_36_facets(self):
        A = catalog.get("A5_41")
        assert all(A.star(v).num_facets == 36 for v in A.vertices)
        # link of a vertex: same 36 facets with the vertex removed
        link = A.link(0)
        assert link.num_facets == 36
        assert link.dim == 4

    @given(pure_complexes())
    def test_link_is_star_with_vertex_deleted(self, K):
        for v in K.vertices:
            star = K.star(v)
            link_from_star = [tuple(u for u in f if u != v) for f in star.facets]
            if K.dim == 0:
                continue
            assert K.link(v) == Complex(link_from_star)
            assert star.num_facets == K.link(v).num_facets


class TestBoundary:
    def test_boundary_of_single_facet(self):
        B = standard_ball(5).boundary_complex()
        assert tuple(B.f_vector().counts) == (6, 15, 20, 15, 6)

    def test_boundary_of_closed_complex_is_empty(self):
        assert standard_sphere(4).boundary_complex().is_empty

    def test_boundary_of_zero_dimensional_complex_is_empty(self):
        assert Complex([(0,), (1,), (2,)]).boundary_complex().is_empty

    def test_boundary_of_21_vertex_complex(self):
        B = catalog.get("A5_21").boundary_complex()
        assert B == catalog.get("M4_21")
        assert tuple(B.f_vector().counts) == (21, 210, 490, 525, 210)

    def test_boundary_facets_lie_in_unique_facets(self):
        for name in ("A5_21", "B5_26"):
            K = catalog.get(name)
            B = K.boundary_complex()
            facet_sets = [set(f) for f in K.facets]
            for bf in B.facets:
                owners = sum(1 for fs in facet_sets if set(bf) <= fs)
                assert owners == 1

    def test_boundary_rejects_non_weak_pseudomanifold(self):
        K = Complex([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)])
        with pytest.raises(DomainError):
            K.boundary_complex()


class TestSkeleton:
    def test_skeleton_equality_for_kbar_members(self, five_complexes,
                                                four_manifolds):
        pairs = [("A5_21", "M4_21"), ("B5_21", "N4_21"),
                 ("B5_26", "N4_26"), ("A5_41", "M4_41")]
        for five, four in pairs:
            assert five_complexes[five].skeleton(3) == \
                four_manifolds[four].skeleton(3)

    def test_skeleton_zero(self):
        K = Complex([(0, 1, 2, 3), (1, 2, 3, 4)])
        assert K.skeleton(0) == Complex([(v,) for v in range(5)])

    def test_one_skeleton_of_simplex_boundary_is_complete(self):
        skel = standard_sphere(4).skeleton(1)
        assert skel == Complex(itertools.combinations(range(6), 2))


class TestNeighborly:
    def test_neighborly_catalog_boundary(self):
        M = catalog.get("M4_41")
        assert M.is_neighborly(2)
        assert len(M.faces(1)) == comb(41, 2)

    def test_simplex_boundary_neighborly(self):
        assert standard_sphere(4).is_neighborly(2)

    def test_disjoint_tetrahedra_not_neighborly(self):
        K = Complex([(0, 1, 2, 3), (4, 5, 6, 7)])
        assert not K.is_neighborly(2)

    @given(pure_complexes())
    def test_neighborly_iff_edge_count_complete(self, K):
        if K.dim < 1:
            return
        assert K.is_neighborly(2) == \
            (len(K.faces(1)) == comb(K.num_vertices, 2))


class TestInducedSubcomplex:
    def test_full_vertex_set_returns_same_complex(self):
        K = Complex([(0, 1, 2, 3), (1, 2, 3, 4)])
        assert K.induced_subcomplex(K.vertices) == K

    def test_single_vertex(self):
        K = Complex([(0, 1, 2, 3), (1, 2, 3, 4)])
        sub = K.induced_subcomplex({0})
        assert sub.maximal_faces == ((0,),)

    def test_mixed_dimension_result(self):
        K = Complex([(0, 1, 2, 3), (1, 2, 3, 4)])
        sub = K.induced_subcomplex({0, 1, 2, 4})
        assert set(sub.maximal_faces) == {(0, 1, 2), (1, 2, 4)}

    def test_unknown_vertex_rejected(self):
        K = standard_ball(2)
        with pytest.raises(DomainError):
            K.induced_subcomplex({0, 9})

    @given(pure_complexes(), st.data())
    def test_induced_faces_are_exactly_those_inside_w(self, K, data):
        w = set(data.draw(st.lists(st.sampled_from(K.vertices), max_size=5)))
        if not w:
            return
        sub = K.induced_subcomplex(w)
        # every face of the subcomplex is a face of K inside W, and conversely
        for j in range(K.dim + 1):
            inside = {f for f in brute_force_faces(K, j) if set(f) <= w}
            got = (set(sub.faces(j))
                   if not sub.is_empty and j <= sub.dim else set())
            assert got == inside


class TestGeneralComplex:
    def test_non_maximal_faces_dropped(self):
        G = GeneralComplex([(0, 1), (0, 1, 2), (3,)])
        assert set(G.maximal_faces) == {(0, 1, 2), (3,)}
        assert not G.is_pure

    def test_components(self):
        G = GeneralComplex([(0, 1), (2, 3), (4,)])
        assert G.vertex_components() == ((0, 1), (2, 3), (4,))
        assert not G.is_connected()

    def test_relabeled_preserves_structure(self):
        K = Complex([(0, 1, 2), (1, 2, 3)])
        moved = K.relabeled({0: 5, 1: 1, 2: 0, 3: 7})
        assert moved == Complex([(0, 1, 5), (0, 1, 7)])
        with pytest.raises(DomainError):
            K.relabeled({0: 1, 1: 1, 2: 0, 3: 7})
