"""Catalog data: transcription guards, reference records, dual structures."""

import pytest

from walkup import DomainError, catalog, dual_graph, is_stacked_ball
from walkup.catalog import a541_tree_family, presentation
from walkup.construct import defines_subset

# the paper's dual graph of each 5-complex: two facet cycles joined by a
# path, as (first cycle, index step per sweep), (second cycle, step), path
DUAL_SHAPES = {
    "A5_21": ((("sigma", "kappa", "tau"), 1), (("mu", "nu", "gamma"), 3),
              ("sigma", "alpha", "beta", "mu")),
    "B5_21": ((("sigma", "kappa", "tau"), 1), (("mu", "nu", "gamma"), 3),
              ("sigma", "alpha", "beta", "mu")),
    "B5_26": ((("sigma", "tau"), 1), (("mu", "delta"), 8),
              ("sigma", "alpha", "beta", "gamma", "mu")),
    "A5_41": ((("sigma",), 1), (("mu",), 7),
              ("sigma", "alpha", "beta", "gamma", "delta", "mu")),
}


def shifted_facet(name, basic, shift):
    """The facet that basic facet ``basic`` of ``name`` gives under ``shift``."""
    pres = presentation(name)
    row = [n for n, _ in catalog.ORBIT_BASIC_FACETS[name][2]].index(basic)
    return tuple(sorted(pres.vertex_id((c, (i + shift) % pres.order))
                        for c, i in pres.basic_facets[row]))


class TestTranscription:
    def test_orbit_expansion_counts_guard_everything_else(self):
        # these counts gate the rest of the suite; check them first
        assert catalog.get("A5_21").num_facets == 56
        assert catalog.get("B5_21").num_facets == 56
        assert catalog.get("B5_26").num_facets == 91
        assert catalog.get("A5_41").num_facets == 246

    def test_basic_facet_shapes(self):
        for name, (classes, order, rows) in catalog.ORBIT_BASIC_FACETS.items():
            pres = presentation(name)
            assert len(pres.basic_facets) == len(rows)
            assert all(len(f) == 6 for f in pres.basic_facets)
            assert pres.num_vertices == len(classes) * order

    def test_tree_vertex_count_totals_36(self):
        fam = a541_tree_family()
        assert all(len(t) == 36 for t in fam.trees)
        assert fam.host.num_vertices == 246
        assert fam.host.num_edges == 287

    def test_distinct_five_complexes(self):
        assert catalog.get("A5_21") != catalog.get("B5_21")


class TestExpectedRecords:
    def test_face_vectors_match_records(self):
        for name in catalog.TABLE1_NAMES + ("S4_6", "nonball_example"):
            K = catalog.get(name)
            want = catalog.expected(name)
            fv = K.f_vector()
            assert tuple(fv.counts) == want.f_vector, name
            assert fv.chi == want.chi, name
            assert K.num_facets == want.facet_count, name

    def test_facet_counts_of_five_complexes(self):
        for name in ("A5_21", "B5_21", "B5_26", "A5_41"):
            assert catalog.get(name).num_facets == \
                catalog.expected(name).facet_count

    def test_parametrized_entries(self):
        s3 = catalog.get("standard_sphere(3)")
        assert tuple(s3.f_vector().counts) == (5, 10, 10, 5)
        assert catalog.expected("standard_sphere(3)").chi == 0
        b2 = catalog.get("standard_ball(2)")
        assert b2.num_facets == 1
        assert catalog.get("S4_6") == catalog.get("standard_sphere(4)")

    def test_parametrized_records_match_the_complexes(self):
        # the records use closed forms, so they can disagree with get()
        for family in ("standard_sphere", "standard_ball"):
            for d in range(9):
                name = f"{family}({d})"
                K = catalog.get(name)
                want = catalog.expected(name)
                fv = K.f_vector()
                assert tuple(fv.counts) == want.f_vector, name
                assert fv.chi == want.chi, name
                assert K.num_facets == want.facet_count, name

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            catalog.get("A5_99")
        with pytest.raises(DomainError):
            catalog.expected("A5_99")

    def test_names_listing(self):
        listed = catalog.names()
        assert "A5_41" in listed and "A5_41_tree_family" in listed
        assert "standard_sphere(d)" in listed


class TestDualStructures:
    @pytest.mark.parametrize("name, total", [
        ("A5_21", 63), ("B5_21", 63), ("B5_26", 104), ("A5_41", 287)])
    def test_all_four_decompositions_match(self, name, total):
        K = catalog.get(name)
        index = {f: i for i, f in enumerate(K.facets)}
        m = presentation(name).order
        *cycles, path = DUAL_SHAPES[name]
        pairs = set()
        for i in range(m):
            for cycle, step in cycles:
                pairs.update(((a, i), (b, i)) for a, b in zip(cycle, cycle[1:]))
                pairs.add(((cycle[-1], i), (cycle[0], (i + step) % m)))
            pairs.update(((a, i), (b, i)) for a, b in zip(path, path[1:]))
        advertised = {tuple(sorted(index[shifted_facet(name, *end)]
                                   for end in pair)) for pair in pairs}
        assert len(advertised) == total
        assert set(dual_graph(K).edges) == advertised

    def test_second_cycle_steps_by_seven(self):
        # mu_0 -- mu_7 must be a dual edge of the 41-vertex complex
        K = catalog.get("A5_41")
        index = {f: i for i, f in enumerate(K.facets)}
        mu = [index[shifted_facet("A5_41", "mu", s)] for s in (0, 7, 14)]
        dual = dual_graph(K)
        assert dual.has_edge(mu[0], mu[1])
        assert dual.has_edge(mu[1], mu[2])


class TestTreeFamilyData:
    def test_intersection_witnesses(self):
        fam = a541_tree_family()
        t = fam.trees

        def host(cls, i):
            return ("u", "x", "y", "z", "w", "v").index(cls) * 41 + i % 41

        assert host("x", 2) in t[0] & t[8]
        assert host("w", 14) in t[0] & t[12]
        assert host("v", 0) in t[6] & t[0]
        # every pair of trees intersects
        for i in range(41):
            for j in range(i + 1, 41):
                assert t[i] & t[j]

    def test_trees_are_shifts_of_tree_zero(self):
        fam = a541_tree_family()

        def shift(vertex, k):
            cls, i = divmod(vertex, 41)
            return cls * 41 + (i + k) % 41

        t0 = fam.trees[0]
        for k in range(41):
            assert fam.trees[k] == frozenset(shift(v, k) for v in t0)

    def test_subsets_recover_orbit_facets(self):
        fam = a541_tree_family()
        K = catalog.get("A5_41")
        facets = {tuple(sorted(defines_subset(fam, u))) for u in range(246)}
        assert facets == set(K.facets)


class TestNonBallExample:
    def test_shape(self):
        K = catalog.get("nonball_example")
        assert K.num_facets == 5 and K.num_vertices == 7 and K.dim == 3
        assert dual_graph(K).is_tree()
        assert not is_stacked_ball(K)

    def test_boundary_entries_are_boundaries(self, five_complexes,
                                             four_manifolds):
        for four, five in (("M4_21", "A5_21"), ("N4_21", "B5_21"),
                           ("N4_26", "B5_26"), ("M4_41", "A5_41")):
            assert four_manifolds[four] == \
                five_complexes[five].boundary_complex()
