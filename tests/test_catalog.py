"""Catalog data: transcription guards, reference records, dual structures."""

import pytest

from walkup import DomainError, catalog, dual_graph, is_stacked_ball
from walkup.catalog import (a541_dual_structure, a541_tree_family,
                            basic_facet_names, dual_structure, presentation)
from walkup.construct import defines_subset


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
    def test_all_four_decompositions_match(self):
        for name in ("A5_21", "B5_21", "B5_26", "A5_41"):
            report = dual_structure(name)
            assert report.matches, (name, report.missing[:5], report.extra[:5])

    def test_41_vertex_report_details(self):
        report = a541_dual_structure()
        assert report.expected_edges == 287 == report.actual_edges
        assert report.num_facets == 246

    def test_second_cycle_steps_by_seven(self):
        # mu_0 -- mu_7 must be a dual edge of the 41-vertex complex
        pres = presentation("A5_41")
        from walkup.construct import expand_orbit_labeled
        labeled = expand_orbit_labeled(pres)
        mu = basic_facet_names("A5_41").index("mu")
        K = catalog.get("A5_41")
        facet_index = {f: i for i, f in enumerate(K.facets)}
        dual = dual_graph(K)
        assert dual.has_edge(facet_index[labeled[(mu, 0)]],
                             facet_index[labeled[(mu, 7)]])
        assert dual.has_edge(facet_index[labeled[(mu, 7)]],
                             facet_index[labeled[(mu, 14)]])

    def test_edge_totals(self):
        assert dual_structure("A5_21").expected_edges == 63
        assert dual_structure("B5_26").expected_edges == 104


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
