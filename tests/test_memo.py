"""The per-complex memo: facts are computed once per instance and reused.

``verify`` asks for Walkup-class membership, tightness, the homeomorphism
type and the lower bounds, which all rest on one fact: every vertex link is
a stacked sphere.  These tests count the work behind that fact and check
that equal but distinct instances do not share a memo.
"""

import json
import tracemalloc

import pytest

from walkup import (GF2, Q, Complex, DomainError, Graph, TreeFamily,
                    betti_numbers, catalog, check_lower_bounds, classify,
                    construct, core, fileio, homology, in_walkup_class,
                    is_orientable, is_tight_bruteforce, symmetry,
                    verify_aut_equality)
from walkup.cli import main
from walkup.generators import (cross_polytope_boundary, random_stacked_ball,
                               random_stacked_sphere, standard_ball,
                               standard_sphere)


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's args."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def table_builds(monkeypatch):
    """Record (complex, j) each time a boundary table is built, not read
    from the memo."""
    real = core.GeneralComplex._cofaces
    builds = []

    def wrapper(K, j):
        if ("cofaces", j) not in K._facts:
            builds.append((K, j))
        return real(K, j)

    monkeypatch.setattr(core.GeneralComplex, "_cofaces", wrapper)
    return builds


def test_verify_computes_each_walkup_verdict_once(capsys, monkeypatch):
    real_get = catalog.get
    fresh = Complex(real_get("M4_41").facets)  # nothing memoized yet
    monkeypatch.setattr(catalog, "get",
                        lambda name: fresh if name == "M4_41" else real_get(name))
    stacked = counting(monkeypatch, classify, "is_stacked_sphere")
    verdicts = counting(monkeypatch, classify, "_walkup_verdict")
    links = counting(monkeypatch, classify, "_reverse_stacking")
    assert main(["verify", "M4_41"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["walkup"] == {"K": True, "Kbar": False, "Kstar": True}
    assert doc["tightness"]["certified"]
    assert doc["homeomorphism_type"]["type"] == "(S3xS1)^#42"
    # only the stacked_sphere stage: the K verdict runs the reduction on
    # each vertex link without the public guard
    assert len(stacked) == 1
    assert sorted(v for _, v in verdicts) == ["K", "Kbar", "Kstar"]
    # no move applies to a 2-neighborly complex, so the residual is M4_41
    # itself and K(d) reads every one of its vertex links
    assert classify.stacking_residual(fresh) is fresh
    assert len(links) == fresh.num_vertices


def test_verify_builds_the_dual_graph_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ball.facets"
    path.write_text(fileio.format_facets(random_stacked_ball(4, 40, seed=7)))
    builds = counting(monkeypatch, classify, "_dual_graph")
    assert main(["verify", str(path)]) == 0
    props = json.loads(capsys.readouterr().out)["properties"]
    assert props["stacked_ball"] and props["tree_dual_graph"]
    # the input's dual graph serves only the vertex stars of the Kbar test:
    # the stacked-ball test reads the walk, and no link builds a graph
    assert [K.dim for (K,) in builds] == [4]


def test_stacked_ball_builds_no_dual_graph():
    K = Complex(random_stacked_ball(4, 40, seed=7).facets)
    assert classify.is_stacked_ball(K)
    # the vertex count, the top table's length and the facet walk decide it
    assert "dual_graph" not in K._facts


def test_verify_finds_the_vertex_components_once(capsys, monkeypatch):
    real_get = catalog.get
    fresh = Complex(real_get("M4_21").facets)
    monkeypatch.setattr(catalog, "get",
                        lambda name: fresh if name == "M4_21" else real_get(name))
    components = counting(monkeypatch, core.GeneralComplex, "_vertex_components")
    assert main(["verify", "M4_21"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["properties"]["connected"] and doc["walkup"]["K"]
    assert doc["homeomorphism_type"]["type"] == "(S3xS1)^#8"
    # the connected stage and the type identification share one answer
    assert len(components) == 1


def test_verify_walks_the_dual_graph_once(capsys, monkeypatch):
    real_get = catalog.get
    fresh = Complex(real_get("M4_21").facets)
    monkeypatch.setattr(catalog, "get",
                        lambda name: fresh if name == "M4_21" else real_get(name))
    walks = counting(monkeypatch, classify, "_walk_facets")
    builds = counting(monkeypatch, classify, "_dual_graph")
    assert main(["verify", "M4_21"]) == 0
    doc = json.loads(capsys.readouterr().out)
    props = doc["properties"]
    assert props["pseudomanifold"] and not props["tree_dual_graph"]
    assert doc["orientable"] and doc["homeomorphism_type"]["type"] == "(S3xS1)^#8"
    # one walk of the top table serves the pseudomanifold test and every
    # orientability question; a closed complex has too many dual edges for
    # a tree, which the table's length says, and nothing reads adjacency
    assert [K for (K,) in walks] == [fresh]
    assert builds == []


def test_verify_builds_one_table_per_dimension(capsys, monkeypatch):
    real_get = catalog.get
    fresh = Complex(real_get("M4_21").facets)
    monkeypatch.setattr(catalog, "get",
                        lambda name: fresh if name == "M4_21" else real_get(name))
    views = counting(monkeypatch, core.Complex, "ridge_incidence")
    tables = table_builds(monkeypatch)
    assert main(["verify", "M4_21"]) == 0
    assert json.loads(capsys.readouterr().out)["orientable"]
    # closedness, the dual graph, K(d), coreduction and orientability all
    # read the one table of each dimension; none builds the ridge dict
    assert views == []
    assert sorted(j for K, j in tables if K is fresh) == [1, 2, 3, 4]


def test_verify_of_a_stacked_sphere_builds_only_the_top_table(
        tmp_path, capsys, monkeypatch):
    fresh = random_stacked_sphere(4, 200, seed=1)
    path = tmp_path / "sphere.facets"
    path.write_text(fileio.format_facets(fresh))
    monkeypatch.setattr(fileio, "parse_facets", lambda text: fresh)
    tables = table_builds(monkeypatch)
    cored = counting(monkeypatch, homology, "_coreduction")
    links = counting(monkeypatch, classify, "_reverse_stacking")
    assert main(["verify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["properties"]["stacked_sphere"] and doc["walkup"]["K"]
    assert doc["betti"] == {GF2: [1, 0, 0, 0, 1], Q: [1, 0, 0, 0, 1]}
    # the Betti numbers and K(d) come from the residual boundary of the
    # 5-simplex: K's lower tables are never built, K itself is never
    # coreduced, and K(d) reduces the residual's 6 vertex links, not 205
    assert [j for K, j in tables if K is fresh] == [4]
    assert {args[0].num_facets for args in cored} == {6}
    assert len(links) <= 6


def test_verify_of_a_stacked_sphere_counts_its_faces(
        tmp_path, capsys, monkeypatch):
    fresh = random_stacked_sphere(4, 200, seed=1)
    path = tmp_path / "sphere.facets"
    path.write_text(fileio.format_facets(fresh))
    monkeypatch.setattr(fileio, "parse_facets", lambda text: fresh)
    builds = counting(monkeypatch, classify, "_dual_graph")
    assert main(["verify", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["f_vector"] == [205, 1010, 2010, 2005, 802]
    assert doc["bounds"]["vertex_bound"]["lhs"] == 19900
    # the edges and triangles are counted, not tabled, and no test reads
    # dual adjacency: the walk and the table's length answer them
    assert ("faces", 1) not in fresh._facts
    assert ("faces", 2) not in fresh._facts
    assert "dual_graph" not in fresh._facts and builds == []


def test_sphere_class_builds_no_ridge_table(monkeypatch):
    K = Complex(random_stacked_sphere(4, 800, seed=1).facets)
    tables = table_builds(monkeypatch)
    assert in_walkup_class(K, "K")
    # K(d) reads the links of the residual, the 6-facet boundary of the
    # 5-simplex, from its top table; the reduction needs no closedness
    # test, so no link derives ridges
    off_k = [(L, j) for L, j in tables if L is not K]
    assert [(L.num_facets, j) for L, j in off_k] == [(6, 4)]
    assert off_k[0][0] is classify.stacking_residual(K)


def test_sphere_class_builds_no_link(monkeypatch):
    K = Complex(random_stacked_sphere(4, 800, seed=1).facets)
    links = counting(monkeypatch, core.Complex, "link")
    assert in_walkup_class(K, "K")
    assert links == []  # the link facets are read from K's own top table


def test_ball_class_builds_no_link(monkeypatch):
    A = Complex(catalog.get("A5_41").facets)
    links = counting(monkeypatch, core.Complex, "link")
    assert in_walkup_class(A, "Kbar")
    assert links == []  # the stars are read from A's own tables


def test_dual_graph_is_memoized():
    K = Complex(catalog.get("A5_21").facets)
    assert classify.dual_graph(K) is classify.dual_graph(K)
    assert classify.dual_graph(K) is not classify.dual_graph(Complex(K.facets))


def test_equal_instances_keep_separate_memos(monkeypatch):
    # one boundary table per dimension and instance, for d_1 ... d_4
    tables = table_builds(monkeypatch)
    facets = catalog.get("S4_6").facets
    first, second = Complex(facets), Complex(facets)
    assert first == second and first is not second
    assert betti_numbers(first, GF2).values == (1, 0, 0, 0, 1)
    assert len(tables) == 4
    assert betti_numbers(first, "gf(2)").values == (1, 0, 0, 0, 1)
    assert len(tables) == 4  # a memo hit, also under another field name
    assert betti_numbers(second, GF2).values == (1, 0, 0, 0, 1)
    assert len(tables) == 8  # the equal instance builds its own
    assert betti_numbers(first, Q).values == (1, 0, 0, 0, 1)
    assert len(tables) == 8  # both fields read the one store


def test_lower_bound_links_agree_with_class_membership(monkeypatch):
    cases = (catalog.get("M4_21"), standard_sphere(3), standard_sphere(5),
             cross_polytope_boundary(4), standard_ball(4),
             random_stacked_sphere(3, 30, seed=2))
    for K in cases:
        K = Complex(K.facets)
        verdict = in_walkup_class(K, "K")
        stacked = counting(monkeypatch, classify, "is_stacked_sphere")
        report = check_lower_bounds(K, beta1=0, verify_links=True)
        monkeypatch.undo()
        assert report.manifoldness.startswith("verified") == verdict
        assert stacked == []  # the verdict came from the memo


def test_boundary_group_is_searched_once(monkeypatch):
    A = Complex(catalog.get("A5_41").facets)
    searches = counting(monkeypatch, symmetry, "_search")
    for _ in range(3):
        assert verify_aut_equality(A)
    # one search for A and one for its boundary; a fresh boundary on every
    # call would search it three times
    assert len(searches) == 2


def test_boundary_complex_is_memoized():
    A = Complex(catalog.get("A5_21").facets)
    B = A.boundary_complex()
    assert A.boundary_complex() is B
    assert B == catalog.get("M4_21")


def test_rejected_boundary_is_rejected_again():
    K = Complex([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)])
    for _ in range(2):
        with pytest.raises(DomainError, match="lies in 3 facets"):
            K.boundary_complex()


def test_construct_checks_the_hypotheses_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "A5_41.tree"
    fileio.save_tree_family(catalog.get("A5_41_tree_family"), path)
    checks = counting(monkeypatch, construct, "verify_hypotheses")
    assert main(["construct", str(path)]) == 0
    assert capsys.readouterr().out == fileio.format_facets(catalog.get("A5_41"))
    assert len(checks) == 1  # the construction's own check, not a second one


def test_failing_family_reports_the_hypotheses(tmp_path, capsys, monkeypatch):
    family = TreeFamily(Graph(3, [(0, 1), (1, 2)]),
                        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})), 1)
    path = tmp_path / "broken.tree"
    fileio.save_tree_family(family, path)
    checks = counting(monkeypatch, construct, "verify_hypotheses")
    assert main(["construct", str(path)]) == 1
    out, err = capsys.readouterr()
    report = construct.verify_hypotheses(family)
    assert not report.passed and out == ""
    assert err == "construction hypotheses failed:\n" + report.summary() + "\n"
    assert len(checks) == 2  # one by construct, one by this test


def traced_memory(call):
    """``call()`` under tracemalloc: its result, the bytes it left allocated
    and its peak."""
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def test_dual_graph_retains_flat_arrays():
    K = Complex(random_stacked_sphere(4, 800, seed=1).facets)
    K._cofaces(K.dim)  # the table is the complex's, not the graph's
    G, retained, _ = traced_memory(lambda: classify.dual_graph(K))
    assert (K.num_facets, G.num_edges) == (3202, 8005)
    # two 4-byte ids per edge and one offset per facet; a Python object per
    # edge or per facet would not fit
    assert retained <= 32 * (K.num_facets + G.num_edges)


def test_orientation_walks_the_table():
    K = Complex(random_stacked_sphere(4, 800, seed=1).facets)
    K._cofaces(K.dim)
    orientable, _, peak = traced_memory(lambda: is_orientable(K))
    assert orientable and K.num_facets == 3202
    assert peak <= 32 * K.num_facets  # no neighbour list per facet


def test_brute_force_reads_betti_numbers_under_masks(monkeypatch):
    # RP^2 on 6 vertices: tight over GF(2), not over Q, and some Y_W carry
    # homology, so both the subcomplex and the relative runs happen
    rp2 = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
           (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]
    K = Complex(rp2)
    matrices = counting(monkeypatch, homology, "boundary_matrix")
    runs = counting(monkeypatch, homology, "_betti")
    assert is_tight_bruteforce(K, GF2) and not is_tight_bruteforce(K, Q)
    assert matrices == []
    assert any(len(args) == 3 for args in runs)  # masked runs did happen
    # the masked runs memoize nothing: K keeps its own tables and facts
    kinds = {key if isinstance(key, str) else key[0] for key in K._facts}
    assert kinds <= {"faces", "cofaces", "vertex_components", "coreduction",
                     "betti", "stacking_residual", "f_vector"}
    fresh = Complex(rp2)
    assert K._facts["coreduction"] == homology._coreduction(fresh)
    for field in (GF2, Q):
        assert K._facts[("betti", field)] == betti_numbers(fresh, field)
