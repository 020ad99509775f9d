"""The per-complex memo: facts are computed once per instance and reused.

``verify`` asks for Walkup-class membership, tightness, the homeomorphism
type and the lower bounds, which all rest on one fact: every vertex link is
a stacked sphere.  These tests count the work behind that fact and check
that equal but distinct instances do not share a memo.
"""

import json

import pytest

from walkup import (GF2, Q, Complex, DomainError, betti_numbers, catalog,
                    check_lower_bounds, classify, fileio, homology,
                    in_walkup_class, symmetry, verify_aut_equality)
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


def test_verify_computes_each_walkup_verdict_once(capsys, monkeypatch):
    real_get = catalog.get
    fresh = Complex(real_get("M4_41").facets)  # nothing memoized yet
    monkeypatch.setattr(catalog, "get",
                        lambda name: fresh if name == "M4_41" else real_get(name))
    stacked = counting(monkeypatch, classify, "is_stacked_sphere")
    verdicts = counting(monkeypatch, classify, "_walkup_verdict")
    assert main(["verify", "M4_41"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["walkup"] == {"K": True, "Kbar": False, "Kstar": True}
    assert doc["tightness"]["certified"]
    assert doc["homeomorphism_type"]["type"] == "(S3xS1)^#42"
    # the 41 vertex links plus the complex itself; the parent code made 165
    assert len(stacked) <= fresh.num_vertices + 1 == 42
    assert sorted(v for _, v in verdicts) == ["K", "Kbar", "Kstar"]


def test_verify_builds_the_dual_graph_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ball.facets"
    path.write_text(fileio.format_facets(random_stacked_ball(4, 40, seed=7)))
    builds = counting(monkeypatch, classify, "_dual_graph")
    assert main(["verify", str(path)]) == 0
    props = json.loads(capsys.readouterr().out)["properties"]
    assert props["stacked_ball"] and props["tree_dual_graph"]
    # the 3-dimensional vertex links are tested for stacked balls and build
    # dual graphs of their own; the input's serves both the properties and
    # the stacked-ball test
    assert [K.dim for (K,) in builds].count(4) == 1


def test_dual_graph_is_memoized():
    K = Complex(catalog.get("A5_21").facets)
    assert classify.dual_graph(K) is classify.dual_graph(K)
    assert classify.dual_graph(K) is not classify.dual_graph(Complex(K.facets))


def test_equal_instances_keep_separate_memos(monkeypatch):
    # one store of boundary rows per instance: a table for each of d_1 ... d_4
    tables = counting(monkeypatch, homology, "_boundary_rows")
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
