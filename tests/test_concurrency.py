"""Smoke test for the documented thread-safety of the public operations.

Complexes memoize derived facts lazily; hammering one instance from several
threads must neither raise nor produce divergent answers.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

from walkup import (GF2, Complex, betti_numbers, catalog, dual_graph,
                    in_walkup_class)
from walkup.symmetry import automorphism_group


def test_shared_complex_across_threads():
    K = catalog.get("N4_21")

    def probe(_):
        return (
            tuple(K.f_vector().counts),
            betti_numbers(K, GF2).values,
            dual_graph(K).num_edges,
            in_walkup_class(K, "Kstar"),
            automorphism_group(K).order,
        )

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(probe, range(16)))
    assert len(set(results)) == 1
    fv, betti, edges, kstar, order = results[0]
    assert fv == (21, 210, 490, 525, 210)
    assert betti == (1, 8, 0, 8, 1)
    assert kstar and order == 7


def test_fresh_equal_complexes_across_threads():
    # equal but distinct instances exercise their own memos independently
    def probe(i):
        K = catalog.get("A5_21").relabeled(tuple(range(21)))
        return betti_numbers(K, GF2).values

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(probe, range(8)))
    assert set(results) == {(1, 8, 0, 0, 0, 0)}


def test_racing_threads_all_return_the_stored_fact():
    # setdefault keeps the first value stored; a thread that lost the race
    # returns that value, not its own copy, so every thread sees one object
    facets = catalog.get("M4_21").facets
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        K = Complex(facets)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: (betti_numbers(K, GF2),
                                            automorphism_group(K),
                                            K.ridge_incidence()))
                       for _ in range(16)]
            results = [f.result(timeout=120) for f in futures]
        for i in range(3):
            assert len({id(r[i]) for r in results}) == 1
        assert results[0][0].values == (1, 8, 0, 8, 1)
    finally:
        sys.setswitchinterval(previous)
