"""Acceptance suite: every criterion at its stated tolerance, one line each.

All numeric comparisons are exact (tolerance zero).  Random structures use
the fixed seeds below; the counts (1000 balls, 1000 tree complexes, 500
chain-identity subjects, 100 spheres, 20 relabelings) are the stated ones.
"""

import random
import time

from walkup import (GF2, Q, Complex, betti_numbers, catalog, certify_tight,
                    complex_from_tree_family, composes_to_zero,
                    check_lower_bounds, dual_graph, expand_orbit,
                    in_walkup_class, is_orientable, is_stacked_ball,
                    is_stacked_sphere, is_tight_bruteforce,
                    tree_family_from_complex, verify_aut_equality,
                    verify_hypotheses)
from walkup.catalog import TABLE1_NAMES, a541_tree_family, presentation
from walkup.generators import (cross_polytope_boundary, random_stacked_ball,
                               random_stacked_sphere, random_tree_complex)
from walkup.symmetry import automorphism_group

SEED_BALLS = 20251
SEED_TREES = 20252
SEED_CHAIN = 20253
SEED_SPHERES = 20254
SEED_RELABEL = 20255

FIVE_TO_FOUR = (("A5_21", "M4_21"), ("B5_21", "N4_21"),
                ("B5_26", "N4_26"), ("A5_41", "M4_41"))


def report(number: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:2d} [{status}] {label}")
    assert not failures, failures[:10]


def test_criterion_01_reference_table_reproduction():
    failures = []
    start = time.perf_counter()
    for name in TABLE1_NAMES:
        K = catalog.get(name)
        want = catalog.expected(name)
        fv = K.f_vector()
        if tuple(fv.counts) != want.f_vector:
            failures.append((name, "f_vector", tuple(fv.counts)))
        if fv.chi != want.chi:
            failures.append((name, "chi", fv.chi))
        beta1 = betti_numbers(K, GF2)[1]
        if beta1 != want.beta1:
            failures.append((name, "beta1", beta1))
        order = automorphism_group(K).order
        if order != want.aut_order:
            failures.append((name, "aut_order", order))
        orientable = is_orientable(K)
        if orientable != want.orientable:
            failures.append((name, "orientable", orientable))
    elapsed = time.perf_counter() - start
    if elapsed > 300:
        failures.append(("runtime", elapsed))
    report(1, f"reference table reproduced exactly ({elapsed:.1f}s)", failures)


def test_criterion_02_orbit_expansion_facet_counts():
    failures = []
    for name, count in (("A5_21", 56), ("B5_21", 56),
                        ("B5_26", 91), ("A5_41", 246)):
        got = expand_orbit(presentation(name)).num_facets
        if got != count:
            failures.append((name, got, count))
    report(2, "orbit expansions give 56/56/91/246 facets", failures)


def test_criterion_03_walkup_membership_and_skeleta():
    failures = []
    for five, four in FIVE_TO_FOUR:
        N = catalog.get(five)
        M = catalog.get(four)
        if not in_walkup_class(N, "Kbar"):
            failures.append((five, "Kbar"))
        if not in_walkup_class(M, "Kstar"):
            failures.append((four, "Kstar"))
        if N.skeleton(3) != M.skeleton(3):
            failures.append((five, "skeleton equality"))
    report(3, "Kbar(5)/Kstar(4) membership and 3-skeleton equality", failures)


def test_criterion_04_construction_pipeline():
    failures = []
    family = a541_tree_family()
    if not verify_hypotheses(family).passed:
        failures.append("hypotheses fail on the 41-vertex family")
    built = complex_from_tree_family(family)
    if built != catalog.get("A5_41"):
        failures.append("construction does not match the orbit expansion")
    for five, _ in FIVE_TO_FOUR:
        K = catalog.get(five)
        if complex_from_tree_family(tree_family_from_complex(K)) != K:
            failures.append((five, "round trip not identity"))
    report(4, "subtree-family construction pipeline and round trips", failures)


def test_criterion_05_lower_bound_equalities():
    failures = []
    expected_b = {"M4_21": 120, "N4_21": 120, "N4_26": 210, "M4_41": 630}
    for name in TABLE1_NAMES:
        K = catalog.get(name)
        beta1 = betti_numbers(K, GF2)[1]
        rep = check_lower_bounds(K, beta1)
        if not (rep.b_equality and rep.b_lhs == expected_b[name]
                and rep.b_rhs == 15 * beta1):
            failures.append((name, "vertex bound", rep.b_lhs, rep.b_rhs))
        j1 = rep.entries[0]
        fv = K.f_vector()
        if not (j1.equality and 2 * j1.actual == 10 * fv[0] - 15 * fv.chi):
            failures.append((name, "edge bound", j1.actual, j1.bound))
    report(5, "lower-bound equalities: vertex bound and edge bound", failures)


def test_criterion_06_euler_characteristic_formula():
    failures = []
    corpus = [catalog.get(name) for name in TABLE1_NAMES]
    corpus.append(catalog.get("S4_6"))
    rng = random.Random(SEED_SPHERES)
    spheres = [random_stacked_sphere(4, rng.randint(1, 8),
                                     seed=rng.randint(0, 10 ** 9))
               for _ in range(100)]
    for i, S in enumerate(spheres):
        if S.euler_characteristic != 2:
            failures.append(("sphere", i, "chi", S.euler_characteristic))
    corpus.extend(spheres)
    for i, K in enumerate(corpus):
        if not in_walkup_class(K, "K"):
            failures.append((i, "not in class K"))
            continue
        chi = K.euler_characteristic
        beta1 = betti_numbers(K, GF2)[1]
        if chi != 2 - 2 * beta1:
            failures.append((i, "chi", chi, "beta1", beta1))
    report(6, "chi = 2 - 2*beta1 across the class-K corpus "
              f"({len(corpus)} complexes)", failures)


def test_criterion_07_homology_engine_properties():
    failures = []
    for name in TABLE1_NAMES + ("A5_21", "B5_21", "B5_26", "A5_41", "S4_6",
                                "nonball_example"):
        K = catalog.get(name)
        for field in (GF2, Q):
            for j in range(2, K.dim + 1):
                if not composes_to_zero(K, j, field):
                    failures.append((name, field, j, "boundary composition"))
    rng = random.Random(SEED_CHAIN)
    for i in range(250):
        ball = random_stacked_ball(rng.randint(2, 4), rng.randint(2, 9),
                                   seed=rng.randint(0, 10 ** 9))
        sphere = ball.boundary_complex()
        for K in (ball, sphere):  # 500 subjects in total
            field = GF2 if i % 2 == 0 else Q
            for j in range(2, K.dim + 1):
                if not composes_to_zero(K, j, field):
                    failures.append(("random", i, field, j))
    for name in TABLE1_NAMES:
        values = betti_numbers(catalog.get(name), GF2).values
        if values != tuple(reversed(values)):
            failures.append((name, "duality", values))
    for name in ("M4_21", "M4_41", "S4_6"):
        K = catalog.get(name)
        if betti_numbers(K, GF2).values != betti_numbers(K, Q).values:
            failures.append((name, "field agreement"))
    report(7, "chain identity, GF(2) duality, field agreement", failures)


def test_criterion_08_stackedness_oracles():
    failures = []
    rng = random.Random(SEED_BALLS)
    for i in range(1000):
        d = rng.randint(2, 5)
        m = rng.randint(1, 30)
        ball = random_stacked_ball(d, m, seed=rng.randint(0, 10 ** 9))
        if not is_stacked_ball(ball):
            failures.append(("ball", i, d, m))
        if not is_stacked_sphere(ball.boundary_complex()):
            failures.append(("sphere", i, d, m))
    if is_stacked_ball(catalog.get("nonball_example")):
        failures.append("ring complex accepted as a stacked ball")
    if is_stacked_sphere(cross_polytope_boundary(3)):
        failures.append("octahedron accepted as a stacked sphere")
    rng = random.Random(SEED_TREES)
    for i in range(1000):
        d = rng.randint(2, 5)
        m = rng.randint(1, 25)
        K = random_tree_complex(d, m, seed=rng.randint(0, 10 ** 9))
        if not dual_graph(K).is_tree():
            failures.append(("tree shape", i))
        if K.num_vertices > K.num_facets + K.dim:
            failures.append(("vertex bound", i, K.num_vertices, K.num_facets))
    report(8, "stacked-ball/sphere oracles on 1000+1000 seeded structures",
           failures)


def test_criterion_09_tightness():
    failures = []
    start = time.perf_counter()
    if not is_tight_bruteforce(catalog.get("S4_6"), GF2):
        failures.append("6-vertex 4-sphere not tight by brute force")
    elapsed = time.perf_counter() - start
    if elapsed > 1.0:
        failures.append(("brute force runtime", elapsed))
    expected_fields = {"M4_21": Q, "M4_41": Q, "N4_21": GF2, "N4_26": GF2}
    for name, field in expected_fields.items():
        cert = certify_tight(catalog.get(name))
        if not (cert.certified and cert.tight and cert.strongly_minimal
                and cert.field == field):
            failures.append((name, cert.field, cert.tight,
                             cert.strongly_minimal))
    report(9, f"tightness: brute force ({elapsed:.2f}s) and certificates",
           failures)


def test_criterion_10_automorphism_equality_and_stability():
    failures = []
    for five, _ in FIVE_TO_FOUR:
        if not verify_aut_equality(catalog.get(five)):
            failures.append((five, "aut equality"))
    # determinism: recomputation from scratch yields the identical description
    probe = catalog.get("B5_26")
    first = automorphism_group(probe).to_dict()
    if automorphism_group(Complex(probe.facets)).to_dict() != first:
        failures.append("recomputation changed the reported group")
    rng = random.Random(SEED_RELABEL)
    for five, _ in FIVE_TO_FOUR:
        K = catalog.get(five)
        n = K.num_vertices
        base = automorphism_group(K).order
        for i in range(20):
            q = list(range(n))
            rng.shuffle(q)
            moved = K.relabeled(tuple(q))
            got = automorphism_group(moved).order
            if got != base:
                failures.append((five, i, got, base))
    report(10, "Aut(M) = Aut(boundary), determinism, relabeling invariance",
           failures)
