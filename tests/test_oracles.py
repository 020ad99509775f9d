"""Cross-validation of the optimized kernels against naive reference code.

The implementations under test use heap-ordered sparse elimination and a
pruned backtracking search; the oracles here are the slowest possible
versions of the same questions (dense list elimination, all-permutations
enumeration), so any pivoting or pruning bug shows up as a disagreement.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from walkup import (GF2, Q, Complex, DomainError, GeneralComplex,
                    betti_numbers, boundary_matrix, catalog, homology,
                    is_stacked_sphere)
from walkup.generators import (cross_polytope_boundary, random_stacked_ball,
                               random_stacked_sphere, random_tree_complex,
                               standard_sphere)
from walkup.linalg import gf2_rank, int_rank
from walkup.symmetry import (_edge_link_counts, _initial_colors,
                             _pair_invariants, _refine_pair,
                             _vertex_link_counts, automorphism_group,
                             group_elements)

ORACLE_SEED = 424242
CATALOG_COMPLEXES = ("A5_21", "A5_41", "B5_21", "B5_26", "M4_21", "M4_41",
                     "N4_21", "N4_26", "S4_6")


def naive_rank_mod2(rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col] % 2:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] % 2:
                m[i] = [(a + b) % 2 for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def naive_rank_rational(rows: list[list[int]]) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def naive_betti(K, field):
    d = K.dim
    counts = [len(K.faces(j)) for j in range(d + 1)]
    ranks = [0] * (d + 2)
    for j in range(1, d + 1):
        mat = boundary_matrix(K, j, field)
        dense = [[0] * len(mat.col_faces) for _ in mat.row_faces]
        for c, col in enumerate(mat.columns):
            for i, s in col:
                dense[i][c] = s
        ranks[j] = (naive_rank_mod2(dense) if field == GF2
                    else naive_rank_rational(dense))
    return tuple(counts[j] - ranks[j] - ranks[j + 1] for j in range(d + 1))


def naive_automorphisms(K) -> frozenset:
    n = K.num_vertices
    facet_set = {frozenset(f) for f in K.facets}
    found = []
    for p in itertools.permutations(range(n)):
        if all(frozenset(p[v] for v in f) in facet_set for f in K.facets):
            found.append(p)
    return frozenset(found)


def enumerated_automorphisms(K) -> frozenset:
    """Every automorphism, one leaf at a time, with no pruning by the group.

    Same invariants and refinement as the library search, but the search
    tree is walked to every leaf and each leaf is checked against the facet
    set, so orbit pruning and the order-from-orbits bookkeeping play no part.
    """
    n = K.num_vertices
    facets = [tuple(f) for f in K.facets]
    facet_set = {frozenset(f) for f in facets}
    pinv = _pair_invariants(K, n)
    base = _initial_colors(K, n, pinv)
    refined = _refine_pair(list(base), list(base), pinv, n)
    found = set()

    def descend(dom, cod):
        classes = {}
        for v in range(n):
            classes.setdefault(dom[v], ([], []))[0].append(v)
        for w in range(n):
            classes.setdefault(cod[w], ([], []))[1].append(w)
        multi = [(len(dvs), min(dvs), c)
                 for c, (dvs, cws) in classes.items() if len(dvs) > 1]
        if not multi:
            perm = [0] * n
            for dvs, cws in classes.values():
                perm[dvs[0]] = cws[0]
            p = tuple(perm)
            if all(frozenset(p[v] for v in f) in facet_set for f in facets):
                found.add(p)
            return
        _, _, color = min(multi)
        dvs, cws = classes[color]
        v = min(dvs)
        for w in sorted(cws):
            dom2, cod2 = list(dom), list(cod)
            dom2[v] = cod2[w] = n
            result = _refine_pair(dom2, cod2, pinv, n)
            if result is not None:
                descend(*result)

    descend(*refined)
    return frozenset(found)


@st.composite
def small_pure_complexes(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=dim + 1, max_value=6))
    pool = list(itertools.combinations(range(n), dim + 1))
    facets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    K = Complex(facets)
    # densify so the automorphism search accepts the complex
    return K.relabeled({v: i for i, v in enumerate(K.vertices)})


@st.composite
def small_non_pure_complexes(draw):
    """Maximal faces of mixed dimension (0 to 3) on at most 6 vertices."""
    n = draw(st.integers(min_value=2, max_value=6))
    face = st.lists(st.integers(min_value=0, max_value=n - 1),
                    min_size=1, max_size=4, unique=True)
    K = GeneralComplex(draw(st.lists(face, min_size=2, max_size=7)))
    assume(not K.is_pure)
    return K


@st.composite
def small_integer_matrices(draw):
    """Dense rows with entries in -3..3, plus zero rows and repeated rows.

    Entries other than +-1 force non-unit pivots, gcd row scaling and
    content division, which the +-1 boundary matrices barely reach; zero
    and repeated rows must eliminate to nothing.
    """
    ncols = draw(st.integers(min_value=1, max_value=6))
    entries = st.lists(st.integers(min_value=-3, max_value=3),
                       min_size=ncols, max_size=ncols)
    rows = draw(st.lists(entries, min_size=1, max_size=6))
    rows += [list(r) for r in draw(st.lists(st.sampled_from(rows), max_size=3))]
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows))


class TestRanksAgainstNaiveElimination:
    @settings(max_examples=300)
    @given(small_integer_matrices())
    def test_int_rank(self, rows):
        # zero entries are passed through: the front end must drop them
        assert int_rank([dict(enumerate(r)) for r in rows]) \
            == naive_rank_rational(rows)

    @settings(max_examples=300)
    @given(small_integer_matrices())
    def test_gf2_rank(self, rows):
        packed = [sum(1 << c for c, v in enumerate(r) if v % 2) for r in rows]
        assert gf2_rank(packed) == naive_rank_mod2(rows)


class TestHomologyAgainstNaiveElimination:
    @given(st.one_of(small_pure_complexes(), small_non_pure_complexes()))
    def test_betti_both_fields(self, K):
        for field in (GF2, Q):
            assert betti_numbers(K, field).values == naive_betti(K, field)

    def test_seeded_spheres_and_balls(self):
        rng = random.Random(ORACLE_SEED)
        for _ in range(25):
            ball = random_stacked_ball(rng.randint(2, 3), rng.randint(2, 7),
                                       seed=rng.randint(0, 10 ** 9))
            sphere = ball.boundary_complex()
            for K in (ball, sphere):
                for field in (GF2, Q):
                    assert betti_numbers(K, field).values \
                        == naive_betti(K, field)

    def test_projective_plane_against_oracle(self):
        rp2 = Complex([(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                       (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)])
        assert betti_numbers(rp2, GF2).values == naive_betti(rp2, GF2)
        assert betti_numbers(rp2, Q).values == naive_betti(rp2, Q)


def fully_eliminated_betti(K, field):
    """Betti numbers from a full elimination of every boundary matrix."""
    ranks = [0] + [boundary_matrix(K, j, field).rank()
                   for j in range(1, K.dim + 1)] + [0]
    return tuple(len(K.faces(j)) - ranks[j] - ranks[j + 1]
                 for j in range(K.dim + 1))


class TestCoreductionAgainstFullElimination:
    """Betti numbers of the coreduced complex equal those of the whole one."""

    @staticmethod
    def coreduced(K, field):
        got = betti_numbers(K, field).values
        assert got == fully_eliminated_betti(K, field), (K, field)
        return got

    @given(st.one_of(small_pure_complexes(), small_non_pure_complexes()))
    def test_small_complexes(self, K):
        for field in (GF2, Q):
            self.coreduced(K, field)

    def test_one_base_per_component(self):
        two_spheres = Complex(itertools.chain(
            itertools.combinations(range(4), 3),
            itertools.combinations(range(4, 8), 3)))
        assert homology._coreduction(two_spheres)[2] == 2
        assert self.coreduced(two_spheres, GF2) == (2, 0, 2)
        loose = GeneralComplex([(0, 1, 2), (1, 3), (2, 3), (4,), (5,)])
        assert homology._coreduction(loose)[2] == 3
        for field in (GF2, Q):
            assert self.coreduced(loose, field) == (3, 1, 0)

    def test_fields_differ(self):
        rp2 = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
               (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]
        suspension = Complex([f + (a,) for f in rp2 for a in (6, 7)])
        assert self.coreduced(suspension, GF2) == (1, 0, 1, 1)
        assert self.coreduced(suspension, Q) == (1, 0, 0, 0)
        N = Complex(catalog.get("N4_21").facets)
        assert self.coreduced(N, GF2)[3] == 8
        assert self.coreduced(N, Q)[3] == 7
        # coreduction stalls here: most of N is left to eliminate
        _, alive, _ = homology._coreduction(N)
        assert [m.count(1) for m in alive] == [0, 120, 320, 375, 160]

    def test_cross_polytopes(self):
        for d in (3, 4):
            K = cross_polytope_boundary(d)
            for field in (GF2, Q):
                assert self.coreduced(K, field) == (1,) + (0,) * (d - 2) + (1,)

    @pytest.mark.slow
    def test_3200_facet_stacked_sphere(self):
        S = random_stacked_sphere(4, 3200, seed=1)
        for field in (GF2, Q):
            assert self.coreduced(S, field) == (1, 0, 0, 0, 1)


def naive_is_tight(K, field) -> bool:
    """From-scratch tightness check: no incremental subset bookkeeping.

    For each vertex subset the faces are re-filtered, the boundary matrices
    are rebuilt densely, and kernels and joint ranks run through the naive
    eliminations above.  Injectivity of the induced map in homology is the
    same rank condition: cycles of the subcomplex meeting boundaries of the
    whole complex must be exactly the boundaries of the subcomplex.
    """
    if not K.is_connected():
        return False
    verts = K.vertices
    dim = K.dim
    faces = [list(K.faces(j)) for j in range(dim + 1)]

    def dense_boundary(rows_faces, cols_faces):
        index = {f: i for i, f in enumerate(rows_faces)}
        mat = [[0] * len(cols_faces) for _ in rows_faces]
        for c, f in enumerate(cols_faces):
            for i in range(len(f)):
                sign = 1 if field == GF2 else (-1) ** i
                mat[index[f[:i] + f[i + 1:]]][c] = sign
        return mat

    def rank(mat):
        if not mat or not mat[0]:
            return 0
        return naive_rank_mod2(mat) if field == GF2 \
            else naive_rank_rational(mat)

    def kernel_basis(mat, ncols):
        # solve M x = 0 by RREF over the field; returns dense vectors
        if ncols == 0:
            return []
        if not mat:
            return [[1 if i == f else 0 for i in range(ncols)]
                    for f in range(ncols)]
        if field == GF2:
            m = [[x % 2 for x in row] for row in mat]
        else:
            m = [[Fraction(x) for x in row] for row in mat]
        pivots = []
        rank_rows = 0
        for col in range(ncols):
            sel = next((i for i in range(rank_rows, len(m)) if m[i][col]),
                       None)
            if sel is None:
                continue
            m[rank_rows], m[sel] = m[sel], m[rank_rows]
            pv = m[rank_rows][col]
            if field == GF2:
                pass  # pivot is already 1
            else:
                m[rank_rows] = [x / pv for x in m[rank_rows]]
            for i in range(len(m)):
                if i != rank_rows and m[i][col]:
                    f = m[i][col]
                    if field == GF2:
                        m[i] = [(a + b) % 2 for a, b in zip(m[i], m[rank_rows])]
                    else:
                        m[i] = [a - f * b for a, b in zip(m[i], m[rank_rows])]
            pivots.append((rank_rows, col))
            rank_rows += 1
        pivot_cols = {c for _, c in pivots}
        basis = []
        for free in range(ncols):
            if free in pivot_cols:
                continue
            vec = [0] * ncols
            vec[free] = 1
            for r, c in pivots:
                if m[r][free]:
                    vec[c] = (-m[r][free]) % 2 if field == GF2 else -m[r][free]
            basis.append(vec)
        return basis

    global_boundaries = [dense_boundary(faces[j], faces[j + 1])
                         if j < dim else [] for j in range(dim + 1)]
    bdim_x = [rank(global_boundaries[j]) for j in range(dim + 1)]

    for bits in range(1, 1 << len(verts)):
        w = {verts[i] for i in range(len(verts)) if (bits >> i) & 1}
        sub = [[f for f in faces[j] if set(f) <= w] for j in range(dim + 1)]
        for j in range(dim + 1):
            if not sub[j]:
                continue
            dim_b_y = rank(dense_boundary(sub[j], sub[j + 1])
                           if j < dim and sub[j + 1] else [])
            kernel = kernel_basis(
                dense_boundary(sub[j - 1], sub[j]) if j > 0 else [],
                len(sub[j]))
            if len(kernel) == dim_b_y:
                continue
            # lift kernel vectors into whole-complex coordinates and join
            # with the boundary columns of the ambient complex
            positions = [faces[j].index(f) for f in sub[j]]
            lifted = []
            for vec in kernel:
                dense = [0] * len(faces[j])
                for p, value in zip(positions, vec):
                    dense[p] = value
                lifted.append(dense)
            ambient_cols = []
            if j < dim and faces[j + 1]:
                gb = global_boundaries[j]
                for c in range(len(faces[j + 1])):
                    ambient_cols.append([gb[r][c] for r in range(len(faces[j]))])
            joint = rank(lifted + ambient_cols)
            if len(kernel) + bdim_x[j] - joint != dim_b_y:
                return False
    return True


class TestTightnessAgainstNaiveRecomputation:
    def test_known_cases_both_fields(self):
        from walkup import is_tight_bruteforce
        from walkup.generators import standard_sphere
        cases = [
            standard_sphere(2),                            # tight
            standard_sphere(3),                            # tight
            Complex([(0, 1), (1, 2), (2, 3), (0, 3)]),     # four-cycle: not
            Complex([(0, 1), (1, 2), (0, 2)]),             # triangle: tight
            random_stacked_sphere(2, 2, seed=3),           # bipyramid: not
            Complex([(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                     (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]),
            # non-pure: maximal faces of mixed dimension
            GeneralComplex([(0, 1, 2), (2, 3)]),           # whisker: not
            GeneralComplex([(0, 1, 2), (0, 3), (1, 3), (2, 3)]),
            GeneralComplex([(0, 1, 2, 3), (0, 4), (1, 4), (2, 4), (3, 4)]),
            GeneralComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                            (0, 4), (1, 4), (2, 4), (3, 4)]),
            GeneralComplex([(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5),
                            (0, 4, 5), (1, 2, 5), (1, 3, 4), (1, 4, 5),
                            (2, 3, 4), (2, 3, 5), (0, 6), (1, 6), (2, 6),
                            (3, 6), (4, 6), (5, 6)]),
        ]
        for K in cases:
            for field in (GF2, Q):
                assert is_tight_bruteforce(K, field) \
                    == naive_is_tight(K, field), (K, field)

    @settings(max_examples=200)
    @given(st.one_of(small_pure_complexes(), small_non_pure_complexes()))
    def test_random_complexes_agree(self, K):
        from walkup import is_tight_bruteforce
        for field in (GF2, Q):
            assert is_tight_bruteforce(K, field) == naive_is_tight(K, field)


class TestAutomorphismsAgainstFullEnumeration:
    @given(small_pure_complexes())
    def test_pruned_search_matches_enumeration(self, K):
        assert group_elements(K) == naive_automorphisms(K)

    def test_seeded_spheres(self):
        rng = random.Random(ORACLE_SEED + 1)
        for _ in range(15):
            S = random_stacked_sphere(2, rng.randint(1, 4),
                                      seed=rng.randint(0, 10 ** 9))
            if S.num_vertices > 7:
                continue
            assert group_elements(S) == naive_automorphisms(S)

    def test_catalog_sample_against_enumeration(self):
        S = catalog.get("standard_sphere(3)")
        assert group_elements(S) == naive_automorphisms(S)
        assert automorphism_group(S).order == 120

    def test_enumeration_oracle_matches_brute_force(self):
        for K in (standard_sphere(2), cross_polytope_boundary(3),
                  Complex([(0, 1), (2, 3), (3, 4)])):
            assert enumerated_automorphisms(K) == naive_automorphisms(K)

    def test_catalog_against_unpruned_search(self):
        complexes = [catalog.get(name) for name in CATALOG_COMPLEXES]
        complexes += [cross_polytope_boundary(3), cross_polytope_boundary(4)]
        for K in complexes:
            assert group_elements(K) == enumerated_automorphisms(K)

    def test_symmetric_group_orders(self):
        for d in range(9):
            assert automorphism_group(standard_sphere(d)).order \
                == math.factorial(d + 2), d

    def test_hyperoctahedral_group_orders(self):
        # cross_polytope_boundary(d) has d antipodal pairs: order 2^d * d!
        for d in range(1, 6):
            assert automorphism_group(cross_polytope_boundary(d)).order \
                == 2 ** d * math.factorial(d), d


def scanned_link(K, face) -> Complex:
    """Oracle: the link of a face by a scan over every facet."""
    fs = set(face)
    return Complex(tuple(v for v in f if v not in fs)
                   for f in K.facets if fs <= set(f))


class TestLinkInvariantsAgainstLinks:
    """The automorphism invariants count faces through a vertex or an edge
    in the face tables; each count must be the f-vector of the link itself,
    and each link must equal the one found by scanning every facet."""

    def test_vertex_and_edge_link_f_vectors(self):
        complexes = [catalog.get(name) for name in CATALOG_COMPLEXES]
        complexes += [cross_polytope_boundary(3), cross_polytope_boundary(4),
                      standard_sphere(5)]
        complexes += [random_stacked_sphere(4, 50, seed=ORACLE_SEED + s)
                      for s in range(3)]
        for K in complexes:
            for v in K.vertices:
                link = K.link(v)
                assert link == scanned_link(K, (v,))
                assert _vertex_link_counts(K, v) == link.f_vector().counts
            edge_links = _edge_link_counts(K)
            assert sorted(edge_links) == list(K.faces(1))
            for edge, counts in edge_links.items():
                link = K.link(edge)
                assert link == scanned_link(K, edge)
                assert counts == link.f_vector().counts


def restarting_is_stacked_sphere(K) -> bool:
    """Oracle: reverse stacking that rescans every vertex after each move."""
    d = K.dim
    if d < 1:
        raise DomainError("stacked sphere test needs dimension >= 1")
    if any(len(owners) != 2 for owners in K.ridge_incidence().values()):
        raise DomainError("not a closed weak pseudomanifold")
    facet_set = set(K.facets)
    incidence = {v: {f for f in K.facets if v in f} for v in K.vertices}
    while True:
        if len(incidence) == d + 2 and len(facet_set) == d + 2:
            return True
        for v in sorted(incidence):
            stars = incidence[v]
            around = set().union(*stars) - {v}
            if len(stars) == d + 1 and len(around) == d + 1:
                break
        else:
            return False
        tau = tuple(sorted(around))
        if tau in facet_set:
            return False
        for f in stars:
            facet_set.discard(f)
            for u in f:
                if u != v:
                    incidence[u].discard(f)
        del incidence[v]
        facet_set.add(tau)
        for u in tau:
            incidence[u].add(tau)


class TestStackedSphereAgainstRestarts:
    """``is_stacked_sphere`` revisits only the vertices a move touched; the
    oracle rescans every vertex after each move."""

    @staticmethod
    def verdict(check, K):
        try:
            return check(K)
        except DomainError:
            return "rejected"

    def test_spheres_polytopes_and_links(self):
        complexes = [random_stacked_sphere(d, n, seed=ORACLE_SEED + n)
                     for d in (1, 2, 3, 4) for n in (1, 2, 9, 60)]
        complexes += [cross_polytope_boundary(3), cross_polytope_boundary(4)]
        complexes += [standard_sphere(d) for d in range(1, 7)]
        # two disjoint simplex boundaries: a move would fill in a facet
        # that already exists
        complexes.append(Complex(list(standard_sphere(2).facets)
                                 + [tuple(v + 4 for v in f)
                                    for f in standard_sphere(2).facets]))
        for name in CATALOG_COMPLEXES:
            K = catalog.get(name)
            complexes += [K.link(v) for v in K.vertices]
        verdicts = set()
        for K in complexes:
            want = self.verdict(restarting_is_stacked_sphere, K)
            assert self.verdict(is_stacked_sphere, K) == want, K
            verdicts.add(want)
        assert verdicts == {True, False, "rejected"}


def rescanned_free_ridges(facets) -> list:
    """Ridges in exactly one facet, recounted from every facet."""
    count: dict = {}
    for f in facets:
        for ridge in itertools.combinations(f, len(f) - 1):
            count[ridge] = count.get(ridge, 0) + 1
    return sorted(r for r, c in count.items() if c == 1)


def rescanning_stacked_ball(dim, num_facets, seed):
    rng = random.Random(seed)
    facets = {tuple(range(dim + 1))}
    next_vertex = dim + 1
    while len(facets) < num_facets:
        ridge = rng.choice(rescanned_free_ridges(facets))
        facets.add(tuple(sorted(ridge + (next_vertex,))))
        next_vertex += 1
    return Complex(facets)


def rescanning_tree_complex(dim, num_facets, seed, fresh_vertex_prob=0.6):
    rng = random.Random(seed)
    facets = {tuple(range(dim + 1))}
    vertices = set(range(dim + 1))
    next_vertex = dim + 1
    while len(facets) < num_facets:
        ridge = rng.choice(rescanned_free_ridges(facets))
        new_facet = None
        if rng.random() >= fresh_vertex_prob:
            pool = sorted(vertices - set(ridge))
            rng.shuffle(pool)
            for v in pool[:8]:
                cand = tuple(sorted(ridge + (v,)))
                if cand in facets:
                    continue
                # every facet that shares dim vertices (a ridge) with cand
                neighbors = sum(1 for f in facets
                                if len(set(cand) & set(f)) == dim)
                if neighbors == 1:
                    new_facet = cand
                    break
        if new_facet is None:
            new_facet = tuple(sorted(ridge + (next_vertex,)))
            next_vertex += 1
        facets.add(new_facet)
        vertices.update(new_facet)
    return Complex(facets)


class TestGeneratorsAgainstRescanning:
    """The generators keep their free ridges up to date incrementally; the
    oracles recount them from every facet on each step.  Both draw from the
    same sorted list, so every seed must give the identical complex."""

    CASES = [(dim, n, seed) for dim in (1, 2, 3, 4) for n in (1, 2, 9, 60)
             for seed in (0, 1, 7, ORACLE_SEED)]

    def test_stacked_balls_and_spheres(self):
        for dim, n, seed in self.CASES:
            ball = rescanning_stacked_ball(dim, n, seed)
            assert random_stacked_ball(dim, n, seed) == ball, (dim, n, seed)
            assert random_stacked_sphere(dim - 1, n, seed) \
                == ball.boundary_complex(), (dim, n, seed)

    def test_tree_complexes(self):
        for dim, n, seed in self.CASES:
            assert random_tree_complex(dim, n, seed) \
                == rescanning_tree_complex(dim, n, seed), (dim, n, seed)
        # mostly reused vertices: the neighbour count decides most steps
        for dim in (2, 3):
            for seed in range(5):
                assert random_tree_complex(dim, 80, seed, 0.05) \
                    == rescanning_tree_complex(dim, 80, seed, 0.05), (dim, seed)
