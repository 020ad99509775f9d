"""Cross-validation of the optimized kernels against naive reference code.

The implementations under test use the standard sparse reduction (each row
reduced on its last column by a stored pivot row) and a pruned
backtracking search; the oracles here are the slowest possible versions of
the same questions (dense list elimination, all-permutations enumeration),
so any pivoting or pruning bug shows up as a disagreement.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from walkup import (GF2, Q, Complex, DomainError, GeneralComplex, Graph,
                    betti_numbers, boundary_matrix, catalog, classify, cone,
                    dual_graph,
                    homology, in_walkup_class, is_closed, is_orientable,
                    is_pseudomanifold, is_stacked_ball, is_stacked_sphere,
                    is_weak_pseudomanifold, tree_family_from_complex)
from walkup.generators import (attach_along_codim2, cross_polytope_boundary,
                               random_stacked_ball, random_stacked_sphere,
                               random_tree_complex, standard_ball,
                               standard_sphere)
from walkup.linalg import (_fraction_free_into, _sparse_rank, _xor_into,
                           gf2_rank, int_rank)
from walkup.symmetry import (_individualize, _pair_invariants, _refine_pair,
                             automorphism_group, group_elements)

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
    refined = _refine_pair([0] * n, [0] * n, pinv, n)
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

    def test_seeded_sparse_matrices_over_both_fields(self):
        # beyond Hypothesis sizes: up to 20 x 20, with repeated and zero rows;
        # clearing needs the rows to have full rank on the returned columns
        rng = random.Random(ORACLE_SEED)
        for _ in range(60):
            ncols, density = rng.randint(1, 20), rng.random() / 2
            rows = [[rng.randint(-3, 3) if rng.random() < density else 0
                     for _ in range(ncols)] for _ in range(rng.randint(1, 16))]
            rows += [list(rng.choice(rows)) for _ in range(rng.randint(0, 3))]
            rows += [[0] * ncols for _ in range(rng.randint(0, 1))]
            rng.shuffle(rows)
            for combine, naive, entry in (
                    (_xor_into, naive_rank_mod2, lambda v: v % 2),
                    (_fraction_free_into, naive_rank_rational, lambda v: v)):
                cols = _sparse_rank([{c: entry(v) for c, v in enumerate(r)
                                      if entry(v)} for r in rows], combine)
                assert len(cols) == naive(rows)
                assert len(set(cols)) == len(cols)
                assert naive([[r[c] for c in cols] for r in rows]) == len(cols)


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
        assert homology._coreduction(two_spheres)[1] == 2
        assert self.coreduced(two_spheres, GF2) == (2, 0, 2)
        loose = GeneralComplex([(0, 1, 2), (1, 3), (2, 3), (4,), (5,)])
        assert homology._coreduction(loose)[1] == 3
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
        alive, _ = homology._coreduction(N)
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


def face_masks(K, W, inside):
    """One 0/1 mask per dimension: the faces of the induced subcomplex Y_W
    (``inside``) or the faces of K outside it."""
    return [bytearray((set(f) <= W) == inside for f in K.faces(j))
            for j in range(K.dim + 1)]


def naive_relative_betti(K, W, field):
    """beta_j(K, Y_W) from scratch: dense boundary matrices on the faces
    outside Y_W, rows in Y_W dropped, ranked by the naive eliminations."""
    cells = [[f for f in K.faces(j) if not set(f) <= W]
             for j in range(K.dim + 1)]
    ranks = [0] * (K.dim + 2)
    for j in range(1, K.dim + 1):
        index = {f: i for i, f in enumerate(cells[j - 1])}
        dense = [[0] * len(cells[j]) for _ in cells[j - 1]]
        for c, f in enumerate(cells[j]):
            for i in range(len(f)):
                row = index.get(f[:i] + f[i + 1:])
                if row is not None:
                    dense[row][c] = (-1) ** i
        if dense and cells[j]:
            ranks[j] = (naive_rank_mod2(dense) if field == GF2
                        else naive_rank_rational(dense))
    return tuple(len(cells[j]) - ranks[j] - ranks[j + 1]
                 for j in range(K.dim + 1))


class TestMaskedHomologyAgainstRebuilt:
    """Betti numbers of Y_W and of (K, Y_W) under a face mask of K equal
    those of the induced subcomplex built on its own and those of dense
    relative boundary matrices, over both fields."""

    @staticmethod
    def check(K, W, seen):
        Y = K.induced_subcomplex(W)
        for field in (GF2, Q):
            got = homology._betti(K, field, face_masks(K, W, True))
            assert got == betti_numbers(Y, field).values \
                + (0,) * (K.dim - Y.dim), (K, W, field)
            got = homology._betti(K, field, face_masks(K, W, False),
                                  relative=True)
            assert got == naive_relative_betti(K, W, field), (K, W, field)
        seen["pairs"] += 1
        seen["non-pure"] += not Y.is_pure
        seen["disconnected"] += not Y.is_connected()

    def test_small_complexes_every_subset(self):
        seen = dict.fromkeys(("pairs", "non-pure", "disconnected"), 0)

        @settings(max_examples=50)
        @given(st.one_of(small_pure_complexes(), small_non_pure_complexes()))
        def every_subset(K):
            verts = K.vertices
            for bits in range(1, 1 << len(verts)):
                W = {v for i, v in enumerate(verts) if bits >> i & 1}
                self.check(K, W, seen)

        every_subset()
        assert seen["pairs"] >= 1200, seen
        assert min(seen["non-pure"], seen["disconnected"]) >= 100, seen

    def test_seeded_pieces_of_m4_21(self):
        # induced on 5 or 6 vertices of a 2-neighborly 4-manifold: every
        # edge, some triangles, few tetrahedra; each subset W of those
        rng = random.Random(ORACLE_SEED)
        M = catalog.get("M4_21")
        seen = dict.fromkeys(("pairs", "non-pure", "disconnected"), 0)
        for _ in range(22):
            K = M.induced_subcomplex(rng.sample(M.vertices, rng.randint(5, 6)))
            verts = K.vertices
            for bits in range(1, 1 << len(verts)):
                W = {v for i, v in enumerate(verts) if bits >> i & 1}
                self.check(K, W, seen)
        # 2-neighborly: each Y_W is connected, but many are not pure
        assert seen["pairs"] >= 800 and seen["non-pure"] >= 100, seen


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
        # the search reads the facets only: it tables no face of any
        # dimension, so a simplex boundary costs no 2^n face enumeration
        def tabled(K):
            return [key for key in K._facts if isinstance(key, tuple)
                    and key[0] in ("faces", "cofaces")]

        for d in range(21):
            S = standard_sphere(d)
            assert automorphism_group(S).order == math.factorial(d + 2), d
            assert tabled(S) == [], d
        K = Complex(catalog.get("M4_41").facets)  # a fresh, empty memo
        assert automorphism_group(K).order == 41
        assert tabled(K) == []

    def test_hyperoctahedral_group_orders(self):
        # cross_polytope_boundary(d) has d antipodal pairs: order 2^d * d!
        for d in range(1, 6):
            assert automorphism_group(cross_polytope_boundary(d)).order \
                == 2 ** d * math.factorial(d), d


def vertex_invariant_colors(K, pinv) -> list[int]:
    """Reference start coloring from vertex invariants: facet degree, link
    f-vector, and the sorted edge colors at the vertex (their number is the
    degree, which fixes the number of non-edges)."""
    n = K.num_vertices
    # in dimension 0 every link is empty, and so is its f-vector
    keys = [(sum(v in f for f in K.facets),
             K.link(v).f_vector().counts if K.dim else (),
             tuple(sorted(c for _, c in pinv[v])))
            for v in range(n)]
    intern = {k: i for i, k in enumerate(sorted(set(keys), key=repr))}
    return [intern[k] for k in keys]


def cells(colors) -> set:
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, set()).add(v)
    return {frozenset(vs) for vs in classes.values()}


def dense(K) -> Complex:
    return K.relabeled({v: i for i, v in enumerate(K.vertices)})


class TestUniformStartAgainstVertexInvariants:
    """Refinement from the uniform coloring must reach the partition that
    refinement from the vertex-invariant coloring reaches, at the root and
    after individualizing any one vertex."""

    def check(self, K):
        n = K.num_vertices
        pinv = _pair_invariants(K, n)
        start = vertex_invariant_colors(K, pinv)
        mine = _refine_pair([0] * n, [0] * n, pinv, n)[0]
        ref = _refine_pair(list(start), list(start), pinv, n)[0]
        assert cells(mine) == cells(ref)
        for v in range(n):
            assert cells(_individualize(mine, mine, v, v, pinv, n)[0]) \
                == cells(_individualize(ref, ref, v, v, pinv, n)[0]), v

    def test_catalog(self):
        for name in CATALOG_COMPLEXES + ("nonball_example",):
            self.check(catalog.get(name))

    def test_spheres_and_cross_polytopes(self):
        for d in range(9):
            self.check(standard_sphere(d))
        for d in range(1, 6):
            self.check(cross_polytope_boundary(d))

    def test_seeded_random_complexes(self):
        rng = random.Random(ORACLE_SEED + 2)
        for _ in range(8):
            dim, seed = rng.randint(1, 4), rng.randint(0, 10 ** 9)
            self.check(dense(random_stacked_sphere(dim, rng.randint(1, 30),
                                                   seed=seed)))
            self.check(dense(random_stacked_ball(dim, rng.randint(1, 30),
                                                 seed=seed)))
            self.check(dense(random_tree_complex(dim, rng.randint(1, 30),
                                                 seed=seed)))


def dense_pair_invariants(K, n: int) -> list[list[int]]:
    """Oracle: an n x n table of interned invariants of every vertex pair,
    keyed by whether the pair is an edge and its sorted co-degree profile,
    counted over each pair of each facet triple."""
    edge_set = {pair for f in K.facets
                for pair in itertools.combinations(f, 2)}
    triple_count = Counter(triple for f in K.facets
                           for triple in itertools.combinations(f, 3))
    # co-degree profile of a pair: how often each third vertex completes it
    profiles: dict[tuple[int, int], list[int]] = {}
    for (a, b, c), cnt in triple_count.items():
        profiles.setdefault((a, b), []).append(cnt)
        profiles.setdefault((a, c), []).append(cnt)
        profiles.setdefault((b, c), []).append(cnt)
    keys: dict[tuple[int, int], tuple] = {}
    for u in range(n):
        for v in range(u + 1, n):
            # a graph's edges have empty profiles, as its non-edges do
            keys[(u, v)] = ((u, v) in edge_set,
                            tuple(sorted(profiles.get((u, v), ()))))
    intern = {k: i for i, k in enumerate(sorted(set(keys.values())))}
    table = [[0] * n for _ in range(n)]
    for (u, v), k in keys.items():
        table[u][v] = table[v][u] = intern[k]
    return table


def dense_refine_pair(dom: list[int], cod: list[int],
                      pinv: list[list[int]], n: int):
    """Oracle: refine both colorings in lockstep, keying each vertex by all
    n - 1 other vertices; None when class profiles diverge."""
    while True:
        dkeys = [(dom[v],
                  tuple(sorted((dom[u], pinv[v][u]) for u in range(n) if u != v)))
                 for v in range(n)]
        ckeys = [(cod[v],
                  tuple(sorted((cod[u], pinv[v][u]) for u in range(n) if u != v)))
                 for v in range(n)]
        if sorted(dkeys) != sorted(ckeys):
            return None
        intern = {k: i for i, k in enumerate(sorted(set(dkeys)))}
        ndom = [intern[k] for k in dkeys]
        ncod = [intern[k] for k in ckeys]
        if len(intern) == len(set(dom)):
            return ndom, ncod
        dom, cod = ndom, ncod


class TestSparseRefinementAgainstDense:
    """Keying a vertex by its edges alone must give the partitions that
    keying it by every other vertex gives: at the root, and after each
    individualization v -> w with w in v's root cell, where the two must
    also agree on whether the colorings diverge."""

    def check(self, K, sources=None) -> list[bool]:
        n = K.num_vertices
        pinv, table = _pair_invariants(K, n), dense_pair_invariants(K, n)
        mine = _refine_pair([0] * n, [0] * n, pinv, n)[0]
        ref = dense_refine_pair([0] * n, [0] * n, table, n)[0]
        assert cells(mine) == cells(ref)
        diverged = []
        for v in range(n) if sources is None else sources:
            for w in range(n):
                if mine[w] != mine[v]:
                    continue
                got = _individualize(mine, mine, v, w, pinv, n)
                dom, cod = list(ref), list(ref)
                dom[v] = cod[w] = n
                want = dense_refine_pair(dom, cod, table, n)
                assert (got is None) == (want is None), (v, w)
                if got is not None:
                    assert cells(got[0]) == cells(want[0]), (v, w)
                    assert cells(got[1]) == cells(want[1]), (v, w)
                diverged.append(got is None)
        return diverged

    def test_catalog(self):
        for name in CATALOG_COMPLEXES:
            self.check(catalog.get(name), sources=(0,))

    def test_spheres_and_cross_polytopes(self):
        for d in range(9):
            self.check(standard_sphere(d))
        for d in range(1, 6):
            self.check(cross_polytope_boundary(d))

    def test_divergence_verdicts(self):
        # C6 + C3 + C3: mapping a hexagon vertex onto a triangle vertex
        # diverges, mapping it onto another hexagon vertex does not
        K = Complex([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                     (6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)])
        diverged = self.check(K)
        assert len(diverged) == 144 and sum(diverged) == 72

    def test_seeded_random_complexes(self):
        # dimension 1 is left to the cycles above: a stacked 1-sphere is
        # one cell, so it costs n^2 dense refinements
        rng = random.Random(ORACLE_SEED + 3)
        for _ in range(10):
            dim, seed = rng.randint(2, 4), rng.randint(0, 10 ** 9)
            for make in (random_stacked_sphere, random_stacked_ball,
                         random_tree_complex):
                self.check(dense(make(dim, rng.randint(2, 30), seed=seed)))


def scanned_link(K, face) -> Complex:
    """Oracle: the link of a face by a scan over every facet."""
    fs = set(face)
    return Complex(tuple(v for v in f if v not in fs)
                   for f in K.facets if fs <= set(f))


class TestLinksAgainstScans:
    """Each vertex and edge link must equal the one found by scanning every
    facet."""

    def test_vertex_and_edge_links(self):
        complexes = [catalog.get(name) for name in CATALOG_COMPLEXES]
        complexes += [cross_polytope_boundary(3), cross_polytope_boundary(4),
                      standard_sphere(5)]
        complexes += [random_stacked_sphere(4, 50, seed=ORACLE_SEED + s)
                      for s in range(3)]
        for K in complexes:
            for face in K.faces(0) + K.faces(1):
                assert K.link(face) == scanned_link(K, face)


def scanned_ridge_incidence(K) -> dict:
    """Oracle: each ridge mapped to the facets through it, by a scan over
    the (d-1)-subsets of every facet."""
    inc: dict = {}
    for i, f in enumerate(K.facets):
        for ridge in itertools.combinations(f, len(f) - 1):
            inc.setdefault(ridge, []).append(i)
    return {r: tuple(ix) for r, ix in inc.items()}


def restarting_is_stacked_sphere(K) -> bool:
    """Oracle: reverse stacking that rescans every vertex after each move."""
    d = K.dim
    if d < 1:
        raise DomainError("stacked sphere test needs dimension >= 1")
    if any(len(owners) != 2 for owners in scanned_ridge_incidence(K).values()):
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


def early_exit_reverse_stacking(facets, d: int) -> bool:
    """Oracle: the reduction that gives up at the first move whose
    filled-in facet exists already, or when no vertex qualifies."""
    incidence: dict = {}
    for f in facets:
        for v in f:
            incidence.setdefault(v, set()).add(f)
    count = len(facets)
    queue = [v for v, stars in incidence.items() if len(stars) == d + 1]
    while True:
        if len(incidence) == d + 2 and count == d + 2:
            return True
        while queue:
            v = queue.pop()
            stars = incidence.get(v, ())
            if len(stars) != d + 1:
                continue
            around = set().union(*stars) - {v}
            if len(around) == d + 1:
                break
        else:
            return False
        tau = tuple(sorted(around))
        if tau in incidence[tau[0]]:
            return False
        for f in stars:
            for u in f:
                if u != v:
                    incidence[u].discard(f)
        del incidence[v]
        count -= d
        for u in tau:
            incidence[u].add(tau)
            if len(incidence[u]) == d + 1:
                queue.append(u)


def reverse_moves(K) -> tuple[list, list]:
    """Oracle, by a scan of the facets: the vertices whose star is d+1
    facets on d+2 vertices, split by whether the facet tau on the rest is
    new (the move applies) or a facet already (it is skipped)."""
    d, facets = K.dim, set(K.facets)
    new, blocked = [], []
    for v in K.vertices:
        star = [f for f in K.facets if v in f]
        around = set().union(*star) - {v}
        if len(star) == d + 1 and len(around) == d + 1:
            (blocked if tuple(sorted(around)) in facets else new).append(v)
    return new, blocked


class TestStackingResidualAgainstEliminations:
    """The reduction runs on past a move whose facet tau exists.  Its
    verdict is still the early-exit one, and what it leaves of K has K's
    Betti numbers and Euler characteristic, with no move left to apply."""

    @staticmethod
    def reductions() -> list:
        """(facets, d) inputs of ``_reverse_stacking``."""
        out = [(random_stacked_sphere(d, n, seed=ORACLE_SEED + n).facets, d)
               for d in (1, 2, 3, 4) for n in (1, 2, 9, 40)]
        for name in CATALOG_COMPLEXES:
            K = catalog.get(name)
            out += [(K.link(v).facets, K.dim - 1) for v in K.vertices]
        out += [(cross_polytope_boundary(d).facets, d - 1) for d in range(2, 6)]
        out += [(Complex((i, (i + 1) % n) for i in range(n)).facets, 1)
                for n in (3, 4, 7)]
        out.append((((0, 1), (0, 2), (1, 2), (2, 3)), 1))
        return out

    @staticmethod
    def complexes() -> list:
        """Complexes where moves apply, where one is skipped, or both."""
        rng = random.Random(ORACLE_SEED)
        out = [two_spheres_at_a_vertex(d) for d in (1, 2, 3)]
        for d in (2, 3):
            S = random_stacked_sphere(d, 6, seed=rng.randrange(10 ** 9))
            T = random_stacked_sphere(d, 4, seed=rng.randrange(10 ** 9))
            # glued at vertex 0, every other vertex of T moved past S's
            out.append(Complex(S.facets + tuple(
                tuple(v + max(S.vertices) if v else 0 for v in f) for f in T.facets)))
        S = random_stacked_sphere(2, 7, seed=ORACLE_SEED)
        out.append(Complex(S.facets + tuple(tuple(v + max(S.vertices) + 1 for v in f)
                                            for f in RP2_6.facets)))
        out += [random_stacked_ball(d, 9, seed=ORACLE_SEED + d) for d in (2, 3, 4)]
        out += [cone(standard_sphere(d)) for d in (1, 2, 3)] + [cone(S)]
        out.append(Complex([(0, 1), (0, 2), (1, 2), (2, 3)]))
        return out

    def test_verdict_matches_the_early_exit_reduction(self):
        verdicts = set()
        for facets, d in self.reductions():
            want = early_exit_reverse_stacking(facets, d)
            assert classify._reverse_stacking(facets, d) == want, (facets, d)
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_betti_numbers_against_full_elimination(self):
        applied = skipped = 0
        for K in self.complexes():
            R = classify.stacking_residual(K)
            applied += R is not K
            skipped += bool(reverse_moves(R)[1]) and R.num_facets > R.dim + 2
            for field in (GF2, Q):
                assert betti_numbers(K, field).values \
                    == fully_eliminated_betti(K, field), (K, field)
        assert applied >= 5 and skipped >= 5

    def test_residual_has_no_move_left_and_the_same_euler_characteristic(self):
        corpus = self.complexes() + [catalog.get(name) for name in CATALOG_COMPLEXES]
        corpus += [random_stacked_sphere(d, 30, seed=ORACLE_SEED) for d in (1, 2, 3, 4)]
        for K in corpus:
            R = classify.stacking_residual(Complex(K.facets))
            assert reverse_moves(R)[0] == [], K
            assert (R.dim, R.euler_characteristic) == (K.dim, K.euler_characteristic)
            # K itself comes back exactly when no move applies to it
            assert (R == K) == (reverse_moves(K)[0] == []), K


def link_building_walkup(K, variant) -> bool:
    """Oracle: Walkup membership with every vertex link built as a complex of
    its own and tested on its own tables.  A link must be closed and reduce
    under ``restarting_is_stacked_sphere`` (K), or be a weak pseudomanifold
    with f_0 = f_d + d and a tree dual graph (Kbar)."""
    if variant == "Kstar":
        return K.is_neighborly(2) and link_building_walkup(K, "K")
    for v in K.vertices:
        link = K.link(v)
        if variant == "K":
            try:
                stacked = restarting_is_stacked_sphere(link)
            except DomainError:
                stacked = False  # not closed, so not a sphere
        else:
            stacked = (is_weak_pseudomanifold(link)
                       and link.num_vertices == link.num_facets + link.dim
                       and dual_graph(link).is_tree())
        if not stacked:
            return False
    return True


def two_spheres_at_a_vertex(d) -> Complex:
    S = standard_sphere(d).facets
    return Complex(S + tuple(tuple(v + d + 1 if v else 0 for v in f) for f in S))


def random_pure_complex(rng, d) -> Complex:
    """Up to 12 random d-faces on at most d+5 vertices."""
    pool = list(itertools.combinations(range(rng.randint(d + 2, d + 5)), d + 1))
    return Complex(rng.sample(pool, rng.randint(1, min(12, len(pool)))))


class TestWalkupClassesAgainstLinks:
    """``in_walkup_class`` reads the vertex stars of K and runs no guard on
    a link; the oracle builds every link and checks it from scratch."""

    # only the subtree test rejects these: a ridge in three facets, and
    # weak pseudomanifold links whose dual graphs have a cycle, all with
    # the vertex count of a stacked ball
    THREE_ON_A_RIDGE = Complex([(0, 1, 4), (1, 2, 4), (1, 3, 4)])
    DUAL_CYCLE = Complex([(0, 1, 2, 3), (0, 1, 3, 5), (0, 2, 3, 4),
                          (0, 4, 5, 7), (0, 4, 6, 7), (1, 2, 4, 5),
                          (1, 4, 5, 6), (1, 5, 6, 7)])
    # and only the vertex count rejects this one: every star induces a
    # subtree of the dual graph, but spans too few vertices
    SHORT_STARS = Complex([(0, 1, 2, 3), (0, 1, 3, 4), (0, 1, 4, 5),
                           (0, 2, 4, 5), (1, 2, 3, 5), (2, 3, 4, 5)])

    @staticmethod
    def corpus() -> list:
        rng = random.Random(ORACLE_SEED)
        out = [catalog.get(name) for name in CATALOG_COMPLEXES]
        out.append(catalog.get("nonball_example"))
        out += [cross_polytope_boundary(3), cross_polytope_boundary(4)]
        for d in (2, 3, 4, 5):
            out += [standard_sphere(d), standard_ball(d), two_spheres_at_a_vertex(d)]
            for n in (1, 3, 12):
                seed = rng.randrange(10 ** 9)
                ball = random_stacked_ball(d, n, seed=seed)
                out += [ball, random_stacked_sphere(d, n, seed=seed),
                        random_tree_complex(d, n, seed=seed),
                        random_tree_complex(d, 2 * n, seed=seed, fresh_vertex_prob=0.1),
                        attach_along_codim2(ball, seed=seed)]
            out += [random_pure_complex(rng, d) for _ in range(30)]
        cls = TestWalkupClassesAgainstLinks
        out += [cls.THREE_ON_A_RIDGE, cls.DUAL_CYCLE, cls.SHORT_STARS]
        return out

    @staticmethod
    def subdivided() -> list:
        """Closed complexes and ones with boundary, with 1, 3 or 10 random
        facets stellarly subdivided in turn, so a reverse-stacking move
        applies and K(d) is read on a residual other than K."""
        rng = random.Random(ORACLE_SEED)
        bases = [catalog.get("M4_21"), catalog.get("N4_21"),
                 cross_polytope_boundary(3), cross_polytope_boundary(4),
                 two_spheres_at_a_vertex(3), random_stacked_ball(4, 5, seed=ORACLE_SEED),
                 catalog.get("A5_21")]
        out = []
        for K in bases:
            for k in (1, 3, 10):
                facets, top = list(K.facets), max(K.vertices)
                for apex in range(top + 1, top + 1 + k):
                    tau = facets.pop(rng.randrange(len(facets)))
                    facets += [tuple(u for u in tau if u != w) + (apex,) for w in tau]
                out.append(Complex(facets))
        return out

    def test_k_where_a_move_applies(self):
        verdicts = []
        for K in self.subdivided():
            assert reverse_moves(K)[0], K
            want = link_building_walkup(K, "K")
            assert in_walkup_class(Complex(K.facets), "K") == want, K
            verdicts.append(want)
        assert len(verdicts) >= 20 and set(verdicts) == {True, False}

    def test_every_variant_against_built_links(self):
        seen = {variant: set() for variant in ("K", "Kbar", "Kstar")}
        for K in self.corpus():
            for variant in seen:
                want = link_building_walkup(K, variant)
                # a fresh instance, so no verdict comes from a memo
                assert in_walkup_class(Complex(K.facets), variant) == want, (K, variant)
                seen[variant].add(want)
        assert all(verdicts == {True, False} for verdicts in seen.values())

    def test_cases_only_one_test_rejects(self):
        ridge, cycle, short = self.THREE_ON_A_RIDGE, self.DUAL_CYCLE, self.SHORT_STARS
        for K in (ridge, cycle, short):
            assert not in_walkup_class(K, "Kbar")
        for K in (ridge, cycle):
            assert all(L.num_vertices == L.num_facets + L.dim
                       for L in map(K.link, K.vertices))
        assert not is_weak_pseudomanifold(ridge.link(1))
        assert any(is_weak_pseudomanifold(L) and not dual_graph(L).is_tree()
                   for L in map(cycle.link, cycle.vertices))
        assert all(dual_graph(short).is_induced_subtree(star)
                   for star in short.vertex_incidence(short.dim).values())

    def test_stacked_ball_shares_the_star_test(self):
        for K in self.corpus():
            want = (is_weak_pseudomanifold(K)
                    and K.num_vertices == K.num_facets + K.dim
                    and dual_graph(K).is_tree())
            assert is_stacked_ball(Complex(K.facets)) == want, K


RP2_6 = Complex([(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)])


def outcome(check, *args):
    """The value of ``check(*args)``, or "rejected" if it raises DomainError."""
    try:
        return check(*args)
    except DomainError:
        return "rejected"


def searched_orientability(K) -> bool:
    """Oracle: propagate facet orientations depth first over dual edges
    whose signs come from searching each of the two facets on a ridge for
    the vertex the ridge lacks.  Raises where ``is_orientable`` must."""
    inc = scanned_ridge_incidence(K)
    if any(len(owners) != 2 for owners in inc.values()):
        raise DomainError("complex is not closed")
    edges = []
    neighbors: dict = {a: [] for a in range(K.num_facets)}
    for ridge, (a, b) in inc.items():
        fa, fb = K.facets[a], K.facets[b]
        ia = fa.index(next(v for v in fa if v not in ridge))
        ib = fb.index(next(v for v in fb if v not in ridge))
        sign = (-1) ** (ia + ib)
        edges.append((a, b, sign))
        neighbors[a].append((b, sign))
        neighbors[b].append((a, sign))
    orient, stack = {0: 1}, [0]
    while stack:
        a = stack.pop()
        for b, sign in neighbors[a]:
            if b not in orient:
                orient[b] = -orient[a] * sign
                stack.append(b)
    if len(orient) != K.num_facets:
        raise DomainError("dual graph is not connected")
    return all(orient[b] == -orient[a] * sign for a, b, sign in edges)


def scan_connects_every_facet(K, inc) -> bool:
    """Oracle: merge the facets of each scanned ridge, then ask whether one
    class is left."""
    root = list(range(K.num_facets))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for owners in inc.values():
        for b in owners[1:]:
            root[find(b)] = find(owners[0])
    return len({find(a) for a in root}) == 1


def face_counts_match_tables(K) -> None:
    """``f_vector`` counted on a fresh copy, and on one whose top table is
    built, against the lengths of the face tables of a third; and
    ``is_neighborly``, counting one dimension or reading the f-vector."""
    copy = type(K)(K.maximal_faces)
    tables = tuple(len(copy.faces(j)) for j in range(K.dim + 1))
    counted = type(K)(K.maximal_faces)
    assert counted.f_vector().counts == tables
    if isinstance(K, Complex) and K.dim >= 1:
        partial = Complex(K.facets)
        partial._cofaces(K.dim)  # the ridges are tabled, the rest counted
        assert partial.f_vector().counts == tables
        for l in range(1, K.dim + 2):
            want = tables[l - 1] == math.comb(K.num_vertices, l)
            assert Complex(K.facets).is_neighborly(l) == want
            assert counted.is_neighborly(l) == want


class TestBoundaryTableAgainstScans:
    """Ridge incidence, the dual graph, closedness, the boundary complex, the
    pseudomanifold and dual-tree tests and orientability all read the top
    boundary table; the oracles scan the ridges of every facet and search
    each facet for the vertex a ridge lacks.  Face counts are checked against
    the face tables."""

    @staticmethod
    def corpus() -> list:
        rng = random.Random(ORACLE_SEED)
        out = [catalog.get(name) for name in CATALOG_COMPLEXES]
        out.append(catalog.get("nonball_example"))
        for d in range(1, 6):
            out += [standard_sphere(d), standard_ball(d)]
        out += [cross_polytope_boundary(3), cross_polytope_boundary(4), RP2_6]
        for d in (1, 2, 3, 4):
            out.append(two_spheres_at_a_vertex(d))
            for n in (1, 4, 30):
                seed = rng.randrange(10 ** 9)
                ball = random_stacked_ball(d, n, seed=seed)
                out += [ball, random_stacked_sphere(d, n, seed=seed),
                        random_tree_complex(d, n, seed=seed),
                        random_tree_complex(d, 2 * n, seed=seed, fresh_vertex_prob=0.1)]
                out += [attach_along_codim2(ball, seed=seed)] if d >= 2 else []
        # two disjoint simplex boundaries: closed, with a disconnected dual graph
        S = standard_sphere(3).facets
        out.append(Complex(S + tuple(tuple(v + 5 for v in f) for f in S)))
        return out

    @staticmethod
    def verdicts(K) -> dict:
        """Compare every table reader on a fresh copy of K with its oracle."""
        inc = scanned_ridge_incidence(K)
        K = Complex(K.facets)  # nothing memoized yet
        assert K.ridge_incidence() == inc
        assert dual_graph(K).edges == tuple(sorted(
            pair for owners in inc.values()
            for pair in itertools.combinations(owners, 2)))
        closed = all(len(owners) == 2 for owners in inc.values())
        weak = all(len(owners) <= 2 for owners in inc.values())
        assert is_closed(K) == closed
        assert is_weak_pseudomanifold(K) == weak
        boundary = (Complex(sorted(r for r, owners in inc.items() if len(owners) == 1))
                    if weak else "rejected")
        assert outcome(K.boundary_complex) == boundary
        orientable = outcome(searched_orientability, K)
        assert outcome(is_orientable, K) == orientable
        strong = weak and scan_connects_every_facet(K, inc)
        assert is_pseudomanifold(K) == strong
        tree = dual_graph(K).is_tree()
        assert classify._has_tree_dual_graph(Complex(K.facets)) == tree
        face_counts_match_tables(K)
        return {"closed": closed, "weak": weak, "boundary": boundary != "rejected",
                "orientable": orientable, "pseudomanifold": strong, "tree": tree}

    def test_readers_against_scans(self):
        seen: dict = {}
        for K in self.corpus():
            for key, value in self.verdicts(K).items():
                seen.setdefault(key, set()).add(value)
        assert seen == {"closed": {True, False}, "weak": {True, False},
                        "boundary": {True, False},
                        "orientable": {True, False, "rejected"},
                        "pseudomanifold": {True, False}, "tree": {True, False}}

    @given(small_pure_complexes())
    def test_small_complexes(self, K):
        self.verdicts(K)

    def test_small_complexes_reach_every_ridge_degree(self):
        # one ridge in 1, 2 and 3 facets
        K = Complex([(0, 1, 2), (0, 1, 3), (0, 1, 4), (1, 2, 3)])
        assert sorted(map(len, scanned_ridge_incidence(K).values())) == [1] * 5 + [2, 2, 3]
        assert self.verdicts(K) == {"closed": False, "weak": False,
                                    "boundary": False, "orientable": "rejected",
                                    "pseudomanifold": False, "tree": False}

    def test_complexes_of_dimension_zero_and_empty(self):
        for K in (Complex([(0,), (2,), (5,)]), Complex(())):
            assert K.ridge_incidence() == scanned_ridge_incidence(K)
        face_counts_match_tables(Complex([(0,), (2,), (5,)]))

    def test_non_pure_face_counts(self):
        face_counts_match_tables(
            GeneralComplex([(0, 1, 2, 3), (3, 4), (4, 5, 6), (1, 5), (7,)]))

    @given(st.one_of(small_pure_complexes(), small_non_pure_complexes()))
    def test_small_face_counts(self, K):
        face_counts_match_tables(K)


def edge_scan_is_induced_subtree(G, vertices) -> bool:
    """Oracle: count the induced edges by scanning every edge of the graph,
    and connectivity by merging the ends of each such edge."""
    vs = set(vertices)
    inside = [(u, v) for u, v in G.edges if u in vs and v in vs]
    root = {v: v for v in vs}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in inside:
        root[find(u)] = find(v)
    return bool(vs) and len(inside) == len(vs) - 1 \
        and len({find(v) for v in vs}) == 1


class TestInducedSubtreeAgainstEdgeScan:
    def test_seeded_random_graphs_and_subsets(self):
        rng = random.Random(ORACLE_SEED)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(1, 12)
            pairs = list(itertools.combinations(range(n), 2))
            G = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            for _ in range(5):
                subset = rng.sample(range(n), rng.randint(0, n))
                want = edge_scan_is_induced_subtree(G, subset)
                assert G.is_induced_subtree(subset) == want, (G.edges, subset)
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_dual_graph_stars(self):
        A = catalog.get("A5_41")
        G = dual_graph(A)
        for star in A.vertex_incidence(A.dim).values():
            assert G.is_induced_subtree(star) == edge_scan_is_induced_subtree(G, star)


class FrozensetGraph:
    """Reference: the graph as it was kept before CSR, with one ``frozenset``
    of neighbours per vertex and a sorted tuple of edge tuples."""

    def __init__(self, num_vertices, edges=()):
        if num_vertices < 0:
            raise DomainError("vertex count must be non-negative")
        canon = set()
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise DomainError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            canon.add((u, v) if u < v else (v, u))
        adj = tuple(set() for _ in range(num_vertices))
        for u, v in canon:
            adj[u].add(v)
            adj[v].add(u)
        self.num_vertices = num_vertices
        self.edges = tuple(sorted(canon))
        self.num_edges = len(self.edges)
        self._adj = tuple(frozenset(s) for s in adj)

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return v in self._adj[u]

    def connected_components(self):
        seen = [False] * self.num_vertices
        comps = []
        for s in range(self.num_vertices):
            if seen[s]:
                continue
            comp, queue = [], [s]
            seen[s] = True
            while queue:
                u = queue.pop()
                comp.append(u)
                for w in self._adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def is_connected(self):
        return self.num_vertices == 0 or len(self.connected_components()) == 1

    def is_tree(self):
        return (self.num_vertices >= 1 and self.is_connected()
                and self.num_edges == self.num_vertices - 1)

    def __hash__(self):
        return hash((self.num_vertices, self.edges))


def assert_graph_matches(G, ref, rng):
    """Every ``Graph`` method agrees with the frozenset reference; the
    induced-subtree test agrees with the edge scan."""
    n = ref.num_vertices
    assert (G.num_vertices, G.edges, G.num_edges) == (n, ref.edges, ref.num_edges)
    for v in range(n):
        assert G.neighbors(v) == tuple(sorted(ref.neighbors(v)))
        assert G.degree(v) == ref.degree(v)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)]
    for u, v in pairs + list(ref.edges[:n]):
        assert G.has_edge(u, v) == ref.has_edge(u, v)
    assert G.connected_components() == ref.connected_components()
    assert G.is_connected() == ref.is_connected()
    assert G.is_tree() == ref.is_tree()
    for _ in range(5 if n else 0):
        subset = rng.sample(range(n), rng.randint(1, min(n, 8)))
        assert G.is_induced_subtree(subset) == edge_scan_is_induced_subtree(ref, subset)
    same = Graph(n, [(v, u) for u, v in reversed(ref.edges)])
    assert G == same and hash(G) == hash(same) == hash(ref)
    assert G != Graph(n + 1, ref.edges)
    assert G != Graph(n, ref.edges[1:]) or not ref.edges


class TestGraphAgainstFrozensets:
    """The CSR graph, and the dual graph read from the boundary table,
    against the frozenset adjacency it replaced."""

    def test_seeded_random_graphs(self):
        rng = random.Random(ORACLE_SEED)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(0, 12)
            pairs = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            # repeated and reversed pairs collapse to one edge
            G = Graph(n, edges + edges[:2])
            assert_graph_matches(G, FrozensetGraph(n, edges), rng)
            verdicts.add((G.is_connected(), G.is_tree()))
        assert verdicts == {(True, True), (True, False), (False, False)}

    def test_tree_family_hosts(self):
        rng = random.Random(ORACLE_SEED)
        hosts = [catalog.get("A5_41_tree_family").host]
        hosts += [tree_family_from_complex(catalog.get(name)).host
                  for name in ("A5_21", "A5_41", "B5_21", "B5_26")]
        for host in hosts:
            assert_graph_matches(host, FrozensetGraph(host.num_vertices, host.edges), rng)

    def test_dual_graphs(self):
        rng = random.Random(ORACLE_SEED)
        for K in TestBoundaryTableAgainstScans.corpus():
            ref = FrozensetGraph(K.num_facets, [
                pair for owners in scanned_ridge_incidence(K).values()
                for pair in itertools.combinations(owners, 2)])
            assert_graph_matches(dual_graph(Complex(K.facets)), ref, rng)


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
