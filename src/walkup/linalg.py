"""Exact linear algebra: one sparse rank kernel serves GF(2) and Q.

The kernel is a heap-ordered sparse elimination with Markowitz-style pivots
(Dumas, Heckenbach, Saunders and Welker 2003).  No floating point appears.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from math import gcd
from typing import Iterable


def _xor_into(row: dict[int, int], pivot: dict[int, int], c: int) -> None:
    """row += pivot over GF(2): the symmetric difference of the supports."""
    for cc in pivot:
        if row.pop(cc, 0) == 0:
            row[cc] = 1


def _fraction_free_into(row: dict[int, int], pivot: dict[int, int],
                        c: int) -> None:
    """row := f*row + g*pivot over the integers, clearing column c."""
    a, pval = row[c], pivot[c]
    if pval in (1, -1):
        f_row, f_piv = 1, -a * pval
    else:
        g = gcd(pval, a)
        f_row, f_piv = pval // g, -(a // g)
        for cc in row:
            row[cc] *= f_row
    for cc, v in pivot.items():
        nv = row.get(cc, 0) + f_piv * v
        if nv:
            row[cc] = nv
        else:
            row.pop(cc, None)
    if f_row != 1 and row:  # a unit pivot scaled nothing: skip the gcd pass
        g = reduce(gcd, row.values())
        for cc in row:
            row[cc] //= g


def _sparse_rank(rows: list[dict[int, int]], combine) -> int:
    """Rank of sparse rows with nonzero entries, which it consumes.

    ``combine(row, pivot, c)`` adds to ``row`` the multiple of ``pivot`` that
    clears column c.  Columns wait in a lazy min-heap keyed by (active entry
    count, column): a stale key is pushed back when popped.  The pivot row
    prefers a unit entry, then a small one, then a short row.
    """
    cols: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(rows):
        for c in row:
            cols[c].add(i)
    heap = sorted((len(s), c) for c, s in cols.items())  # sorted is a heap
    rank = 0
    while heap:
        count, c = heappop(heap)
        in_col = cols[c]
        if len(in_col) != count:
            if in_col:
                heappush(heap, (len(in_col), c))
            continue
        r = min(in_col, key=lambda rr: (abs(rows[rr][c]) != 1,
                                        abs(rows[rr][c]), len(rows[rr]), rr))
        pivot, rows[r] = rows[r], None  # nothing reads row r again
        for cc in pivot:
            cols[cc].discard(r)
        rank += 1
        for rr in cols.pop(c):
            row = rows[rr]
            combine(row, pivot, c)
            if not row:
                rows[rr] = None  # an emptied dict keeps its table
            for cc in pivot:
                if cc in row:
                    cols[cc].add(rr)
                elif cc != c:
                    cols[cc].discard(rr)
    return rank


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of a GF(2) matrix given as packed row bitmasks."""
    return _sparse_rank([dict.fromkeys(_bits(row), 1) for row in rows],
                        _xor_into)


def int_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over Q of an integer matrix given as sparse rows."""
    return _sparse_rank([{c: v for c, v in row.items() if v} for row in rows],
                        _fraction_free_into)


def gf2_kernel_basis(rows: Iterable[int], ncols: int) -> list[int]:
    """Basis of the null space of a GF(2) matrix, as packed column vectors."""
    pivots: dict[int, int] = {}
    for row in rows:
        r = row
        while r:
            c = (r & -r).bit_length() - 1
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            r ^= p
    # reduce to RREF so each pivot column appears in exactly one row
    cols = sorted(pivots)
    for i, c in enumerate(cols):
        row = pivots[c]
        for c2 in cols[:i]:
            if (pivots[c2] >> c) & 1:
                pivots[c2] ^= row
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = 1 << free
        for c, row in pivots.items():
            if (row >> free) & 1:
                vec |= 1 << c
        basis.append(vec)
    return basis


def rational_kernel_basis(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Basis of the null space over Q of a small integer matrix.

    Dense Gauss-Jordan on ``Fraction`` entries; the basis vectors are scaled
    to integers.  Intended for the small matrices of the brute-force
    tightness check, not for the big boundary matrices.
    """
    dense = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots: list[tuple[int, int]] = []  # (row, col)
    prow = 0
    for col in range(ncols):
        sel = None
        for i in range(prow, len(dense)):
            if dense[i][col]:
                sel = i
                break
        if sel is None:
            continue
        dense[prow], dense[sel] = dense[sel], dense[prow]
        pv = dense[prow][col]
        dense[prow] = [x / pv for x in dense[prow]]
        for i in range(len(dense)):
            if i != prow and dense[i][col]:
                f = dense[i][col]
                dense[i] = [x - f * y for x, y in zip(dense[i], dense[prow])]
        pivots.append((prow, col))
        prow += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = {free: Fraction(1)}
        for r, c in pivots:
            val = dense[r][free]
            if val:
                vec[c] = -val
        scale = reduce(lambda a, b: a * b // gcd(a, b),
                       (f.denominator for f in vec.values()), 1)
        basis.append({c: int(f * scale) for c, f in sorted(vec.items())})
    return basis
