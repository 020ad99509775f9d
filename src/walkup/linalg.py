"""Exact linear algebra: one sparse rank kernel serves GF(2) and Q.

The kernel is the standard reduction of persistent homology (Zomorodian and
Carlsson 2005): each row, in the order given, is reduced on its last column
by the pivot row stored for it.  ``homology`` feeds it only the cells that
coreduction leaves, with clearing (Chen and Kerber 2011).  No floating
point appears.
"""

from __future__ import annotations

from functools import reduce
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


def _sparse_rank(rows: list[dict[int, int]], combine) -> list[int]:
    """Pivot columns of sparse rows with nonzero entries, which it consumes;
    their number is the rank.

    ``combine(row, pivot, c)`` adds to ``row`` the multiple of ``pivot`` that
    clears column c.  Each row in turn is reduced on its last column until
    that column has no pivot, and then becomes its pivot.  A pivot has no
    entry beyond its own column, so the pivot rows are triangular on the
    returned columns.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = max(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            combine(row, pivot, c)
    return list(pivots)


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of a GF(2) matrix given as packed row bitmasks."""
    return len(_sparse_rank([dict.fromkeys(_bits(row), 1) for row in rows],
                            _xor_into))


def int_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over Q of an integer matrix given as sparse rows."""
    return len(_sparse_rank([{c: v for c, v in row.items() if v}
                             for row in rows], _fraction_free_into))

