"""Shared brute-force oracles, independent of the library's algorithms."""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction


def Q(rows):
    """Fraction matrix literal from a nested int/str list."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def brute_det(rows):
    """Permutation-expansion determinant; works over any commutative ring."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    total = rows[0][0] - rows[0][0]
    for perm in itertools.permutations(range(n)):
        factors = [rows[r][perm[r]] for r in range(n)]
        if not all(factors):
            continue  # a zero factor: the term vanishes
        term = functools.reduce(operator.mul, factors)
        inv = sum(
            1 for a, b in itertools.combinations(range(n), 2) if perm[a] > perm[b]
        )
        total = total - term if inv % 2 else total + term
    return total


def brute_minors(rows, i):
    """All i x i minors of the first i columns, lexicographic row subsets."""
    n = len(rows)
    out = []
    for subset in itertools.combinations(range(n), i):
        sub = [[rows[r][c] for c in range(i)] for r in subset]
        out.append(brute_det(sub))
    return out


def brute_noncrossing(arcs) -> bool:
    for a, b in itertools.combinations(arcs, 2):
        lo, hi = (a, b) if a[0] < b[0] else (b, a)
        if lo[0] < hi[0] < lo[1] < hi[1]:
            return False
    return True


def brute_standard(arcs) -> bool:
    on_arc = {p for arc in arcs for p in arc}
    for i, j in arcs:
        if any(p not in on_arc for p in range(i + 1, j)):
            return False
    return True
