"""Shared brute-force oracles, independent of the library's algorithms,
the paper's position table of the ancestor map, reference entry types
the library's readers are driven over (a prime field, Q[t] and the
polynomial matrix of a curve), a span test, the column diagnostics of
canonical Springer matrices, a labeled cut made of single public cuts,
counters of the pieces the library cuts and of the span bases it builds,
and a switch that keeps the garbage collector off while a test counts
the cyclic garbage each call leaves.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from springer_cells import cells, cutting, exact
from springer_cells.cells import NOT_COORDINATE, FlagMatrix, apply_nilpotent
from springer_cells.errors import NotDivisible
from springer_cells.exact import Poly, pivot_pattern
from springer_cells.matchings import JordanType, Matching, parent


def Q(rows):
    """Fraction matrix literal from a nested int/str list."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class Residue:
    """An element of the prime field F_p: ``value`` reduced into
    ``range(p)``, and p.  Equal and hashed by value, falsy exactly at zero;
    an operand of another field or type raises TypeError.
    """

    value: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.p)

    def _of(self, other) -> int:
        if not isinstance(other, Residue) or other.p != self.p:
            raise TypeError(f"not an element of F_{self.p}: {other!r}")
        return other.value

    def __add__(self, other):
        return Residue(self.value + self._of(other), self.p)

    def __sub__(self, other):
        return Residue(self.value - self._of(other), self.p)

    def __mul__(self, other):
        return Residue(self.value * self._of(other), self.p)

    def __truediv__(self, other):
        if not self._of(other):
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Residue(self.value * pow(other.value, -1, self.p), self.p)

    def __neg__(self):
        return Residue(-self.value, self.p)

    def __bool__(self) -> bool:
        return self.value != 0


class GF:
    """The prime field F_p of ``Residue`` entries."""

    def __init__(self, p: int):
        self.p = p
        self.zero, self.one = Residue(0, p), Residue(1, p)

    def of(self, x) -> Residue:
        return Residue(int(x), self.p)

    def elements(self) -> list[Residue]:
        return [Residue(v, self.p) for v in range(self.p)]


class QtPoly(Poly):
    """An element of Q[t]: a ``Poly`` with ``+ - *``, negation and exact
    division, which raises NotDivisible on a remainder and
    ZeroDivisionError on 0.  Every result is a ``QtPoly``, so a ``Poly``
    may stand only on the right of an operator.
    """

    __slots__ = ()

    def __add__(self, other):
        return QtPoly([a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __neg__(self):
        return QtPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QtPoly(out)

    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        d = len(other.coeffs) - 1
        quot = [0] * max(len(rem) - d, 0)
        for i in reversed(range(len(quot))):
            quot[i] = c = rem[i + d] / other.coeffs[-1]
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= c * b
        if any(rem):
            raise NotDivisible(f"{other!r} does not divide {self!r}")
        return QtPoly(quot)


#: (zero, one, of) of each entry type the readers are driven over
RINGS = {
    "Q": (0, 1, exact.rational),
    "F3": (Residue(0, 3), Residue(1, 3), GF(3).of),
    "F5": (Residue(0, 5), Residue(1, 5), GF(5).of),
    "Qt": (QtPoly(), QtPoly.const(1), QtPoly.const),
}


def in_span(vector, basis_vectors) -> bool:
    """Whether the vector lies in the span of the given vectors."""
    basis = exact.SpanBasis()
    for v in basis_vectors:
        basis.add(v)
    return basis.contains(vector)


def poly_matrix(template: cells.CellTemplate, curve) -> exact.Matrix:
    """The rows of the cell matrix over Q[t] at a polynomial curve, built
    from ``cells.poly_columns``: a QtPoly in every entry.
    """
    cols = cells.poly_columns(template, curve)
    return tuple(tuple(QtPoly(col.get(r, ())) for col in cols) for r in range(len(cols)))


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


def brute_prefix_span_basis(g: FlagMatrix, i: int):
    """cells.prefix_span_basis by rank alone: the rows where the first i
    columns are nonzero, when there are i of them and the i x i minor on
    those rows is nonzero; else NOT_COORDINATE.
    """
    rows = [r for r in range(1, g.N + 1) if any(g[r, j] for j in range(1, i + 1))]
    if len(rows) != i:
        return NOT_COORDINATE
    if i and not brute_det([[g[r, j] for j in range(1, i + 1)] for r in rows]):
        return NOT_COORDINATE
    return tuple(rows)


def brute_springer_buckets(jt: JordanType, field) -> dict[tuple[int, ...], list]:
    """Rows of every canonical matrix over the field whose flag the
    nilpotent fixes, bucketed by pivot pattern: each pivot permutation with
    every field value in its free slots (above the pivot, off the rows that
    earlier columns pivot in), kept when cells.verify_springer accepts it.
    """
    N = jt.N
    buckets: dict[tuple[int, ...], list] = {}
    for w in itertools.permutations(range(1, N + 1)):
        slots = [(r, j) for j in range(N) for r in range(1, w[j]) if r not in w[:j]]
        for values in itertools.product(field.elements(), repeat=len(slots)):
            rows = [[field.zero] * N for _ in range(N)]
            for j, piv in enumerate(w):
                rows[piv - 1][j] = field.one
            for (r, j), x in zip(slots, values):
                rows[r - 1][j] = x
            g = FlagMatrix(tuple(map(tuple, rows)))
            if cells.verify_springer(g, jt):
                buckets.setdefault(pivot_pattern(g.rows), []).append(g.rows)
    return buckets


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


def ancestor_table(m: Matching) -> tuple[int, ...]:
    """The paper's position form of the ancestor map, read from ``parent``:
    entry i is the start of the parent of the arc with an endpoint at i, or
    0 if it has none or i is free (in a standard matching no free point lies
    under an arc); index 0 pads.
    """
    table = [0] * (m.N + 1)
    for a in m.arcs:
        above = parent(m, a)
        table[a.init] = table[a.term] = above.init if above else 0
    return tuple(table)


def springer_column_diagnostics(g: FlagMatrix, jt: JordanType) -> list[str]:
    """Structural facts every canonical Springer matrix satisfies, checked
    column by column; returns human-readable violations (empty when clean).

    For a column with pivot in the top block the column is a pure basis
    vector and all smaller top rows are pivoted earlier; with pivot in the
    bottom block the earlier bottom pivots fill the rows above it; and for
    bottom pivots past row n+1 the nilpotent image minus the previous
    bottom-pivot column lies in the top block intersected with the prefix
    span.
    """
    issues: list[str] = []
    n, N = jt.n, jt.N
    cols = g.cols()
    piv = pivot_pattern(g.rows)
    for j, c in enumerate(cols, start=1):
        pr = piv[j - 1]
        if pr <= n:
            if any(c[r] for r in range(N) if r != pr - 1):
                issues.append(f"column {j}: top-block pivot but extra entries")
            earlier = set(piv[: j - 1])
            if not all(r in earlier for r in range(1, pr)):
                issues.append(f"column {j}: rows 1..{pr - 1} not pivoted earlier")
        else:
            earlier = set(piv[: j - 1])
            if not all(r in earlier for r in range(n + 1, pr)):
                issues.append(f"column {j}: bottom rows n+1..{pr - 1} not pivoted earlier")
            if pr >= n + 2:
                k2 = piv.index(pr - 1) + 1
                diff = tuple(a - b for a, b in zip(apply_nilpotent(jt, c), cols[k2 - 1]))
                if any(diff[n:]):
                    issues.append(f"column {j}: shifted column minus column {k2} leaves top block")
                if not in_span(diff, cols[: j - 1]):
                    issues.append(f"column {j}: shifted column minus column {k2} outside prefix span")
    return issues


def reference_labeled_cut(m: Matching, order, jt: JordanType) -> tuple[Matching, dict]:
    """The cut matching and labels of cutting the arcs of ``order`` one at a
    time with the public single ``cut``: an arc that survives keeps its
    label, the two arcs that share an endpoint with the cut arc's
    ``parent`` take the parent's label, and any other new arc is ZERO.
    """
    current = m
    labels = {a: a for a in m.arcs}
    for arc in order:
        par = parent(current, arc)
        nxt = cutting.cut(current, arc, jt)
        new_labels = {}
        for b in nxt.arcs:
            if b in current:
                new_labels[b] = labels[b]
            elif par is not None and (b.init == par.init or b.term == par.term):
                new_labels[b] = labels[par]
            else:
                new_labels[b] = cutting.ZERO
        current, labels = nxt, new_labels
    return current, labels


def count_cuts(monkeypatch) -> list:
    """(matching, cut arcs, Jordan type) of every piece actually cut from
    now on: the memo of labeled_cut is emptied, and each miss of it cuts
    its base once with cut_set, while a read it serves adds nothing.
    """
    calls = []
    real_cut_set = cutting.cut_set

    def counting_cut_set(m, cut_arcs, jt):
        calls.append((m, cut_arcs, jt))
        return real_cut_set(m, cut_arcs, jt)

    cutting._labeled_piece.cache_clear()
    monkeypatch.setattr(cutting, "cut_set", counting_cut_set)
    return calls


def count_span_bases(monkeypatch) -> list:
    """One entry per SpanBasis that exact's own functions (``rank``,
    ``canonical_reduce``) build from now on.
    """
    built = []

    class CountingSpanBasis(exact.SpanBasis):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(exact, "SpanBasis", CountingSpanBasis)
    return built


@contextlib.contextmanager
def collector_off():
    """Collect, freeze what is left and turn the collector off, so that each
    ``gc.collect()`` inside returns the cyclic garbage made since the last
    one and walks only the objects made since the freeze.  Reference
    counting still frees everything that is not in a cycle.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()
