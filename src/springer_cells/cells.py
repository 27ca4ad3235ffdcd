"""Symbolic cell matrices for Springer Schubert cells and their checks.

Each standard noncrossing matching M with at most min(n, N-n) arcs indexes
a cell.  The cell is the image of a polynomial map from C^{|M|}: start from
the pivot permutation matrix of M and, in the column of each arc start, lay
down the variables of the arc's ancestor chain (the arc itself first) in
consecutive rows just below the top-block pivots already used to the left.
Instantiating the template at any parameter vector gives the canonical
coset representative of a flag fixed by the nilpotent, and distinct
parameters give distinct flags.

The checks read a ``FlagMatrix`` through its column view, built on the
first read and kept on the matrix: the columns, the nonzero rows of each,
and per prefix the sorted nonzero rows of its columns with whether their
lowest rows are distinct.  ``verify_canonical`` takes the pivots from it,
``prefix_span_basis`` reads one prefix and eliminates only when two lowest
rows coincide, ``verify_springer`` tests each column's image by back
substitution on the columns and supports of a triangular matrix (and
brings any other matrix to canonical form first), and ``closure`` reads
its columns.  The view only tests entries for zero, so the readers still
take no ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Mapping, NamedTuple

from .errors import DimensionMismatch, MissingParameter
from .exact import Matrix, Poly, canonical_reduce, is_one, mat_from_rows, rank
from .matchings import Arc, JordanType, Matching, T, _chain, bt_word, word_permutation

#: Returned by prefix_span_basis when V_i is not a span of basis vectors.
NOT_COORDINATE = object()


class _ColumnView(NamedTuple):
    """What the checks read of a flag matrix's columns: the columns, the
    nonzero rows of each (1-based, ascending) and, for each prefix
    i = 0..N, the sorted nonzero rows of the first i columns with whether
    their lowest rows are pairwise distinct (a zero column has no lowest
    row, so no prefix holding one has distinct lowest rows).
    """

    cols: tuple[tuple, ...]
    supports: tuple[tuple[int, ...], ...]
    prefixes: tuple[tuple[tuple[int, ...], bool], ...]


def _build_column_view(rows: Matrix) -> _ColumnView:
    cols = tuple(zip(*rows))
    index = range(1, len(rows) + 1)
    supports = tuple([tuple(compress(index, c)) for c in cols])
    seen: set[int] = set()
    lowest: set[int] = set()
    distinct = True
    prefixes = [((), True)]
    for support in supports:
        seen.update(support)
        distinct = distinct and bool(support) and support[-1] not in lowest
        if distinct:
            lowest.add(support[-1])
        prefixes.append((tuple(sorted(seen)), distinct))
    return _ColumnView(cols, supports, tuple(prefixes))


def _offset(k: int, N: int, what: str) -> int:
    """The 0-based offset of the 1-based index k; DimensionMismatch outside 1..N."""
    if not 1 <= k <= N:
        raise DimensionMismatch(f"{what} {k} outside 1..{N}")
    return k - 1


@dataclass(frozen=True)
class FlagMatrix:
    """Square exact matrix whose column-prefix spans are the flag.

    Its column view is built on the first read and kept on the instance,
    outside the dataclass fields, so equality, hash and repr see ``rows``
    only; a matrix whose columns nothing reads never builds it.
    """

    rows: Matrix
    _view = None  # not a field: the _ColumnView, once built

    def __post_init__(self):
        if not set(map(len, self.rows)) <= {len(self.rows)}:
            raise DimensionMismatch("flag matrix must be square")

    def _column_view(self) -> _ColumnView:
        view = self._view
        if view is None:
            view = _build_column_view(self.rows)
            object.__setattr__(self, "_view", view)
        return view

    @property
    def N(self) -> int:
        return len(self.rows)

    def col(self, j: int) -> tuple:
        """Column j, 1-based; DimensionMismatch outside 1..N."""
        return self._column_view().cols[_offset(j, self.N, "column")]

    def cols(self) -> tuple[tuple, ...]:
        return self._column_view().cols

    def __getitem__(self, rc: tuple[int, int]):
        """Entry (r, c), 1-based; DimensionMismatch outside 1..N."""
        r, c = rc
        return self.rows[_offset(r, self.N, "row")][_offset(c, self.N, "column")]


@dataclass(frozen=True)
class CellTemplate:
    """Pivot pattern plus variable slots of one cell.

    ``slots`` maps (row, column), 1-based, to the arc whose variable sits
    there, and ``column_slots`` holds the same slots per column, as
    {0-based row: arc}; ``top_offset`` gives, per arc, the number of
    top-block pivots strictly left of the arc's start column (the
    variables of the arc's chain occupy the rows just below that offset).
    """

    jt: JordanType
    matching: Matching
    w: tuple[int, ...]
    word: str
    slots: Mapping[tuple[int, int], Arc]
    top_offset: Mapping[Arc, int]

    @property
    def dimension(self) -> int:
        return len(self.matching)

    def slot_items(self) -> list[tuple[int, int, Arc]]:
        return sorted((r, c, a) for (r, c), a in self.slots.items())

    @cached_property
    def column_slots(self) -> tuple[dict[int, Arc], ...]:
        cols: tuple[dict[int, Arc], ...] = tuple({} for _ in self.w)
        for (r, c), arc in self.slots.items():
            cols[c - 1][r - 1] = arc
        return cols


@lru_cache(maxsize=None, typed=True)
def build_template(m: Matching, jt: JordanType) -> CellTemplate:
    """The template of the cell of m.

    Memoized on (m, jt) and their types: every call with equal arguments
    returns the same template, so callers treat it, its ``slots`` and its
    ``top_offset`` as read-only.  A matching that indexes no cell raises on
    every call, and so does an ``Arc`` or a bare pair in place of ``jt``,
    although it equals the Jordan type of the same two ints.
    """
    if not (m.is_noncrossing and m.is_standard):
        raise ValueError("cell templates require a standard noncrossing matching")
    word = bt_word(m, jt)
    slots: dict[tuple[int, int], Arc] = {}
    offsets: dict[Arc, int] = {}
    # each arc's chain, the arc first, in the rows just below the T
    # letters (top-block pivots) left of its start column; the arcs come
    # from m, so the chains skip the membership check of ``ancestors``
    for arc in m.arcs:
        offsets[arc] = tops = word.count(T, 0, arc.init - 1)
        for row, anc in enumerate(_chain(m, arc), start=tops + 1):
            assert row <= jt.n, "variable slots stay inside the top block"
            slots[(row, arc.init)] = anc
    return CellTemplate(jt, m, word_permutation(word, jt.n), word, slots, offsets)


def _check_params(ct: CellTemplate, params: Mapping[Arc, object]) -> None:
    missing = [a for a in ct.matching.arcs if a not in params]
    if missing:
        raise MissingParameter(f"no value for arcs {missing}")


def instantiate(ct: CellTemplate, params: Mapping[Arc, object]) -> FlagMatrix:
    """Fill the template's slots with the parameter values over the Q
    zeros and pivot ones; the result is always in canonical form.
    """
    _check_params(ct, params)
    n = ct.jt.N
    rows = [[0] * n for _ in range(n)]
    for col, piv in enumerate(ct.w, start=1):
        rows[piv - 1][col - 1] = 1
    for (r, c), arc in ct.slots.items():
        rows[r - 1][c - 1] = params[arc]
    return FlagMatrix(mat_from_rows(rows))


def poly_columns(ct: CellTemplate, curve: Mapping[Arc, Poly]) -> list[dict[int, tuple]]:
    """The template's columns at a polynomial curve, each a sparse
    {0-based row: ascending coefficients} vector, the column format of
    ``exact.limit_vectors``.
    """
    _check_params(ct, curve)
    cols = []
    for piv, slots in zip(ct.w, ct.column_slots):
        col = {row: p for row, arc in slots.items() if (p := curve[arc].coeffs)}
        col[piv - 1] = (1,)
        cols.append(col)
    return cols


def cell_matrix(m: Matching, jt: JordanType, params: Mapping[Arc, object]) -> FlagMatrix:
    return instantiate(build_template(m, jt), params)


def verify_canonical(g: FlagMatrix) -> bool:
    """Unique pivot 1 (by ``is_one``) per row and column, zeros below and right of pivots.

    A pivot is its column's lowest nonzero row, so the zeros below it hold
    by construction; a zero column, or two columns with one lowest row,
    fail.
    """
    view = g._column_view()
    _, distinct = view.prefixes[-1]
    if not distinct:
        return False
    for j, support in enumerate(view.supports, start=1):
        row = g.rows[support[-1] - 1]
        if not is_one(row[j - 1]) or any(row[j:]):
            return False
    return True


def apply_nilpotent(jt: JordanType, vec) -> tuple:
    """Image of a coordinate vector under the two-block shift."""
    if len(vec) != jt.N:
        raise DimensionMismatch(f"vector length {len(vec)} vs N={jt.N}")
    if not vec:
        return ()
    head = vec[0]
    zero = head - head if head else head  # a zero entry is its own zero
    out = [*vec[1:], zero]  # e_r goes to e_{r-1}, and e_1 is killed
    if jt.n:
        out[jt.n - 1] = zero  # e_{n+1} is killed too
    return tuple(out)


def verify_springer(g: FlagMatrix, jt: JordanType) -> bool:
    """Each column's image under the nilpotent stays in the flag subspace
    spanned by the columns up to and including it.

    On triangular columns (distinct lowest rows, each pivot 1 by
    ``is_one``), as in every cell and piece matrix, membership is back
    substitution: the lowest row of what is left of an image must be the
    pivot row of a column so far, whose multiple is then subtracted, over
    the supports only and with no division.  Other input is first brought
    to its canonical form, which raises Singular on dependent columns and,
    over Q[t], NotDivisible when that form is not polynomial.
    """
    if jt.N != g.N:
        raise DimensionMismatch(f"Jordan type of size {jt.N} vs N={g.N}")
    view = g._column_view()
    cols, supports = view.cols, view.supports
    if not (view.prefixes[-1][1] and all(is_one(c[s[-1] - 1]) for c, s in zip(cols, supports))):
        cols, supports, _ = _build_column_view(canonical_reduce(g.rows))
    killed = (1, jt.n + 1)  # e_1 and e_{n+1}; e_r goes to e_{r-1}
    owner: dict[int, int] = {}  # pivot row -> column index, columns so far
    for j, (col, support) in enumerate(zip(cols, supports)):
        owner[support[-1]] = j
        image = {r - 1: col[r - 1] for r in support if r not in killed}
        while image:
            r = max(image)
            k = owner.get(r)
            if k is None:
                return False
            c = image.pop(r)
            basis = cols[k]
            for s in supports[k][:-1]:
                x = c * basis[s - 1]
                y = image.get(s)
                y = -x if y is None else y - x  # no int 0: entry types need not mix with int
                if y:
                    image[s] = y
                else:
                    image.pop(s, None)
    return True


def prefix_span_basis(g: FlagMatrix, i: int):
    """Sorted indices {r: e_r in V_i} when V_i is a coordinate subspace,
    else NOT_COORDINATE.

    V_i lies in the span of the e_r for the rows r where its first i
    columns are nonzero, and equals it when both have dimension i.  So the
    answer is NOT_COORDINATE unless there are exactly i such rows.  Columns
    whose lowest nonzero rows are pairwise distinct are triangular, hence
    independent, as in every canonical matrix; only when two lowest rows
    coincide (or a column is zero) does a SpanBasis compute the rank.  Both
    facts are read off prefix i of the column view.
    """
    if not (0 <= i <= g.N):
        raise DimensionMismatch(f"index {i} outside 0..{g.N}")
    view = g._column_view()
    rows, distinct = view.prefixes[i]
    if len(rows) != i:
        return NOT_COORDINATE
    if distinct or rank(view.cols[:i]) == i:
        return rows
    return NOT_COORDINATE
