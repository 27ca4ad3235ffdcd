"""Closure decompositions of cells, structure maps, and exact certification.

The closure of the cell of a matching M is the disjoint union, over subsets
A of M, of the labeled pieces cut(cell, A).  Two independent certifiers
back this up:

* exact polynomial limit curves: a curve v(t) inside the cell whose flag
  converges, subspace by subspace, to a chosen point of a piece, checked
  without tolerance by reading the canonical form of the limit flag off
  the curve, up to integer column scales (``exact.limit_vectors``, over
  the integers), and comparing it column by column with the piece point,
  each column read sparsely off the slots of the piece's base template;
* a numeric infimum oracle (see ``numeric``) that minimizes a projector
  distance to the target flag.

Curves are synthesized recursively from the target point, the canonical
matrix of the piece at the target, which is built once; no level reads a
label, and each level takes its route (the split or the phi data of its
cell) from the memo ``_route``.  With no arc cut, the curve is constant
at the point's slot entries.  When the matching has an index with no arc
over it, the point is ``chi_embed`` of two blocks, sliced along the rows
its ``SplitData`` records and recursed on alone, and the curves
concatenate.  When the outermost arc spans everything, the point is
``phi_embed`` of an inner point over the line V_1, in the rows of
``_phi_frame``: a finite value of that arc, read from the top-left
entry, freezes its variable once the shear is undone, and the inner
point recurses unreduced, exact except right of top-block pivots, where
nothing reads; cutting the outermost arc sends V_1 to its limit line,
which twists the inner coordinates by a polynomial frame change.  The twisted columns are built
over Z[t] and brought to canonical form fraction-free
(``exact.integer_canonical_columns``), the coordinates are read back
over Q[t], and a twist with no polynomial coordinates gives no curve.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import lcm
from typing import NamedTuple

from .cells import FlagMatrix, apply_nilpotent, build_template, poly_columns, prefix_span_basis
from .cutting import LabeledPiece, arc_subsets, labeled_cut, piece_matrix, piece_params, swap_letters
from .errors import (
    CurveNotFound,
    DimensionMismatch,
    InvalidSplitIndex,
    NotDivisible,
    OddN,
    Singular,
)
from .exact import (
    Poly,
    SpanBasis,
    canonical_reduce,
    exact_div,
    integer_canonical_columns,
    limit_vectors,
    mat_from_rows,
    rational,
)
from .matchings import (
    Arc,
    JordanType,
    Matching,
    T,
    bt_word,
    check_arc_count,
    matching_permutation,
)


class _Infinity:
    def __repr__(self) -> str:
        return "inf"


#: Point at infinity of the parameter line used by phi_embed.
INFINITY = _Infinity()


# ---------------------------------------------------------------------------
# decomposition


class _Pieces(Mapping):
    """Read-only map from each subset of the arcs of m to its labeled piece.
    Subsets come by size, then in ``itertools.combinations`` order; a read
    is a ``labeled_cut``, whose memo cuts each piece once and stores it.
    """

    def __init__(self, m: Matching, jt: JordanType):
        self._m, self._jt = m, jt

    def __getitem__(self, subset: frozenset[Arc]) -> LabeledPiece:
        if subset not in self:
            raise KeyError(subset)
        return labeled_cut(self._m, subset, self._jt)

    def __contains__(self, subset) -> bool:
        return isinstance(subset, frozenset) and all(a in self._m for a in subset)

    def __iter__(self):
        return map(frozenset, arc_subsets(self._m.arcs))

    def __len__(self) -> int:
        return 2 ** len(self._m)


@dataclass(frozen=True)
class ClosureDecomposition:
    """The 2^|M| labeled pieces of the closure of the cell of m, keyed by
    the subset of arcs cut; ``pieces`` cuts nothing until it is read.
    """

    matching: Matching
    jt: JordanType
    pieces: Mapping[frozenset[Arc], LabeledPiece]

    def subsets(self) -> list[frozenset[Arc]]:
        return list(self.pieces)

    def piece(self, arcs: Iterable[Arc]) -> LabeledPiece:
        return self.pieces[frozenset(arcs)]


def closure_decomposition(m: Matching, jt: JordanType) -> ClosureDecomposition:
    """One labeled piece for every subset of arcs; 2^|M| in total, each cut
    the first time it is read.
    """
    check_arc_count(m, jt)
    return ClosureDecomposition(m, jt, _Pieces(m, jt))


def swap_candidates(m: Matching, jt: JordanType) -> set[str]:
    """Words reachable by flipping the endpoint letters of arc subsets;
    only these cells can meet the closure of the cell of m.
    """
    word = bt_word(m, jt)
    return {swap_letters(word, combo) for combo in arc_subsets(m.arcs)}


# ---------------------------------------------------------------------------
# necessary conditions satisfied by every flag in the closure


def closure_conditions(
    m: Matching, jt: JordanType
) -> tuple[dict[int, tuple[int, ...]], list[tuple[Arc, int]]]:
    """The closure conditions of the cell of m, as ``(prefixes, shifts)``:
    at each index i with no arc over it, N included, V_i is spanned by the
    e_r for r in ``prefixes[i]``, the sorted pivot rows of the first i
    columns; for each ``(arc, k)`` in ``shifts``, one per arc in order of
    start, k counting the arcs from ``arc.init`` to ``arc.term``, the arc
    itself included, X^k V_{arc.term} lies inside V_{arc.init - 1}.
    """
    w = matching_permutation(m, jt)
    prefixes = {i: tuple(sorted(w[:i])) for i in valid_split_indices(m) + [m.N]}
    return prefixes, [(a, sum(a.init <= b.init and b.term <= a.term for b in m.arcs)) for a in m.arcs]


def flag_necessary_conditions(m: Matching, jt: JordanType, g: FlagMatrix) -> list[str]:
    """Violations of the closure conditions of the cell of m by the
    Springer flag g (X V_i inside V_{i-1} for every i).

    Checks, exactly, the conditions of ``closure_conditions``: the frozen
    coordinate subspace at every index not under an arc, and for each arc
    spanning k arcs (itself included), the k-fold shift maps the subspace at
    its end inside the subspace before its start, read on one span that
    grows over the columns as the arcs come by start.  These imply the
    condition between the ends of an arc a and its parent p,
    X^{k+1} V_{p.term} inside V_{a.term} for k = (p.term - a.term) // 2,
    which is therefore not checked.  The points a.term + 1 .. p.term - 1 are
    covered end to end by the arcs c_1 .. c_r right of a under p, whose arc
    counts k_s sum to k; chaining their conditions X^{k_s} V_{c_s.term}
    inside V_{c_s.init - 1} gives X^k V_{p.term - 1} inside V_{a.term}, and
    the Springer condition X V_{p.term} inside V_{p.term - 1} adds the last
    shift.  When r = 0 the condition is the Springer condition itself.
    """
    prefixes, shifts = closure_conditions(m, jt)
    issues: list[str] = []
    for i, rows in prefixes.items():
        if prefix_span_basis(g, i) != rows:
            issues.append(f"split {i}: prefix span is not the frozen coordinate subspace")
    cols = g.cols()
    span, spanned = SpanBasis(), 0
    for a, k in shifts:
        for c in cols[spanned : a.init - 1]:
            span.add(c)
        spanned = a.init - 1
        images = cols[: a.term]
        for _ in range(k):
            images = [apply_nilpotent(jt, c) for c in images]
        if not all(map(span.contains, images)):
            issues.append(f"arc {a}: {k}-fold shift image escapes the prefix span")
    return issues


# ---------------------------------------------------------------------------
# structure maps


@dataclass(frozen=True)
class SplitData:
    """A cell cut at a split index i into the cell of its first i points
    and that of the rest.  ``left_rows`` and ``right_rows`` are the 0-based
    rows where ``chi_embed`` puts the left and the right flag: the top rows
    of each, in turn, lead the top block, and so on below.
    """

    i: int
    mL: Matching
    mR: Matching
    jtL: JordanType
    jtR: JordanType
    left_rows: tuple[int, ...]
    right_rows: tuple[int, ...]


def _arc_over(m: Matching, i: int) -> bool:
    """Whether an arc of m spans index i, so that the flag does not split there."""
    return any(a.init <= i < a.term for a in m.arcs)


def valid_split_indices(m: Matching) -> list[int]:
    """Indices 1..N-1 with no arc over them: arc-free points and ends of
    parentless arcs.
    """
    return [i for i in range(1, m.N) if not _arc_over(m, i)]


def _shift_arc(a: Arc, offset: int) -> Arc:
    return Arc(a.init + offset, a.term + offset)


def _halves(arcs: Collection[Arc], i: int) -> tuple[tuple[Arc, ...], tuple[Arc, ...]]:
    """The arcs left of a split index i, and those right of it shifted by -i."""
    return tuple(a for a in arcs if a.term <= i), tuple(_shift_arc(a, -i) for a in arcs if a.init > i)


def chi_split(m: Matching, jt: JordanType, i: int) -> SplitData:
    if not (1 <= i <= m.N):
        raise InvalidSplitIndex(f"index {i} outside 1..{m.N}")
    if _arc_over(m, i):
        raise InvalidSplitIndex(f"an arc spans index {i}")
    t = bt_word(m, jt).count(T, 0, i)
    left, right = _halves(m.arcs, i)
    return SplitData(
        i,
        Matching(i, left),
        Matching(m.N - i, right),
        JordanType(t, i),
        JordanType(jt.n - t, m.N - i),
        (*range(t), *range(jt.n, jt.n + i - t)),
        (*range(t, jt.n), *range(jt.n + i - t, m.N)),
    )


def chi_embed(gL: FlagMatrix, gR: FlagMatrix, split: SplitData) -> FlagMatrix:
    """Interleave two flags into one block flag, in the rows
    ``split.left_rows`` and ``split.right_rows``: the left flag in the
    first i columns, the right in the rest.
    Canonical inputs give a canonical output.
    """
    i = split.i
    if gL.N != i or gR.N != split.mR.N:
        raise DimensionMismatch(f"expected sizes {i} and {split.mR.N}, got {gL.N} and {gR.N}")
    N = i + gR.N
    rows = [[0] * N for _ in range(N)]
    for r, src in zip(split.left_rows, gL.rows):
        rows[r][:i] = src
    for r, src in zip(split.right_rows, gR.rows):
        rows[r][i:] = src
    return FlagMatrix(mat_from_rows(rows))


def _phi_frame(N: int, outer_cut: bool) -> tuple[int, int, list[int]]:
    """Where phi_embed puts a flag, as 0-based rows: the pivot rows of
    columns 1 and N, and the rows that carry the inner flag, in order.
    Cutting the outer arc (a = INFINITY) pins the pivots in the corners;
    otherwise they sit at rows N/2 + 1 and N/2, 1-based.
    """
    if outer_cut:
        return 0, N - 1, list(range(1, N - 1))
    half = N // 2
    return half, half - 1, [*range(half - 1), *range(half + 1, N)]


def _shear(rows: list[list], a) -> None:
    """Add a times each bottom-half row to the matching top-half row, in place."""
    half = len(rows) // 2
    for r in range(half):
        rows[r] = [x + a * y if y else x for x, y in zip(rows[r], rows[half + r])]


def phi_embed(a, g: FlagMatrix, jt: JordanType) -> FlagMatrix:
    """Embed an (N-2)-flag over the parameter line of V_1 inside ker X.

    The inner flag and the two pinned pivots are placed by ``_phi_frame``;
    for finite a the result is then sheared by adding a times the bottom
    block to the top block, and a = INFINITY gives the block-diagonal
    arrangement.  The result is put in canonical form.
    """
    N = jt.N
    if N % 2:
        raise OddN(f"N={N} must be even")
    half = N // 2
    if jt.n != half:
        raise DimensionMismatch(f"Jordan type must be ({half},{half})")
    if g.N != N - 2:
        raise DimensionMismatch(f"inner flag must have size {N - 2}, got {g.N}")
    first, last, inner_rows = _phi_frame(N, a is INFINITY)
    rows = [[0] * N for _ in range(N)]
    rows[first][0] = rows[last][N - 1] = 1
    for r, inner in zip(inner_rows, g.rows):
        rows[r][1 : N - 1] = inner
    if a is not INFINITY:
        _shear(rows, a)
    return FlagMatrix(canonical_reduce(mat_from_rows(rows)))


# ---------------------------------------------------------------------------
# exact limit curves


def verify_limit_curve(
    m: Matching,
    jt: JordanType,
    curve: Mapping[Arc, Poly],
    piece: LabeledPiece,
    target: Mapping[Arc, Fraction],
) -> bool:
    """Exact, tolerance-free check that the curve's flag converges to the
    labeled piece at the target values: for every i, the limit of the span
    of the curve's first i columns is the span of the first i columns of
    the piece point, the piece matrix at the target.

    The curve's columns go to ``exact.limit_vectors`` as sparse integer
    polynomials, and each limit vector b_i, column i of the canonical form
    of the limit flag times b_i[pivot], must equal b_i[pivot] times column
    i of the piece point.  Equal columns up to scale span equal flags, so
    a pass is sound for any piece point; the piece point is canonical by
    construction, so a fail is too.  The piece point is built sparsely
    from the ``slots`` of the template of the piece's base: column i holds
    1 at its pivot row and each nonzero parameter value (``piece_params``)
    in its slots.  (The cached ``column_slots`` would stay in the template
    memo for every base a run checks.)  A full flag does not read its
    column N, so the check stops at column N - 1.
    """
    cols = poly_columns(build_template(m, jt), curve)
    params = piece_params(piece, target)
    template = build_template(piece.base, piece.jt)
    point = [{w - 1: 1} for w in template.w]
    for (r, c), arc in template.slots.items():
        if x := params[arc]:
            point[c - 1][r - 1] = x
    for (piv, b), col in zip(limit_vectors(cols[:-1]), point):
        lead = b[piv]
        if b != {row: lead * x for row, x in col.items()}:
            return False
    return True


def _inner_matching(m: Matching) -> Matching:
    outer = Arc(1, m.N)
    return Matching(m.N - 2, tuple(_shift_arc(a, -1) for a in m.arcs if a != outer))


class _Phi(NamedTuple):
    """No split index: the outer arc (1, N) and the cell inside it."""

    outer: Arc
    inner_m: Matching
    inner_jt: JordanType


@lru_cache(maxsize=None, typed=True)
def _route(m: Matching, jt: JordanType) -> SplitData | _Phi:
    """How _synthesize recurses on the cell of m once an arc is cut.

    Memoized on (m, jt) and their types, as ``build_template`` is: the
    sub-matchings of a run recur across its pieces and cells, and callers
    treat the route as read-only.
    """
    splits = valid_split_indices(m)
    if splits:
        return chi_split(m, jt, splits[0])
    outer = Arc(1, m.N)
    assert outer in m, "a matching without split indices carries the full arc"
    return _Phi(outer, _inner_matching(m), JordanType(jt.n - 1, jt.N - 2))


def _twisted_inner_coords(
    inner_m: Matching,
    inner_jt: JordanType,
    inner_curve: Mapping[Arc, Poly],
    germs: Iterable[Arc] = (),
) -> dict[Arc, Poly] | None:
    """Inner cell coordinates after the frame change at the outer cut.

    When the outermost arc is cut, its variable runs off to infinity and
    V_1 tends to the basis line; reading the limit in the chart around that
    line multiplies the inner flag by an explicit polynomial frame: source
    row half + r goes to row r times -t^2 and, for r > 0, to row
    half + r - 1 times t, and source row s < half goes to row half + s.
    The arcs in germs approach 0 along 1/t instead of their (zero) curve:
    each column holding one of their slots is scaled by t, which puts 1 in
    that slot and keeps the flag.  Each twisted column is built over Z[t]
    (its denominators cleared, t and -t^2 applied as shifts), reduced to
    canonical form by ``exact.integer_canonical_columns``, and must be
    exactly the template column at the coordinates read back; None signals
    that the twisted flag has no polynomial point in the inner cell (no
    polynomial certificate of this shape exists).
    """
    h = inner_m.N
    if h == 0:
        return {}
    half = h // 2
    template = build_template(inner_m, inner_jt)
    germs = set(germs)
    cols = []
    for entries, slots in zip(poly_columns(template, inner_curve), template.column_slots):
        if not germs.isdisjoint(slots.values()):
            entries = {row: (0, *p) for row, p in entries.items()}
            entries.update((row, (1,)) for row, arc in slots.items() if arc in germs)
        scale = lcm(*(x.denominator for p in entries.values() for x in p))
        twisted: dict[int, list[int]] = {}
        for row, p in entries.items():
            p = [x.numerator * (scale // x.denominator) for x in p]
            if row < half:
                _add_into(twisted, half + row, p)
            else:
                twisted[row - half] = [0, 0, *(-x for x in p)]
                if row > half:
                    _add_into(twisted, row - 1, [0, *p])
        cols.append(twisted)
    coords: dict[Arc, Poly] = {}
    try:
        for c, ((piv, d, vec), slots) in enumerate(
            zip(integer_canonical_columns(cols), template.column_slots), start=1
        ):
            # the canonical column must be exactly the template column at
            # the coordinates read so far, which also fixes its pivot
            if piv != template.w[c - 1] - 1 or any(row != piv and row not in slots for row in vec):
                return None
            for row, arc in slots.items():
                value = Poly([exact_div(x, d) for x in vec.get(row, ())])
                if arc.init == c:
                    coords[arc] = value
                elif coords[arc] != value:
                    return None
    except (Singular, NotDivisible):
        return None
    return coords


def _add_into(vec: dict[int, list[int]], row: int, p: list[int]) -> None:
    """vec[row] += p over Z[t], dropping the row when the sum is 0."""
    q = [x + y for x, y in zip_longest(vec.pop(row, ()), p, fillvalue=0)]
    while q and not q[-1]:
        q.pop()
    if q:
        vec[row] = q


def _synthesize(
    m: Matching,
    jt: JordanType,
    cut_arcs: frozenset[Arc],
    point: Sequence[Sequence],
) -> dict[Arc, Poly]:
    """The curve of synthesize_limit_curve, before it is verified; point is
    the matrix, as rows, of the piece at the target, read only through the
    frames of the embeddings and exact except right of top-block pivots.
    """
    if not cut_arcs:
        top_offset = build_template(m, jt).top_offset
        return {a: Poly.const(point[top_offset[a]][a.init - 1]) for a in m.arcs}
    route = _route(m, jt)
    if isinstance(route, SplitData):
        i = route.i
        left_cut, right_cut = map(frozenset, _halves(cut_arcs, i))
        left = _synthesize(route.mL, route.jtL, left_cut, [point[r][:i] for r in route.left_rows])
        right = _synthesize(route.mR, route.jtR, right_cut, [point[r][i:] for r in route.right_rows])
        return {**left, **{_shift_arc(a, i): p for a, p in right.items()}}
    # no split: the arc (1, N) is present and the matching is perfect, and
    # the point is phi_embed of an inner point at the outer arc's value
    outer, inner_m, inner_jt = route
    inner_cut = frozenset(_shift_arc(a, -1) for a in cut_arcs if a != outer)
    outer_cut = outer in cut_arcs
    if not outer_cut:
        # no elimination: a column with a top-block pivot holds no slot (the
        # letter B puts an arc start's pivot below), so it is a unit vector;
        # the shear moves no pivot, so phi_embed's reduce only zeroed
        # entries right of a top pivot in its row.  No read reaches them: a
        # leaf reads slots, phi column 0, a shear bottom rows, and a chi
        # slice drops such an entry or keeps it right of the same pivot.
        value = point[0][0]
        point = list(point)
        _shear(point, -value)
    _, _, inner_rows = _phi_frame(m.N, outer_cut)
    inner = _synthesize(inner_m, inner_jt, inner_cut, [point[r][1:-1] for r in inner_rows])
    if not outer_cut:
        out = {outer: Poly.const(value)}
        out.update({_shift_arc(a, 1): p for a, p in inner.items()})
        return out
    twisted = _twisted_inner_coords(inner_m, inner_jt, inner)
    zeros = [a for a in inner_m.arcs if a not in inner_cut and not inner[a]]
    if twisted is None and zeros:
        # the frame change scales the inner coordinates by -t^2, so an arc
        # held at 0 can stay 0 and leave the inner cell; approaching 0
        # along 1/t instead keeps the inner limit
        twisted = _twisted_inner_coords(inner_m, inner_jt, inner, zeros)
    if twisted is None:
        raise CurveNotFound(
            f"frame change left the inner cell for {m.arcs} cutting {sorted(cut_arcs)}"
        )
    out = {outer: Poly.t(1)}
    out.update({_shift_arc(a, 1): p for a, p in twisted.items()})
    return out


def synthesize_limit_curve(
    m: Matching,
    jt: JordanType,
    cut_arcs: Iterable[Arc],
    target: Mapping[Arc, Fraction],
) -> dict[Arc, Poly]:
    """A polynomial curve in the cell of m whose flag limit is the piece
    cut(cell, A) at the target values, certified by verify_limit_curve.

    Raises CurveNotFound when the recursive construction gives no curve or
    a curve that does not verify; the failure is surfaced, never silently
    absorbed.  A cut arc outside m raises ArcNotInMatching and an uncut arc
    without a target value MissingParameter.
    """
    cut_set_ = frozenset(cut_arcs)
    piece = labeled_cut(m, cut_set_, jt)
    target = {a: rational(target[a]) for a in m.arcs if a not in cut_set_ and a in target}
    curve = _synthesize(m, jt, cut_set_, piece_matrix(piece, target).rows)
    if not verify_limit_curve(m, jt, curve, piece, target):
        raise CurveNotFound(
            f"no certified curve for {m.arcs} cutting {sorted(cut_set_)} at {target}"
        )
    return curve
