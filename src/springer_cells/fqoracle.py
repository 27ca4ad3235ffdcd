"""Brute-force ground truth over small prime fields.

Enumerates every canonical coset representative fixed by the nilpotent,
bucketed by pivot pattern, by depth-first extension one column at a time:
a prefix survives only if the shift image of each new column lies in the
span of the columns before it, the flag-stability condition, so dead
subtrees are cut early.  All that lies below a node is fixed by its state:
its unused rows and the residuals of their shift images against the prefix
span, read at those rows.  One elimination mod p decides every candidate
pivot of a state, and it depends on the residuals alone, so each distinct
residual system is solved once per call.  Both tables, states and solved
systems, are local to the call.  The traversal ``_tails`` is a
module-level function that takes them as arguments, so they are reachable
only from the call and reference counting frees them when it returns.

The search holds residues mod p as ints in ``range(q)``, and each point
as ``bytes``, one byte per entry (``FqConfig`` admits only q <= 5): the
matrix flattened column by column, each column laid in front of the
points of the state below it.  The search builds the buckets itself: each
state's entry is ``{pivot suffix: [point suffixes]}`` in depth-first order,
so ``_flag_columns`` returns ``{pivots: [points]}`` with the patterns in
order of first occurrence and each bucket in depth-first order, as
bucketing the flat list of leaves would.  ``enumerate_springer_flags``
cuts each point into its N columns for a flag matrix of int rows.  The
search shares with the main path only the flag-matrix wrapper and
``apply_nilpotent``, neither a field type nor the elimination kernel; it
never builds cell templates, so agreement between its buckets and the
matching enumeration is a genuine cross-check.

The cross-check reads the search's buckets with no flag matrix, no
transpose and no second flattening, and reads each cell off its memoized
template; the type's matchings are the tuple ``enumerate_matchings``
builds once per process.  A cell's points are one flat ``bytes`` base with
the pivot 1s at ``w``, copied per vector of arc values with each of the
``slots`` holding its arc's value; no N x N matrix is built per point,
and the tests keep the point sets equal to ``instantiate``'s.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .cells import CellTemplate, FlagMatrix, apply_nilpotent, build_template
from .errors import Infeasible
from .exact import mat_from_cols
from .matchings import JordanType, enumerate_matchings

#: Hard cap on the nominal enumeration size (canonical matrices of the
#: ambient flag variety); the pruned search visits far fewer states.
MAX_NOMINAL_CANDIDATES = 10**9


@dataclass(frozen=True)
class FqConfig:
    q: int
    jt: JordanType

    def __post_init__(self):
        if self.q not in (2, 3, 5):
            raise ValueError(f"q={self.q} not in {{2,3,5}}")


def _q_factorial_factors(q: int, N: int):
    """The factors (q^i - 1)/(q - 1), i = 1..N, of the q-factorial [N]_q!."""
    return ((q**i - 1) // (q - 1) for i in range(1, N + 1))


def full_flag_count(q: int, N: int) -> int:
    """Number of complete flags over F_q: the q-factorial
    [N]_q! = prod_{i<=N} (q^i - 1)/(q - 1) (Stanley, *Enumerative
    Combinatorics* I, 1.7).
    """
    return math.prod(_q_factorial_factors(q, N))


def within_enumeration_cap(q: int, N: int) -> bool:
    """Whether ``full_flag_count(q, N)`` is at most MAX_NOMINAL_CANDIDATES.
    No factor is below 1, so the running product stops once it passes the cap.
    """
    products = itertools.accumulate(_q_factorial_factors(q, N), operator.mul)
    return all(total <= MAX_NOMINAL_CANDIDATES for total in products)


def _feasible(cfg: FqConfig) -> None:
    if not within_enumeration_cap(cfg.q, cfg.jt.N):
        raise Infeasible(f"nominal candidate count exceeds {MAX_NOMINAL_CANDIDATES}")


def _pivot_solutions(p: int, images: tuple[tuple[int, ...], ...]) -> list[tuple[int, list[int], list[list[int]]]]:
    """Every candidate pivot of one search state, from one elimination mod p.

    ``images[k]`` is the residual of the shift image of the k-th unused
    basis vector, read at the unused rows.  The new column with pivot at
    the k-th unused row is e_piv + sum y_i e_{r_i} over the unused rows r_i
    before it, and its shift image falls in the prefix span exactly when
    R_k + sum y_i R_i = 0 for the residuals R.  Returns, in order of k,
    ``(k, y, null_basis)`` for each solvable k: the solutions are y plus
    the combinations of the null basis.
    """
    m = len(images)
    # row k enters one system as (e_k | R_k), reduced by the rows before it
    system: list[tuple[int, list[int]]] = []
    solutions = []
    for k, img in enumerate(images):
        res = [0] * m + list(img)
        res[k] = 1
        for lead, vec in system:
            if c := res[lead]:
                res = [(a - c * b) % p for a, b in zip(res, vec)]
        # y solves it exactly when the image part of (y, 1 | R_k + sum y_i R_i)
        # vanishes; the stored rows that pivot before k span the null space
        if any(res[m:]):  # no column pivots here: store the row monic
            lead = max(i for i in range(m, 2 * m) if res[i])
            # the clearing above needs monic rows: in the feasible range 77
            # systems lead with 2 over F_3 or with 2, 3 or 4 over F_5
            inv = pow(res[lead], -1, p)
            system.append((lead, [a * inv % p for a in res]))
            continue
        system.append((k, res))  # its entry at k is 1
        solutions.append((k, res[:k], [vec[:k] for lead, vec in system if lead < k]))
    return solutions


def _tails(p: int, N: int, table: dict, solved: dict, unused: tuple[int, ...], images: tuple[tuple[int, ...], ...]) -> dict:
    """The suffixes below one search state as ``{pivot suffix: [point
    suffixes]}``, keys and points in depth-first order, built once per
    state into ``table``; a point suffix is its columns laid end to end,
    one byte per residue.  A residual system is solved once per call, into
    ``solved``.  Both tables are arguments rather than closed over, so
    nothing outlives the caller's references to them.
    """
    if (key := (unused, images)) in table:
        return table[key]
    out = table[key] = {}
    if (pivot_solutions := solved.get(images)) is None:
        pivot_solutions = solved[images] = _pivot_solutions(p, images)
    for k, y, null_basis in pivot_solutions:
        piv = unused[k]
        rest = unused[:k] + unused[k + 1 :]
        others = images[:k] + images[k + 1 :]
        col = bytearray(N)
        col[piv - 1] = 1
        for coeffs in itertools.product(range(p), repeat=len(null_basis)):
            values = y
            for c, nb in zip(coeffs, null_basis):
                if c:
                    values = [(v + c * x) % p for v, x in zip(values, nb)]
            for r, v in zip(unused, values):  # the free rows before the pivot, per solution
                col[r - 1] = v
            head = bytes(col)
            # one step against the column (pivot 1, 0 at earlier pivot
            # rows) reduces a residual to the child's span, 0 at row k;
            # a residual already 0 at row k only loses that entry
            child = tuple(
                [
                    tuple([(a - c * v) % p for a, v in zip(img, values)]) + img[k + 1 :]
                    if (c := img[k])
                    else img[:k] + img[k + 1 :]
                    for img in others
                ]
            )
            for pivots, points in _tails(p, N, table, solved, rest, child).items():
                out.setdefault((piv, *pivots), []).extend(map(head.__add__, points))
    return out


def _flag_columns(cfg: FqConfig) -> dict[tuple[int, ...], list[bytes]]:
    """Every canonical representative over F_q whose flag is fixed by the
    nilpotent, bucketed by pivot pattern, patterns and points in
    depth-first order: ``pivots[c]`` is the pivot row of column c, and each
    point is the matrix flattened column by column, N * N bytes each in
    ``range(q)`` (q <= 5).
    """
    _feasible(cfg)
    N = cfg.jt.N
    # (unused rows, image residuals) -> the buckets of suffixes below it
    table: dict[tuple, dict[tuple[int, ...], list[bytes]]] = {((), ()): {(): [b""]}}
    units = [tuple(int(r == s) for s in range(N)) for r in range(N)]
    images = tuple(apply_nilpotent(cfg.jt, e) for e in units)
    return _tails(cfg.q, N, table, {}, tuple(range(1, N + 1)), images)


def enumerate_springer_flags(cfg: FqConfig) -> dict[tuple[int, ...], list[FlagMatrix]]:
    """All canonical representatives over F_q whose flags are fixed by the
    nilpotent, bucketed by pivot pattern, with entries in ``range(q)``.

    The buckets and their order are the search's (``_flag_columns``), each
    column-major point cut into its N columns and transposed into a
    ``FlagMatrix`` of int rows; the cross-check reads those points directly
    and builds no matrix.
    """
    N = cfg.jt.N
    return {
        pivots: [FlagMatrix(mat_from_cols(point[c * N : (c + 1) * N] for c in range(N))) for point in points]
        for pivots, points in _flag_columns(cfg).items()
    }


@dataclass(frozen=True)
class FqReport:
    q: int
    jt: JordanType
    total: int
    bucket_sizes: dict[tuple[int, ...], int]
    patterns_match: bool
    sizes_match: bool
    instantiation_match: bool
    sum_matches: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.patterns_match
            and self.sizes_match
            and self.instantiation_match
            and self.sum_matches
        )


def _template_points(template: CellTemplate, q: int) -> set[bytes]:
    """Every point of the template over F_q, each its matrix flattened
    column by column, one byte per entry: one copy of the base (the pivot
    1 of column c at row ``w[c]``) per vector of arc values in ``range(q)``,
    with each slot holding its arc's value.
    """
    N = template.jt.N
    base = bytearray(N * N)
    for col, piv in enumerate(template.w):
        base[col * N + piv - 1] = 1
    index = {arc: i for i, arc in enumerate(template.matching.arcs)}
    slots = [((c - 1) * N + r - 1, index[arc]) for (r, c), arc in template.slots.items()]
    points = set()
    for values in itertools.product(range(q), repeat=len(index)):
        point = base.copy()
        for pos, i in slots:
            point[pos] = values[i]
        points.add(bytes(point))
    return points


def cross_check_cells(cfg: FqConfig) -> FqReport:
    """Compare the brute-force buckets with the matching parameterization:
    same nonempty pivot patterns, bucket sizes q^{arcs}, templates filling
    each bucket exactly, and totals adding up.

    The buckets are the search's own leaves (``_flag_columns``), points
    flattened column by column, with no ``FlagMatrix`` built; each cell's
    pattern is its memoized template's ``w`` and its points come from
    ``_template_points``.  Flag matrices are square, so two are equal
    exactly when their column-major flattenings are.  The total is
    compared with the sum over every matching, not over the map from
    ``w``, so a matching listed twice is caught.
    """
    buckets = _flag_columns(cfg)
    jt = cfg.jt
    matchings = enumerate_matchings(jt)
    templates = {t.w: t for t in (build_template(m, jt) for m in matchings)}
    patterns_match = set(buckets) == set(templates)
    sizes_match = True
    instantiation_match = True
    for w, template in templates.items():
        bucket = buckets.get(w, [])
        if len(bucket) != cfg.q ** template.dimension:
            sizes_match = False
        if _template_points(template, cfg.q) != set(bucket):
            instantiation_match = False
    total = sum(len(v) for v in buckets.values())
    sum_matches = total == sum(cfg.q ** len(m) for m in matchings)
    return FqReport(
        cfg.q,
        jt,
        total,
        {w: len(v) for w, v in buckets.items()},
        patterns_match,
        sizes_match,
        instantiation_match,
        sum_matches,
    )
