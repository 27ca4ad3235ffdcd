"""Brute-force ground truth over small prime fields.

Enumerates every canonical coset representative fixed by the nilpotent,
bucketed by pivot pattern, by depth-first extension one column at a time.
A partial prefix survives only if the shifted image of each new column
already lies in the span of the previous columns, which is exactly the
flag-stability condition, so the procedure enumerates precisely the
canonical matrices of Springer flags while skipping dead subtrees early.

At each node the shift image of every unused basis vector is reduced
against the prefix span once, and one elimination over those residuals,
taken in row order, decides every candidate pivot.  A new canonical
column (pivot 1, zero at every earlier pivot row) is its own residual, so
it is appended to the child's span without elimination.

The oracle shares with the main path the scalars, the flag-matrix
wrapper, the elimination ``SpanBasis`` and ``apply_nilpotent``; it never
builds cell templates, so agreement between its buckets and the matching
enumeration is a genuine cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cells import FlagMatrix, apply_nilpotent, build_template, instantiate
from .errors import Infeasible
from .exact import PrimeField, SpanBasis, mat_from_cols
from .matchings import JordanType, enumerate_matchings, matching_permutation

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


def full_flag_count(q: int, N: int) -> int:
    """Number of complete flags over F_q: the q-factorial
    [N]_q! = prod_{i<=N} (q^i - 1)/(q - 1) (Stanley, *Enumerative
    Combinatorics* I, 1.7).
    """
    total = 1
    for i in range(1, N + 1):
        total *= (q**i - 1) // (q - 1)
    return total


def _feasible(cfg: FqConfig) -> None:
    if full_flag_count(cfg.q, cfg.jt.N) > MAX_NOMINAL_CANDIDATES:
        raise Infeasible(f"nominal candidate count exceeds {MAX_NOMINAL_CANDIDATES}")


def enumerate_springer_flags(cfg: FqConfig) -> dict[tuple[int, ...], list[FlagMatrix]]:
    """All canonical representatives over F_q whose flags are fixed by the
    nilpotent, bucketed by pivot pattern.
    """
    _feasible(cfg)
    field = PrimeField(cfg.q)
    jt = cfg.jt
    N = jt.N
    elements = field.elements()
    buckets: dict[tuple[int, ...], list[FlagMatrix]] = {}

    def unit(i: int, size: int) -> list:
        return [field.one if s == i else field.zero for s in range(size)]

    units = [unit(r, N) for r in range(N)]
    images = [apply_nilpotent(jt, tuple(e)) for e in units]
    # heads[m][i]: e_i among m unknowns, the coefficient block of the system
    heads = [[unit(i, m) for i in range(m)] for m in range(N + 1)]

    def extend(cols: list[tuple], pivots: tuple[int, ...], span: SpanBasis):
        if len(cols) == N:
            buckets.setdefault(pivots, []).append(FlagMatrix(mat_from_cols(cols)))
            return
        used = set(pivots)
        unused = [r for r in range(1, N + 1) if r not in used]
        m = len(unused)
        # The new column with pivot unused[k] is e_piv + sum y_i e_{r_i}
        # over the free rows r_i = unused[:k], and the shift image of it
        # must fall in the prefix span: an affine condition on y.  One
        # system serves every candidate pivot: row unused[i] enters it as
        # (e_i | res X e_{r_i}), each image reduced against the span once.
        system = SpanBasis()
        for k, piv in enumerate(unused):
            row = heads[m][k] + span.residual(images[piv - 1])
            # with the free rows' rows eliminated first, y solves the
            # condition exactly when the image part of the residual
            # (y, 1 | res X e_piv + sum y_i res X e_{r_i}) vanishes, and the
            # null space is spanned by the free rows' stored vectors that
            # pivot in the unit block (this row's own pivots at k or later)
            res = system.residual(row)
            system.add(res)  # res is 0 at every stored pivot: its own residual
            if any(res[m:]):
                continue
            null_basis = [vec[:k] for p, vec in system.echelon if p < k]
            for coeffs in itertools.product(elements, repeat=len(null_basis)):
                values = res[:k]
                for c, nb in zip(coeffs, null_basis):
                    if c:
                        values = [v + c * x for v, x in zip(values, nb)]
                col = list(units[piv - 1])
                for r, v in zip(unused, values):
                    col[r - 1] = v
                col_t = tuple(col)
                # the column is 0 at every pivot row of the span and has
                # pivot 1, so it is its own residual: the child shares the
                # parent's stored pairs and appends it without elimination
                child = SpanBasis()
                child.echelon = [*span.echelon, (piv - 1, col_t)]
                extend(cols + [col_t], pivots + (piv,), child)

    extend([], (), SpanBasis())
    return buckets


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


def cross_check_cells(cfg: FqConfig) -> FqReport:
    """Compare the brute-force buckets with the matching parameterization:
    same nonempty pivot patterns, bucket sizes q^{arcs}, templates filling
    each bucket exactly, and totals adding up.
    """
    buckets = enumerate_springer_flags(cfg)
    field = PrimeField(cfg.q)
    jt = cfg.jt
    matchings = enumerate_matchings(jt)
    expected_patterns = {}
    for m in matchings:
        prof = matching_permutation(m, jt)
        expected_patterns[prof.w] = m
    patterns_match = set(buckets) == set(expected_patterns)
    sizes_match = True
    instantiation_match = True
    for w, m in expected_patterns.items():
        bucket = buckets.get(w, [])
        if len(bucket) != cfg.q ** len(m):
            sizes_match = False
        template = build_template(m, jt)
        generated = set()
        for values in itertools.product(field.elements(), repeat=len(m)):
            params = dict(zip(m.arcs, values))
            generated.add(instantiate(template, params, field).rows)
        if generated != {g.rows for g in bucket}:
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
