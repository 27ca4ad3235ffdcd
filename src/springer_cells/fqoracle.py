"""Brute-force ground truth over small prime fields.

Enumerates every canonical coset representative fixed by the nilpotent,
bucketed by pivot pattern, by depth-first extension one column at a time.
A partial prefix survives only if the shifted image of each new column
already lies in the span of the previous columns, which is exactly the
flag-stability condition, so the procedure enumerates precisely the
canonical matrices of Springer flags while skipping dead subtrees early.

The search works on residues mod p as plain ints.  A node holds, for each
row it has not pivoted in, the residual of the shift image of that basis
vector against the prefix span, read at those rows only (it vanishes at
every pivot row); one elimination over them, taken in row order, decides
every candidate pivot.  A new canonical column (pivot 1, zero at every
earlier pivot row) reduces each residual in one step, so a child inherits
its parent's residuals instead of reducing the images again.

Its matrices hold those residues as ints in ``range(q)``.  The oracle
shares with the main path only the flag-matrix wrapper and
``apply_nilpotent``, neither a field type nor the elimination kernel; it
never builds cell templates, so agreement between its buckets and the
matching enumeration is a genuine cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cells import FlagMatrix, apply_nilpotent, build_template, instantiate
from .errors import Infeasible
from .exact import mat_from_cols
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
    nilpotent, bucketed by pivot pattern, with entries in ``range(q)``.
    """
    _feasible(cfg)
    p = cfg.q
    N = cfg.jt.N
    buckets: dict[tuple[int, ...], list[FlagMatrix]] = {}

    def extend(cols: tuple, pivots: tuple[int, ...], unused: list[int], images: list[list[int]]):
        # images[k]: the residual of X e_{unused[k]}, read at the unused rows
        m = len(unused)
        if not m:
            buckets.setdefault(pivots, []).append(FlagMatrix(mat_from_cols(cols)))
            return
        # The new column with pivot unused[k] is e_piv + sum y_i e_{r_i}
        # over the free rows r_i = unused[:k], and its shift image must
        # fall in the prefix span: R_piv + sum y_i R_{r_i} = 0 for the
        # residuals R.  One system serves every candidate pivot: row k
        # enters it as (e_k | R_{unused[k]}), reduced by the rows before it.
        system: list[tuple[int, list[int]]] = []
        for k, piv in enumerate(unused):
            res = [0] * m + images[k]
            res[k] = 1
            for lead, vec in system:
                if c := res[lead]:
                    res = [(a - c * b) % p for a, b in zip(res, vec)]
            # y solves the condition exactly when the image part of
            # (y, 1 | R_piv + sum y_i R_{r_i}) vanishes, and the null space
            # is spanned by the stored rows that pivot in the unit block
            if any(res[m:]):  # no column pivots here: store the row monic
                lead = max(i for i in range(m, 2 * m) if res[i])
                # the clearing above needs monic rows; no feasible input has yet needed it
                inv = pow(res[lead], -1, p)
                system.append((lead, [a * inv % p for a in res]))
                continue
            system.append((k, res))  # its entry at k is 1
            null_basis = [vec[:k] for lead, vec in system if lead < k]
            for coeffs in itertools.product(range(p), repeat=len(null_basis)):
                values = res[:k]
                for c, nb in zip(coeffs, null_basis):
                    if c:
                        values = [(v + c * x) % p for v, x in zip(values, nb)]
                col = [0] * N
                col[piv - 1] = 1
                for r, v in zip(unused, values):
                    col[r - 1] = v
                # one step against the column (pivot 1, 0 at earlier pivot
                # rows) reduces a residual to the child's span, 0 at row k
                child = [
                    [(a - img[k] * v) % p for a, v in zip(img, values)] + img[k + 1 :]
                    for img in images[:k] + images[k + 1 :]
                ]
                extend((*cols, tuple(col)), pivots + (piv,), unused[:k] + unused[k + 1 :], child)

    units = [tuple(int(r == s) for s in range(N)) for r in range(N)]
    extend((), (), list(range(1, N + 1)), [list(apply_nilpotent(cfg.jt, e)) for e in units])
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
    jt = cfg.jt
    matchings = enumerate_matchings(jt)
    expected_patterns = {matching_permutation(m, jt): m for m in matchings}
    patterns_match = set(buckets) == set(expected_patterns)
    sizes_match = True
    instantiation_match = True
    for w, m in expected_patterns.items():
        bucket = buckets.get(w, [])
        if len(bucket) != cfg.q ** len(m):
            sizes_match = False
        template = build_template(m, jt)
        generated = set()
        for values in itertools.product(range(cfg.q), repeat=len(m)):
            generated.add(instantiate(template, dict(zip(m.arcs, values))).rows)
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
