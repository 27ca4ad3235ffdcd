"""Exact scalars, linear algebra over Q and Z[t], and limit-curve values.

Matrices are plain tuples of row tuples.  Entries carry their own
arithmetic: they support ``+ - * == /`` and are falsy exactly at zero, so
every algorithm that only reads or combines entries takes no ring and
runs over any field, or Q[t] with exact division, whose entries behave
so.  The library builds entries of Q: an ``int`` when integral (matrix
zeros and pivot ones, ``rational``, ``sampling``) and a
``fractions.Fraction`` otherwise; results of Fraction arithmetic stay
Fractions, and ``str`` prints both alike.  Since ``int / int`` is a
float, a division of Q entries first makes one operand a Fraction, as
``SpanBasis.add`` does with an ``int`` pivot, or goes through
``exact_div``, which gives a Fraction only on a remainder.  A ``Poly`` is
not an entry: it is a coordinate of a limit curve, a polynomial in t
with rational coefficients that the library builds, compares and
evaluates, and it has no arithmetic.

On top of that arithmetic, one Gaussian elimination (``SpanBasis``) sits
under ``rank``, the span tests of ``closure.flag_necessary_conditions``,
the canonical coset form of a flag matrix (which
``cells.verify_springer`` takes only of a matrix that is not already
triangular with pivots 1) and the coordinate-subspace test of
``cells.prefix_span_basis`` (when two lowest rows coincide); over Q[t]
it yields the canonical form when that form is polynomial.  It is sparse
in the cheap way: a row update leaves the entries where the stored
vector is 0, and a vector whose pivot is already 1 is not rescaled.
``is_one`` is the one test for a pivot of 1: ``x == 1``, which costs no
multiply on the entries of a canonical cell matrix over Q, and the
idempotent test ``x * x == x`` for any other entry type that never
equals an ``int``.

Beside it sit two fraction-free kernels over Python ``int``s on sparse
{row: coefficients} columns, in the manner of Bareiss.  The limit
certifier's ``limit_vectors`` gives the limit as t -> oo of the flag
spanned by polynomial columns, read off by column reduction at t = oo:
each column is cleared of denominators, pivots are cleared by coprime
integer combinations, and a finished column is divided by the gcd of its
entries; each limit vector is an integer multiple of a column of the
limit flag's canonical form.  ``integer_canonical_columns``, the frame
change of limit-curve synthesis, gives the canonical coset form over Q[t]
of columns over Z[t] as integer vectors with integer pivots, so Fractions
appear only when a coordinate is read back.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, NotDivisible, Singular

NEG_INFINITY = float("-inf")
#: The zero that Poly evaluation starts from.
_ZERO = Fraction(0)


def rational(c) -> Fraction | int:
    """c as a rational: an ``int`` when it is integral, else a Fraction."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def exact_div(a: Fraction | int, b: Fraction | int) -> Fraction | int:
    """a / b, exact: an ``int`` over an ``int`` gives a Fraction only on a
    remainder, never a float.
    """
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class Poly:
    """Univariate polynomial in t with rational coefficients, dense form:
    a limit curve's coordinate, which the library builds, compares and
    evaluates but does not compute with.

    Coefficients are stored ascending; trailing zeros are stripped, so the
    zero polynomial has an empty coefficient tuple and degree -inf.  A
    coefficient is stored as an ``int`` when its denominator is 1 and as a
    Fraction otherwise; since ``3 == Fraction(3)`` with the same hash,
    equality, hashing and the printed coefficients do not depend on it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int] = ()):
        cs = [rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def t(cls, power: int = 1, coeff=1) -> "Poly":
        return cls([0] * power + [coeff])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, x):
        """Evaluate at x by Horner's rule: exact at a Fraction or ``int``, a
        float at a float, except that the zero polynomial gives Fraction(0).
        """
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}t" + (f"^{d}" if d > 1 else ""))
        return " + ".join(parts).replace("+ -", "- ")


Matrix = tuple  # tuple of row tuples; informal alias used in signatures


def mat_from_rows(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_cols(m: Matrix) -> list[tuple]:
    """The columns of m; a matrix with no rows has none."""
    return list(zip(*m))


def mat_from_cols(cols) -> Matrix:
    """The matrix with the given columns; no columns give the 0x0 matrix."""
    return tuple(zip(*cols))


def is_one(x) -> bool:
    """Whether the nonzero entry x is 1.

    ``x == 1`` answers for ``int`` and Fraction entries without a multiply;
    for an entry type a caller brings that never equals an ``int``, the
    idempotent test ``x * x == x`` answers, since 1 is the only nonzero
    idempotent of a field or of Q[t].
    """
    return x == 1 or x * x == x


class SpanBasis:
    """Incrementally built span of vectors with exact membership tests.

    Each added vector is reduced against the stored ones in insertion order
    and pivots on its lowest nonzero entry, divided by that entry: the
    stored vectors of a matrix's columns are its canonical coset form.
    Over Q[t] the division raises NotDivisible when the stored vector would
    not be polynomial.  Updates skip the zero entries of the stored vector,
    and a pivot that ``is_one`` reads as 1, as in every canonical cell
    matrix, is not divided by: the vector is stored entry for entry.  Plain
    ``int`` entries stay exact: an ``int`` pivot that is not 1 divides as a
    Fraction.
    """

    def __init__(self):
        self.echelon: list[tuple[int, list]] = []  # (pivot, vector) in insertion order

    def residual(self, vec: Sequence) -> list:
        """vec minus a vector of the span; linear in vec, zero exactly on the span."""
        v = list(vec)
        for piv, basis_vec in self.echelon:
            c = v[piv]
            if c:
                v = [a - c * b if b else a for a, b in zip(v, basis_vec)]
        return v

    def contains(self, vec: Sequence) -> bool:
        return not any(self.residual(vec))

    def add(self, vec: Sequence) -> bool:
        """Add vec to the span; True if it enlarged the span."""
        res = self.residual(vec)
        for piv in range(len(res) - 1, -1, -1):
            if res[piv]:
                break
        else:
            return False
        lead = res[piv]
        if not is_one(lead):
            if lead.__class__ is int:  # int / int would give a float
                lead = Fraction(lead)
            res = [x / lead if x else x for x in res]
        self.echelon.append((piv, res))
        return True

    @property
    def rank(self) -> int:
        return len(self.echelon)


def rank(vectors: Sequence[Sequence]) -> int:
    """The rank of the vectors, which must all have one length: SpanBasis
    pairs entries by position and would cut the longer ones short.
    """
    sizes = {len(v) for v in vectors}
    if len(sizes) > 1:
        raise DimensionMismatch(f"mixed vector lengths {sorted(sizes)}")
    basis = SpanBasis()
    for v in vectors:
        basis.add(v)
    return basis.rank


def canonical_reduce(g: Matrix) -> Matrix:
    """The unique coset representative of gB with pivots 1, zeros below
    and to the right of every pivot.  Column-prefix spans are preserved.

    Raises Singular if g is not invertible and, over Q[t], NotDivisible if
    the representative is not polynomial.
    """
    n = len(g)
    if any(len(row) != n for row in g):
        raise DimensionMismatch("canonical form needs a square matrix")
    span = SpanBasis()
    for j, col in enumerate(mat_cols(g), start=1):
        if not span.add(col):
            raise Singular(f"column {j} is dependent on earlier columns")
    return mat_from_cols([vec for _, vec in span.echelon])


def pivot_pattern(g: Matrix) -> tuple[int, ...]:
    """Row index (1-based) of the lowest nonzero entry of each column."""
    pattern = []
    for j, col in enumerate(mat_cols(g), start=1):
        piv = next((r for r in range(len(col), 0, -1) if col[r - 1]), None)
        if piv is None:
            raise Singular(f"column {j} is zero")
        pattern.append(piv)
    return tuple(pattern)


def _coprime(a: int, c: int) -> tuple[int, int]:
    """a and c divided by their gcd, with the sign that makes a positive."""
    g = gcd(a, c)
    if a < 0:
        g = -g
    return a // g, c // g


def _scaled_sub(v: dict[int, int], a: int, c: int, r: dict[int, int]) -> None:
    """v <- a v - c r in place, keeping only the nonzero rows."""
    if a != 1:
        for row in v:
            v[row] *= a
    for row, x in r.items():
        y = v.get(row, 0) - c * x
        if y:
            v[row] = y
        else:
            del v[row]


def limit_vectors(
    cols: Iterable[Mapping[int, Sequence[Fraction | int]]],
) -> Iterator[tuple[int, dict[int, int]]]:
    """For each column in turn, (pivot, b) such that span(b_1..b_i) is the
    limit as t -> oo of the span of the first i columns.

    A column is a sparse {row: ascending rational coefficients} vector of
    polynomials in t.  b, a sparse integer vector {row: entry} pivoting on
    its last nonzero row, lies in L_i, the limit of the first i columns,
    and vanishes at the earlier pivots.  Those vectors of L_i form a line,
    so b is column i of the canonical form of the limit flag times the
    nonzero integer b[pivot], not always primitive: the column (2t, 1)
    gives (0, {0: 2}).

    Column reduction at t = oo (Kailath, *Linear Systems*, 1980, 6.3), kept
    over Z in the fraction-free manner of Bareiss (*Math. Comp.* 22, 1968):
    each column is cleared of denominators by their lcm and written as a
    polynomial vector in s = 1/t, its coefficients reversed at its top
    degree and stored sparsely.  The reduced vectors of the earlier
    columns clear its value at s = 0 at their pivots by coprime integer
    combinations, in one pass from the highest pivot down (the pivots are
    kept ascending and walked in reverse): at s = 0 each is 0 below its
    pivot, so a cleared row stays 0.  The column is divided by s while
    that value is 0.  The value left is b, after the whole reduced column
    is divided by the gcd of its entries.  None of these steps changes the
    flag, since each only scales a column by a nonzero rational.  Raises
    Singular when the columns are dependent over Q(t).
    """
    reduced: dict[int, list[dict[int, int]]] = {}  # pivot -> s-coefficients
    pivots: list[int] = []  # ascending
    # an independent prefix is divided by s at most its sum of top degrees
    budget = 0
    for j, col in enumerate(cols, start=1):
        top, scale = -1, 1
        for p in col.values():
            for d, c in enumerate(p):
                if c:
                    if d > top:
                        top = d
                    if type(c) is not int:
                        scale = lcm(scale, c.denominator)
        if top < 0:
            raise Singular(f"column {j} is zero")
        budget += top
        v: list[dict[int, int]] = [{} for _ in range(top + 1)]
        for row, p in col.items():
            for d, c in enumerate(p):
                if c:
                    v[top - d][row] = c.numerator * (scale // c.denominator)
        while True:
            v0 = v[0]
            for piv in reversed(pivots):
                c = v0.get(piv)
                if c:
                    r = reduced[piv]
                    a, c = _coprime(r[0][piv], c)
                    if len(r) > len(v):
                        v.extend({} for _ in range(len(r) - len(v)))
                    for k, vk in enumerate(v):
                        _scaled_sub(vk, a, c, r[k] if k < len(r) else {})
            if v0:
                break
            if budget == 0 or len(v) == 1:
                raise Singular(f"column {j} is dependent on earlier columns")
            budget -= 1
            del v[0]  # divide by s
        piv = max(v[0])
        g = gcd(*(x for vk in v for x in vk.values()))
        if g != 1:
            v = [{row: x // g for row, x in vk.items()} for vk in v]
        reduced[piv] = v
        insort(pivots, piv)
        yield piv, v[0]


def _mul_sub(a: Sequence[int], k: int, c: Sequence[int], b: Sequence[int]) -> list[int]:
    """k a - c b over Z[t], ascending coefficients without trailing zeros."""
    out = list(a) if k == 1 else [k * x for x in a]
    size = len(c) + len(b) - 1
    if len(out) < size:
        out.extend([0] * (size - len(out)))
    for i, x in enumerate(c):
        if x:
            for j, y in enumerate(b, i):
                out[j] -= x * y
    while out and not out[-1]:
        out.pop()
    return out


def _primitive_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b over Z[t] for a primitive b; raises NotDivisible on a remainder.

    By Gauss's lemma a primitive b that divides a over Q[t] divides it over
    Z[t], so a quotient coefficient that is not an integer is a remainder.
    """
    rem = list(a)
    deg, lead = len(b) - 1, b[-1]
    quot = [0] * max(len(rem) - deg, 0)
    for i in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[i + deg], lead)
        if r:
            raise NotDivisible(f"{list(b)} does not divide {list(a)} over Z[t]")
        quot[i] = q
        if q:
            for j, y in enumerate(b, i):
                rem[j] -= q * y
    if any(rem[:deg]):
        raise NotDivisible(f"{list(b)} does not divide {list(a)} over Z[t]")
    return quot


def integer_canonical_columns(
    cols: Iterable[Mapping[int, Sequence[int]]],
) -> Iterator[tuple[int, int, dict[int, list[int]]]]:
    """The canonical coset form over Q[t] of columns over Z[t], one column
    at a time, fraction-free.

    A column is a sparse {row: coefficients} vector of integer polynomials
    in t, ascending and without trailing zeros.  For each column this
    yields (pivot, d, r) with r such a vector, d a positive ``int`` and
    r[pivot] == [d]: r / d is the column of ``canonical_reduce`` over Q[t],
    whose coordinates the caller reads by ``exact_div`` by d.

    A column is reduced against the earlier r in insertion order by
    v <- d v - v[pivot] r, with d and v[pivot] divided by their common
    integer content (Bareiss, *Math. Comp.* 22, 1968); each step scales
    the column by a nonzero rational, which leaves r / d unchanged.  A
    non-constant pivot entry is divided out through its primitive part, and
    by Gauss's lemma that quotient is integral exactly when the quotient
    over Q[t] is a polynomial.  Last, r is divided by its content.  Raises
    Singular on a dependent column and NotDivisible when the canonical
    column is not polynomial, as ``canonical_reduce`` does over Q[t].
    """
    reduced: list[tuple[int, int, dict[int, list[int]]]] = []
    for j, col in enumerate(cols, start=1):
        v = dict(col)
        for piv, d, r in reduced:
            c = v.get(piv)
            if c is None:
                continue
            k = 1
            if d != 1:
                g = gcd(d, *c)
                k, c = d // g, [x // g for x in c]
                if k != 1:
                    for row in v.keys() - r.keys():
                        v[row] = [k * x for x in v[row]]
            for row, b in r.items():
                y = _mul_sub(v.get(row, ()), k, c, b)
                if y:
                    v[row] = y
                else:
                    v.pop(row, None)
        if not v:
            raise Singular(f"column {j} is dependent on earlier columns")
        piv = max(v)
        lead = v[piv]
        if len(lead) > 1:
            content = gcd(*lead)
            primitive = [x // content for x in lead]
            v = {row: _primitive_quotient(a, primitive) for row, a in v.items()}
        g = gcd(*(x for a in v.values() for x in a))
        if v[piv][0] < 0:
            g = -g
        if g != 1:
            v = {row: [x // g for x in a] for row, a in v.items()}
        reduced.append((piv, v[piv][0], v))
        yield reduced[-1]
