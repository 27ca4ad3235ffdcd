"""Exact scalars and linear algebra over Q, prime fields and Q[t].

Matrices are plain tuples of row tuples.  Entries carry their own
arithmetic: they support ``+ - * == /`` and are falsy exactly at zero, so
every algorithm that only reads or combines entries is generic without
being told the ring.  ``fractions.Fraction`` is the entry type for Q;
``GFElement`` and ``Poly`` are those for F_q and Q[t], where ``/`` is exact
division and raises ``NotDivisible`` on a remainder.  A ring object
(``QQ``, ``PrimeField(p)``, ``POLY_RING``) only supplies ``zero``, ``one``
and ``of(int)`` to the constructors that build a matrix out of Python
values.

On top of that arithmetic, one Gaussian elimination (``SpanBasis``) sits
under span tests, the canonical coset form of a flag matrix and the
coordinate-subspace test of ``cells.prefix_span_basis``; over Q[t] it
yields the canonical form when that form is polynomial.  Beside it sits
``limit_flag``: the limit as t -> oo of the flag spanned by polynomial
columns, read off by column reduction at t = oo.  Both are sparse in the
cheap way: a row update leaves the entries where the stored vector is 0,
and a vector whose pivot is already 1 is not rescaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, NotDivisible, Singular

NEG_INFINITY = float("-inf")


class _Rationals:
    """The field Q, carried by fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(x) -> Fraction:
        return Fraction(x)


QQ = _Rationals()


@dataclass(frozen=True)
class GFElement:
    value: int
    p: int

    def _coerce(self, other: "GFElement") -> None:
        if not isinstance(other, GFElement) or other.p != self.p:
            raise TypeError(f"incompatible field element: {other!r}")

    def __add__(self, other: "GFElement") -> "GFElement":
        self._coerce(other)
        return GFElement((self.value + other.value) % self.p, self.p)

    def __sub__(self, other: "GFElement") -> "GFElement":
        self._coerce(other)
        return GFElement((self.value - other.value) % self.p, self.p)

    def __mul__(self, other: "GFElement") -> "GFElement":
        self._coerce(other)
        return GFElement((self.value * other.value) % self.p, self.p)

    def __truediv__(self, other: "GFElement") -> "GFElement":
        self._coerce(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement((self.value * pow(other.value, -1, self.p)) % self.p, self.p)

    def __neg__(self) -> "GFElement":
        return GFElement((-self.value) % self.p, self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.p})"


class PrimeField:
    """The prime field F_p for small prime p."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = GFElement(0, p)
        self.one = GFElement(1, p)

    def of(self, x) -> GFElement:
        return GFElement(int(x) % self.p, self.p)

    def elements(self) -> list[GFElement]:
        return [GFElement(v, self.p) for v in range(self.p)]


class Poly:
    """Univariate polynomial in t with Fraction coefficients, dense form.

    Coefficients are stored ascending; trailing zeros are stripped, so the
    zero polynomial has an empty coefficient tuple and degree -inf.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(c) -> "Poly":
        return Poly([Fraction(c)])

    @staticmethod
    def t(power: int = 1, coeff=1) -> "Poly":
        return Poly([0] * power + [Fraction(coeff)])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def coeff(self, d: int) -> Fraction:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def __call__(self, x):
        """Evaluate at x (Fraction/int for exact, float for numeric work)."""
        numeric = isinstance(x, float)
        acc = 0.0 if numeric else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if numeric else c)
        return acc

    def __truediv__(self, other: "Poly") -> "Poly":
        """The exact quotient; raises NotDivisible when other leaves a remainder."""
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - d, 0)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + d] / lead
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        if any(rem[:d]):
            raise NotDivisible(f"{other!r} does not divide {self!r}")
        return Poly(quot)

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


class _PolyRing:
    zero = Poly()
    one = Poly([1])

    @staticmethod
    def of(x) -> Poly:
        return Poly.const(x)


POLY_RING = _PolyRing()


Matrix = tuple  # tuple of row tuples; informal alias used in signatures


def mat_from_rows(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_cols(m: Matrix) -> list[list]:
    """The columns of m; a matrix with no rows has none."""
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    return [[m[r][j] for r in range(n_rows)] for j in range(n_cols)]


def mat_from_cols(cols) -> Matrix:
    """The matrix with the given columns; no columns give the 0x0 matrix."""
    n_rows = len(cols[0]) if cols else 0
    return tuple(tuple(col[r] for col in cols) for r in range(n_rows))


class SpanBasis:
    """Incrementally built span of vectors with exact membership tests.

    Each added vector is reduced against the stored ones in insertion order
    and pivots on its lowest nonzero entry, divided by that entry: the
    stored vectors of a matrix's columns are its canonical coset form.
    Over Q[t] the division raises NotDivisible when the stored vector would
    not be polynomial.  Updates skip the zero entries of the stored vector,
    and a pivot that is already 1, as in every canonical cell matrix, is
    not divided by.
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
        piv = next((i for i in range(len(res) - 1, -1, -1) if res[i]), None)
        if piv is None:
            return False
        lead = res[piv]
        if lead * lead != lead:  # not a unit pivot
            res = [x / lead if x else x for x in res]
        self.echelon.append((piv, res))
        return True

    @property
    def rank(self) -> int:
        return len(self.echelon)


def rank(vectors: Sequence[Sequence]) -> int:
    basis = SpanBasis()
    for v in vectors:
        basis.add(v)
    return basis.rank


def in_span(vector: Sequence, basis_vectors: Sequence[Sequence]) -> bool:
    """Exact membership of a vector in the span of the given vectors."""
    sizes = {len(v) for v in basis_vectors} | {len(vector)}
    if len(sizes) > 1:
        raise DimensionMismatch(f"mixed vector lengths {sorted(sizes)}")
    basis = SpanBasis()
    for v in basis_vectors:
        basis.add(v)
    return basis.contains(vector)


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


def limit_flag(cols: Sequence[Sequence[Poly]]) -> list[tuple[Fraction, ...]]:
    """Vectors b_1, b_2, ... over Q with span(b_1..b_i) the limit as t -> oo
    of the span of the first i polynomial columns.

    Column reduction at t = oo (Kailath, *Linear Systems*, 1980, 6.3): each
    column is written as a polynomial vector in s = 1/t, its coefficients
    reversed at its top degree; Q-multiples of the earlier reduced vectors
    clear its value at s = 0 at their pivots, and it is divided by s while
    that value is 0.  The value left is b_i.  Raises Singular when the
    columns are dependent over Q(t).
    """
    reduced: list[tuple[int, list[list[Fraction]]]] = []  # (pivot, s-coefficients)
    flag = []
    # an independent prefix is divided by s at most its sum of top degrees
    budget = 0
    for j, col in enumerate(cols, start=1):
        degree = max(p.degree for p in col)
        if degree == NEG_INFINITY:
            raise Singular(f"column {j} is zero")
        top = int(degree)
        budget += top
        v = [[p.coeff(top - k) for p in col] for k in range(top + 1)]
        while True:
            for piv, r in reduced:
                c = v[0][piv]
                if c:
                    v.extend([Fraction(0)] * len(col) for _ in range(len(r) - len(v)))
                    for vk, rk in zip(v, r):
                        for row, x in enumerate(rk):
                            if x:
                                vk[row] -= c * x
            piv = next((row for row, x in enumerate(v[0]) if x), None)
            if piv is not None:
                break
            if budget == 0 or len(v) == 1:
                raise Singular(f"column {j} is dependent on earlier columns")
            budget -= 1
            del v[0]  # divide by s
        inv = 1 / v[0][piv]
        if inv != 1:
            v = [[inv * x if x else x for x in vk] for vk in v]
        reduced.append((piv, v))
        reduced.sort(key=lambda e: e[0])
        flag.append(tuple(v[0]))
    return flag
