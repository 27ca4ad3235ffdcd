"""Exact scalars, canonical forms and limit flags."""

import itertools
import operator
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from springer_cells.cells import build_template
from springer_cells.errors import DimensionMismatch, NotDivisible, Singular
from springer_cells.exact import (
    NEG_INFINITY,
    Poly,
    SpanBasis,
    canonical_reduce,
    exact_div,
    integer_canonical_columns,
    is_one,
    limit_vectors,
    mat_cols,
    mat_from_cols,
    pivot_pattern,
    rank,
    rational,
)
from springer_cells.matchings import JordanType, enumerate_matchings
from springer_cells.sampling import random_rational
from springer_cells.verify import _orthogonal_residual, check_canonical_reduce

from helpers import GF, RINGS, Q, QtPoly, Residue, brute_det, brute_minors, in_span, poly_matrix

F3, F5 = GF(3), GF(5)


def test_canonical_reduce_identity():
    ident = Q([[1, 0], [0, 1]])
    assert canonical_reduce(ident) == ident


def test_empty_matrix_has_no_pivots():
    assert canonical_reduce(()) == ()
    assert pivot_pattern(()) == ()
    with pytest.raises(Singular):
        pivot_pattern(Q([[1, 0], [0, 0]]))


def test_canonical_reduce_clears_trailing_entries():
    g = Q([[2, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
    # columns: 2e1+e3, e1, e2, e4 in some order, already canonical
    scrambled = Q([[2, 3, 0, 0], [0, 0, 5, 0], [1, 1, 0, 0], [0, 0, 0, 7]])
    assert canonical_reduce(g) == g
    assert canonical_reduce(scrambled) == g


def test_canonical_reduce_preserves_prefix_spans():
    assert check_canonical_reduce(8, random.Random(11)).passed


def _sparse_entry(ring, rng):
    """Zero two times in three, else a small nonzero constant of the ring."""
    zero, _, of = ring
    return of(rng.choice([-3, -2, -1, 1, 2, 3])) if rng.random() < 1 / 3 else zero


def _brute_rank(vectors):
    """The largest r with a nonzero r x r minor, the vectors taken as columns."""
    for r in range(min(len(vectors), len(vectors[0]) if vectors else 0), 0, -1):
        for subset in itertools.combinations(vectors, r):
            if any(brute_minors(list(zip(*subset)), r)):
                return r
    return 0


def _assert_canonical_form_of(g, c):
    """c has the Plücker coordinates of g's column prefixes up to scale, unit
    pivots and zeros to the right of them, all read off by brute force."""
    n = len(g)
    for i in range(1, n + 1):
        a, b = brute_minors(g, i), brute_minors(c, i)
        k = next(k for k, x in enumerate(a) if x)
        assert b[k] and all(a[k] * y == b[k] * x for x, y in zip(a, b))
        piv = max(r for r in range(n) if c[r][i - 1])
        assert c[piv][i - 1] * c[piv][i - 1] == c[piv][i - 1]
        assert not any(c[piv][i:])


@pytest.mark.parametrize("ring", [RINGS["Q"], RINGS["F5"]], ids=["Q", "F5"])
def test_kernel_agrees_with_brute_force_minors(ring):
    zero = ring[0]
    rng = random.Random(20)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = tuple(tuple(_sparse_entry(ring, rng) for _ in range(n)) for _ in range(n))
        cols = mat_cols(g)
        for i in range(n + 1):
            r = _brute_rank(cols[:i])
            assert rank(cols[:i]) == r
            if i < n:
                assert in_span(cols[i], cols[:i]) == (_brute_rank(cols[: i + 1]) == r)
            coeffs = [_sparse_entry(ring, rng) for _ in range(i)]
            combo = [zero] * n
            for c, col in zip(coeffs, cols):
                combo = [x + c * y for x, y in zip(combo, col)]
            assert in_span(combo, cols[:i])
        if brute_det(g):
            _assert_canonical_form_of(g, canonical_reduce(g))
        else:
            with pytest.raises(Singular):
                canonical_reduce(g)


def test_kernel_over_polynomial_ring_recovers_canonical_form():
    # g canonical with polynomial entries and b upper triangular constant:
    # g b lies in the coset g B, so its canonical form is g itself
    rng = random.Random(21)
    zero, one, of = RINGS["Qt"]
    for _ in range(20):
        n = rng.randint(1, 6)
        w = rng.sample(range(n), n)  # pivot row of each column
        g = [[zero] * n for _ in range(n)]
        b = [[zero] * n for _ in range(n)]
        for j in range(n):
            g[w[j]][j] = one
            for r in range(w[j]):
                if r not in w[:j] and rng.random() < 1 / 3:
                    g[r][j] = QtPoly([rng.randint(-2, 2) for _ in range(3)]) or one
            b[j][j] = of(rng.choice([-2, -1, 2, 3]))
            for k in range(j):
                b[k][j] = _sparse_entry(RINGS["Qt"], rng)
        g = tuple(map(tuple, g))
        gb = tuple(
            tuple(sum((g[r][k] * b[k][j] for k in range(j + 1)), zero) for j in range(n))
            for r in range(n)
        )
        assert canonical_reduce(gb) == g
        _assert_canonical_form_of(gb, g)
        assert rank(mat_cols(gb)) == n


def test_canonical_reduce_singular():
    with pytest.raises(Singular):
        canonical_reduce(Q([[1, 2], [2, 4]]))


def test_canonical_reduce_over_prime_field():
    g = tuple(tuple(F5.of(x) for x in row) for row in [[1, 2], [3, 4]])
    # column (1,3) scales its pivot 3 to 1: (2,1); then (2,4) - 4*(2,1) = (4,0) -> (1,0)
    expected = tuple(tuple(F5.of(x) for x in row) for row in [[2, 1], [1, 0]])
    assert canonical_reduce(g) == expected
    with pytest.raises(Singular):
        canonical_reduce(tuple(tuple(F5.of(x) for x in row) for row in [[1, 2], [3, 1]]))


def test_canonical_reduce_over_polynomial_ring():
    t, (zero, one, _) = QtPoly.t(), RINGS["Qt"]
    # column (t,t) divides by its pivot t: (1,1); then (1,0) is already reduced
    assert canonical_reduce(((t, one), (t, zero))) == ((one, one), (one, zero))
    # column (1,t) would divide 1 by t: the canonical form is not polynomial
    with pytest.raises(NotDivisible):
        canonical_reduce(((one, one), (t, one)))
    # (t^2,t) = t (t,1): dependent over Q(t), though no rational multiple
    with pytest.raises(Singular):
        canonical_reduce(((t, t * t), (one, t)))


def test_in_span_examples():
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert in_span(e1, [(1, 1, 0), e2])
    assert not in_span(e3, [e1, e2])
    # shift image of the second column of the small canonical example
    a, b = Fraction(3), Fraction(5)
    col2 = (b, a, 0, 1)
    col1 = (a, 0, 1, 0)
    shifted = (a, 0, 1, 0)  # e2 -> e1, e4 -> e3, e1 and e3 die
    assert shifted == col1
    assert in_span(shifted, [col1])


def test_rank_refuses_mixed_lengths():
    # SpanBasis pairs entries by position, so a short vector would be read
    # as a prefix of a long one
    with pytest.raises(DimensionMismatch, match=r"mixed vector lengths \[2, 3\]"):
        rank([(1, 0, 0), (1, 0)])
    assert rank([(1, 0, 0), (1, 1, 0)]) == 2 and rank([]) == 0


def sparse(cols):
    """Poly columns as the sparse {row: coefficients} columns of limit_vectors."""
    return [{row: p.coeffs for row, p in enumerate(col) if p} for col in cols]


def limit_flag(cols):
    """The limit vectors of Poly columns as dense tuples, each divided by
    its pivot: the columns of the canonical form of the limit flag.
    """
    n = len(cols[0])
    return [
        tuple(Fraction(b.get(row, 0), b[piv]) for row in range(n))
        for piv, b in limit_vectors(sparse(cols))
    ]


def test_limit_flag_examples():
    t, zero, one = Poly.t(), Poly(), Poly([1])
    # columns t e1 + e3 and -(t^2/2) e1 + t e2 + e4: the top term of the
    # second is parallel to the first, so its limit comes from lower terms,
    # the line of (0, 1, 1/2, 0), whose pivot is its third row
    cols = [(t, zero, one, zero), (Poly([0, 0, Fraction(-1, 2)]), t, zero, one)]
    assert limit_flag(cols) == [(1, 0, 0, 0), (0, 2, 1, 0)]
    assert limit_flag([(one, t), (t, zero)]) == [(0, 1), (1, 0)]
    # a leading entry 2: the first column scales to (1, 1/2 s, 0), so
    # (t, 0, 1) leaves (0, -1/2, 1) s, already canonical
    two_t = Poly([0, 2])
    assert limit_flag([(two_t, one, zero), (t, zero, one)]) == [(1, 0, 0), (0, Fraction(-1, 2), 1)]


def test_limit_vectors_are_not_primitive():
    # (2t, 1) is (2, s) times t: the whole reduced column has gcd 1, so
    # its value at s = 0 keeps the factor 2
    assert list(limit_vectors([{0: (0, 2), 1: (1,)}])) == [(0, {0: 2})]


def _reference_coprime(a: int, c: int) -> tuple[int, int]:
    g = gcd(a, c)
    if a < 0:
        g = -g
    return a // g, c // g


def _reference_scaled_sub(v: dict, a: int, c: int, r: dict) -> None:
    if a != 1:
        for row in v:
            v[row] *= a
    for row, x in r.items():
        y = v.get(row, 0) - c * x
        if y:
            v[row] = y
        else:
            del v[row]


def _reference_limit_vectors(cols):
    """The limit kernel as it stood before its per-column trim: a list of
    terms per column, the pivots re-sorted descending for every column."""
    reduced = {}
    pivots = []
    budget = 0
    for j, col in enumerate(cols, start=1):
        terms = [(row, d, c) for row, p in col.items() for d, c in enumerate(p) if c]
        if not terms:
            raise Singular(f"column {j} is zero")
        top = max(d for _, d, _ in terms)
        budget += top
        scale = lcm(*{c.denominator for _, _, c in terms})
        v = [{} for _ in range(top + 1)]
        for row, d, c in terms:
            v[top - d][row] = c.numerator * (scale // c.denominator)
        while True:
            v0 = v[0]
            for piv in pivots:
                c = v0.get(piv)
                if c:
                    r = reduced[piv]
                    a, c = _reference_coprime(r[0][piv], c)
                    v.extend({} for _ in range(len(r) - len(v)))
                    for k, vk in enumerate(v):
                        _reference_scaled_sub(vk, a, c, r[k] if k < len(r) else {})
            if v0:
                break
            if budget == 0 or len(v) == 1:
                raise Singular(f"column {j} is dependent on earlier columns")
            budget -= 1
            del v[0]
        piv = max(v[0])
        g = gcd(*(x for vk in v for x in vk.values()))
        if g != 1:
            v = [{row: x // g for row, x in vk.items()} for vk in v]
        reduced[piv] = v
        pivots.append(piv)
        pivots.sort(reverse=True)
        yield piv, v[0]


def _kernel_outcome(kernel, cols):
    """The (pivot, b) pairs a limit kernel yields, and its Singular message or None."""
    out = []
    try:
        for item in kernel(cols):
            out.append(item)
    except Singular as exc:
        return out, str(exc)
    return out, None


_COEFF = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _sparse_columns(draw):
    """Sparse columns with int and Fraction coefficients, zeros inside and
    at the end of the coefficient lists, zero columns, and columns that are
    combinations of earlier ones, hence dependent over Q(t).
    """
    n = draw(st.integers(1, 5))
    cols = []
    for _ in range(draw(st.integers(1, n + 1))):
        kind = draw(st.sampled_from(["free"] * 6 + ["zero", "combination"] if cols else ["free"] * 6 + ["zero"]))
        if kind == "free":
            rows = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
            col = {row: tuple(draw(st.lists(_COEFF, min_size=1, max_size=4))) for row in sorted(rows)}
        elif kind == "zero":
            col = {row: (0,) * draw(st.integers(0, 2)) for row in draw(st.sets(st.integers(0, n - 1)))}
        else:
            sums = {}
            for earlier in draw(st.lists(st.sampled_from(cols), min_size=1, max_size=2)):
                k, shift = draw(_COEFF), draw(st.integers(0, 2))
                for row, p in earlier.items():
                    q = sums.setdefault(row, [])
                    q.extend([0] * (len(p) + shift - len(q)))
                    for d, c in enumerate(p, shift):
                        q[d] += k * c
            col = {row: tuple(q) for row, q in sums.items()}
        cols.append(col)
    return cols


@settings(max_examples=400, deadline=None)
@given(_sparse_columns())
def test_limit_vectors_agree_with_the_reference_kernel(cols):
    assert _kernel_outcome(limit_vectors, cols) == _kernel_outcome(_reference_limit_vectors, cols)


def test_limit_flag_dependent_columns():
    t, one = Poly.t(), Poly([1])
    with pytest.raises(Singular):
        limit_flag([(t, one), (Poly.t(2), t)])
    with pytest.raises(Singular):
        limit_flag([(Poly(), Poly())])


def test_limit_flag_divides_a_column_by_s_twice():
    # (t^2/3, 1/2, 1) minus a third of the first column leaves (0, 1/2, 1)
    # two powers of s below its top; the lcm of its denominators is 6.
    # The last column, e3, is then canonical as e2
    t2, zero, one = Poly.t(2), Poly(), Poly([1])
    cols = [(t2, zero, zero), (Poly.t(2, Fraction(1, 3)), Poly([Fraction(1, 2)]), one), (zero, zero, one)]
    assert limit_flag(cols) == [(1, 0, 0), (0, Fraction(1, 2), 1), (0, 1, 0)]


def test_limit_flag_dependence_after_a_division():
    # (3t/2, 3/2, 0) is 3/2 of the first plus the second column: clearing
    # the first pivot leaves 0 at s = 0, and the second pivot clears the
    # rest only after the division by s
    t, zero, one = Poly.t(), Poly(), Poly([1])
    half = Fraction(3, 2)
    with pytest.raises(Singular):
        limit_flag([(t, zero, zero), (zero, one, zero), (Poly.t(1, half), Poly([half]), zero)])


#: Cell templates with N <= 6, the columns of whose random curves the
#: limit-flag property test moves by flag-preserving operations.
TEMPLATES = [
    build_template(m, jt)
    for jt in (JordanType(n, N) for N in range(1, 7) for n in range(N + 1))
    for m in enumerate_matchings(jt)
]
SCALARS = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(10**12, 10**15)),
    st.builds(Fraction, st.integers(10**12, 10**15), st.integers(1, 9)),
)
POLYS = st.lists(SCALARS, max_size=3).map(QtPoly)
COLUMN_OPS = st.tuples(st.sampled_from(["rational", "poly", "earlier"]), st.integers(0, 5))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_limit_flag_is_unchanged_by_flag_preserving_column_operations(data):
    """A random curve in a cell template with N <= 6, coefficients up to
    10^15 over 10^15, then column operations over Q[t] that keep the span
    of every prefix of columns: scaling by a nonzero rational or a nonzero
    polynomial, and adding a polynomial multiple of an earlier column.
    The limit vectors over their pivots are the canonical form of the
    limit flag, so the operations leave them identical.
    """
    template = data.draw(st.sampled_from(TEMPLATES))
    curve = {a: data.draw(POLYS) for a in template.matching.arcs}
    cols = [list(col) for col in mat_cols(poly_matrix(template, curve))]
    flag = limit_flag(cols)
    assert canonical_reduce(mat_from_cols(flag)) == mat_from_cols(flag)
    for kind, j in data.draw(st.lists(COLUMN_OPS, max_size=6)):
        j %= len(cols)
        if kind == "earlier":
            if j == 0:
                continue
            k = data.draw(st.integers(0, j - 1))
            q = data.draw(POLYS)
            cols[j] = [p + q * r for p, r in zip(cols[j], cols[k])]
        else:
            factors = POLYS.filter(bool) if kind == "poly" else SCALARS.filter(bool).map(QtPoly.const)
            q = data.draw(factors)
            cols[j] = [q * p for p in cols[j]]
    assert limit_flag(cols) == flag


def test_poly_arithmetic():
    p = QtPoly([1, 2])  # 1 + 2t
    q = QtPoly([0, 0, 1])  # t^2
    assert (p * q).coeffs == (0, 0, 1, 2)
    assert not (p - p)
    assert p.degree == 1 and Poly().degree == NEG_INFINITY
    assert p(Fraction(3)) == 7
    assert Poly([Fraction(1, 2), 1])(2.0) == pytest.approx(2.5)


def _canonical(c) -> bool:
    """c is stored as a Poly coefficient should be: an int exactly when its
    denominator is 1, else a Fraction, never a float.
    """
    return type(c) is int if c.denominator == 1 else type(c) is Fraction


def test_poly_shares_its_zero_and_keeps_mixed_coefficients():
    zero = Poly()(3)
    assert zero == Fraction(0) and type(zero) is Fraction
    assert Poly()(Fraction(1, 2)) is zero and Poly([0, Fraction(0)])(5) is zero
    assert Poly([1, Fraction(1, 2), 0]).coeffs == (1, Fraction(1, 2))
    assert Poly([Fraction(-2), 3]).coeffs == (-2, 3)
    p = QtPoly([1, Fraction(1, 2), 0])  # 1 + t/2
    q = QtPoly([Fraction(-2), 3])  # -2 + 3t
    assert p.coeffs == (1, Fraction(1, 2))
    assert (p + q).coeffs == (-1, Fraction(7, 2))
    assert (p - q).coeffs == (3, Fraction(-5, 2))
    assert (p * q).coeffs == (-2, 2, Fraction(3, 2))
    assert (-q).coeffs == (2, -3)
    assert ((p * q) / q).coeffs == p.coeffs
    assert Poly([0, Fraction(0)]).coeffs == ()
    for r in (p, q, p + q, p - q, p * q, -q, (p * q) / q, QtPoly([3, 0, 1]) * QtPoly.t(2)):
        assert all(_canonical(c) for c in r.coeffs)
    # (t, 1) reduces against the longer (t^2, 1), which pads it with zeros
    t, one = Poly.t(), Poly([1])
    assert limit_flag([(Poly.t(2), one), (t, one)]) == [(1, 0), (0, 1)]


def test_span_tests_are_exact_on_int_vectors():
    """Seeded integer 4-vectors w = 3 v1 + 7 v2 + 11 v3: an int pivot that
    is not 1 must not turn the reduction into float arithmetic.
    """
    rng = random.Random(0)
    for _ in range(300):
        vs = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        w = [3 * a + 7 * b + 11 * c for a, b, c in zip(*vs)]
        assert in_span(w, vs)
        exact = [[Fraction(x) for x in v] for v in vs + [w]]
        assert rank(vs + [w]) == rank(exact)
    assert canonical_reduce(((2, 0), (0, 3))) == Q([[1, 0], [0, 1]])
    assert not in_span((1, 0, 0), [(2, 4, 0), (0, 3, 9)])


def test_is_one():
    for one in (1, Fraction(1), Residue(1, 2), Residue(1, 3), Residue(1, 7), QtPoly.const(1)):
        assert is_one(one), one
    for other in (2, -1, Fraction(1, 2), Fraction(-1), Residue(2, 3), F3.of(-1), QtPoly.t(1), QtPoly([1, 1])):
        assert not is_one(other), other


@pytest.mark.parametrize(
    "ring, half",
    [(RINGS["Q"], Fraction(1, 2)), (RINGS["F3"], Residue(2, 3)), (RINGS["Qt"], QtPoly([Fraction(1, 2)]))],
    ids=["Q", "F3", "Qt"],
)
def test_span_basis_rescales_only_a_pivot_that_is_not_one(ring, half):
    zero, one, of = ring
    two = of(2)
    unit_pivot = (two, one, zero)
    basis = SpanBasis()
    assert basis.add(unit_pivot)
    stored = basis.echelon[0][1]
    assert basis.echelon[0][0] == 1
    assert all(x is y for x, y in zip(stored, unit_pivot))  # entry for entry
    basis.add((one, zero, two))
    assert basis.echelon[1] == (2, [half, zero, one])
    assert type(basis.echelon[1][1][0]) is type(half)  # never a float


def test_span_basis_divides_a_polynomial_pivot():
    basis = SpanBasis()
    basis.add((QtPoly.t(2), QtPoly.t(1)))
    assert basis.echelon == [(1, [QtPoly.t(1), QtPoly.const(1)])]


def test_poly_exact_division():
    p = QtPoly([1, 2])  # 1 + 2t
    q = QtPoly([0, 0, 1])  # t^2
    assert (p * q) / p == q
    assert (p * q) / QtPoly([Fraction(1, 2)]) == QtPoly([0, 0, 2, 4])
    assert QtPoly() / p == QtPoly()
    with pytest.raises(NotDivisible):
        (p * q + QtPoly([5])) / p
    with pytest.raises(NotDivisible):
        QtPoly([1]) / QtPoly.t()
    with pytest.raises(ZeroDivisionError):
        p / QtPoly()


def test_int_entries_divide_exactly():
    """Integral values are ints over Q, and int / int would give a float:
    every division path on Q entries stays exact.
    """
    assert [rational(x) for x in (3, Fraction(6, 3), "-8/4", Fraction(1, 2))] == [3, 2, -2, Fraction(1, 2)]
    assert [type(rational(x)) for x in (3, Fraction(6, 3), "-8/4", Fraction(1, 2))] == [int, int, int, Fraction]
    rng = random.Random(0)
    for x in (random_rational(rng, nonzero=False) for _ in range(200)):
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1)
    basis = SpanBasis()
    assert basis.add([1, 0, 2])  # int pivot 2
    assert basis.echelon == [(2, [Fraction(1, 2), 0, 1])]
    assert type(basis.echelon[0][1][0]) is Fraction
    residual = _orthogonal_residual([1, 0], [[1, 1]])
    assert residual == [Fraction(1, 2), Fraction(-1, 2)] and all(type(x) is Fraction for x in residual)


def test_int_coefficients_divide_exactly():
    """Integral coefficients are stored as ints, and int / int would give a
    float: every division path on them stays exact.
    """
    half = QtPoly([1, 2]) / QtPoly([2])
    assert half == Poly([Fraction(1, 2), 1]) and half.coeffs == (Fraction(1, 2), 1)
    assert all(_canonical(c) for c in half.coeffs)
    assert (QtPoly([2, 4]) / QtPoly([2])).coeffs == (1, 2)
    assert all(type(c) is int for c in (QtPoly([2, 4]) / QtPoly([2])).coeffs)
    with pytest.raises(NotDivisible):
        QtPoly([1, 0, 1]) / QtPoly([1, 1])  # t^2 + 1 = (t + 1)(t - 1) + 2
    with pytest.raises(NotDivisible):
        QtPoly([1, 3]) / QtPoly([0, 2])
    basis = SpanBasis()
    assert basis.add([QtPoly([1]), QtPoly([0, 3]), QtPoly([2])])
    (piv, vec), = basis.echelon
    assert piv == 2 and vec == [Poly([Fraction(1, 2)]), Poly([0, Fraction(3, 2)]), Poly([1])]
    assert all(_canonical(c) for p in vec for c in p.coeffs)
    assert basis.contains([QtPoly([2]), QtPoly([0, 6]), QtPoly([4])])
    p = Poly([3, 0, 1])  # 3 + t^2
    assert p(Fraction(1, 2)) == Fraction(13, 4) and type(p(Fraction(1, 2))) is Fraction
    assert p(2) == 7 and type(p(2)) is Fraction
    assert p(0.5) == 3.25 and type(p(0.5)) is float
    assert p.coeffs == (3, 0, 1) and all(type(c) is int for c in p.coeffs)
    t, zero, one = QtPoly.t(), Poly(), Poly([1])
    cols = [(Poly([0, 2]), Poly([4]), zero), (Poly([6]), one, zero), (zero, zero, Poly([0, 0, 3]))]
    assert list(limit_vectors(sparse(cols))) == [(0, {0: 1}), (1, {1: 1}), (2, {2: 1})]
    assert list(limit_vectors(sparse([(t * QtPoly([2]), Poly([6]))]))) == [(0, {0: 1})]


def _poly_column(vec, n, d=1):
    """A sparse integer polynomial vector over rows 0..n-1, divided by d, as QtPolys."""
    return tuple(QtPoly([exact_div(x, d) for x in vec.get(r, ())]) for r in range(n))


def test_integer_canonical_columns_divide_exactly():
    """The fraction-free kernel: a non-monic pivot with content, a pivot
    that does not divide, a dependent column and an integral result.
    """
    # (t + 1, 2t + 2) is (2t + 2)(1/2, 1): its pivot has content 2 and
    # its primitive part t + 1 divides, leaving d = 2
    (piv, d, r), = integer_canonical_columns([{0: [1, 1], 1: [2, 2]}])
    assert (piv, d, r) == (1, 2, {0: [1], 1: [2]})
    assert Poly([exact_div(x, d) for x in r[0]]).coeffs == (Fraction(1, 2),)
    assert type(exact_div(r[0][0], d)) is Fraction
    # reduced against it with v <- 2 v - 5 r, (3t, 5) leaves e_1 up to scale
    cols = [{0: [1, 1], 1: [2, 2]}, {0: [0, 3], 1: [5]}]
    assert [(piv, d) for piv, d, _ in integer_canonical_columns(cols)] == [(1, 2), (0, 1)]
    # (1, t): the pivot t leaves 1 / t
    with pytest.raises(NotDivisible):
        list(integer_canonical_columns([{0: [1], 1: [0, 1]}]))
    # (t, 2t + 1): the primitive pivot 2t + 1 leaves the quotient 1/2 of
    # t, which no remainder over Z shows
    with pytest.raises(NotDivisible):
        list(integer_canonical_columns([{0: [0, 1], 1: [1, 2]}]))
    # (t^2, t) = t (t, 1) after (t, 1): dependent over Q(t)
    with pytest.raises(Singular):
        list(integer_canonical_columns([{0: [0, 1], 1: [1]}, {0: [0, 0, 1], 1: [0, 1]}]))
    # (2t, 2): content 2 divides out, and every coordinate is an int
    (piv, d, r), = integer_canonical_columns([{0: [0, 2], 1: [2]}])
    assert (piv, d, r) == (1, 1, {0: [0, 1], 1: [1]})
    coeffs = [exact_div(x, d) for a in r.values() for x in a]
    assert all(type(x) is int for x in coeffs)


def test_integer_canonical_columns_agree_with_canonical_reduce():
    """On random integer polynomial matrices, the fraction-free kernel gives
    canonical_reduce's columns over Q[t], or raises what it raises.
    """
    rng = random.Random(17)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        cols = []
        for _ in range(n):
            col = {}
            for r in range(n):
                if rng.random() < 0.5:
                    p = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                    while p and not p[-1]:
                        p.pop()
                    if p:
                        col[r] = p
            cols.append(col)
        try:
            expected = mat_cols(canonical_reduce(mat_from_cols([_poly_column(c, n) for c in cols])))
        except (NotDivisible, Singular) as exc:
            with pytest.raises(type(exc)):
                list(integer_canonical_columns(cols))
            outcomes.add(type(exc))
            continue
        reduced = list(integer_canonical_columns(cols))
        assert [_poly_column(r, n, d) for _, d, r in reduced] == expected
        assert all(r[piv] == [d] and d > 0 for piv, d, r in reduced)
        outcomes.add(None)
    assert outcomes == {None, NotDivisible, Singular}


def test_gf_elements_are_reduced_values():
    # the reference field of the brute-force checks over F_p
    for p in (2, 3, 5, 7):
        field = GF(p)
        for v in range(-2 * p, 2 * p):
            x = Residue(v, p)
            assert x == field.of(v) and hash(x) == hash(field.of(v))
            assert x.value == v % p
            assert bool(x) == (v % p != 0)
        assert field.elements() == [Residue(v, p) for v in range(p)]
        assert field.zero == Residue(p, p) and field.one == Residue(1 - p, p)
    assert Residue(4, 3) == Residue(1, 3)
    assert Residue(1, 3) != Residue(1, 5)
    assert len({Residue(v, 3) for v in range(-6, 6)}) == 3


def test_gf_field_checks():
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for op in ops:
        for other in (F5.one, 1, Fraction(1)):
            with pytest.raises(TypeError):
                op(F3.one, other)
            with pytest.raises(TypeError):
                op(other, F3.one)
    for x in F3.elements():
        with pytest.raises(ZeroDivisionError):
            x / F3.zero
    for x, y in itertools.product(F5.elements(), repeat=2):
        assert (x + y).value == (x.value + y.value) % 5
        assert (x - y).value == (x.value - y.value) % 5
        assert (x * y).value == (x.value * y.value) % 5
        assert (-x).value == -x.value % 5
        if y:
            assert (x / y) * y == x
