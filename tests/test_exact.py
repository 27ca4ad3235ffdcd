"""Exact scalars, canonical forms and limit flags."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import springer_cells
from springer_cells.errors import NotDivisible, Singular
from springer_cells.exact import (
    NEG_INFINITY,
    POLY_RING,
    Poly,
    PrimeField,
    canonical_reduce,
    in_span,
    limit_flag,
    pivot_pattern,
)
from springer_cells.verify import check_canonical_reduce

from helpers import Q


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


def test_canonical_reduce_singular():
    with pytest.raises(Singular):
        canonical_reduce(Q([[1, 2], [2, 4]]))


def test_canonical_reduce_over_prime_field():
    gf5 = PrimeField(5)
    g = tuple(tuple(gf5.of(x) for x in row) for row in [[1, 2], [3, 4]])
    # column (1,3) scales its pivot 3 to 1: (2,1); then (2,4) - 4*(2,1) = (4,0) -> (1,0)
    expected = tuple(tuple(gf5.of(x) for x in row) for row in [[2, 1], [1, 0]])
    assert canonical_reduce(g) == expected
    with pytest.raises(Singular):
        canonical_reduce(tuple(tuple(gf5.of(x) for x in row) for row in [[1, 2], [3, 1]]))


def test_canonical_reduce_over_polynomial_ring():
    t, one, zero = Poly.t(), POLY_RING.one, POLY_RING.zero
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


def test_limit_flag_examples():
    t, zero, one = Poly.t(), Poly(), Poly([1])
    # columns t e1 + e3 and -(t^2/2) e1 + t e2 + e4: the top term of the
    # second is parallel to the first, so its limit comes from lower terms
    cols = [(t, zero, one, zero), (Poly([0, 0, Fraction(-1, 2)]), t, zero, one)]
    assert limit_flag(cols) == [(1, 0, 0, 0), (0, 1, Fraction(1, 2), 0)]
    assert limit_flag([(one, t), (t, zero)]) == [(0, 1), (1, 0)]


def test_limit_flag_dependent_columns():
    t, one = Poly.t(), Poly([1])
    with pytest.raises(Singular):
        limit_flag([(t, one), (t * t, t)])
    with pytest.raises(Singular):
        limit_flag([(Poly(), Poly())])


def test_poly_arithmetic():
    p = Poly([1, 2])  # 1 + 2t
    q = Poly([0, 0, 1])  # t^2
    assert (p * q).coeffs == (0, 0, 1, 2)
    assert not (p - p)
    assert p.degree == 1 and Poly().degree == NEG_INFINITY
    assert p(Fraction(3)) == 7
    assert Poly([Fraction(1, 2), 1])(2.0) == pytest.approx(2.5)


def test_poly_exact_division():
    p = Poly([1, 2])  # 1 + 2t
    q = Poly([0, 0, 1])  # t^2
    assert (p * q) / p == q
    assert (p * q) / Poly([Fraction(1, 2)]) == Poly([0, 0, 2, 4])
    assert Poly() / p == Poly()
    with pytest.raises(NotDivisible):
        (p * q + Poly([5])) / p
    with pytest.raises(NotDivisible):
        Poly([1]) / Poly.t()
    with pytest.raises(ZeroDivisionError):
        p / Poly()


def test_prime_field_ops():
    f5 = PrimeField(5)
    a, b = f5.of(3), f5.of(4)
    assert (a + b).value == 2
    assert (a * b).value == 2
    assert (a / b).value == 2  # 3 * 4^{-1} = 3 * 4 = 12 = 2
    assert (-a).value == 2
    with pytest.raises(ValueError):
        PrimeField(6)


def test_only_constructors_take_a_ring():
    # entries carry their arithmetic and zero is falsy, so only the
    # functions that build a matrix out of Python values need the ring
    takes_ring = set()
    for path in Path(springer_cells.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(arg.arg == "ring" for arg in args):
                    takes_ring.add(node.name)
    assert takes_ring == {
        "instantiate",
        "cell_matrix",
        "piece_params",
        "piece_matrix",
        "chi_embed",
        "phi_embed",
    }
