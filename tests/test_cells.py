"""Cell templates, instantiation and the structural flag checks."""

import random
from fractions import Fraction

import pytest

from springer_cells.cells import (
    FlagMatrix,
    NOT_COORDINATE,
    apply_nilpotent,
    build_template,
    cell_matrix,
    prefix_span_basis,
    verify_canonical,
    verify_springer,
)
from springer_cells.errors import MissingParameter, Singular
from springer_cells.exact import POLY_RING, PrimeField, pivot_pattern
from springer_cells.matchings import (
    Arc,
    JordanType,
    enumerate_matchings,
    matching,
)
from springer_cells.sampling import random_params
from springer_cells.verify import check_cell_injectivity, check_cell_membership

from helpers import Q, springer_column_diagnostics

JT8 = JordanType(4, 8)
M1 = matching(8, [(1, 8), (2, 3), (4, 7), (5, 6)])
M2 = matching(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
M3 = matching(8, [(1, 4), (2, 3), (7, 8)])


def letters(m):
    # a, b, c, ... by start order, as rational probe values 2, 3, 5, 7
    primes = [2, 3, 5, 7]
    return {arc: Fraction(primes[i]) for i, arc in enumerate(m.arcs)}


def test_template_m1_matches_displayed_matrix():
    v = letters(M1)
    a, b, c, d = (v[arc] for arc in M1.arcs)
    g = cell_matrix(M1, JT8, v)
    assert g.rows == Q(
        [
            [a, b, 1, 0, 0, 0, 0, 0],
            [0, a, 0, c, d, 1, 0, 0],
            [0, 0, 0, a, c, 0, 1, 0],
            [0, 0, 0, 0, a, 0, 0, 1],
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
        ]
    )


def test_template_m2_matches_displayed_matrix():
    v = letters(M2)
    a, b, c, d = (v[arc] for arc in M2.arcs)
    g = cell_matrix(M2, JT8, v)
    assert g.rows == Q(
        [
            [a, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, b, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, c, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, d, 1],
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
        ]
    )


def test_template_m3_forced_zero_column():
    v = letters(M3)
    a, b, c = (v[arc] for arc in M3.arcs)
    g = cell_matrix(M3, JT8, v)
    assert g.rows == Q(
        [
            [a, b, 1, 0, 0, 0, 0, 0],
            [0, a, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, c, 1],
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
        ]
    )
    # the column before the last arc start is a pure pivot: no free slot
    assert all(c != 6 for (_, c) in build_template(M3, JT8).slots)


def test_build_template_is_memoized():
    template = build_template(M1, JT8)
    assert build_template(M1, JT8) is template
    assert build_template(matching(8, [(5, 6), (4, 7), (2, 3), (1, 8)]), JordanType(4, 8)) is template
    # (2,3) is free under (1,4): no cell, on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="standard noncrossing"):
            build_template(matching(4, [(1, 4)]), JordanType(2, 4))


def test_small_cell_matrix():
    jt = JordanType(2, 4)
    g = cell_matrix(matching(4, [(1, 4), (2, 3)]), jt, {Arc(1, 4): Fraction(3), Arc(2, 3): Fraction(5)})
    assert g.rows == Q([[3, 5, 1, 0], [0, 3, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])


def test_instantiate_at_zero_gives_permutation():
    for m in enumerate_matchings(JT8)[:10]:
        g = cell_matrix(m, JT8, {a: Fraction(0) for a in m.arcs})
        assert all(x in (0, 1) for row in g.rows for x in row)
        assert verify_canonical(g)


def test_instantiate_missing_parameter():
    with pytest.raises(MissingParameter):
        cell_matrix(M1, JT8, {Arc(1, 8): Fraction(1)})


def test_verify_canonical_examples():
    assert verify_canonical(FlagMatrix(Q([[1, 0], [0, 1]])))
    assert verify_canonical(FlagMatrix(Q([[3, 1, 0, 0], [0, 0, 5, 1], [1, 0, 0, 0], [0, 0, 1, 0]])))
    # entry to the right of a pivot
    assert not verify_canonical(FlagMatrix(Q([[1, 2], [0, 1]])))
    # entry below a pivot
    assert not verify_canonical(FlagMatrix(Q([[1, 0], [1, 1]])))


def test_verify_springer_examples():
    jt = JordanType(2, 4)
    for m in enumerate_matchings(jt):
        w_flag = cell_matrix(m, jt, {a: Fraction(0) for a in m.arcs})
        assert verify_springer(w_flag, jt)
    ident = FlagMatrix(Q([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert verify_springer(ident, JordanType(2, 3))
    swapped = FlagMatrix(Q([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    assert not verify_springer(swapped, JordanType(2, 3))
    with pytest.raises(Singular):
        verify_springer(FlagMatrix(Q([[1, 1], [1, 1]])), JordanType(1, 2))


def test_apply_nilpotent():
    jt = JordanType(2, 4)
    assert apply_nilpotent(jt, (0, 1, 0, 0)) == (1, 0, 0, 0)
    assert apply_nilpotent(jt, (1, 0, 0, 0)) == (0, 0, 0, 0)
    assert apply_nilpotent(jt, (0, 0, 1, 0)) == (0, 0, 0, 0)
    assert apply_nilpotent(jt, (0, 0, 0, 1)) == (0, 0, 1, 0)


def test_prefix_span_basis_examples():
    g = cell_matrix(M3, JT8, letters(M3))
    assert prefix_span_basis(g, 5) == (1, 2, 3, 5, 6)
    assert prefix_span_basis(g, 2) is NOT_COORDINATE
    assert prefix_span_basis(g, 8) == (1, 2, 3, 4, 5, 6, 7, 8)


def test_prefix_span_basis_edge_cases():
    g = FlagMatrix(Q([[1, 1, 0], [1, -1, 0], [0, 0, 1]]))
    assert prefix_span_basis(g, 0) == ()
    # columns (1,1,0) and (1,-1,0) are not unit vectors but span e1, e2
    assert prefix_span_basis(g, 1) is NOT_COORDINATE
    assert prefix_span_basis(g, 2) == (1, 2)
    # dependent columns nonzero in exactly two rows span a line
    dependent = FlagMatrix(Q([[1, 2, 0], [1, 2, 0], [0, 0, 1]]))
    assert prefix_span_basis(dependent, 2) is NOT_COORDINATE
    # (1,1,0) and (1,-2,0) are independent over Q but not over F_3
    gf3 = PrimeField(3)
    rows = [[1, 1, 0], [1, -2, 0], [0, 0, 1]]
    assert prefix_span_basis(FlagMatrix(Q(rows)), 2) == (1, 2)
    over_f3 = FlagMatrix(tuple(tuple(gf3.of(x) for x in row) for row in rows))
    assert prefix_span_basis(over_f3, 2) is NOT_COORDINATE
    assert prefix_span_basis(over_f3, 3) is NOT_COORDINATE


def test_readers_take_the_ring_from_the_entries():
    # no ring argument: over F_3 and Q[t] the identity has pivots (1, 2),
    # is canonical and its prefixes span coordinate subspaces
    for ring in (PrimeField(3), POLY_RING):
        ident = FlagMatrix(((ring.one, ring.zero), (ring.zero, ring.one)))
        assert pivot_pattern(ident.rows) == (1, 2)
        assert verify_canonical(ident)
        assert prefix_span_basis(ident, 1) == (1,)
        assert prefix_span_basis(ident, 2) == (1, 2)
        doubled = FlagMatrix(((ring.one, ring.zero), (ring.zero, ring.one + ring.one)))
        assert not verify_canonical(doubled)
    assert verify_canonical(FlagMatrix(()))


def test_membership_and_injectivity_small():
    assert check_cell_membership(6, random.Random(3)).passed
    assert check_cell_injectivity(6, random.Random(3)).passed
    # the geometry suite leaves the column diagnostics out: they would add
    # half again to the time of its membership check
    rng = random.Random(3)
    jts = [JordanType(n, N) for N in (4, 5, 6) for n in range(1, N)]
    assert not any(
        springer_column_diagnostics(
            cell_matrix(m, jt, random_params(m.arcs, rng, nonzero=False)), jt
        )
        for jt in jts
        for m in enumerate_matchings(jt)
        for _ in range(5)
    )


def test_column_diagnostics_flag_bad_matrix():
    # a canonical matrix outside the Springer fiber trips the diagnostics
    bad = FlagMatrix(Q([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    assert springer_column_diagnostics(bad, JordanType(2, 3)) != []
