"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

import numpy as np

from springer_cells.cells import cell_matrix
from springer_cells.closure import (
    closure_decomposition,
    swap_candidates,
    synthesize_limit_curve,
    verify_limit_curve,
)
from springer_cells.cutting import ZERO, cut, cut_set, labeled_cut, piece_matrix
from springer_cells.fqoracle import FqConfig, cross_check_cells
from springer_cells.matchings import (
    Arc,
    JordanType,
    j_functions,
    matching,
    matching_permutation,
    word_to_matching,
)
from springer_cells.numeric import curve_seed_points, numeric_infimum
from springer_cells.sampling import random_params
from springer_cells.verify import (
    check_cell_membership,
    check_certification,
    check_chi_compatibility,
    check_counts,
    check_cut_distinctness,
    check_cut_order_independence,
    check_fq_oracle,
    check_label_properties,
    check_matching_roundtrip,
    check_phi_cell_law,
    check_unnesting,
    check_word_roundtrip,
)

from helpers import Q, ancestor_table

JT8 = JordanType(4, 8)
JT4 = JordanType(2, 4)
M1 = matching(8, [(1, 8), (2, 3), (4, 7), (5, 6)])
M2 = matching(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
M3 = matching(8, [(1, 4), (2, 3), (7, 8)])
NESTED4 = matching(4, [(1, 4), (2, 3)])
ROW4 = matching(4, [(1, 2), (3, 4)])


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[criterion {number}] FAIL - {description}")
                raise
            print(f"[criterion {number}] PASS - {description}")

        return run

    return wrap


def perm_matrix(w):
    n = len(w)
    return Q([[1 if w[c] == r + 1 else 0 for c in range(n)] for r in range(n)])


@criterion(1, "paper-example golden values, exact, under one second")
def test_criterion_1_golden_examples():
    start = time.perf_counter()
    # pivot permutation matrices of the three displayed matchings
    assert perm_matrix(matching_permutation(M1, JT8)) == Q(
        [
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
        ]
    )
    assert perm_matrix(matching_permutation(M2, JT8)) == Q(
        [
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
        ]
    )
    assert perm_matrix(matching_permutation(M3, JT8)) == Q(
        [
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
        ]
    )
    # symbolic cell matrices at probe values a=2, b=3, c=5, d=7
    a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    assert cell_matrix(M1, JT8, dict(zip(M1.arcs, (a, b, c, d)))).rows == Q(
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
    assert cell_matrix(M2, JT8, dict(zip(M2.arcs, (a, b, c, d)))).rows == Q(
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
    # the third matching forces a pure pivot in column six
    g3 = cell_matrix(M3, JT8, dict(zip(M3.arcs, (a, b, c))))
    assert g3.rows == Q(
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
    assert g3.col(6) == tuple(Fraction(x) for x in (0, 0, 0, 0, 0, 0, 1, 0))

    # all eight matrices of the two small closures, at probe values
    left = closure_decomposition(ROW4, JT4)
    av, bv = Fraction(2), Fraction(3)
    vals = {Arc(1, 2): av, Arc(3, 4): bv}
    assert piece_matrix(left.piece([]), vals).rows == Q(
        [[av, 1, 0, 0], [0, 0, bv, 1], [1, 0, 0, 0], [0, 0, 1, 0]]
    )
    assert piece_matrix(left.piece([Arc(1, 2)]), vals).rows == Q(
        [[1, 0, 0, 0], [0, 0, bv, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
    )
    assert piece_matrix(left.piece([Arc(3, 4)]), vals).rows == Q(
        [[av, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]]
    )
    assert piece_matrix(left.piece(ROW4.arcs), vals).rows == Q(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )
    right = closure_decomposition(NESTED4, JT4)
    vals2 = {Arc(1, 4): av, Arc(2, 3): bv}
    assert piece_matrix(right.piece([]), vals2).rows == Q(
        [[av, bv, 1, 0], [0, av, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    assert piece_matrix(right.piece([Arc(1, 4)]), vals2).rows == Q(
        [[1, 0, 0, 0], [0, bv, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )
    assert piece_matrix(right.piece([Arc(2, 3)]), vals2).rows == Q(
        [[av, 1, 0, 0], [0, 0, av, 1], [1, 0, 0, 0], [0, 0, 1, 0]]
    )
    assert piece_matrix(right.piece(NESTED4.arcs), vals2).rows == Q(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )

    # count tables left of each position
    prof1 = j_functions(M1)
    assert prof1.jbeg[1:] == (0, 1, 2, 2, 3, 4, 4, 4)
    assert prof1.jend[1:] == (0, 0, 0, 1, 1, 1, 2, 3)
    assert prof1.jnot[1:] == (0,) * 8
    prof2 = j_functions(M2)
    assert prof2.jbeg[1:] == (0, 1, 1, 2, 2, 3, 3, 4)
    assert prof2.jend[1:] == (0, 0, 1, 1, 2, 2, 3, 3)
    assert prof2.jnot[1:] == (0,) * 8
    prof3 = j_functions(M3)
    assert prof3.jbeg[1:] == (0, 1, 2, 2, 2, 2, 2, 3)
    assert prof3.jend[1:] == (0, 0, 0, 1, 2, 2, 2, 2)
    assert prof3.jnot[1:] == (0, 0, 0, 0, 0, 1, 2, 2)

    # ancestor tables in position form
    assert ancestor_table(M1)[1:] == (0, 1, 1, 1, 4, 4, 1, 0)
    assert ancestor_table(M2)[1:] == (0,) * 8
    assert ancestor_table(M3)[1:] == (0, 1, 1, 0, 0, 0, 0, 0)

    # cutting examples
    assert cut(M1, Arc(4, 7), JT8).arcs == matching(8, [(1, 4), (2, 3), (5, 6), (7, 8)]).arcs
    assert cut(M1, Arc(5, 6), JT8).arcs == matching(8, [(1, 8), (2, 3), (4, 5), (6, 7)]).arcs
    assert cut_set(M1, [Arc(4, 7), Arc(5, 6)], JT8).arcs == matching(8, [(1, 4), (2, 3), (7, 8)]).arcs

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden examples took {elapsed:.2f}s"


@criterion(2, "word/matching bijection and counts for all N up to 12, under 10 s")
def test_criterion_2_bijection_suite():
    start = time.perf_counter()
    for result in (
        check_word_roundtrip(12, random.Random(0)),
        check_matching_roundtrip(12, random.Random(0)),
        check_counts(12, random.Random(0)),
    ):
        assert result.passed, result
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"bijection suite took {elapsed:.2f}s"


@criterion(3, "20 random points of every cell with N up to 8 are canonical Springer flags")
def test_criterion_3_cell_membership():
    result = check_cell_membership(8, random.Random(2024))
    assert result.passed, result
    assert result.count == 9880


@criterion(4, "the two Jordan-type-(2,2) closures decompose into the expected labeled pieces")
def test_criterion_4_small_closure_decompositions():
    left = closure_decomposition(ROW4, JT4)
    assert [left.pieces[s].dimension for s in left.subsets()] == [2, 1, 1, 0]
    assert left.piece([Arc(1, 2)]).base.arcs == (Arc(3, 4),)
    assert left.piece([Arc(1, 2)]).labels == {Arc(3, 4): Arc(3, 4)}
    assert left.piece([Arc(3, 4)]).base.arcs == (Arc(1, 2),)
    assert left.piece([Arc(3, 4)]).labels == {Arc(1, 2): Arc(1, 2)}
    bottom_left = left.piece(ROW4.arcs)
    assert bottom_left.base.arcs == (Arc(2, 3),)
    assert bottom_left.labels == {Arc(2, 3): ZERO}

    right = closure_decomposition(NESTED4, JT4)
    assert [right.pieces[s].dimension for s in right.subsets()] == [2, 1, 1, 0]
    assert right.piece([Arc(1, 4)]).base.arcs == (Arc(2, 3),)
    assert right.piece([Arc(1, 4)]).labels == {Arc(2, 3): Arc(2, 3)}
    diagonal = right.piece([Arc(2, 3)])
    assert diagonal.base.arcs == (Arc(1, 2), Arc(3, 4))
    assert diagonal.labels == {Arc(1, 2): Arc(1, 4), Arc(3, 4): Arc(1, 4)}
    assert right.piece(NESTED4.arcs).base.arcs == ()


@criterion(5, "cut algebra: order independence, unnesting, distinctness, dimension, N up to 10")
def test_criterion_5_cut_algebra():
    for result in (
        check_cut_order_independence(10, random.Random(77)),
        check_unnesting(10, random.Random(77)),
        check_cut_distinctness(10, random.Random(77)),
        check_label_properties(10, random.Random(77)),
    ):
        assert result.passed, result


@criterion(6, "every piece of every cell with N up to 6 certified by an exact limit curve")
def test_criterion_6_closure_certification():
    start = time.perf_counter()
    # three passes on one random stream: six targets of each cut piece
    rng = random.Random(123)
    results = [check_certification(6, rng) for _ in range(3)]
    elapsed = time.perf_counter() - start
    assert all(result.passed for result in results), results
    assert sum(result.count for result in results) >= 1149
    assert elapsed < 300.0, f"certification took {elapsed:.1f}s"


def _member_pairs():
    """(matching, jt, target flag, seeds) with the target certified reachable."""
    rng = random.Random(5)
    pairs = []
    configs = [
        (NESTED4, JT4, 2),
        (ROW4, JT4, 2),
        (matching(3, [(2, 3)]), JordanType(1, 3), 1),
        (matching(3, [(1, 2)]), JordanType(2, 3), 1),
    ]
    for m, jt, targets in configs:
        for r in range(len(m.arcs) + 1):
            for combo in itertools.combinations(m.arcs, r):
                piece = labeled_cut(m, combo, jt)
                uncut = [a for a in m.arcs if a not in combo]
                for _ in range(targets):
                    target = random_params(uncut, rng)
                    curve = synthesize_limit_curve(m, jt, combo, target)
                    assert verify_limit_curve(m, jt, curve, piece, target)
                    flag = piece_matrix(piece, target)
                    seeds = curve_seed_points(curve, m.arcs)
                    pairs.append((m, jt, flag, seeds))
    return pairs


def _non_member_pairs():
    """(matching, jt, excluded-cell point): word outside the swap candidates."""
    cases = [
        (ROW4, JT4, "TTBB"),
        (ROW4, JT4, "BBTT"),
        (NESTED4, JT4, "TBBT"),
        (NESTED4, JT4, "BTTB"),
        (matching(4, [(1, 2)]), JT4, "TTBB"),
        (matching(4, [(1, 2)]), JT4, "BBTT"),
        (matching(4, [(2, 3)]), JT4, "BTBT"),
        (matching(4, [(3, 4)]), JT4, "BTBT"),
        (matching(3, [(1, 2)]), JordanType(2, 3), "TTB"),
        (matching(3, [(2, 3)]), JordanType(2, 3), "BTT"),
    ]
    out = []
    for m, jt, word in cases:
        assert word not in swap_candidates(m, jt)
        flag = cell_matrix(
            word_to_matching(word), jt, {a: Fraction(1) for a in word_to_matching(word).arcs}
        )
        out.append((m, jt, flag))
    return out


@criterion(7, "numeric oracle: certified pairs below 1e-4, excluded pairs above 1e-1")
def test_criterion_7_numeric_cross_oracle():
    start = time.perf_counter()
    members = _member_pairs()
    assert len(members) >= 20
    for idx, (m, jt, flag, seeds) in enumerate(members[:20]):
        value = numeric_infimum(
            m, jt, flag, budget=50, rng=np.random.default_rng(idx), seeds=seeds
        )
        assert value < 1e-4, f"member pair {idx} stuck at {value}"
    for idx, (m, jt, flag) in enumerate(_non_member_pairs()):
        value = numeric_infimum(m, jt, flag, budget=50, rng=np.random.default_rng(100 + idx))
        assert value > 1e-1, f"non-member pair {idx} got too close: {value}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"numeric oracle took {elapsed:.1f}s"


@criterion(8, "finite-field oracle: patterns, bucket sizes and totals for all listed types")
def test_criterion_8_fq_oracle():
    result = check_fq_oracle(6, random.Random(0))
    assert result.passed, result
    for q, total in ((2, 15), (3, 28)):
        assert cross_check_cells(FqConfig(q, JT4)).total == total


@criterion(9, "structure maps: splitting words and permutations, pasted cells, line embedding")
def test_criterion_9_structure_maps():
    for result in (
        check_chi_compatibility(8, random.Random(31)),
        check_phi_cell_law(6, random.Random(31)),
    ):
        assert result.passed, result
