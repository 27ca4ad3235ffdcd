"""Cutting arcs, label propagation and cut-cell matrices."""

import random
from fractions import Fraction

import pytest

from springer_cells.cutting import (
    ZERO,
    arc_subsets,
    cut,
    cut_set,
    labeled_cut,
    piece_matrix,
)
from springer_cells.errors import ArcNotInMatching, MissingParameter
from springer_cells.matchings import Arc, JordanType, enumerate_matchings, matching, nesting_depth
from springer_cells.verify import (
    check_cut_distinctness,
    check_cut_order_independence,
    check_label_properties,
    check_unnesting,
)

from helpers import Q, count_cuts, reference_labeled_cut

JT8 = JordanType(4, 8)
JT4 = JordanType(2, 4)
M1 = matching(8, [(1, 8), (2, 3), (4, 7), (5, 6)])
NESTED4 = matching(4, [(1, 4), (2, 3)])
ROW4 = matching(4, [(1, 2), (3, 4)])


def test_cut_examples():
    assert cut(M1, Arc(4, 7), JT8).arcs == matching(8, [(1, 4), (2, 3), (5, 6), (7, 8)]).arcs
    assert cut(M1, Arc(5, 6), JT8).arcs == matching(8, [(1, 8), (2, 3), (4, 5), (6, 7)]).arcs
    assert cut(matching(2, [(1, 2)]), Arc(1, 2), JordanType(1, 2)).arcs == ()
    with pytest.raises(ArcNotInMatching):
        cut(M1, Arc(2, 5), JT8)


def test_cut_set_examples():
    assert cut_set(M1, [Arc(4, 7), Arc(5, 6)], JT8).arcs == matching(8, [(1, 4), (2, 3), (7, 8)]).arcs
    assert cut_set(M1, [], JT8).arcs == M1.arcs
    assert cut_set(NESTED4, NESTED4.arcs, JT4).arcs == ()


def test_labeled_cut_examples():
    piece = labeled_cut(NESTED4, [Arc(2, 3)], JT4)
    assert piece.base.arcs == (Arc(1, 2), Arc(3, 4))
    assert piece.labels == {Arc(1, 2): Arc(1, 4), Arc(3, 4): Arc(1, 4)}

    point = labeled_cut(ROW4, ROW4.arcs, JT4)
    assert point.base.arcs == (Arc(2, 3),)
    assert point.labels == {Arc(2, 3): ZERO}

    same = labeled_cut(M1, [], JT8)
    assert same.base.arcs == M1.arcs
    assert same.labels == {a: a for a in M1.arcs}


def test_piece_matrix_examples():
    piece = labeled_cut(NESTED4, [Arc(2, 3)], JT4)
    g = piece_matrix(piece, {Arc(1, 4): Fraction(5)})
    assert g.rows == Q([[5, 1, 0, 0], [0, 0, 5, 1], [1, 0, 0, 0], [0, 0, 1, 0]])

    point = labeled_cut(ROW4, ROW4.arcs, JT4)
    assert piece_matrix(point, {}).rows == Q(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )

    whole = labeled_cut(NESTED4, [], JT4)
    vals = {Arc(1, 4): Fraction(2), Arc(2, 3): Fraction(7)}
    assert piece_matrix(whole, vals).rows == Q(
        [[2, 7, 1, 0], [0, 2, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    with pytest.raises(MissingParameter):
        piece_matrix(whole, {Arc(1, 4): Fraction(2)})


def test_order_independence_of_letter_cuts():
    assert check_cut_order_independence(7, random.Random(0)).passed


def test_unnesting_identity():
    assert check_unnesting(8, random.Random(0)).passed


def test_cut_subsets_distinct():
    assert check_cut_distinctness(8, random.Random(0)).passed


def test_label_image_and_dimension():
    assert check_label_properties(7, random.Random(0)).passed


def test_labels_agree_across_topdown_orders():
    assert check_cut_order_independence(6, random.Random(1)).passed


def test_labeled_cut_is_memoized(monkeypatch):
    """Equal calls are served from one memo, whatever the order of the cut
    arcs; an arc not in the matching raises on every call.
    """
    cuts = count_cuts(monkeypatch)
    arcs = [Arc(1, 8), Arc(5, 6)]
    piece = labeled_cut(M1, arcs, JT8)
    assert labeled_cut(M1, list(reversed(arcs)), JT8) is piece
    assert cuts == [(M1, frozenset(arcs), JT8)]
    for _ in range(2):
        with pytest.raises(ArcNotInMatching):
            labeled_cut(M1, [Arc(1, 8), Arc(2, 5)], JT8)
    assert len(cuts) == 3


def test_labeled_cut_agrees_with_single_public_cuts():
    """Every piece of every cell with N <= 8 equals the reference made of
    single public ``cut``s and ``parent`` labels, label order included, in
    the top-down order that breaks depth ties from the left and in the one
    that breaks them from the right.
    """
    pieces = 0
    for N in range(2, 9):
        for n in range(1, N):
            jt = JordanType(n, N)
            for m in enumerate_matchings(jt):
                for combo in arc_subsets(m.arcs):
                    piece = labeled_cut(m, combo, jt)
                    for side in (1, -1):
                        order = sorted(combo, key=lambda a: (nesting_depth(m, a), side * a.init))
                        base, labels = reference_labeled_cut(m, order, jt)
                        assert piece.base == base, (m, combo, order)
                        assert list(piece.labels.items()) == list(labels.items()), (m, combo, order)
                    pieces += 1
    assert pieces == 2248


@pytest.mark.parametrize(
    "jt,pairs,cut_pairs,expected",
    [
        (
            JordanType(4, 8),
            [(1, 8), (2, 7), (3, 4), (5, 6)],
            [(2, 7), (3, 4), (5, 6)],
            {(1, 2): (1, 8), (4, 5): ZERO, (7, 8): (1, 8)},
        ),
        (
            JordanType(5, 10),
            [(1, 10), (2, 9), (3, 8), (4, 5), (6, 7)],
            [(3, 8), (4, 5), (6, 7)],
            {(1, 4): (1, 10), (2, 3): (2, 9), (5, 6): (1, 10), (7, 10): (1, 10), (8, 9): (2, 9)},
        ),
        (
            JordanType(5, 10),
            [(1, 10), (2, 5), (3, 4), (6, 9), (7, 8)],
            [(2, 5), (3, 4), (6, 9), (7, 8)],
            {(1, 2): (1, 10), (4, 7): ZERO, (5, 6): (1, 10), (9, 10): (1, 10)},
        ),
        (
            JordanType(6, 11),
            [(1, 10), (2, 9), (3, 8), (4, 7), (5, 6)],
            [(3, 8), (4, 7), (5, 6)],
            {(1, 4): (1, 10), (2, 3): (2, 9), (6, 11): ZERO, (7, 10): (1, 10), (8, 9): (2, 9)},
        ),
    ],
    ids=["4-8", "5-10-chain", "5-10-siblings", "6-11"],
)
def test_labels_read_off_the_ancestor_chain(jt, pairs, cut_pairs, expected):
    """Pieces that tell the counter on the ancestor chain apart from
    simpler label rules, such as taking the first uncut ancestor: each cut
    ancestor cancels one uncut ancestor above it.
    """
    piece = labeled_cut(matching(jt.N, pairs), [Arc(*p) for p in cut_pairs], jt)
    assert piece.labels == {Arc(*b): l if l is ZERO else Arc(*l) for b, l in expected.items()}
