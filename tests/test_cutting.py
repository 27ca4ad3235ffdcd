"""Cutting arcs, label propagation and cut-cell matrices."""

import random
from fractions import Fraction

import pytest

from springer_cells import cutting
from springer_cells.cutting import (
    ZERO,
    arc_subsets,
    contravariant_order,
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

from helpers import Q, reference_labeled_cut

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


def test_contravariant_order_rejects_bottom_up():
    with pytest.raises(ValueError):
        labeled_cut(NESTED4, NESTED4.arcs, JT4, order=[Arc(2, 3), Arc(1, 4)])
    order = contravariant_order(NESTED4, NESTED4.arcs)
    assert order == [Arc(1, 4), Arc(2, 3)]


def test_order_must_list_each_cut_arc_once():
    with pytest.raises(ValueError, match="order must list the cut arcs top-down"):
        labeled_cut(NESTED4, [Arc(2, 3)], JT4, order=[Arc(2, 3), Arc(2, 3)])
    with pytest.raises(ValueError, match="order must list the cut arcs top-down"):
        labeled_cut(NESTED4, [Arc(2, 3)], JT4, order=[])
    piece = labeled_cut(NESTED4, [Arc(2, 3)], JT4, order=[Arc(2, 3)])
    assert piece == labeled_cut(NESTED4, [Arc(2, 3)], JT4)


def test_default_order_is_memoized_and_an_explicit_order_is_not(monkeypatch):
    """The default top-down cut is served from a cache; an explicit order is
    validated and cut afresh on every call, so the order-independence check
    compares two computations and not the cache with itself.  Each single
    cut re-pairs the {B,T} word once, so the re-pairings count the cuts.
    """
    cut_calls = []
    real_word_pairs = cutting.word_pairs

    def counting_word_pairs(letters):
        cut_calls.append("".join(letters))
        return real_word_pairs(letters)

    monkeypatch.setattr(cutting, "word_pairs", counting_word_pairs)
    arcs = [Arc(1, 8), Arc(5, 6)]
    piece = labeled_cut(M1, arcs, JT8)
    cut_calls.clear()
    assert labeled_cut(M1, list(reversed(arcs)), JT8) is piece
    assert cut_calls == []
    order = contravariant_order(M1, arcs)
    for calls in (2, 4):
        alt = labeled_cut(M1, arcs, JT8, order=order)
        assert alt == piece and alt is not piece
        assert len(cut_calls) == calls
    assert cut_calls[:2] == ["TBTBBTTB", "TBTBTBTB"]
    for _ in range(2):
        with pytest.raises(ValueError, match="order must list the cut arcs top-down"):
            labeled_cut(M1, arcs, JT8, order=order[::-1])
        with pytest.raises(ArcNotInMatching):
            labeled_cut(M1, [Arc(1, 8), Arc(2, 5)], JT8)
    assert len(cut_calls) == 4


def test_labeled_cut_agrees_with_single_public_cuts():
    """Every piece of every cell with N <= 8, cut on the {B,T} word, equals
    the reference made of single public ``cut``s and ``parent`` labels,
    label order included: in the default order, and in the explicit
    top-down order that breaks depth ties from the right.
    """
    pieces = 0
    for N in range(2, 9):
        for n in range(1, N):
            jt = JordanType(n, N)
            for m in enumerate_matchings(jt):
                for combo in arc_subsets(m.arcs):
                    right_first = sorted(combo, key=lambda a: (nesting_depth(m, a), -a.init))
                    for order in (None, right_first):
                        piece = labeled_cut(m, combo, jt, order=order)
                        base, labels = reference_labeled_cut(m, order or contravariant_order(m, combo), jt)
                        assert piece.base == base, (m, combo, order)
                        assert list(piece.labels.items()) == list(labels.items()), (m, combo, order)
                    pieces += 1
    assert pieces == 2248
