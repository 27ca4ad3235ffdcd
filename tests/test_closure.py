"""Closure decompositions, structure maps and exact limit certificates."""

import itertools
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from springer_cells import closure
from springer_cells.cells import (
    FlagMatrix,
    apply_nilpotent,
    build_template,
    cell_matrix,
    instantiate,
    poly_columns,
    prefix_span_basis,
    verify_canonical,
)
from springer_cells.closure import (
    INFINITY,
    chi_embed,
    chi_split,
    closure_conditions,
    closure_decomposition,
    flag_necessary_conditions,
    phi_embed,
    swap_candidates,
    synthesize_limit_curve,
    verify_limit_curve,
)
from springer_cells.cutting import ZERO, arc_subsets, labeled_cut, piece_matrix
from springer_cells.errors import (
    ArcNotInMatching,
    CurveNotFound,
    InvalidSplitIndex,
    MissingParameter,
    NotDivisible,
    OddN,
    Singular,
    TooManyArcs,
)
from springer_cells.exact import (
    Poly,
    SpanBasis,
    canonical_reduce,
    limit_vectors,
    mat_cols,
    mat_from_rows,
    pivot_pattern,
)
from springer_cells.matchings import (
    Arc,
    JordanType,
    bt_word,
    enumerate_matchings,
    matching,
    matching_permutation,
    parent,
    word_to_matching,
)
from springer_cells.sampling import random_params, random_rational
from springer_cells.verify import (
    check_certification,
    check_chi_compatibility,
    check_phi_cell_law,
    check_swap_candidate_bijection,
)

from helpers import Q, QtPoly, brute_minors, count_cuts, poly_matrix

JT4 = JordanType(2, 4)
NESTED4 = matching(4, [(1, 4), (2, 3)])
ROW4 = matching(4, [(1, 2), (3, 4)])


def test_decomposition_nested_cell():
    dec = closure_decomposition(NESTED4, JT4)
    assert len(dec.pieces) == 4
    full = dec.piece([])
    assert full.base.arcs == NESTED4.arcs
    cut_inner = dec.piece([Arc(2, 3)])
    assert cut_inner.base.arcs == (Arc(1, 2), Arc(3, 4))
    assert cut_inner.labels == {Arc(1, 2): Arc(1, 4), Arc(3, 4): Arc(1, 4)}
    cut_outer = dec.piece([Arc(1, 4)])
    assert cut_outer.base.arcs == (Arc(2, 3),)
    assert cut_outer.labels == {Arc(2, 3): Arc(2, 3)}
    point = dec.piece(NESTED4.arcs)
    assert point.base.arcs == () and point.dimension == 0
    assert [dec.pieces[s].dimension for s in dec.subsets()] == [2, 1, 1, 0]


def test_decomposition_unnested_cell_zero_label():
    dec = closure_decomposition(ROW4, JT4)
    assert len(dec.pieces) == 4
    point = dec.piece(ROW4.arcs)
    assert point.base.arcs == (Arc(2, 3),)
    assert point.labels == {Arc(2, 3): ZERO}
    assert [dec.pieces[s].dimension for s in dec.subsets()] == [2, 1, 1, 0]


def test_decomposition_empty_matching():
    dec = closure_decomposition(matching(3, []), JordanType(1, 3))
    assert len(dec.pieces) == 1


@pytest.fixture
def cut_calls(monkeypatch):
    return count_cuts(monkeypatch)


def test_decomposition_cuts_a_piece_on_first_read(cut_calls):
    dec = closure_decomposition(NESTED4, JT4)
    assert cut_calls == []
    assert len(dec.pieces) == 4 and frozenset([Arc(2, 3)]) in dec.pieces
    assert dec.subsets() == [
        frozenset(),
        frozenset([Arc(1, 4)]),
        frozenset([Arc(2, 3)]),
        frozenset(NESTED4.arcs),
    ]
    assert cut_calls == []
    piece = dec.piece([Arc(2, 3)])
    assert len(cut_calls) == 1
    assert dec.piece([Arc(2, 3)]) is piece
    assert len(cut_calls) == 1
    with pytest.raises(KeyError):
        dec.pieces[frozenset([Arc(1, 2)])]
    assert frozenset([Arc(1, 2)]) not in dec.pieces
    assert len(cut_calls) == 1


def test_pieces_come_from_the_matching_alone(cut_calls):
    """Length, membership and order need no table of subsets: the 2^16
    subsets of the nested N = 32 cell are counted, tested and listed by
    size, then in combinations order, without a piece being cut.
    """
    m = matching(32, [(i, 33 - i) for i in range(1, 17)])
    dec = closure_decomposition(m, JordanType(16, 32))
    assert len(dec.pieces) == 2**16
    a = m.arcs
    head = list(itertools.islice(dec.pieces, 19))
    assert head == [frozenset()] + [frozenset([x]) for x in a] + [frozenset(a[:2]), frozenset([a[0], a[2]])]
    assert frozenset(a) in dec.pieces and frozenset(a[::3]) in dec.pieces
    foreign = frozenset([a[0], Arc(1, 2)])
    assert foreign not in dec.pieces and tuple(a[:1]) not in dec.pieces
    with pytest.raises(KeyError):
        dec.pieces[foreign]
    assert cut_calls == []
    assert dec.piece([a[0]]).base.arcs == a[1:]
    assert len(cut_calls) == 1


def test_decomposition_call_raises_too_many_arcs(cut_calls):
    with pytest.raises(TooManyArcs):
        closure_decomposition(ROW4, JordanType(1, 4))
    assert cut_calls == []


def test_lazy_pieces_equal_eager_cuts_up_to_seven():
    """Every cell with N <= 7: the same subsets in the same order as the
    eager cut of each subset in itertools.combinations order, and the same
    pieces.
    """
    for N in range(8):
        for n in range(N + 1):
            jt = JordanType(n, N)
            for m in enumerate_matchings(jt):
                eager = {
                    frozenset(combo): labeled_cut(m, combo, jt)
                    for r in range(len(m) + 1)
                    for combo in itertools.combinations(m.arcs, r)
                }
                dec = closure_decomposition(m, jt)
                assert len(dec.pieces) == len(eager) == 2 ** len(m)
                assert list(dec.pieces) == list(eager)
                assert dict(dec.pieces.items()) == eager


def test_subsets_come_by_size_then_sorted_arcs_up_to_eight():
    """Every cell with N <= 8: arc_subsets gives the 2^k subsets, distinct
    and by size, and a decomposition lists its pieces in that order, which
    is already sorted by size and then by the sorted arcs.
    """
    for N in range(9):
        for n in range(N + 1):
            jt = JordanType(n, N)
            for m in enumerate_matchings(jt):
                subsets = list(arc_subsets(m.arcs))
                assert len(set(map(frozenset, subsets))) == len(subsets) == 2 ** len(m)
                assert [len(s) for s in subsets] == sorted(len(s) for s in subsets)
                listed = closure_decomposition(m, jt).subsets()
                assert listed == [frozenset(s) for s in subsets]
                assert listed == sorted(listed, key=lambda s: (len(s), sorted(s)))


def test_synthesis_cuts_each_piece_once(cut_calls):
    nested8 = matching(8, [(1, 8), (2, 7), (3, 6), (4, 5)])
    cut = [Arc(1, 8), Arc(4, 5)]
    target = {Arc(2, 7): Fraction(2), Arc(3, 6): Fraction(-1, 3)}
    synthesize_limit_curve(nested8, JordanType(4, 8), cut, target)
    # the piece itself, once: the recursion reads the blocks of its point
    assert len(cut_calls) == 1


def test_swap_candidates_examples():
    assert swap_candidates(ROW4, JT4) == {"BTBT", "TBBT", "BTTB", "TBTB"}
    assert swap_candidates(NESTED4, JT4) == {"BBTT", "TBTB", "BTBT", "TTBB"}
    empty = matching(4, [])
    assert swap_candidates(empty, JT4) == {"TTBB"}


def test_piece_words_are_swap_candidates_up_to_ten():
    assert check_swap_candidate_bijection(10, random.Random(0)).passed


def test_necessary_conditions_reject_excluded_word():
    # the all-tops-first point is not a swap candidate of the unnested cell
    flag = cell_matrix(word_to_matching("TTBB"), JT4, {})
    issues = flag_necessary_conditions(ROW4, JT4, flag)
    assert any("(1,2)" in msg for msg in issues)


def test_necessary_conditions_report_the_sibling_arc_condition():
    # for (2,3) under (1,6), X^2 V_6 = span(e_1, e_4) must lie in V_3, but
    # the nested point at 0 has V_3 = span(e_4, e_5, e_6); the sibling (4,5)
    # fails first, since X V_5 = span(e_1, e_4, e_5) is not inside V_3
    jt = JordanType(3, 6)
    nested = matching(6, [(1, 6), (2, 5), (3, 4)])
    flag = cell_matrix(nested, jt, {a: 0 for a in nested.arcs})
    issues = flag_necessary_conditions(matching(6, [(1, 6), (2, 3), (4, 5)]), jt, flag)
    assert "arc (4,5): 1-fold shift image escapes the prefix span" in issues


def _shift_between_arc_ends(jt, cols, a, par) -> bool:
    """X^{k+1} V_{par.term} inside V_{a.term}, k = (par.term - a.term) // 2."""
    span = SpanBasis()
    for c in cols[: a.term]:
        span.add(c)
    for img in cols[: par.term]:
        for _ in range((par.term - a.term) // 2 + 1):
            img = apply_nilpotent(jt, img)
        if not span.contains(img):
            return False
    return True


def _flag_matching_pairs():
    """Two draws of every cell of every proper type with N <= 7, each
    against every matching of its type: 9384 pairs ``(jt, other, g)``.
    """
    rng = random.Random(0)
    for N in range(2, 8):
        for n in range(1, N):
            jt = JordanType(n, N)
            ms = enumerate_matchings(jt)
            for m in ms:
                for _ in range(2):
                    g = cell_matrix(m, jt, random_params(m.arcs, rng))
                    for other in ms:
                        yield jt, other, g


def test_shift_between_arc_ends_follows_from_the_sibling_arcs():
    # wherever the condition between the ends of an arc and its parent
    # fails, the arc condition of a sibling right of the arc fails too
    draws = failures = 0
    for jt, other, g in _flag_matching_pairs():
        draws += 1
        cols = g.cols()
        for a in other.arcs:
            par = parent(other, a)
            if par is None or _shift_between_arc_ends(jt, cols, a, par):
                continue
            failures += 1
            issues = flag_necessary_conditions(other, jt, g)
            siblings = [c for c in other.arcs if parent(other, c) == par and c.init > a.term]
            assert any(f"arc {c}: " in issue for c in siblings for issue in issues)
    assert draws == 9384 and failures > 0


def _conditions_arc_by_arc(m, jt, g) -> list[str]:
    """flag_necessary_conditions with each condition restated: the split
    indices with their pivot rows, and for each arc a fresh span of the
    columns before its start.
    """
    w = matching_permutation(m, jt)
    issues = [
        f"split {i}: prefix span is not the frozen coordinate subspace"
        for i in closure.valid_split_indices(m) + [m.N]
        if prefix_span_basis(g, i) != tuple(sorted(w[:i]))
    ]
    cols = g.cols()
    for a in m.arcs:
        k = len([b for b in m.arcs if a.init <= b.init and b.term <= a.term])
        span = SpanBasis()
        for c in cols[: a.init - 1]:
            span.add(c)
        for img in cols[: a.term]:
            for _ in range(k):
                img = apply_nilpotent(jt, img)
            if not span.contains(img):
                issues.append(f"arc {a}: {k}-fold shift image escapes the prefix span")
                break
    return issues


def test_one_growing_span_agrees_with_a_fresh_span_per_arc():
    arc_failures = 0
    for jt, other, g in _flag_matching_pairs():
        issues = flag_necessary_conditions(other, jt, g)
        assert issues == _conditions_arc_by_arc(other, jt, g), (other.arcs, g.rows)
        arc_failures += any(issue.startswith("arc ") for issue in issues)
    assert arc_failures > 0


def test_closure_conditions_of_the_criterion_one_matchings():
    jt = JordanType(4, 8)
    prefixes, shifts = closure_conditions(matching(8, [(1, 8), (2, 3), (4, 7), (5, 6)]), jt)
    assert prefixes == {8: (1, 2, 3, 4, 5, 6, 7, 8)}
    assert shifts == [(Arc(1, 8), 4), (Arc(2, 3), 1), (Arc(4, 7), 2), (Arc(5, 6), 1)]
    prefixes, shifts = closure_conditions(matching(8, [(1, 4), (2, 3), (7, 8)]), jt)
    assert prefixes == {
        4: (1, 2, 5, 6),
        5: (1, 2, 3, 5, 6),
        6: (1, 2, 3, 5, 6, 7),
        8: (1, 2, 3, 4, 5, 6, 7, 8),
    }
    assert shifts == [(Arc(1, 4), 2), (Arc(2, 3), 1), (Arc(7, 8), 1)]


def test_chi_split_examples():
    jt = JordanType(4, 8)
    split = chi_split(matching(8, [(3, 4)]), jt, 4)
    assert split.mL.arcs == (Arc(3, 4),)
    assert split.mR.arcs == ()
    # the first four letters TTBT carry three pivots of the top block
    assert (split.jtL.n, split.jtL.N) == (3, 4)
    assert (split.jtR.n, split.jtR.N) == (1, 4)
    # the left flag's top rows lead the top block, the right's follow
    assert split.left_rows == (0, 1, 2, 4) and split.right_rows == (3, 5, 6, 7)

    m = matching(8, [(5, 6), (7, 8)])
    split2 = chi_split(m, jt, 6)
    assert bt_word(split2.mL, split2.jtL) == "TTBBBT"
    assert bt_word(split2.mR, split2.jtR) == "BT"

    split3 = chi_split(m, jt, 8)
    assert split3.mL.arcs == m.arcs and split3.mR.arcs == ()

    with pytest.raises(InvalidSplitIndex):
        chi_split(matching(8, [(3, 4)]), jt, 3)


def test_chi_embed_block_example():
    jt = JordanType(4, 8)
    m = matching(8, [(3, 4)])
    split = chi_split(m, jt, 4)
    gL = cell_matrix(split.mL, split.jtL, {Arc(3, 4): Fraction(9)})
    gR = cell_matrix(split.mR, split.jtR, {})
    emb = chi_embed(gL, gR, split)
    assert emb.rows == Q(
        [
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 9, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
        ]
    )
    assert emb.rows == cell_matrix(m, jt, {Arc(3, 4): Fraction(9)}).rows


def test_chi_embed_identity_interleaving():
    jt = JordanType(2, 4)
    m = matching(4, [])
    split = chi_split(m, jt, 2)
    gL = cell_matrix(split.mL, split.jtL, {})
    gR = cell_matrix(split.mR, split.jtR, {})
    emb = chi_embed(gL, gR, split)
    assert verify_canonical(emb)
    assert emb.rows == cell_matrix(m, jt, {}).rows


def test_chi_commutes_with_instantiation():
    assert check_chi_compatibility(8, random.Random(4)).passed


def test_phi_embed_examples():
    inner = cell_matrix(matching(2, [(1, 2)]), JordanType(1, 2), {Arc(1, 2): Fraction(7)})
    out = phi_embed(Fraction(3), inner, JT4)
    assert out.rows == Q([[3, 7, 1, 0], [0, 3, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])

    out_inf = phi_embed(INFINITY, inner, JT4)
    assert out_inf.rows == Q([[1, 0, 0, 0], [0, 7, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])

    out_id = phi_embed(Fraction(3), cell_matrix(matching(2, []), JordanType(1, 2), {}), JT4)
    assert out_id.rows == Q([[3, 1, 0, 0], [0, 0, 3, 1], [1, 0, 0, 0], [0, 0, 1, 0]])

    with pytest.raises(OddN):
        phi_embed(Fraction(1), inner, JordanType(2, 5))


def test_phi_cell_law_small():
    assert check_phi_cell_law(6, random.Random(8)).passed


def _assert_exact(rows, integral_as_int=True):
    """Every entry is an int or a Fraction, never a float; with
    integral_as_int, every integral entry is an int.
    """
    for row in rows:
        for x in row:
            assert type(x) is int or type(x) is Fraction, x
            assert not integral_as_int or type(x) is int or x.denominator != 1, x


def test_q_entries_are_ints_when_integral_up_to_six():
    """Over Q, the entries the library builds (ring zero and one, sampled
    values) stay ints through instantiate, piece_matrix, canonical_reduce,
    chi_embed and phi_embed at a = oo or an int; a Fraction shear gives no float.
    """
    rng = random.Random(16)
    for N, n in ((N, n) for N in range(1, 7) for n in range(N + 1)):
        jt = JordanType(n, N)
        for m in enumerate_matchings(jt):
            g = instantiate(build_template(m, jt), random_params(m.arcs, rng, nonzero=False))
            reduced = canonical_reduce(g.rows)
            assert reduced == g.rows
            _assert_exact(g.rows)
            _assert_exact(reduced)
            for cut_arcs, piece in closure_decomposition(m, jt).pieces.items():
                values = random_params([a for a in m.arcs if a not in cut_arcs], rng)
                _assert_exact(piece_matrix(piece, values).rows)
            for i in closure.valid_split_indices(m):
                split = chi_split(m, jt, i)
                gL = cell_matrix(split.mL, split.jtL, random_params(split.mL.arcs, rng))
                gR = cell_matrix(split.mR, split.jtR, random_params(split.mR.arcs, rng))
                _assert_exact(chi_embed(gL, gR, split).rows)
            if N <= 4 and 2 * n == N:
                outer = JordanType(n + 1, N + 2)
                for a in (INFINITY, 3, -1, Fraction(3, 2)):
                    _assert_exact(phi_embed(a, g, outer).rows, integral_as_int=type(a) is not Fraction)


def test_projective_divides_exactly():
    assert _projective([0, 2, 1, 4]) == [0, 1, Fraction(1, 2), 2]
    assert all(type(x) is Fraction for x in _projective([0, 2, 1, 4]))


CURVE_CASES = [
    (ROW4, [Arc(1, 2)], {Arc(3, 4): Fraction(5, 2)}, {Arc(1, 2): Poly.t(), Arc(3, 4): Poly.const(Fraction(5, 2))}),
    (NESTED4, [Arc(2, 3)], {Arc(1, 4): Fraction(3)}, {Arc(1, 4): Poly.const(3), Arc(2, 3): Poly.t()}),
    (
        NESTED4,
        [Arc(1, 4)],
        {Arc(2, 3): Fraction(7, 3)},
        {Arc(1, 4): Poly.t(), Arc(2, 3): Poly.t(2, Fraction(-3, 7))},
    ),
    # a zero inner target is approached along 1/t before the frame change
    (NESTED4, [Arc(1, 4)], {Arc(2, 3): Fraction(0)}, {Arc(1, 4): Poly.t(), Arc(2, 3): Poly.t(3, -1)}),
]


@pytest.mark.parametrize("m,cut_arcs,target,expected", CURVE_CASES)
def test_synthesized_curves_match_expected(m, cut_arcs, target, expected):
    curve = synthesize_limit_curve(m, JT4, cut_arcs, target)
    assert curve == expected
    piece = labeled_cut(m, cut_arcs, JT4)
    assert verify_limit_curve(m, JT4, curve, piece, target)


def test_verify_rejects_uncorrected_inner_value():
    # freezing the nested variable while the outer one escapes to infinity
    # lands in the wrong flag, so the exact check must say no
    target = {Arc(2, 3): Fraction(7, 3)}
    bad = {Arc(1, 4): Poly.t(), Arc(2, 3): Poly.const(Fraction(7, 3))}
    piece = labeled_cut(NESTED4, [Arc(1, 4)], JT4)
    assert not verify_limit_curve(NESTED4, JT4, bad, piece, target)


def test_verify_fails_when_only_the_last_flag_column_differs(monkeypatch):
    """A full flag does not read its column N, so column N - 1 is the last
    one the check can fail on: it hands N - 1 columns to the limit kernel.
    In the piece cutting (1,2) and (3,4) of (1,2)(3,4)(5,6), the label
    (5,6) sits in column N - 1 = 5 alone, and (2,3) is labeled ZERO, so a
    tampered value of (5,6) changes only that column of the piece point:
    the first N - 2 limit subspaces still agree and the check fails at its
    last step.
    """
    jt = JordanType(3, 6)
    m = matching(6, [(1, 2), (3, 4), (5, 6)])
    cut_arcs = [Arc(1, 2), Arc(3, 4)]
    target = {Arc(5, 6): Fraction(-5, 7)}
    curve = synthesize_limit_curve(m, jt, cut_arcs, target)
    piece = labeled_cut(m, cut_arcs, jt)
    assert piece.labels[Arc(2, 3)] is ZERO
    kernel, seen = closure.limit_vectors, []

    def counted(cols):
        cols = list(cols)
        seen.append([len(cols), 0])
        for item in kernel(cols):
            seen[-1][1] += 1
            yield item

    monkeypatch.setattr(closure, "limit_vectors", counted)
    assert verify_limit_curve(m, jt, curve, piece, target)
    assert not verify_limit_curve(m, jt, curve, piece, {Arc(5, 6): Fraction(2, 3)})
    assert seen == [[5, 5], [5, 5]]


def _dense_verdict(m, jt, curve, piece, target) -> bool:
    """The comparison the sparse one replaced: each limit vector against
    the dense column of the instantiated piece matrix.
    """
    cols = poly_columns(build_template(m, jt), curve)
    point = piece_matrix(piece, target).cols()
    for (piv, b), col in zip(limit_vectors(cols[:-1]), point):
        lead = b[piv]
        if b != {row: lead * x for row, x in enumerate(col) if x}:
            return False
    return True


def test_sparse_point_agrees_with_the_dense_piece_matrix(monkeypatch):
    """Every piece of every cell with N <= 8, at a seeded target and at the
    targets 0, 1 and -3: the check, with ``closure.piece_matrix`` set to
    raise, gives the verdict of the dense comparison for the synthesized
    curve and for that curve with one seeded coefficient moved by 1.  A
    missing target value still raises MissingParameter.
    """

    def no_piece_matrix(*_):
        raise AssertionError("the check builds no piece matrix")

    monkeypatch.setattr(closure, "piece_matrix", no_piece_matrix)
    rng = random.Random(25)
    verdicts = {True: 0, False: 0}
    for N, n in ((N, n) for N in range(1, 9) for n in range(N + 1)):
        jt = JordanType(n, N)
        for m in enumerate_matchings(jt):
            for cut_arcs, piece in closure_decomposition(m, jt).pieces.items():
                uncut = [a for a in m.arcs if a not in cut_arcs]
                targets = [random_params(uncut, rng)] + [{a: Fraction(v) for a in uncut} for v in (0, 1, -3)]
                for target in targets:
                    curve = closure._synthesize(m, jt, cut_arcs, piece_matrix(piece, target).rows)
                    curves = [curve]
                    if m.arcs:
                        arc = rng.choice(m.arcs)
                        coeffs = [*curve[arc].coeffs, 0]
                        coeffs[rng.randrange(len(coeffs))] += 1
                        curves.append({**curve, arc: Poly(coeffs)})
                    for c in curves:
                        verdict = verify_limit_curve(m, jt, c, piece, target)
                        assert verdict == _dense_verdict(m, jt, c, piece, target), (m, cut_arcs, target)
                        verdicts[verdict] += 1
                if uncut:
                    with pytest.raises(MissingParameter):
                        verify_limit_curve(m, jt, curve, piece, {})
    assert verdicts == {True: 13318, False: 4618}


def test_constant_curve_certifies_full_piece():
    target = {Arc(1, 4): Fraction(2), Arc(2, 3): Fraction(-1)}
    curve = synthesize_limit_curve(NESTED4, JT4, [], target)
    piece = labeled_cut(NESTED4, [], JT4)
    assert curve == {a: Poly.const(target[a]) for a in NESTED4.arcs}
    assert verify_limit_curve(NESTED4, JT4, curve, piece, target)


def test_synthesis_and_verification_reject_bad_arguments():
    target = {Arc(1, 4): Fraction(2), Arc(2, 3): Fraction(-1)}
    with pytest.raises(MissingParameter, match=r"\(1,4\)"):
        synthesize_limit_curve(NESTED4, JT4, [Arc(2, 3)], {Arc(2, 3): Fraction(1)})
    with pytest.raises(ArcNotInMatching, match=r"\(1,2\)"):
        synthesize_limit_curve(NESTED4, JT4, [Arc(1, 2)], target)
    piece = labeled_cut(NESTED4, [], JT4)
    with pytest.raises(MissingParameter, match=r"\(2,3\)"):
        verify_limit_curve(NESTED4, JT4, {Arc(1, 4): Poly.const(2)}, piece, target)


def test_certification_sweep_small():
    assert check_certification(5, random.Random(12)).passed


def test_certification_at_coincident_targets():
    """Coincident target values leave an inner target of 0.  Every piece of
    every cell with N <= 6 certifies at all-zero, all-one and all-equal
    targets; so do an N = 10 zero beside a deeper cut arc whose curve is 0
    (only the uncut zero may take the germ 1/t) and an N = 12 inner zero
    that the frame change keeps (the germ would lose it).
    """
    cases = [
        (jt, m, cut_arcs, {a: Fraction(v) for a in m.arcs if a not in cut_arcs})
        for jt in (JordanType(n, N) for N in range(2, 7) for n in range(1, N))
        for m in enumerate_matchings(jt)
        for cut_arcs in closure_decomposition(m, jt).pieces
        for v in (0, 1, -3)
    ]
    deep = matching(10, [(1, 10), (2, 7), (3, 6), (4, 5), (8, 9)])
    cases.append((JordanType(5, 10), deep, deep.arcs[:4], {Arc(8, 9): Fraction(0)}))
    kept = matching(12, [(1, 12), (2, 11), (3, 10), (4, 5), (6, 9), (7, 8)])
    target = {Arc(3, 10): Fraction(4), Arc(4, 5): Fraction(-3, 4), Arc(7, 8): Fraction(3)}
    cases.append((JordanType(6, 12), kept, [Arc(1, 12), Arc(2, 11), Arc(6, 9)], target))
    for jt, m, cut_arcs, target in cases:
        curve = synthesize_limit_curve(m, jt, cut_arcs, target)
        assert verify_limit_curve(m, jt, curve, labeled_cut(m, cut_arcs, jt), target)


def _read_labels(piece, g):
    """The label values of the piece at the point g, read off the slots of
    its base template; None when two slots of one label disagree or a ZERO
    slot is not 0.
    """
    top_offset = build_template(piece.base, piece.jt).top_offset
    values = {}
    for arc, lab in piece.labels.items():
        value = g.rows[top_offset[arc]][arc.init - 1]
        if (lab is ZERO and value) or values.setdefault(lab, value) != value:
            return None
    values.pop(ZERO, None)
    return values


def test_piece_points_are_embedded_block_points_up_to_eight():
    """What the synthesis reads off a piece point, for every piece of every
    cell with N <= 8 at a seeded target and at all-0, all-1 and all--3
    targets: at the first split index the point is chi_embed of the points
    of the two block pieces at their shares of the target; with no split
    index it is phi_embed, at the outer arc's value point[0][0] (INFINITY
    when that arc is cut), of the inner piece at the label values read off
    the point once the shear is undone.
    """
    rng = random.Random(19)
    for N, n in ((N, n) for N in range(2, 9) for n in range(1, N)):
        jt = JordanType(n, N)
        for m in enumerate_matchings(jt):
            splits = closure.valid_split_indices(m)
            for cut_arcs, piece in closure_decomposition(m, jt).pieces.items():
                uncut = [a for a in m.arcs if a not in cut_arcs]
                targets = [random_params(uncut, rng)] + [{a: Fraction(v) for a in uncut} for v in (0, 1, -3)]
                for target in targets:
                    point = piece_matrix(piece, target)
                    if splits:
                        split = chi_split(m, jt, splits[0])
                        i = split.i
                        left = labeled_cut(split.mL, [a for a in cut_arcs if a.term <= i], split.jtL)
                        right = labeled_cut(
                            split.mR, [Arc(a.init - i, a.term - i) for a in cut_arcs if a.init > i], split.jtR
                        )
                        gL = piece_matrix(left, {a: v for a, v in target.items() if a.term <= i})
                        gR = piece_matrix(right, {Arc(a.init - i, a.term - i): v for a, v in target.items() if a.init > i})
                        assert chi_embed(gL, gR, split) == point
                        continue
                    outer = Arc(1, N)
                    inner_m = closure._inner_matching(m)
                    inner_jt = JordanType(n - 1, N - 2)
                    inner_cut = [Arc(a.init - 1, a.term - 1) for a in cut_arcs if a != outer]
                    inner_piece = labeled_cut(inner_m, inner_cut, inner_jt)
                    a = INFINITY if outer in cut_arcs else point.rows[0][0]
                    assert a is INFINITY or a == target[outer]
                    rows = list(point.rows)
                    if a is not INFINITY:
                        closure._shear(rows, -a)
                        rows = canonical_reduce(mat_from_rows(rows))
                    _, _, inner_rows = closure._phi_frame(N, a is INFINITY)
                    inner = FlagMatrix(mat_from_rows([rows[r][1:-1] for r in inner_rows]))
                    values = _read_labels(inner_piece, inner)
                    assert values is not None and piece_matrix(inner_piece, values) == inner
                    assert phi_embed(a, inner, jt) == point


def test_a_wrong_inner_point_fails_loudly(monkeypatch):
    """With the shear left in place, the inner point handed down is not the
    inner piece's: synthesis raises CurveNotFound and returns no curve.
    """
    m = matching(6, [(1, 6), (2, 5), (3, 4)])
    target = {Arc(1, 6): Fraction(2), Arc(3, 4): Fraction(5, 3)}
    assert synthesize_limit_curve(m, JordanType(3, 6), [Arc(2, 5)], target)
    monkeypatch.setattr(closure, "_shear", lambda rows, a: None)
    with pytest.raises(CurveNotFound):
        synthesize_limit_curve(m, JordanType(3, 6), [Arc(2, 5)], target)


def test_route_is_computed_once_per_cell(monkeypatch):
    """Certifying the nested N = 8 closure computes the route of each of
    the 4 nested cells the synthesizer reaches once, in 49 reads; the
    closure of (1,8)(2,3)(4,7)(5,6) adds 2 routes, one of them a split, and
    that of (1,2)(3,4)(5,8)(6,7) adds its own, which splits at its first
    of two split indices.  Each route holds what the split or the phi
    recursion would compute afresh.
    """
    closure._route.cache_clear()
    route, keys = closure._route, set()

    def recorded(m, jt):
        keys.add((m, jt))
        return route(m, jt)

    monkeypatch.setattr(closure, "_route", recorded)
    jt = JordanType(4, 8)
    rng = random.Random(8)
    for m, routes, reads in (
        (matching(8, [(1, 8), (2, 7), (3, 6), (4, 5)]), 4, 49),
        (matching(8, [(1, 8), (2, 3), (4, 7), (5, 6)]), 6, 106),
        (matching(8, [(1, 2), (3, 4), (5, 8), (6, 7)]), 7, 171),
    ):
        for cut_arcs in closure_decomposition(m, jt).pieces:
            synthesize_limit_curve(m, jt, cut_arcs, random_params(m.arcs, rng))
        info = route.cache_info()
        assert (info.misses, info.misses + info.hits) == (routes, reads)
        assert info.currsize == len(keys) == routes
    kinds = set()
    for m, jt in keys:
        got = route(m, jt)
        splits = closure.valid_split_indices(m)
        if splits:
            assert got == chi_split(m, jt, splits[0])
        else:
            assert got == (Arc(1, m.N), closure._inner_matching(m), JordanType(jt.n - 1, jt.N - 2))
        kinds.add(type(got).__name__)
    assert kinds == {"SplitData", "_Phi"}


def _synthesis_outcome(m, jt, cut_arcs, rows):
    """The curve closure._synthesize gives at rows, or its CurveNotFound message."""
    try:
        return closure._synthesize(m, jt, cut_arcs, rows)
    except CurveNotFound as exc:
        return str(exc)


def test_synthesis_reads_no_entry_right_of_a_top_pivot():
    """Undoing the shear leaves the inner point wrong only right of a pivot
    in the top block, in that pivot's row, so synthesis must never read
    such an entry.  For every piece of every cell with N <= 8, at a seeded
    target and at all-0 and all-1 targets, the piece point with each such
    entry overwritten by a seeded nonzero integer gives the same curve, or
    the same CurveNotFound, as the point itself.
    """
    rng = random.Random(20)
    syntheses = entries = 0
    for N, n in ((N, n) for N in range(2, 9) for n in range(1, N)):
        jt = JordanType(n, N)
        for m in enumerate_matchings(jt):
            for cut_arcs, piece in closure_decomposition(m, jt).pieces.items():
                uncut = [a for a in m.arcs if a not in cut_arcs]
                for target in [random_params(uncut, rng)] + [{a: Fraction(v) for a in uncut} for v in (0, 1)]:
                    point = piece_matrix(piece, target).rows
                    scribbled = [list(row) for row in point]
                    for c, piv in enumerate(pivot_pattern(point)):
                        if piv <= n:
                            for right in range(c + 1, N):
                                scribbled[piv - 1][right] = rng.choice((-3, -2, -1, 1, 2, 3))
                                entries += 1
                    expected = _synthesis_outcome(m, jt, cut_arcs, point)
                    assert _synthesis_outcome(m, jt, cut_arcs, scribbled) == expected, (m, cut_arcs, target)
                    syntheses += 1
    assert (syntheses, entries) == (6744, 87432)


def _twisted_by_poly_matrix(inner_m, inner_jt, inner_curve, germs=()):
    """The frame change over Q[t], as a reference: the twisted matrix of
    QtPoly entries reduced by ``canonical_reduce``, and the coordinates read
    back only if the result is the template at them.
    """
    h = inner_m.N
    if h == 0:
        return {}
    half, t = h // 2, QtPoly.t(1)
    template = build_template(inner_m, inner_jt)
    w = [list(row) for row in poly_matrix(template, inner_curve)]
    germ_slots = [(r, c) for (r, c), arc in template.slots.items() if arc in germs]
    for c in {c for _, c in germ_slots}:
        for row in w:
            row[c - 1] = t * row[c - 1]
    for r, c in germ_slots:
        w[r - 1][c - 1] = QtPoly.const(1)
    twisted = [[-(QtPoly.t(2) * x) for x in w[half + r]] for r in range(half)]
    for s in range(half):
        below = w[half + s + 1] if s + 1 < half else [QtPoly()] * h
        twisted.append([x + t * y for x, y in zip(w[s], below)])
    try:
        reduced = canonical_reduce(mat_from_rows(twisted))
    except (Singular, NotDivisible):
        return None
    coords = {arc: reduced[template.top_offset[arc]][arc.init - 1] for arc in inner_m.arcs}
    if poly_matrix(template, coords) != reduced:
        return None
    return coords


def test_frame_change_agrees_with_the_poly_matrix_route(monkeypatch):
    """Every frame change reached while synthesizing every piece of every
    cell with N <= 10, at a seeded target and at the targets 0, 1 and -3,
    gives the coordinates, or the None, of the route over Q[t].

    Synthesis splits a cell with a split index into blocks and hands each
    its block of the piece point, so at a constant target it reaches the
    frame changes of cells with no split index at that constant: those
    cells take the constant targets, every cell takes the seeded one.  The
    curves come from ``closure._synthesize``, the one synthesize_limit_curve
    verifies, at the piece point synthesize_limit_curve builds.
    """
    calls = {}
    frame_change = closure._twisted_inner_coords

    def recorded(inner_m, inner_jt, inner_curve, germs=()):
        out = frame_change(inner_m, inner_jt, inner_curve, germs)
        key = (inner_m, inner_jt, tuple(inner_curve.items()), tuple(germs))
        calls[key] = (inner_curve, out)
        return out

    monkeypatch.setattr(closure, "_twisted_inner_coords", recorded)
    rng = random.Random(17)
    for N, n in ((N, n) for N in range(2, 11) for n in range(1, N)):
        jt = JordanType(n, N)
        for m in enumerate_matchings(jt):
            constants = () if closure.valid_split_indices(m) else (0, 1, -3)
            for cut_arcs in closure_decomposition(m, jt).pieces:
                uncut = [a for a in m.arcs if a not in cut_arcs]
                targets = [random_params(uncut, rng)]
                targets += [{a: Fraction(v) for a in uncut} for v in constants]
                piece = labeled_cut(m, cut_arcs, jt)
                for target in targets:
                    closure._synthesize(m, jt, cut_arcs, piece_matrix(piece, target).rows)
    for (inner_m, inner_jt, _, germs), (inner_curve, out) in calls.items():
        expected = _twisted_by_poly_matrix(inner_m, inner_jt, inner_curve, germs)
        assert out == expected and (out is None or list(out) == list(expected))
    outcomes = {(bool(germs), out is None) for (*_, germs), (_, out) in calls.items()}
    assert outcomes == {(False, False), (False, True), (True, False)}


def test_frame_change_refuses_a_column_off_its_template(monkeypatch):
    """The canonical columns must be the template's at the coordinates read
    back.  In the inner (1,4)(2,3) cell, column 2 holds (2,3) in row 1 and
    its parent (1,4) in row 2 above the pivot in row 4: raising its row 2
    entry by 1 breaks the agreement with column 1, and an entry in row 3
    leaves the template; either gives None.
    """
    curve = {Arc(1, 4): Poly.const(2), Arc(2, 3): Poly.const(3)}
    coords = closure._twisted_inner_coords(NESTED4, JT4, curve)
    assert coords == {Arc(1, 4): Poly.t(2, Fraction(-1, 2)), Arc(2, 3): Poly([0, 0, Fraction(3, 4), Fraction(1, 4)])}
    kernel = closure.integer_canonical_columns
    for row in (1, 2):  # 0-based

        def bumped(cols, row=row):
            for c, (piv, d, vec) in enumerate(kernel(cols), start=1):
                if c == 2:
                    old = vec.get(row) or [0]
                    vec = {**vec, row: [old[0] + d, *old[1:]]}
                yield piv, d, vec

        monkeypatch.setattr(closure, "integer_canonical_columns", bumped)
        assert closure._twisted_inner_coords(NESTED4, JT4, curve) is None


def _projective(vec):
    lead = next(c for c in vec if c)
    return [Fraction(c) / lead for c in vec]


def _minor_verdict(moving_minors, fixed):
    """The Plucker test: for every i, the top-degree coefficients of the
    curve's i x i minors are proportional to the piece point's minors.
    """
    for i, minors in enumerate(moving_minors, start=1):
        top = max(p.degree for p in minors)
        tops = [p.coeffs[top] if p.degree == top else 0 for p in minors]
        if _projective(tops) != _projective(brute_minors(fixed, i)):
            return False
    return True


def test_certifier_agrees_with_minor_vectors():
    """Every piece of every cell with N <= 6, three ways: the synthesized
    curve at a seeded target, the same curve with every target value + 1,
    and a seeded random curve.
    """
    rng = random.Random(6)
    verdicts = []
    for N, n in ((N, n) for N in range(2, 7) for n in range(1, N)):
        jt = JordanType(n, N)
        for m in enumerate_matchings(jt):
            template = build_template(m, jt)
            for cut_arcs, piece in closure_decomposition(m, jt).pieces.items():
                target = random_params([a for a in m.arcs if a not in cut_arcs], rng)
                shifted = {a: v + 1 for a, v in target.items()}
                synthesized = synthesize_limit_curve(m, jt, cut_arcs, target)
                random_curve = {
                    a: Poly([random_rational(rng) for _ in range(rng.randint(1, 3))])
                    for a in m.arcs
                }
                for curve, points in ((synthesized, (target, shifted)), (random_curve, (target,))):
                    rows = poly_matrix(template, curve)
                    minors = [brute_minors(rows, i) for i in range(1, N + 1)]
                    for point in points:
                        expected = _minor_verdict(minors, piece_matrix(piece, point).rows)
                        assert verify_limit_curve(m, jt, curve, piece, point) == expected
                        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def _coprime(a: int, c: int) -> tuple[int, int]:
    g = gcd(a, c)
    return a // g, c // g


def _sub(v: dict, a: int, c: int, r: dict) -> None:
    """v <- a v - c r over sparse integer vectors, in place."""
    for row in v:
        v[row] *= a
    for row, x in r.items():
        v[row] = v.get(row, 0) - c * x
        if not v[row]:
            del v[row]


def _first_row_limit_vectors(cols):
    """The limit kernel the canonical one replaced: each limit vector
    pivots on its first nonzero row, and a column's value at s = 0 is
    cleared at the lowest pivot it meets until it meets none.  The vectors
    keep their content, which no verdict reads.
    """
    reduced = {}  # pivot -> s-coefficients
    for col in cols:
        top = max(p.degree for p in col)
        scale = lcm(*(Fraction(c).denominator for p in col for c in p.coeffs))
        v = [{} for _ in range(top + 1)]
        for row, p in enumerate(col):
            for d, c in enumerate(p.coeffs):
                if c:
                    v[top - d][row] = int(c * scale)
        while True:
            while hits := v[0].keys() & reduced.keys():
                piv = min(hits)
                r = reduced[piv]
                v.extend({} for _ in range(len(r) - len(v)))
                a, c = _coprime(r[0][piv], v[0][piv])
                for k, vk in enumerate(v):
                    _sub(vk, a, c, r[k] if k < len(r) else {})
            if v[0]:
                break
            del v[0]  # divide by s; a cell's columns never run out
        piv = min(v[0])
        reduced[piv] = v
        yield piv, v[0]


def _residual_verdict(m, jt, curve, piece, target) -> bool:
    """The certifier the column comparison replaced: column i of the piece
    point, cleared of denominators, reduces to 0 against the first i
    first-row limit vectors, cleared in ascending pivot order.
    """
    moving = mat_cols(poly_matrix(build_template(m, jt), curve))
    limit = {}
    for (piv, b), col in zip(_first_row_limit_vectors(moving), piece_matrix(piece, target).cols()):
        limit[piv] = b
        scale = lcm(*(Fraction(x).denominator for x in col))
        v = {row: int(x * scale) for row, x in enumerate(col) if x}
        while hits := v.keys() & limit.keys():
            r = limit[low := min(hits)]
            _sub(v, *_coprime(r[low], v[low]), r)
        if v:
            return False
    return True


def test_certifier_agrees_with_the_residual_certifier():
    """Every piece of every cell with N <= 8: the synthesized curve at a
    seeded target, and the same curve with one seeded coefficient (up to
    one past its degree) moved by +1 and by -1.
    """
    rng = random.Random(8)
    pieces = tampers = rejected = 0
    for N, n in ((N, n) for N in range(1, 9) for n in range(N + 1)):
        jt = JordanType(n, N)
        for m in enumerate_matchings(jt):
            for cut_arcs, piece in closure_decomposition(m, jt).pieces.items():
                target = random_params([a for a in m.arcs if a not in cut_arcs], rng)
                curve = synthesize_limit_curve(m, jt, cut_arcs, target)
                assert verify_limit_curve(m, jt, curve, piece, target)
                assert _residual_verdict(m, jt, curve, piece, target)
                pieces += 1
                if not m.arcs:
                    continue
                arc = rng.choice(m.arcs)
                d = rng.randrange(len(curve[arc].coeffs) + 1)
                for step in (1, -1):
                    coeffs = [*curve[arc].coeffs, 0]
                    coeffs[d] += step
                    tampered = {**curve, arc: Poly(coeffs)}
                    verdict = verify_limit_curve(m, jt, tampered, piece, target)
                    assert verdict == _residual_verdict(m, jt, tampered, piece, target)
                    tampers += 1
                    rejected += not verdict
    assert (pieces, tampers, rejected) == (2264, 4440, 2698)


def test_nested_sixteen_certifies_quickly():
    # the fully nested cell (1,16)(2,15)...(8,9), cutting (1,16) and (3,14)
    jt = JordanType(8, 16)
    m = matching(16, [(i, 17 - i) for i in range(1, 9)])
    cut_arcs = [Arc(1, 16), Arc(3, 14)]
    uncut = [a for a in m.arcs if a not in cut_arcs]
    target = {a: Fraction(k) for k, a in enumerate(uncut, start=1)}
    start = time.perf_counter()
    curve = synthesize_limit_curve(m, jt, cut_arcs, target)
    assert verify_limit_curve(m, jt, curve, labeled_cut(m, cut_arcs, jt), target)
    assert time.perf_counter() - start < 10
