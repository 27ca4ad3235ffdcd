"""Cell templates, instantiation and the structural flag checks."""

import random
from fractions import Fraction

import pytest

from springer_cells import cells
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
from springer_cells.errors import DimensionMismatch, MissingParameter, Singular
from springer_cells.closure import flag_necessary_conditions
from springer_cells.cutting import labeled_cut, piece_matrix
from springer_cells.exact import is_one, mat_cols, pivot_pattern, rank
from springer_cells.matchings import (
    Arc,
    JordanType,
    ancestors,
    bt_word,
    enumerate_matchings,
    matching,
)
from springer_cells.sampling import random_params
from springer_cells.verify import check_cell_injectivity, check_cell_membership

from helpers import (
    GF,
    RINGS,
    Q,
    QtPoly,
    brute_prefix_span_basis,
    count_span_bases,
    in_span,
    springer_column_diagnostics,
)

JT8 = JordanType(4, 8)
M1 = matching(8, [(1, 8), (2, 3), (4, 7), (5, 6)])
M2 = matching(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
M3 = matching(8, [(1, 4), (2, 3), (7, 8)])
F3 = GF(3)


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


def test_template_slots_follow_the_ancestor_chains():
    """build_template reads each arc's chain off one scan of the word; the
    definition puts ancestors(m, arc), the arc first, in the rows just
    below the T letters left of its start.  Slots and offsets agree, in
    order, for every matching of every proper type with N <= 10.
    """
    count = 0
    for N in range(2, 11):
        for n in range(1, N):
            jt = JordanType(n, N)
            for m in enumerate_matchings(jt):
                word = bt_word(m, jt)
                offsets = {a: word[: a.init - 1].count("T") for a in m.arcs}
                slots = {
                    (offsets[a] + j, a.init): anc for a in m.arcs for j, anc in enumerate(ancestors(m, a), start=1)
                }
                template = build_template(m, jt)
                assert list(template.slots.items()) == list(slots.items()), m
                assert list(template.top_offset.items()) == list(offsets.items()), m
                count += 1
    assert count == sum(2**N - 2 for N in range(2, 11))


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


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0], [0]],  # ragged
        [[1], [0, 1]],  # ragged, one row of the right length
        [[1, 0, 0], [0, 1, 0]],  # two rows of three
        [[1], [0]],  # two rows of one
        [[]],  # one empty row
    ],
)
def test_flag_matrix_must_be_square(rows):
    with pytest.raises(DimensionMismatch, match="square"):
        FlagMatrix(Q(rows))


def test_one_based_accessors_reject_indices_outside_1_to_N():
    g = FlagMatrix(Q([[1, 2], [3, 4]]))
    assert (g.col(1), g.col(2), g[2, 1], g[1, 2]) == ((1, 3), (2, 4), 3, 2)
    for j in (0, 3, -1):
        with pytest.raises(DimensionMismatch, match="outside 1..2"):
            g.col(j)
    for rc in ((0, 1), (1, 0), (3, 1), (1, 3), (-1, 1)):
        with pytest.raises(DimensionMismatch, match="outside 1..2"):
            g[rc]
    with pytest.raises(DimensionMismatch):
        FlagMatrix(()).col(0)


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


@pytest.mark.parametrize(
    "rows, jt",
    [
        ((), JordanType(1, 3)),
        ((), JordanType(0, 1)),
        (Q([[1, 0], [0, 1]]), JordanType(1, 3)),
        (Q([[1, 0], [0, 1]]), JordanType(0, 0)),
        (Q([[0, 0], [0, 1]]), JordanType(1, 3)),  # singular too: the size is checked first
        (cell_matrix(M1, JT8, letters(M1)).rows, JordanType(2, 4)),
    ],
)
def test_verify_springer_refuses_a_jordan_type_of_another_size(rows, jt):
    with pytest.raises(DimensionMismatch):
        verify_springer(FlagMatrix(rows), jt)


def test_verify_springer_eliminates_only_off_canonical_input(monkeypatch):
    built = count_span_bases(monkeypatch)
    assert verify_springer(FlagMatrix(()), JordanType(0, 0))
    assert verify_springer(cell_matrix(M1, JT8, letters(M1)), JT8)
    piece = labeled_cut(M1, [Arc(2, 3)], JT8)
    assert verify_springer(piece_matrix(piece, letters(M1)), JT8)
    assert built == []
    # a non-triangular invertible matrix is brought to canonical form once
    assert not verify_springer(FlagMatrix(Q([[1, 1], [1, -1]])), JordanType(0, 2))
    assert len(built) == 1
    # and so is a triangular one whose pivot is not 1
    assert verify_springer(FlagMatrix(Q([[2, 0], [0, 1]])), JordanType(1, 2))
    assert len(built) == 2


def test_apply_nilpotent():
    jt = JordanType(2, 4)
    assert apply_nilpotent(jt, (0, 1, 0, 0)) == (1, 0, 0, 0)
    assert apply_nilpotent(jt, (1, 0, 0, 0)) == (0, 0, 0, 0)
    assert apply_nilpotent(jt, (0, 0, 1, 0)) == (0, 0, 0, 0)
    assert apply_nilpotent(jt, (0, 0, 0, 1)) == (0, 0, 1, 0)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_apply_nilpotent_sends_each_basis_vector_down_its_block(n):
    # X e_r = e_{r-1}, except that X kills e_1 and e_{n+1}
    jt = JordanType(n, 3)
    for r in range(1, 4):
        e_r = tuple(Fraction(int(k == r)) for k in range(1, 4))
        image = tuple(Fraction(int(k == r - 1 and r not in (1, n + 1))) for k in range(1, 4))
        assert apply_nilpotent(jt, e_r) == image


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
    rows = [[1, 1, 0], [1, -2, 0], [0, 0, 1]]
    assert prefix_span_basis(FlagMatrix(Q(rows)), 2) == (1, 2)
    over_f3 = FlagMatrix(tuple(tuple(F3.of(x) for x in row) for row in rows))
    assert prefix_span_basis(over_f3, 2) is NOT_COORDINATE
    assert prefix_span_basis(over_f3, 3) is NOT_COORDINATE


def _cell_matrices(max_n: int, rng: random.Random):
    for N in range(1, max_n + 1):
        for n in range(N + 1):
            jt = JordanType(n, N)
            for m in enumerate_matchings(jt):
                yield cell_matrix(m, jt, random_params(m.arcs, rng))


def test_prefix_span_basis_agrees_with_rank_on_cell_matrices():
    rng = random.Random(5)
    answers = []
    for g in _cell_matrices(6, rng):
        for i in range(g.N + 1):
            got = prefix_span_basis(g, i)
            assert got == brute_prefix_span_basis(g, i), (g.rows, i)
            answers.append(got is NOT_COORDINATE)
    assert 0 < sum(answers) < len(answers)


def _entry(ring, rng):
    zero, _, of = ring
    if zero.__class__ is QtPoly:
        return QtPoly([rng.randint(-2, 2), rng.randint(-2, 2)])
    return of(rng.randint(-2, 2))


def _colliding_matrix(ring, rng, N: int, i: int, dependent: bool) -> FlagMatrix:
    """A random N x N matrix whose first i columns are nonzero in i rows,
    with constant nonzero lowest entries in distinct rows, until a later
    column gets a constant multiple of an earlier one whose lowest row is
    lower, so that two lowest rows coincide.  When dependent, the last of
    the i columns becomes a combination of the earlier ones instead.

    Over Q[t], a column only gains multiples of earlier columns, which the
    elimination of SpanBasis has already spanned: its division stays exact.
    """
    zero, _, of = ring
    support = rng.sample(range(N), i)
    unit = [of(1), of(2)]
    cols = []
    for low in support:
        col = [zero] * N
        col[low] = rng.choice(unit)
        for r in support:
            if r < low and rng.random() < 0.5:
                col[r] = _entry(ring, rng)
        cols.append(col)
    pairs = [(a, b) for a in range(i) for b in range(a + 1, i) if support[a] > support[b]]
    if pairs:
        a, b = rng.choice(pairs)
        u = rng.choice(unit)
        cols[b] = [x + u * y for x, y in zip(cols[b], cols[a])]
    if dependent and i >= 2:
        combo = [zero] * N
        for col in cols[:-1]:
            c = _entry(ring, rng)
            combo = [x + c * y for x, y in zip(combo, col)]
        cols[-1] = combo
    cols += [[_entry(ring, rng) for _ in range(N)] for _ in range(N - i)]
    return FlagMatrix(tuple(zip(*cols)))


@pytest.mark.parametrize("ring", [RINGS[k] for k in ("Q", "F3", "Qt")], ids=["Q", "F3", "Qt"])
def test_prefix_span_basis_agrees_with_rank_under_lowest_row_collisions(ring):
    rng = random.Random(7)
    outcomes = set()
    for _ in range(400):
        N = rng.randint(2, 6)
        i = rng.randint(2, N)
        g = _colliding_matrix(ring, rng, N, i, dependent=rng.random() < 0.5)
        for j in range(i + 1):
            got = prefix_span_basis(g, j)
            assert got == brute_prefix_span_basis(g, j), (g.rows, j)
        cols = g.cols()[:i]
        lowest = [max(r for r, x in enumerate(c) if x) for c in cols if any(c)]
        if len(set(lowest)) < i:
            outcomes.add(got is NOT_COORDINATE)
    # both answers are reached past a collision of lowest rows
    assert outcomes == {True, False}


def test_prefix_span_basis_reads_cell_matrices_without_elimination(monkeypatch):
    built = count_span_bases(monkeypatch)
    g = cell_matrix(M3, JT8, letters(M3))
    for i in range(g.N + 1):
        assert prefix_span_basis(g, i) == brute_prefix_span_basis(g, i)
    assert built == []
    # the counter sees the elimination that a coincidence of lowest rows needs
    assert prefix_span_basis(FlagMatrix(Q([[1, 1], [1, -1]])), 2) == (1, 2)
    assert len(built) == 1


def test_readers_take_the_ring_from_the_entries():
    # no ring argument: over F_3 and Q[t] the identity has pivots (1, 2),
    # is canonical and its prefixes span coordinate subspaces
    for zero, one, _ in (RINGS["F3"], RINGS["Qt"]):
        ident = FlagMatrix(((one, zero), (zero, one)))
        assert pivot_pattern(ident.rows) == (1, 2)
        assert verify_canonical(ident)
        assert prefix_span_basis(ident, 1) == (1,)
        assert prefix_span_basis(ident, 2) == (1, 2)
        doubled = FlagMatrix(((one, zero), (zero, one + one)))
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


def _rank_prefix_span_basis(g: FlagMatrix, i: int):
    """prefix_span_basis by rank: the rows where the first i columns are
    nonzero, when there are exactly i of them and the columns have rank i.
    """
    cols = mat_cols(g.rows)[:i]
    rows = tuple(r for r in range(1, g.N + 1) if any(c[r - 1] for c in cols))
    return rows if len(rows) == i and rank(cols) == i else NOT_COORDINATE


def _featured_matrices(ring, rng: random.Random, count: int):
    """(feature, 0-based column of the feature, matrix): N = 0, then random
    matrices up to N = 5 with a zero column, a column that is a multiple of
    an earlier one, or a column that gains a multiple of an earlier column
    whose lowest nonzero row is lower, so that two lowest rows coincide.

    Before the feature, every column has a constant lowest entry, in a row
    of its own, with entries above it in the lowest rows of earlier columns
    and, now and then, in another row.  A column only gains multiples of
    earlier ones, so that over Q[t] every division of SpanBasis stays exact.
    """
    zero, _, of = ring
    yield "N = 0", 0, FlagMatrix(())
    features = ("zero column", "dependent columns", "coinciding lowest rows")
    for k in range(count):
        feature = features[k % 3]
        N = rng.randint(2, 5)
        lows = rng.sample(range(N), N)
        if feature == "coinciding lowest rows" and lows == sorted(lows):
            lows.reverse()
        cols = []
        for j, low in enumerate(lows):
            col = [zero] * N
            col[low] = of(rng.choice((1, 2)))
            for r in range(low):
                if (r in lows[:j] and rng.random() < 0.5) or rng.random() < 0.1:
                    col[r] = _entry(ring, rng)
            cols.append(col)
        pairs = [(a, b) for a in range(N) for b in range(a + 1, N)]
        if feature == "coinciding lowest rows":
            pairs = [(a, b) for a, b in pairs if lows[a] > lows[b]]
        a, b = rng.choice(pairs)
        if feature == "zero column":
            cols[b] = [zero] * N
        elif feature == "dependent columns":
            cols[b] = [of(2) * x for x in cols[a]]
        else:
            u = of(rng.choice((1, 2)))
            cols[b] = [x + u * y for x, y in zip(cols[b], cols[a])]
        yield feature, b, FlagMatrix(tuple(zip(*cols)))


@pytest.mark.parametrize("ring", [RINGS[k] for k in ("Q", "F5", "Qt")], ids=["Q", "F5", "Qt"])
def test_prefix_span_basis_agrees_with_the_rank_reference(ring):
    rng = random.Random(11)
    answers = {}
    for feature, b, g in _featured_matrices(ring, rng, 300):
        for i in range(g.N + 1):
            got = prefix_span_basis(g, i)
            assert got == _rank_prefix_span_basis(g, i), (feature, g.rows, i)
            if i > b:
                answers.setdefault(feature, set()).add(got is NOT_COORDINATE)
    # a prefix holding a zero or dependent column is never a coordinate
    # subspace; past a coincidence of lowest rows both answers come
    assert answers == {
        "zero column": {True},
        "dependent columns": {True},
        "coinciding lowest rows": {True, False},
    }


def _canonical_by_pivot_pattern(g: FlagMatrix) -> bool:
    """verify_canonical read off ``pivot_pattern`` of the rows."""
    try:
        pivots = pivot_pattern(g.rows)
    except Singular:
        return False
    for j, piv in enumerate(pivots, start=1):
        row = g.rows[piv - 1]
        if not is_one(row[j - 1]) or any(row[j:]):
            return False
    return len(set(pivots)) == g.N


def _springer_by_spans(g: FlagMatrix, jt: JordanType) -> bool:
    """verify_springer restated: Singular on dependent columns, else
    whether each column's image lies in the span of the columns up to it.
    """
    cols = mat_cols(g.rows)
    if rank(cols) < g.N:
        raise Singular("columns are linearly dependent")
    return all(in_span(apply_nilpotent(jt, c), cols[:j]) for j, c in enumerate(cols, start=1))


@pytest.mark.parametrize("ring", [RINGS[k] for k in ("Q", "F3", "Qt")], ids=["Q", "F3", "Qt"])
def test_flag_checks_keep_their_verdicts(ring):
    """verify_canonical and verify_springer against restatements, over
    the featured random matrices and over permutation matrices with one
    entry raised: a pivot made non-unit or zero, or a stray entry.
    """
    zero, one, of = ring
    rng = random.Random(13)
    verdicts = set()
    for _, _, g in _featured_matrices(ring, rng, 150):
        jt = JordanType(rng.randint(0, g.N), g.N)
        perm = rng.sample(range(g.N), g.N)
        rows = [[one if perm[c] == r else zero for c in range(g.N)] for r in range(g.N)]
        if g.N:
            r, c = rng.randrange(g.N), rng.randrange(g.N)
            rows[r][c] = rows[r][c] + of(rng.choice((1, 2)))
        for h in (g, FlagMatrix(tuple(map(tuple, rows)))):
            canonical = verify_canonical(h)
            assert canonical == _canonical_by_pivot_pattern(h), h.rows
            try:
                expected = _springer_by_spans(h, jt)
            except Singular:
                with pytest.raises(Singular):
                    verify_springer(h, jt)
                continue
            assert verify_springer(h, jt) == expected, (h.rows, jt)
            verdicts.add((canonical, expected))
    assert verdicts == {(a, b) for a in (True, False) for b in (True, False)}


def test_a_flag_matrix_builds_its_column_view_once(monkeypatch):
    builds = []
    build = cells._build_column_view

    def counting_build(rows):
        builds.append(rows)
        return build(rows)

    monkeypatch.setattr(cells, "_build_column_view", counting_build)
    g = cell_matrix(M1, JT8, letters(M1))
    assert builds == []  # instantiating reads no column
    assert verify_canonical(g) and verify_springer(g, JT8)
    for i in range(g.N + 1):
        prefix_span_basis(g, i)
    assert flag_necessary_conditions(M1, JT8, g) == []
    assert g.col(3) == g.cols()[2]
    assert builds == [g.rows]


def test_column_view_leaves_equality_hash_and_repr_alone():
    g = cell_matrix(M3, JT8, letters(M3))
    twin = FlagMatrix(g.rows)
    before = repr(g)
    assert verify_canonical(g)
    assert g == twin and hash(g) == hash(twin) == hash((g.rows,))
    assert repr(g) == repr(twin) == before == f"FlagMatrix(rows={g.rows!r})"
