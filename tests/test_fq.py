"""Finite-field brute-force oracle and its cross-checks."""

import gc
import itertools
import math
import random
import time

import pytest

from springer_cells import fqoracle
from springer_cells.cells import FlagMatrix, apply_nilpotent, build_template, instantiate, verify_springer
from springer_cells.cli import run
from springer_cells.closure import flag_necessary_conditions
from springer_cells.errors import Infeasible
from springer_cells.fqoracle import (
    FqConfig,
    cross_check_cells,
    enumerate_springer_flags,
    full_flag_count,
)
from springer_cells.matchings import (
    JordanType,
    enumerate_matchings,
    matching,
    matching_permutation,
)
from springer_cells.verify import check_fq_oracle

from helpers import GF, brute_springer_buckets, collector_off


def test_full_flag_counts():
    assert full_flag_count(2, 4) == 315
    assert full_flag_count(2, 1) == 1
    assert full_flag_count(2, 0) == 1
    assert full_flag_count(3, 3) == 52  # 1 * 4 * 13
    # the q-factorial against the Bruhat-cell sum of q^inversions
    for q in (2, 3, 5):
        for N in range(6):
            by_cells = sum(
                q ** sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
                for perm in itertools.permutations(range(N))
            )
            assert full_flag_count(q, N) == by_cells


def test_springer_count_q2_type_2_4():
    buckets = enumerate_springer_flags(FqConfig(2, JordanType(2, 4)))
    assert sum(len(v) for v in buckets.values()) == 15
    assert sorted(len(v) for v in buckets.values()) == [1, 2, 2, 2, 4, 4]
    # the fully nested cell has q^2 points
    w = matching_permutation(matching(4, [(1, 4), (2, 3)]), JordanType(2, 4))
    assert len(buckets[w]) == 4


def test_springer_count_q3_type_2_4():
    rep = cross_check_cells(FqConfig(3, JordanType(2, 4)))
    assert rep.total == 28  # 1 + 3*3 + 2*9
    assert rep.all_pass


def test_springer_count_q5_type_2_4():
    rep = cross_check_cells(FqConfig(5, JordanType(2, 4)))
    assert rep.total == 66  # 1 + 3*5 + 2*25
    assert rep.all_pass


def _largest_bucket(buckets):
    return max(buckets.values(), key=len)


def _drop_a_matrix(buckets):
    del _largest_bucket(buckets)[-1]


def _columns(point):
    """The columns of a column-major point of a square matrix."""
    N = math.isqrt(len(point))
    return [point[c * N : (c + 1) * N] for c in range(N)]


def _set_columns(buckets, w, change):
    """Replace the first point of pattern ``w`` by one whose columns (lists
    of entries, 0-based) ``change`` rewrites, laid end to end again."""
    cols = [list(col) for col in _columns(buckets[w][0])]
    change(cols)
    buckets[w][0] = bytes(itertools.chain.from_iterable(cols))


def _change_an_entry(buckets):
    def change(cols):
        cols[3][0] = cols[0][0]  # a 1 right of the pivot of row 1

    _set_columns(buckets, (1, 2, 3, 4), change)


def _duplicate_a_flag(buckets):
    bucket = _largest_bucket(buckets)
    bucket[0] = bucket[1]


def _set_slots(buckets, arcs, change):
    """Replace the first flag of the cell of ``arcs`` (type (2,4)) by one
    whose slots ``change`` rewrites, given the template's slot items."""
    template = build_template(matching(4, arcs), JordanType(2, 4))
    _set_columns(buckets, template.w, lambda cols: change(cols, template.slot_items()))


def _split_an_arc(buckets):
    # in the nested cell the outer arc (1,4) fills (1,1) and, on the chain
    # of (2,3), (2,2); the second gets the other value of F_2
    def change(cols, slots):
        (r1, c1), (r2, c2) = [(r, c) for r, c, arc in slots if arc == (1, 4)]
        cols[c2 - 1][r2 - 1] = 1 - cols[c1 - 1][r1 - 1]

    _set_slots(buckets, [(1, 4), (2, 3)], change)


def _slot_value_q(buckets):
    def change(cols, slots):
        r, c, _ = slots[0]
        cols[c - 1][r - 1] = 2  # q itself, outside range(q)

    _set_slots(buckets, [(1, 2), (3, 4)], change)


def _transpose_a_flag(buckets):
    # a point read row by row where columns were meant is a wrong point
    def rows(point):
        return bytes(itertools.chain.from_iterable(zip(*_columns(point))))

    bucket, i = next((b, i) for b in buckets.values() for i, point in enumerate(b) if rows(point) != point)
    bucket[i] = rows(bucket[i])


@pytest.mark.parametrize(
    "change, flags",
    [
        (_drop_a_matrix, (True, False, False, False)),
        (_change_an_entry, (True, True, False, True)),
        (_duplicate_a_flag, (True, True, False, True)),
        (_split_an_arc, (True, True, False, True)),
        (_slot_value_q, (True, True, False, True)),
        (_transpose_a_flag, (True, True, False, True)),
    ],
)
def test_cross_check_reports_a_wrong_bucket(monkeypatch, capsys, change, flags):
    """(patterns, sizes, instantiation, sum) when the oracle errs."""
    flag_columns = fqoracle._flag_columns

    def wrong(cfg):
        buckets = {w: list(points) for w, points in flag_columns(cfg).items()}
        change(buckets)
        return buckets

    monkeypatch.setattr(fqoracle, "_flag_columns", wrong)
    rep = cross_check_cells(FqConfig(2, JordanType(2, 4)))
    assert (rep.patterns_match, rep.sizes_match, rep.instantiation_match, rep.sum_matches) == flags
    assert rep.all_pass is False
    assert run(["fqcount", "--q", "2", "--N", "4", "--n", "2"]) == 1
    assert capsys.readouterr().out.endswith("cross-checks pass: False\n")


@pytest.mark.parametrize(
    "q, jt",
    [(q, JordanType(n, N)) for q in (2, 3) for N in range(2, 7) for n in range(1, N)] + [(2, JordanType(0, 0))],
    ids=str,
)
def test_template_points_are_the_instantiated_matrices(q, jt):
    # the cross-check's point sets against the reference map, ``instantiate``
    # at every vector of values in range(q), flattened column by column
    # into one byte per entry
    for m in enumerate_matchings(jt):
        template = build_template(m, jt)
        expected = {
            bytes(itertools.chain.from_iterable(instantiate(template, dict(zip(m.arcs, values))).cols()))
            for values in itertools.product(range(q), repeat=len(m))
        }
        assert fqoracle._template_points(template, q) == expected


def test_projective_line_type():
    # with two size-one blocks the nilpotent is zero and every flag counts
    buckets = enumerate_springer_flags(FqConfig(2, JordanType(1, 2)))
    assert sum(len(v) for v in buckets.values()) == 3
    assert sorted(len(v) for v in buckets.values()) == [1, 2]


def test_single_point_fiber():
    buckets = enumerate_springer_flags(FqConfig(2, JordanType(0, 2)))
    assert sum(len(v) for v in buckets.values()) == 1


def test_cross_checks_small_types():
    result = check_fq_oracle(4, random.Random(0))
    assert result.passed and result.count == 12


def test_cross_check_covers_every_type_up_to_the_cap():
    # q = 3 stops at N = 6: [7]_3! complete flags exceed the enumeration cap
    for cap, count in ((6, 30), (7, 36)):
        result = check_fq_oracle(cap, random.Random(0))
        assert result.passed and result.count == count


def test_feasibility_guard():
    with pytest.raises(Infeasible):
        enumerate_springer_flags(FqConfig(2, JordanType(4, 8)))
    # the running product passes the cap after a few factors of [6000]_2!
    start = time.process_time()
    with pytest.raises(Infeasible):
        cross_check_cells(FqConfig(2, JordanType(1, 6000)))
    assert time.process_time() - start < 0.5
    with pytest.raises(ValueError):
        FqConfig(7, JordanType(2, 4))


def test_fq_flags_satisfy_the_conditions_of_their_cell():
    # every F_3 Springer flag of type (2,4) is fixed by the nilpotent and
    # meets the closure conditions of the cell of its pivot pattern, read
    # over F_3 and not over Q
    jt = JordanType(2, 4)
    cells = {matching_permutation(m, jt): m for m in enumerate_matchings(jt)}
    buckets = enumerate_springer_flags(FqConfig(3, jt))
    f3 = GF(3)
    assert sum(len(flags) for flags in buckets.values()) == 28
    for w, flags in buckets.items():
        for flag in flags:
            g = FlagMatrix(tuple(tuple(f3.of(x) for x in row) for row in flag.rows))
            assert verify_springer(g, jt)
            assert flag_necessary_conditions(cells[w], jt, g) == []


@pytest.mark.parametrize(
    "q, jt",
    [(q, JordanType(n, N)) for q in (2, 3) for N in range(1, 5) for n in range(N + 1)]
    + [(2, JordanType(n, 5)) for n in range(6)]
    + [(5, JordanType(n, N)) for N in range(1, 4) for n in range(N + 1)],
    ids=str,
)
def test_enumeration_matches_brute_force(q, jt):
    # every canonical matrix, not only the pruned search tree: pins the
    # residuals each child inherits, apart from the cell templates; at
    # q = 5 rows of the system also lead with 2, 3 and 4
    buckets = enumerate_springer_flags(FqConfig(q, jt))
    found = {w: [g.rows for g in flags] for w, flags in buckets.items()}
    expected = {
        w: [tuple(tuple(x.value for x in row) for row in g) for g in brute]
        for w, brute in brute_springer_buckets(jt, GF(q)).items()
    }
    assert {w: set(rows) for w, rows in found.items()} == {w: set(rows) for w, rows in expected.items()}
    assert all(len(rows) == len(set(rows)) for rows in found.values())


@pytest.mark.parametrize("q, jt", [(2, JordanType(2, 5)), (3, JordanType(2, 4)), (5, JordanType(1, 3))], ids=str)
def test_fq_entries_are_residues(q, jt):
    # the oracle keeps F_q as plain ints, so no field type leaks out of it
    for flags in enumerate_springer_flags(FqConfig(q, jt)).values():
        for g in flags:
            assert all(x.__class__ is int and 0 <= x < q for row in g.rows for x in row)


def _node_by_node_flags(cfg):
    """The search as it stood before states were shared: a recursion that
    solves the elimination again at every node, kept as the reference for
    which buckets come out and in what order.
    """
    p, N = cfg.q, cfg.jt.N
    buckets = {}

    def extend(cols, pivots, unused, images):
        m = len(unused)
        if not m:
            buckets.setdefault(pivots, []).append(FlagMatrix(tuple(zip(*cols))))
            return
        system = []
        for k, piv in enumerate(unused):
            res = [0] * m + images[k]
            res[k] = 1
            for lead, vec in system:
                if c := res[lead]:
                    res = [(a - c * b) % p for a, b in zip(res, vec)]
            if any(res[m:]):
                lead = max(i for i in range(m, 2 * m) if res[i])
                inv = pow(res[lead], -1, p)
                system.append((lead, [a * inv % p for a in res]))
                continue
            system.append((k, res))
            null_basis = [vec[:k] for lead, vec in system if lead < k]
            for coeffs in itertools.product(range(p), repeat=len(null_basis)):
                values = res[:k]
                for c, nb in zip(coeffs, null_basis):
                    if c:
                        values = [(v + c * x) % p for v, x in zip(values, nb)]
                col = [0] * N
                col[piv - 1] = 1
                for r, v in zip(unused, values):
                    col[r - 1] = v
                child = [
                    [(a - img[k] * v) % p for a, v in zip(img, values)] + img[k + 1 :]
                    for img in images[:k] + images[k + 1 :]
                ]
                extend((*cols, tuple(col)), pivots + (piv,), unused[:k] + unused[k + 1 :], child)

    units = [tuple(int(r == s) for s in range(N)) for r in range(N)]
    extend((), (), list(range(1, N + 1)), [list(apply_nilpotent(cfg.jt, e)) for e in units])
    return buckets


FEASIBLE = [FqConfig(q, JordanType(n, N)) for q, top in ((2, 7), (3, 6), (5, 5)) for N in range(top + 1) for n in range(N + 1)]


@pytest.mark.parametrize("cfg", FEASIBLE, ids=lambda cfg: f"q{cfg.q}-{cfg.jt.n}-{cfg.jt.N}")
def test_shared_states_keep_the_node_by_node_output(cfg):
    # same pivot patterns in the same order, and inside each bucket the
    # same matrices in the same order, as the recursion over every node
    found = {w: [g.rows for g in flags] for w, flags in enumerate_springer_flags(cfg).items()}
    expected = {w: [g.rows for g in flags] for w, flags in _node_by_node_flags(cfg).items()}
    assert list(found) == list(expected)
    assert found == expected


def test_each_search_state_is_solved_once(monkeypatch):
    """The search extends each distinct (unused rows, image residuals)
    state once, not once per search node, and solves each distinct
    residual system once per call, not once per state.  Per type it
    counts the calls to ``_tails`` (one per edge into a state, plus the
    root), the states extended (table misses) and the systems solved.
    Without the state table every node is a call and a miss: 697 of each
    for type (3,6) over F_3.
    """
    tails, solve = fqoracle._tails, fqoracle._pivot_solutions
    calls, extended, solved = [], [], []

    def counted_tails(p, N, table, systems, unused, images):
        calls.append(None)
        if (unused, images) not in table:
            extended.append((unused, images))
        return tails(p, N, table, systems, unused, images)

    def counted_solve(p, images):
        solved.append(images)
        return solve(p, images)

    def counts(cfg):
        for seen in (calls, extended, solved):
            seen.clear()
        enumerate_springer_flags(cfg)
        assert len(extended) == len(set(extended))  # no state extended twice
        assert len(solved) == len(set(solved))  # no system solved twice in a call
        return len(calls), len(extended), len(solved)

    monkeypatch.setattr(fqoracle, "_tails", counted_tails)
    monkeypatch.setattr(fqoracle, "_pivot_solutions", counted_solve)
    assert counts(FqConfig(3, JordanType(3, 6))) == (109, 39, 33)
    assert counts(FqConfig(2, JordanType(3, 7))) == (85, 40, 31)
    bench = [(q, JordanType(n, N)) for q in (2, 3) for N in range(2, 7) for n in range(1, N)]
    bench += [(2, JordanType(n, 7)) for n in range(1, 7)]
    totals = [sum(column) for column in zip(*(counts(FqConfig(q, jt)) for q, jt in bench))]
    assert (len(bench), totals) == (36, [1278, 582, 456])


def _brute_pivot_solutions(p, images):
    """Per k, every y in F_p^k with R_k + sum y_i R_i = 0, by trying all."""
    m = len(images)
    return {
        k: [
            y
            for y in itertools.product(range(p), repeat=k)
            if not any((img[j] + sum(c * images[i][j] for i, c in enumerate(y))) % p for j in range(m))
        ]
        for k, img in enumerate(images)
    }


@pytest.mark.parametrize("p", (2, 3, 5))
def test_pivot_solutions_match_brute_force(p, monkeypatch):
    # one solution serves every state with the same residuals, so the
    # solver is checked on its own against all y in F_p^k: seeded random
    # systems with m <= 4, where a row is often a combination of the rows
    # before it.  Each returned y plus the combinations of its null basis
    # must give every solution exactly once
    scaled = []  # the lead of every row the solver makes monic

    def counted_pow(base, exp, mod):
        scaled.append(base)
        return pow(base, exp, mod)

    monkeypatch.setattr(fqoracle, "pow", counted_pow, raising=False)
    rng = random.Random(p)
    nullities = set()
    for _ in range(300):
        m = rng.randint(0, 4)
        rows = []
        for _ in range(m):
            if rows and rng.random() < 0.5:
                cs = [rng.randrange(p) for _ in rows]
                rows.append(tuple(sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(m)))
            else:
                rows.append(tuple(rng.randrange(p) for _ in range(m)))
        images = tuple(rows)
        brute = _brute_pivot_solutions(p, images)
        returned = fqoracle._pivot_solutions(p, images)
        assert [k for k, _, _ in returned] == [k for k, ys in brute.items() if ys]
        for k, y, null_basis in returned:
            expanded = [
                tuple((v + sum(c * nb[i] for c, nb in zip(coeffs, null_basis))) % p for i, v in enumerate(y))
                for coeffs in itertools.product(range(p), repeat=len(null_basis))
            ]
            assert len(expanded) == len(set(expanded))
            assert set(expanded) == set(brute[k])
            nullities.add(len(null_basis))
    assert set(scaled) == set(range(1, p))  # leads 2, 3 and 4 too, where p has them
    assert {0, 1, 2} <= nullities


@pytest.mark.parametrize(
    "cfg",
    [FqConfig(2, JordanType(0, 0)), FqConfig(2, JordanType(2, 4)), FqConfig(3, JordanType(3, 6))],
    ids=lambda cfg: f"q{cfg.q}-{cfg.jt.n}-{cfg.jt.N}",
)
def test_buckets_are_the_search_leaves_transposed(cfg):
    # the public buckets against the buckets the cross-check reads: the
    # same pivot patterns in the same order, each point cut into N columns
    # the columns of its matrix, in the same order
    expected = {
        pivots: [tuple(zip(*_columns(point))) for point in points]
        for pivots, points in fqoracle._flag_columns(cfg).items()
    }
    found = {w: [g.rows for g in flags] for w, flags in enumerate_springer_flags(cfg).items()}
    assert list(found) == list(expected)
    assert found == expected


@pytest.mark.parametrize("cfg", FEASIBLE, ids=lambda cfg: f"q{cfg.q}-{cfg.jt.n}-{cfg.jt.N}")
def test_each_leaf_point_is_its_flag_flattened_column_by_column(cfg):
    # what the cross-check compares: the search's points, in order, are the
    # public matrices read column by column, one byte per entry
    leaves = fqoracle._flag_columns(cfg)
    flattened = {
        w: [bytes(itertools.chain.from_iterable(g.cols())) for g in flags]
        for w, flags in enumerate_springer_flags(cfg).items()
    }
    assert list(leaves) == list(flattened)
    assert leaves == flattened


@pytest.mark.parametrize("cfg", FEASIBLE, ids=lambda cfg: f"q{cfg.q}-{cfg.jt.n}-{cfg.jt.N}")
def test_leaf_points_are_bytes_of_residues(cfg):
    # one byte per entry, N * N of them, each a residue in range(q)
    N = cfg.jt.N
    for points in fqoracle._flag_columns(cfg).values():
        for point in points:
            assert point.__class__ is bytes and len(point) == N * N
            assert all(x < cfg.q for x in point)


def test_cross_check_builds_no_matrix(monkeypatch):
    """The cross-check reads the search's buckets and wraps none of their
    points in a ``FlagMatrix``; the public buckets wrap every one.
    """
    matrices = []

    class CountedFlagMatrix(FlagMatrix):
        def __post_init__(self):
            matrices.append(self)
            super().__post_init__()

    monkeypatch.setattr(fqoracle, "FlagMatrix", CountedFlagMatrix)
    cfg = FqConfig(3, JordanType(3, 6))
    assert cross_check_cells(cfg).all_pass
    assert matrices == []
    assert sum(len(flags) for flags in enumerate_springer_flags(cfg).values()) == len(matrices) > 0


def test_cross_check_counts_every_matching(monkeypatch):
    """A matching listed twice gives two templates with one ``w``; the map
    from ``w`` keeps one, so only the total over every matching sees it.
    """
    enumerate_all = fqoracle.enumerate_matchings
    monkeypatch.setattr(fqoracle, "enumerate_matchings", lambda jt: [*enumerate_all(jt), enumerate_all(jt)[0]])
    rep = cross_check_cells(FqConfig(2, JordanType(2, 4)))
    assert (rep.patterns_match, rep.sizes_match, rep.instantiation_match, rep.sum_matches) == (True, True, True, False)


def test_the_search_leaves_no_reference_cycles():
    """The search's state table is reachable only from its call, so
    reference counting frees it when the call returns and the collector
    finds nothing.  A search that closes over its table with a recursive
    nested function leaves the whole table as cyclic garbage: 1015, 2364
    and 2125 objects for these three types.
    """
    found = {}
    with collector_off():
        for q, n, N in ((2, 3, 6), (3, 3, 6), (2, 3, 7)):
            cfg = FqConfig(q, JordanType(n, N))
            assert cross_check_cells(cfg).all_pass
            found[cfg, "cross_check_cells"] = gc.collect()
            assert enumerate_springer_flags(cfg)
            found[cfg, "enumerate_springer_flags"] = gc.collect()
    assert found == dict.fromkeys(found, 0)
