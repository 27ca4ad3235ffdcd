"""The property checks of ``verify``: stable ids, and a guard that the
test suite calls every check.
"""

import ast
import dataclasses
import inspect
import itertools
import random
from pathlib import Path

import pytest

from springer_cells import cells, closure, verify
from springer_cells.cutting import ZERO, labeled_cut
from springer_cells.verify import (
    DEFAULT_MAX_N,
    SUITES,
    check_ancestor_counts,
    check_ancestor_shift,
    check_canonical_reduce,
    check_certification,
    check_coordinate_prefixes,
    check_cut_order_independence,
    check_fq_oracle,
    check_leading_direction_numeric,
    check_necessary_condition_suite,
    check_nested_column_shift,
    check_numeric_agreement,
    check_pivot_blocks_increase,
    check_swap_candidate_bijection,
    check_template_support,
    check_unnesting,
)

# checks that no other test calls, each at a small cap
SMALL_CAPS = [
    (check_ancestor_counts, 8),
    (check_ancestor_shift, 8),
    (check_pivot_blocks_increase, 8),
    (check_template_support, 6),
    (check_coordinate_prefixes, 4),
    (check_nested_column_shift, 6),
    (check_leading_direction_numeric, 5),
    (check_necessary_condition_suite, 5),
    (check_numeric_agreement, 4),
]


@pytest.mark.parametrize("check,cap", SMALL_CAPS, ids=[c.__name__ for c, _ in SMALL_CAPS])
def test_check_passes_at_small_cap(check, cap):
    result = check(cap, random.Random(0))
    assert result.passed, result
    if check is check_necessary_condition_suite:
        # 3 samples of each of the 118 pieces of the cells with N <= 5
        assert result.count == 354


def test_suites_come_from_check_ids():
    assert list(SUITES) == list(DEFAULT_MAX_N)
    for suite, checks in SUITES.items():
        assert checks and all(check.check_id.startswith(f"{suite}.") for check in checks)


def test_every_check_body_yields_its_instances():
    bodies = [check.__wrapped__ for checks in SUITES.values() for check in checks]
    assert [body.__name__ for body in bodies if not inspect.isgeneratorfunction(body)] == []


def _wrong_bottom_row(g, i):
    """The true prefix rows, but with the last one moved down a row when
    it lies below a gap: the count of top rows and the answer at every
    draw stay the same, so only a comparison with the frozen prefix fails.
    """
    rows = cells.prefix_span_basis(g, i)
    if rows[-1] == i or rows[-1] == g.N:
        return rows
    return (*rows[:-1], rows[-1] + 1)


def _one_label_zero(m, arcs, jt):
    """labeled_cut's piece of a cut, with its first non-ZERO label set to ZERO."""
    piece = labeled_cut(m, arcs, jt)
    nonzero = [b for b, label in piece.labels.items() if label is not ZERO]
    if not arcs or not nonzero:
        return piece
    return dataclasses.replace(piece, labels={**piece.labels, nonzero[0]: ZERO})


def test_every_check_is_called_by_a_test():
    called = {check.__name__ for check, _ in SMALL_CAPS}
    for path in Path(__file__).parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
    checks = [check.__name__ for suite in SUITES.values() for check in suite]
    assert [name for name in checks if name not in called] == []


@pytest.mark.parametrize(
    "check,name,fake,detail",
    [
        (check_canonical_reduce, "canonical_reduce", lambda g: g[::-1], "idempotent"),
        (check_swap_candidate_bijection, "swap_candidates", lambda m, jt: set(), "words"),
        (check_necessary_condition_suite, "flag_necessary_conditions", lambda m, jt, g: ["x"], "cut"),
        (check_coordinate_prefixes, "prefix_span_basis", _wrong_bottom_row, "((2,3),) i=1"),
        (check_cut_order_independence, "labeled_cut", _one_label_zero, "order [(1,4)]: ((1,4), (2,3))"),
    ],
)
def test_failing_check_keeps_its_id(monkeypatch, check, name, fake, detail):
    passing = check(4, random.Random(0))
    monkeypatch.setattr(verify, name, fake)
    failing = check(4, random.Random(0))
    assert passing.passed and not failing.passed
    assert failing.check_id == passing.check_id == check.check_id
    assert failing.detail.startswith(detail)


def test_failure_count_includes_the_instances_before_it(monkeypatch):
    jt, m = list(itertools.islice(verify._cells(4), 3))[-1]
    real = verify.swap_candidates
    monkeypatch.setattr(
        verify, "swap_candidates", lambda m2, jt2: set() if (m2, jt2) == (m, jt) else real(m2, jt2)
    )
    result = check_swap_candidate_bijection(4, random.Random(0))
    assert (result.passed, result.count, result.detail) == (False, 3, f"words: {m.arcs}")


def test_a_check_that_raises_returns_a_failed_result(monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "cut", broken)
    result = check_unnesting(4, random.Random(0))
    assert (result.check_id, result.passed, result.count) == ("cutting.unnesting", False, 0)
    assert result.detail.startswith("raised RuntimeError: boom (test_verify.py:")
    assert result.detail.endswith(" in broken)")


def test_certification_check_reports_an_unverified_curve(monkeypatch):
    """A curve that fails verify_limit_curve inside the synthesis fails the
    check at its first piece, and the detail names the matching.
    """
    monkeypatch.setattr(closure, "verify_limit_curve", lambda *args: False)
    result = check_certification(4, random.Random(0))
    assert not result.passed and result.count == 1
    m = next(verify._cells(4))[1]
    assert result.detail.startswith(f"{m.arcs} (): no certified curve for {m.arcs}")


def test_leading_direction_check_needs_reduction(monkeypatch):
    # the top-degree coefficient vectors of the columns, unreduced, are
    # close to the right spans but not a flag of the right dimensions
    def top_coefficients(cols):
        for col in cols:
            top = max(map(len, col.values())) - 1
            yield None, {row: p[top] for row, p in col.items() if len(p) > top}

    assert check_leading_direction_numeric(5, random.Random(0)).passed
    monkeypatch.setattr(verify, "limit_vectors", top_coefficients)
    result = check_leading_direction_numeric(5, random.Random(0))
    # the sine test fails, at the second column of the first cell with an arc
    assert not result.passed and result.detail == "((1,2),) i=2"


def test_max_n_bounds_the_oracle_checks():
    assert check_fq_oracle(2, random.Random(0)).count == 2
    assert check_numeric_agreement(2, random.Random(0)).count == 0
