"""Numeric projector-distance oracle, cross-checked with the exact path."""

import random
from fractions import Fraction

import numpy as np

from springer_cells.cells import cell_matrix
from springer_cells.closure import synthesize_limit_curve
from springer_cells.cutting import labeled_cut, piece_matrix
from springer_cells.exact import Poly
from springer_cells.matchings import Arc, JordanType, matching, word_to_matching
from springer_cells.numeric import (
    MEMBERSHIP_THRESHOLD,
    NON_MEMBERSHIP_THRESHOLD,
    curve_seed_points,
    flag_distance,
    numeric_infimum,
)
from springer_cells.sampling import random_rational

JT4 = JordanType(2, 4)
NESTED4 = matching(4, [(1, 4), (2, 3)])
ROW4 = matching(4, [(1, 2), (3, 4)])


def test_flag_distance_zero_on_equal_flags():
    g = np.eye(4)
    assert flag_distance(g, g) == 0.0


def test_member_piece_is_reachable():
    piece = labeled_cut(NESTED4, [Arc(2, 3)], JT4)
    target = piece_matrix(piece, {Arc(1, 4): Fraction(2)})
    curve = synthesize_limit_curve(NESTED4, JT4, [Arc(2, 3)], {Arc(1, 4): Fraction(2)})
    seeds = curve_seed_points(curve, NESTED4.arcs)
    value = numeric_infimum(
        NESTED4, JT4, target, budget=50, rng=np.random.default_rng(0), seeds=seeds
    )
    assert value < MEMBERSHIP_THRESHOLD


def test_point_flag_reachable_from_nested_cell():
    # the standard flag is the fully cut piece of the nested cell
    target = cell_matrix(word_to_matching("TTBB"), JT4, {})
    value = numeric_infimum(NESTED4, JT4, target, budget=50, rng=np.random.default_rng(1))
    assert value < MEMBERSHIP_THRESHOLD


def test_excluded_word_stays_far():
    target = cell_matrix(word_to_matching("TTBB"), JT4, {})
    value = numeric_infimum(ROW4, JT4, target, budget=50, rng=np.random.default_rng(2))
    assert value > NON_MEMBERSHIP_THRESHOLD


def test_zero_parameter_cell():
    target = cell_matrix(word_to_matching("TTBB"), JT4, {})
    value = numeric_infimum(matching(4, []), JT4, target, budget=5)
    assert value == 0.0


def _float_horner(p: Poly, x: float) -> float:
    """p at a float x by Horner's rule in floats, from 0.0."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


def _random_poly(rng: random.Random) -> Poly:
    """Up to four coefficients, each up to 9 * 10^18 in size, some zero."""
    size = rng.randint(0, 4)
    return Poly([random_rational(rng, nonzero=False) * 10 ** rng.randint(0, 18) for _ in range(size)])


def test_curve_seed_points_are_float_horner():
    """The starts are the float Horner values bit for bit, 0.0 at a zero
    polynomial, over seeded curves with small and large coefficients.
    """
    rng = random.Random(13)
    arcs = NESTED4.arcs
    for k in range(400):
        curve = {a: Poly() if k % 10 == 0 else _random_poly(rng) for a in arcs}
        seeds = curve_seed_points(curve, arcs)
        for t, seed in zip((10.0, 1e2, 1e3, 1e4, 1e5, 1e6), seeds):
            expected = np.array([_float_horner(curve[a], t) for a in arcs])
            assert seed.dtype == np.float64 and seed.tobytes() == expected.tobytes(), (curve, t)
