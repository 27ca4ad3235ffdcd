"""Seeded random data for property checks: rationals, parameter vectors,
invertible matrices.  Everything takes an explicit random.Random so suites
are reproducible from a --seed flag.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from .exact import Matrix, exact_div, mat_from_rows, rank
from .matchings import Arc


def random_rational(rng: random.Random, nonzero: bool = True) -> Fraction | int:
    num = rng.randint(-9, 9)
    while nonzero and num == 0:
        num = rng.randint(-9, 9)
    return exact_div(num, rng.randint(1, 4))


def random_params(arcs: Iterable[Arc], rng: random.Random, nonzero: bool = True) -> dict[Arc, Fraction | int]:
    return {a: random_rational(rng, nonzero) for a in arcs}


def random_invertible_matrix(n: int, rng: random.Random) -> Matrix:
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if rank(rows) == n:
            return mat_from_rows(rows)
