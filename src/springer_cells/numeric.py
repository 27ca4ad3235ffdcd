"""Floating-point cross-oracle for closure membership.

Independent of the exact certifiers: measures how closely points of a cell
can approach a target flag by minimizing, over real parameter vectors, the
largest Frobenius distance between orthogonal projectors onto corresponding
flag subspaces.  A small infimum is evidence the target lies in the cell's
closure; a large stable value across restarts is evidence it does not.  The
exact limit-curve verifier remains the authority either way.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from .cells import FlagMatrix, build_template
from .matchings import JordanType, Matching

#: Below this the oracle counts as membership evidence.
MEMBERSHIP_THRESHOLD = 1e-4
#: Above this across all restarts it counts as non-membership evidence.
NON_MEMBERSHIP_THRESHOLD = 1e-1


def evidence(value: float) -> str:
    """Classify an infimum estimate; values in the gap stay inconclusive."""
    if value < MEMBERSHIP_THRESHOLD:
        return "member-evidence"
    if value > NON_MEMBERSHIP_THRESHOLD:
        return "non-member-evidence"
    return "inconclusive"


def _flag_gap(q_target: np.ndarray, candidate: np.ndarray) -> float:
    """flag_distance with the target's orthonormal basis Q_t given.

    With Q_g from one QR of the candidate, the projectors onto the i-th
    subspaces differ in Frobenius norm by sqrt(2) ||(Q_t^T Q_g)[i:, :i]||_F
    (principal angles; Golub & Van Loan, *Matrix Computations*, 6.4).
    """
    q_cand, _ = np.linalg.qr(candidate)
    cross = q_target.T @ q_cand
    gaps = [np.linalg.norm(cross[i:, :i]) for i in range(1, cross.shape[0])]
    return float(np.sqrt(2.0) * max(gaps, default=0.0))


def flag_distance(target: np.ndarray, candidate: np.ndarray) -> float:
    """max_i ||proj V_i(target) - proj V_i(candidate)||_F."""
    return _flag_gap(np.linalg.qr(target)[0], candidate)


def numeric_infimum(
    m: Matching,
    jt: JordanType,
    target: FlagMatrix,
    budget: int = 50,
    rng: np.random.Generator | None = None,
    seeds: list[np.ndarray] | None = None,
) -> float:
    """Approximate inf over the cell of the flag distance to the target.

    Multi-start Nelder-Mead with starting magnitudes spread up to 1e6;
    ``seeds`` may supply extra starting points (e.g. evaluations of an
    exact limit curve).  Returns the best value seen.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    template = build_template(m, jt)
    n = jt.N
    base = np.zeros((n, n))
    for col, piv in enumerate(template.w, start=1):
        base[piv - 1, col - 1] = 1.0
    slot_list = [(r - 1, c - 1, template.matching.arcs.index(a)) for (r, c), a in template.slots.items()]
    target_np = np.array([[float(x) for x in row] for row in target.rows])
    q_target, _ = np.linalg.qr(target_np)

    def objective(x: np.ndarray) -> float:
        g = base.copy()
        for r, c, idx in slot_list:
            g[r, c] = x[idx]
        return _flag_gap(q_target, g)

    k = len(m)
    if k == 0:
        return objective(np.zeros(0))

    best = np.inf
    starts: list[np.ndarray] = [np.asarray(s, dtype=float) for s in (seeds or [])]
    scales = [1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6]
    while len(starts) < budget:
        scale = scales[len(starts) % len(scales)]
        starts.append(rng.uniform(-1.0, 1.0, size=k) * scale)
    for x0 in starts[:budget]:
        res = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": 600, "xatol": 1e-10, "fatol": 1e-12, "adaptive": True},
        )
        best = min(best, float(res.fun))
        if best < MEMBERSHIP_THRESHOLD * 1e-2:
            break
    return best


def curve_seed_points(curve, arcs) -> list[np.ndarray]:
    """Evaluate an exact limit curve at t = 10, 1e2, ..., 1e6 as starts;
    ``float`` turns the Fraction(0) of a zero polynomial into 0.0.
    """
    return [np.array([float(curve[a](t)) for a in arcs]) for t in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)]
