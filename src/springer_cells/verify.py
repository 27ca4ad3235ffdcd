"""Property suites behind the ``verify`` CLI command and the test suite.

Each check is the one implementation of an invariant of the library.  It
sweeps the instances up to a size cap and draws what it samples from the
``random.Random`` it is given.  Its body is a generator that yields once
per instance it covers and raises ``_Failed`` at the first failing one;
``_check`` wraps it in the one runner, which counts the yields and returns
a CheckResult.  A check's result carries the same id whether it passes or
fails; on the first failing instance, ``detail`` names the instance and,
for checks of several sub-properties, the one that failed.  A check that
raises anything else becomes a failed result whose detail names the
exception, whether ``verify_suite`` or a test called it.

A check's suite is the part of its id before the dot: ``_check`` files the
check under it in ``SUITES``, whose keys are those of ``DEFAULT_MAX_N``.
``verify_suite`` runs the checks of a suite one after another, each from a
fresh ``random.Random(seed)``, and sorts the results by id, so the report is
byte-identical for a fixed seed.  The tests call the same checks at their
own caps and seeds.
"""

from __future__ import annotations

import functools
import itertools
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from .cells import (
    apply_nilpotent,
    build_template,
    instantiate,
    poly_columns,
    prefix_span_basis,
    verify_canonical,
    verify_springer,
)
from .closure import (
    INFINITY,
    chi_embed,
    chi_split,
    closure_conditions,
    closure_decomposition,
    flag_necessary_conditions,
    phi_embed,
    swap_candidates,
    synthesize_limit_curve,
)
from .cutting import ZERO, arc_subsets, cut, cut_set, labeled_cut, piece_matrix
from .errors import ArcNotInMatching, CurveNotFound
from .exact import (
    Poly,
    SpanBasis,
    canonical_reduce,
    limit_vectors,
    pivot_pattern,
    rank,
)
from .fqoracle import FqConfig, cross_check_cells, within_enumeration_cap
from .matchings import (
    Arc,
    JordanType,
    Matching,
    ancestors,
    bt_word,
    enumerate_matchings,
    enumerate_words,
    j_functions,
    matching_permutation,
    nesting_depth,
    parent,
    word_pairs,
    word_to_matching,
)
from .sampling import random_invertible_matrix, random_params, random_rational


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    count: int
    detail: str = ""


class _Failed(Exception):
    """Raised by a check body at its first failing instance; its message is the detail."""


#: The default size cap of each suite, in the order the suites are listed.
DEFAULT_MAX_N = {
    "combinatorics": 12,
    "geometry": 8,
    "cutting": 10,
    "closure": 6,
    "oracle": 6,
}

#: The checks of each suite, in the order they are defined.
SUITES: dict[str, list] = {suite: [] for suite in DEFAULT_MAX_N}


def _check(check_id: str):
    """Give a check body its one id, file it under the suite the id names
    before its dot, and run it.

    The body is a generator that yields once per instance it covers and
    raises _Failed(detail) at the first failing one.  The wrapper is the
    one place that counts instances and the one exception boundary: a
    _Failed becomes a failed result counting the instances up to and
    including the failing one, and any other exception a failed result of
    count 0 whose detail names the exception and where it was raised, so
    one broken check cannot hide the others.
    """
    suite = SUITES[check_id.partition(".")[0]]

    def wrap(body):
        @functools.wraps(body)
        def check(max_n: int, rng) -> CheckResult:
            count = 0
            try:
                for _ in body(max_n, rng):
                    count += 1
            except _Failed as failure:
                return CheckResult(check_id, False, count, str(failure))
            except Exception as exc:
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                where = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
                detail = f"raised {type(exc).__name__}: {exc} ({where})"
                return CheckResult(check_id, False, 0, detail)
            return CheckResult(check_id, True, count)

        check.check_id = check_id
        suite.append(check)
        return check

    return wrap


def _jordan_types(max_n: int):
    for N in range(1, max_n + 1):
        for n in range(0, N + 1):
            yield JordanType(n, N)


def _cells(max_n: int):
    """(jt, m) for every matching of every proper type with N <= max_n."""
    for N in range(2, max_n + 1):
        for n in range(1, N):
            jt = JordanType(n, N)
            for m in enumerate_matchings(jt):
                yield jt, m


# --- combinatorics ---------------------------------------------------------


@_check("combinatorics.word_roundtrip")
def check_word_roundtrip(max_n: int, rng):
    for jt in _jordan_types(max_n):
        for word in enumerate_words(jt.N, jt.n):
            yield
            if bt_word(word_to_matching(word), jt) != word:
                raise _Failed(word)


@_check("combinatorics.matching_roundtrip")
def check_matching_roundtrip(max_n: int, rng):
    for jt in _jordan_types(max_n):
        for m in enumerate_matchings(jt):
            yield
            if word_to_matching(bt_word(m, jt)).arcs != m.arcs:
                raise _Failed(str(m.arcs))


@_check("combinatorics.count")
def check_counts(max_n: int, rng):
    """C(N, n) words and C(N, n) distinct matchings for each type."""
    for jt in _jordan_types(max_n):
        yield
        found = enumerate_matchings(jt)
        if len(enumerate_words(jt.N, jt.n)) != comb(jt.N, jt.n):
            raise _Failed(f"words: {jt}")
        if len(found) != comb(jt.N, jt.n) or len(set(m.arcs for m in found)) != len(found):
            raise _Failed(f"matchings: {jt}")


@_check("combinatorics.ancestor_count")
def check_ancestor_counts(max_n: int, rng):
    for _, m in _cells(max_n):
        prof = j_functions(m)
        for arc in m.arcs:
            yield
            starts = prof.jbeg[arc.init] + 1  # the arc itself starts here
            ends = prof.jend[arc.init]
            if len(ancestors(m, arc)) != starts - ends:
                raise _Failed(f"{m.arcs} {arc}")


@_check("combinatorics.ancestor_shift")
def check_ancestor_shift(max_n: int, rng):
    """Consecutive arcs share ancestor chains after an offset of the gap
    between their start points minus two.
    """
    for _, m in _cells(max_n):
        for prev, arc in zip(m.arcs, m.arcs[1:]):
            if parent(m, arc) is None:
                continue
            r = arc.init - prev.init - 2
            chain_prev = ancestors(m, prev)
            chain_cur = ancestors(m, arc)
            yield
            if not all(
                j + r < len(chain_prev) and chain_cur[j] == chain_prev[j + r]
                for j in range(1, len(chain_cur))
            ):
                raise _Failed(f"{m.arcs} {arc}")


@_check("combinatorics.pivot_blocks")
def check_pivot_blocks_increase(max_n: int, rng):
    for jt, m in _cells(max_n):
        yield
        w = matching_permutation(m, jt)
        inv = {row: col for col, row in enumerate(w, start=1)}
        tops = [inv[r] for r in range(1, jt.n + 1)]
        bots = [inv[r] for r in range(jt.n + 1, jt.N + 1)]
        if tops != sorted(tops) or bots != sorted(bots):
            raise _Failed(str(m.arcs))


# --- geometry --------------------------------------------------------------


@_check("geometry.canonical_reduce")
def check_canonical_reduce(max_n: int, rng):
    """canonical_reduce is idempotent and keeps every prefix span."""
    for _ in range(200):
        n = rng.randint(1, min(max_n, 8))
        g = random_invertible_matrix(n, rng)
        reduced = canonical_reduce(g)
        yield
        if canonical_reduce(reduced) != reduced:
            raise _Failed(f"idempotent: {g}")
        for i in range(1, n + 1):
            cols_g = [[g[r][j] for r in range(n)] for j in range(i)]
            cols_h = [[reduced[r][j] for r in range(n)] for j in range(i)]
            if rank(cols_g + cols_h) != i:
                raise _Failed(f"prefix spans: n={n} i={i}")


@_check("geometry.cell_membership")
def check_cell_membership(max_n: int, rng):
    """20 random points of every cell are canonical Springer flags."""
    for jt, m in _cells(max_n):
        template = build_template(m, jt)
        for _ in range(20):
            g = instantiate(template, random_params(m.arcs, rng, nonzero=False))
            yield
            if not verify_canonical(g) or not verify_springer(g, jt):
                raise _Failed(str(m.arcs))


@_check("geometry.cell_injectivity")
def check_cell_injectivity(max_n: int, rng):
    for jt, m in _cells(max_n):
        if not m.arcs:
            continue
        template = build_template(m, jt)
        for _ in range(5):
            u = random_params(m.arcs, rng, nonzero=False)
            v = random_params(m.arcs, rng, nonzero=False)
            yield
            if u != v and instantiate(template, u).rows == instantiate(template, v).rows:
                raise _Failed(str(m.arcs))


@_check("geometry.template_support")
def check_template_support(max_n: int, rng):
    """Lowest structurally nonzero row of an arc's column is the top offset
    plus the ancestor-chain length.
    """
    for jt, m in _cells(max_n):
        template = build_template(m, jt)
        for arc in m.arcs:
            yield
            expected = template.top_offset[arc] + len(ancestors(m, arc))
            got = max(template.column_slots[arc.init - 1], default=-1) + 1
            if got != expected:
                raise _Failed(f"{m.arcs} {arc}")


@_check("geometry.coordinate_prefix")
def check_coordinate_prefixes(max_n: int, rng):
    """At indices with no arc overhead, the prefix span of every draw is
    the frozen coordinate subspace of the cell's pivot permutation.
    """
    for jt, m in _cells(max_n):
        template = build_template(m, jt)
        prefixes, _ = closure_conditions(m, jt)
        for _ in range(10):
            g = instantiate(template, random_params(m.arcs, rng))
            for i, rows in prefixes.items():
                yield
                if prefix_span_basis(g, i) != rows:
                    raise _Failed(f"{m.arcs} i={i}")


@_check("geometry.nested_shift")
def check_nested_column_shift(max_n: int, rng):
    """For the j-th arc nested under a given arc, the j-fold shift of its
    column differs from the outer arc's column by something supported in
    the rows above the outer arc's variable block.
    """
    for jt, m in _cells(max_n):
        template = build_template(m, jt)
        g = instantiate(template, random_params(m.arcs, rng))
        for arc in m.arcs:
            under = [b for b in m.arcs if arc.init < b.init and b.term < arc.term]
            under.sort(key=lambda b: b.init)
            r0 = template.top_offset[arc]
            for j, b in enumerate(under, start=1):
                col = g.col(b.init)
                for _ in range(j):
                    col = apply_nilpotent(jt, col)
                diff = [x - y for x, y in zip(col, g.col(arc.init))]
                yield
                if any(diff[r] != 0 for r in range(r0, jt.N)):
                    raise _Failed(f"{m.arcs} {arc} {b}")


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _orthogonal_residual(v, ortho):
    """v minus its orthogonal projection onto the span of the pairwise
    orthogonal vectors in ortho; exact over Q.
    """
    for q in ortho:
        c = Fraction(_dot(v, q)) / _dot(q, q)
        v = [a - c * b for a, b in zip(v, q)]
    return v


@_check("geometry.leading_direction")
def check_leading_direction_numeric(max_n: int, rng):
    """The exact limit flag of a random quadratic curve agrees with the
    curve at t = 1e6: the vectors b_i are independent, and the sine from
    b_i to the span of the first i columns of the cell matrix at the
    curve's value at t = 1e6 is below 1e-6, computed exactly.
    """
    t = Fraction(10**6)
    for jt, m in _cells(min(max_n, 6)):
        if not m.arcs:
            continue
        template = build_template(m, jt)
        curve = {
            a: Poly([random_rational(rng), random_rational(rng), random_rational(rng)])
            for a in m.arcs
        }
        cols = instantiate(template, {a: p(t) for a, p in curve.items()}).cols()
        limit = SpanBasis()
        ortho = []  # orthogonal basis of the first i columns at t
        limits = limit_vectors(poly_columns(template, curve))
        for i, ((_, sparse), col) in enumerate(zip(limits, cols), start=1):
            yield
            b = [sparse.get(row, 0) for row in range(len(col))]
            ortho.append(_orthogonal_residual(col, ortho))
            res = _orthogonal_residual(b, ortho)
            if not limit.add(b) or _dot(res, res) * 10**12 >= _dot(b, b):
                raise _Failed(f"{m.arcs} i={i}")


# --- cutting ---------------------------------------------------------------


def _cut_in_order(m: Matching, jt: JordanType, order) -> tuple[Matching, dict]:
    """The paper's labeled cut: the arcs of ``order`` cut one at a time on
    the {B,T} word of m.  Per arc, swap its two letters and re-pair the
    word; an arc that survives keeps its label, the two arcs that share an
    endpoint with the cut arc's parent take the parent's label, and any
    other new arc is ZERO.  Arcs are kept as {start: end} and labels by
    start point until the cut matching is built.  Raises ArcNotInMatching
    at an arc that an earlier cut removed.
    """
    letters = list(bt_word(m, jt))
    pairs = {a.init: a.term for a in m.arcs}
    labels: dict[int, object] = {a.init: a for a in m.arcs}
    for i, j in order:
        if pairs.get(i) != j:
            raise ArcNotInMatching(f"{Arc(i, j)} was removed by an earlier cut")
        par = max((s for s, e in pairs.items() if s < i and j < e), default=None)
        letters[i - 1], letters[j - 1] = letters[j - 1], letters[i - 1]
        nxt = word_pairs(letters)
        new_labels: dict[int, object] = {}
        for s, e in nxt.items():
            if pairs.get(s) == e:
                new_labels[s] = labels[s]
            elif par is not None and (s == par or e == pairs[par]):
                new_labels[s] = labels[par]
            else:
                new_labels[s] = ZERO
        pairs, labels = nxt, new_labels
    base = Matching(m.N, tuple(Arc(s, e) for s, e in pairs.items()))
    return base, {b: labels[b.init] for b in base.arcs}


@_check("cutting.order_independence")
def check_cut_order_independence(max_n: int, rng):
    """labeled_cut, which reads its labels off the ancestor chains, gives
    the piece of cutting its arcs one at a time: every top-down order
    gives its base, the simultaneous cut_set, and its labels, and any
    other order gives them too or stops at an arc an earlier cut removed.
    Every order of up to three arcs is tried; above that, six random
    top-down orders.
    """
    for jt, m in _cells(max_n):
        above = {a: ancestors(m, a)[1:] for a in m.arcs}
        for combo in arc_subsets(m.arcs):
            piece = labeled_cut(m, combo, jt)
            if piece.base.arcs != cut_set(m, combo, jt).arcs:
                raise _Failed(f"cut_set: {m.arcs} {combo}")
            if len(combo) <= 3:
                orders = itertools.permutations(combo)
            else:
                depth = functools.partial(nesting_depth, m)
                orders = [sorted(rng.sample(combo, len(combo)), key=depth) for _ in range(6)]
            for order in map(list, orders):
                yield
                try:
                    alt = _cut_in_order(m, jt, order)
                except ArcNotInMatching:
                    if any(later in above[a] for a, later in itertools.combinations(order, 2)):
                        continue
                    raise _Failed(f"top-down order {order} stopped: {m.arcs}")
                if alt != (piece.base, piece.labels):
                    raise _Failed(f"order {order}: {m.arcs}")


@_check("cutting.unnesting")
def check_unnesting(max_n: int, rng):
    for jt, m in _cells(max_n):
        for arc in m.arcs:
            par = parent(m, arc)
            if par is None:
                continue
            yield
            expected = set(m.arcs) - {arc, par}
            expected |= {Arc(par.init, arc.init), Arc(arc.term, par.term)}
            if set(cut(m, arc, jt).arcs) != expected:
                raise _Failed(f"{m.arcs} {arc}")


@_check("cutting.distinctness")
def check_cut_distinctness(max_n: int, rng):
    for jt, m in _cells(max_n):
        seen = {cut_set(m, combo, jt).arcs for combo in arc_subsets(m.arcs)}
        yield
        if len(seen) != 2 ** len(m.arcs):
            raise _Failed(str(m.arcs))


@_check("cutting.labels")
def check_label_properties(max_n: int, rng):
    """Non-ZERO labels are exactly the uncut arcs; dimension is the number
    of uncut arcs; only a cut arc's parent repeats.
    """
    for jt, m in _cells(max_n):
        for combo in arc_subsets(m.arcs):
            piece = labeled_cut(m, combo, jt)
            yield
            nonzero = [l for l in piece.labels.values() if l is not ZERO]
            if set(nonzero) != set(m.arcs) - set(combo):
                raise _Failed(f"image: {m.arcs} {combo}")
            if piece.dimension != len(m.arcs) - len(combo):
                raise _Failed(f"dimension: {m.arcs} {combo}")
            repeats = {l for l in nonzero if nonzero.count(l) > 1}
            # a label duplicates only when its arc was the parent of some
            # cut arc at cut time: an uncut ancestor of the cut
            allowed = {b for a in combo for b in ancestors(m, a)[1:] if b not in combo}
            if not repeats <= allowed:
                raise _Failed(f"multiplicity: {m.arcs} {combo}")


# --- closure ---------------------------------------------------------------


@_check("closure.swap_bijection")
def check_swap_candidate_bijection(max_n: int, rng):
    """The pieces' base words are the swap candidates, and no two pieces
    share a base.
    """
    for jt, m in _cells(max_n):
        yield
        dec = closure_decomposition(m, jt)
        piece_words = {bt_word(dec.pieces[s].base, jt) for s in dec.subsets()}
        if piece_words != swap_candidates(m, jt):
            raise _Failed(f"words: {m.arcs}")
        bases = [dec.pieces[s].base.arcs for s in dec.subsets()]
        if len(set(bases)) != len(bases):
            raise _Failed(f"disjointness: {m.arcs}")


@_check("closure.chi_compatibility")
def check_chi_compatibility(max_n: int, rng):
    """Splitting at an index with no arc overhead, the end included, splits
    the word; pasting the halves' cells gives a canonical matrix, the
    whole cell's permutation at zero and the whole cell's matrix at the
    joined parameters.
    """
    for jt, m in _cells(max_n):
        word = bt_word(m, jt)
        template = build_template(m, jt)
        for i in closure_conditions(m, jt)[0]:
            yield
            split = chi_split(m, jt, i)
            halves = (bt_word(split.mL, split.jtL), bt_word(split.mR, split.jtR))
            if halves != (word[:i], word[i:]):
                raise _Failed(f"word: {m.arcs} i={i}")
            tL = build_template(split.mL, split.jtL)
            tR = build_template(split.mR, split.jtR)
            zeros = chi_embed(
                instantiate(tL, dict.fromkeys(split.mL.arcs, 0)),
                instantiate(tR, dict.fromkeys(split.mR.arcs, 0)),
                split,
            )
            if pivot_pattern(zeros.rows) != template.w:
                raise _Failed(f"permutation: {m.arcs} i={i}")
            uL = random_params(split.mL.arcs, rng)
            uR = random_params(split.mR.arcs, rng)
            emb = chi_embed(instantiate(tL, uL), instantiate(tR, uR), split)
            if not verify_canonical(emb):
                raise _Failed(f"canonical: {m.arcs} i={i}")
            u = dict(uL)
            u.update({Arc(a.init + i, a.term + i): v for a, v in uR.items()})
            if emb.rows != instantiate(template, u).rows:
                raise _Failed(f"square: {m.arcs} i={i}")


@_check("closure.phi_cell_law")
def check_phi_cell_law(max_n: int, rng):
    for N in range(4, max_n + 1, 2):
        jt = JordanType(N // 2, N)
        inner_jt = JordanType(N // 2 - 1, N - 2)
        for inner in enumerate_matchings(inner_jt):
            inner_word = bt_word(inner, inner_jt)
            g = instantiate(build_template(inner, inner_jt), random_params(inner.arcs, rng))
            for a in (random_rational(rng), INFINITY):
                out = phi_embed(a, g, jt)
                expected_word = (
                    "T" + inner_word + "B" if a is INFINITY else "B" + inner_word + "T"
                )
                expected_w = matching_permutation(word_to_matching(expected_word), jt)
                yield
                if pivot_pattern(out.rows) != expected_w:
                    raise _Failed(f"{inner.arcs} a={a}")


@_check("closure.certification")
def check_certification(max_n: int, rng):
    """Two random targets of each piece with a cut arc, and one of each
    cell, are certified by a limit curve.
    """
    for jt, m in _cells(max_n):
        for combo in arc_subsets(m.arcs):
            uncut = [a for a in m.arcs if a not in combo]
            for _ in range(2 if combo else 1):
                target = random_params(uncut, rng)
                yield
                try:
                    synthesize_limit_curve(m, jt, combo, target)
                except CurveNotFound as exc:
                    raise _Failed(f"{m.arcs} {combo}: {exc}")


@_check("closure.numeric_agreement")
def check_numeric_agreement(max_n: int, rng):
    """Certified curves drive the numeric oracle below the membership
    threshold at their own evaluations.
    """
    import numpy as np

    from .numeric import MEMBERSHIP_THRESHOLD, curve_seed_points, numeric_infimum

    jt = JordanType(2, 4)
    if jt.N > max_n:
        return
    cuts = ((m, combo) for m in enumerate_matchings(jt) for combo in arc_subsets(m.arcs) if combo)
    for index, (m, combo) in enumerate(cuts):
        piece = labeled_cut(m, combo, jt)
        uncut = [a for a in m.arcs if a not in combo]
        target = random_params(uncut, rng)
        curve = synthesize_limit_curve(m, jt, combo, target)
        flag = piece_matrix(piece, target)
        value = numeric_infimum(
            m,
            jt,
            flag,
            budget=8,
            rng=np.random.default_rng(index),
            seeds=curve_seed_points(curve, m.arcs),
        )
        yield
        if value >= MEMBERSHIP_THRESHOLD:
            raise _Failed(f"{m.arcs} {combo}")


@_check("closure.necessary_conditions")
def check_necessary_condition_suite(max_n: int, rng):
    """Each piece of each cell meets its cell's closure conditions at 3 samples."""
    for jt, m in _cells(max_n):
        dec = closure_decomposition(m, jt)
        for subset in dec.subsets():
            uncut = [a for a in m.arcs if a not in subset]
            for s in range(3):
                g = piece_matrix(dec.pieces[subset], random_params(uncut, rng))
                yield
                issues = flag_necessary_conditions(m, jt, g)
                if issues:
                    where = f"cut {sorted(subset)} of {m.arcs} sample {s}"
                    raise _Failed(f"{where}: {'; '.join(issues)}")


# --- finite-field oracle ---------------------------------------------------


@_check("oracle.fq_cross_check")
def check_fq_oracle(max_n: int, rng):
    """Every proper type with N <= max_n over F_2 and F_3, where the
    enumeration cap admits its complete flags.
    """
    for q in (2, 3):
        for N in range(2, max_n + 1):
            if not within_enumeration_cap(q, N):
                continue
            for n in range(1, N):
                jt = JordanType(n, N)
                yield
                if not cross_check_cells(FqConfig(q, jt)).all_pass:
                    raise _Failed(f"q={q} {jt}")


def verify_suite(suite: str, max_n: int | None = None, seed: int = 0) -> list[CheckResult]:
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; options: {sorted(SUITES)} or all")
    names = list(SUITES) if suite == "all" else [suite]
    results = [
        check(max_n if max_n is not None else DEFAULT_MAX_N[name], random.Random(seed))
        for name in names
        for check in SUITES[name]
    ]
    return sorted(results, key=lambda r: r.check_id)
