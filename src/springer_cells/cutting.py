"""Cutting arcs: the unnesting operation and its label bookkeeping.

Cutting an arc swaps the letters at its two endpoints in the {B,T}-word and
rereads the word as a matching.  An arc with a parent gets unnested from it;
the two replacement arcs share an endpoint with the parent and inherit the
parent's label, so a cut remembers which variable used to sit on top.  Arcs
created against free points (or against remnants of fully cut arcs) are
labeled ZERO.  Cutting a subset A of M this way carves out a subspace of
dimension |M| - |A| inside the cell of the cut matching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .cells import FlagMatrix, build_template, instantiate
from .errors import ArcNotInMatching, MissingParameter
from .matchings import (
    Arc,
    JordanType,
    Matching,
    bt_word,
    nesting_depth,
    word_pairs,
    word_to_matching,
)


class _ZeroLabel:
    """Distinguished label for arcs carrying the constant 0."""

    def __repr__(self) -> str:
        return "ZERO"


ZERO = _ZeroLabel()

Label = object  # Arc | ZERO


@dataclass(frozen=True)
class LabeledPiece:
    """A cut matching together with the label of each of its arcs.

    Labels land in the uncut arcs of the original matching, plus ZERO; the
    non-ZERO labels hit exactly the uncut arcs, so the piece parameterizes
    an (|M| - |A|)-dimensional affine subspace of the cut matching's cell.
    """

    base: Matching
    labels: Mapping[Arc, Label]
    origin: Matching
    cut_arcs: frozenset[Arc]
    jt: JordanType

    @property
    def dimension(self) -> int:
        return len({l for l in self.labels.values() if l is not ZERO})


def swap_letters(word: str, arcs: Iterable[Arc]) -> str:
    """Swap the letters at the two endpoints of each arc."""
    letters = list(word)
    for a in arcs:
        i, j = a.init - 1, a.term - 1
        letters[i], letters[j] = letters[j], letters[i]
    return "".join(letters)


def cut(m: Matching, arc: Arc, jt: JordanType) -> Matching:
    return cut_set(m, [arc], jt)


def cut_set(m: Matching, arcs: Iterable[Arc], jt: JordanType) -> Matching:
    """Swap every endpoint pair at once; order cannot matter because the
    endpoint pairs are disjoint.
    """
    arcs = list(arcs)
    for a in arcs:
        if a not in m:
            raise ArcNotInMatching(f"{a} not in {m.arcs}")
    return word_to_matching(swap_letters(bt_word(m, jt), arcs))


def arc_subsets(arcs: Sequence[Arc]) -> Iterator[tuple[Arc, ...]]:
    """Every subset of the arcs: by size, then in ``itertools.combinations``
    order, so the 2^k pieces of a closure always come in one order.
    """
    for r in range(len(arcs) + 1):
        yield from itertools.combinations(arcs, r)


def contravariant_order(m: Matching, arcs: Iterable[Arc]) -> list[Arc]:
    """Deterministic top-down order: ascending nesting depth (outermost first), then start.

    Any order that never cuts an arc before one nested above it yields the
    same labels; fixing this one makes label maps reproducible.
    """
    return sorted(arcs, key=lambda a: (nesting_depth(m, a), a.init))


def is_contravariant(m: Matching, order: Sequence[Arc]) -> bool:
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            # b cut after a must not be nested above a
            if b.init < a.init and a.term < b.term:
                return False
    return True


def labeled_cut(
    m: Matching,
    arcs: Iterable[Arc],
    jt: JordanType,
    order: Sequence[Arc] | None = None,
) -> LabeledPiece:
    """Cut the arcs one at a time, top down, propagating labels.

    After each single cut, surviving arcs keep their labels; the two arcs
    replacing a cut arc and its parent inherit the parent's label; any arc
    created by cutting a parentless arc is labeled ZERO.

    The default order is memoized on (m, cut arcs, jt) and their types,
    so equal calls return the same piece, which callers treat as
    read-only, and an ``Arc`` in place of ``jt`` raises on every call.
    An explicit top-down order is validated and cut afresh on every call.
    """
    cut_arcs = frozenset(arcs)
    for a in cut_arcs:
        if a not in m:
            raise ArcNotInMatching(f"{a} not in {m.arcs}")
    if order is None:
        return _top_down_cut(m, cut_arcs, jt)
    order = list(order)
    listed_once = len(order) == len(cut_arcs) and set(order) == cut_arcs
    if not (listed_once and is_contravariant(m, order)):
        raise ValueError("order must list the cut arcs top-down")
    return _cut_in_order(m, cut_arcs, jt, order)


@lru_cache(maxsize=None, typed=True)
def _top_down_cut(m: Matching, cut_arcs: frozenset[Arc], jt: JordanType) -> LabeledPiece:
    return _cut_in_order(m, cut_arcs, jt, contravariant_order(m, cut_arcs))


def _cut_in_order(
    m: Matching, cut_arcs: frozenset[Arc], jt: JordanType, order: Sequence[Arc]
) -> LabeledPiece:
    """Cut on the {B,T} word of m: per arc, swap its two letters, re-pair
    the word, and pass the labels on.  Arcs are kept as {start: end} and
    labels by start point until the cut matching is built.
    """
    letters = list(bt_word(m, jt))
    pairs = {a.init: a.term for a in m.arcs}
    labels: dict[int, Label] = {a.init: a for a in m.arcs}
    for i, j in order:
        assert pairs.get(i) == j, "top-down cutting keeps the next arc intact"
        par = max((s for s, e in pairs.items() if s < i and j < e), default=None)
        letters[i - 1], letters[j - 1] = letters[j - 1], letters[i - 1]
        nxt = word_pairs(letters)
        new_labels: dict[int, Label] = {}
        for s, e in nxt.items():
            if pairs.get(s) == e:
                new_labels[s] = labels[s]
            elif par is not None and (s == par or e == pairs[par]):
                new_labels[s] = labels[par]
            else:
                new_labels[s] = ZERO
        pairs, labels = nxt, new_labels
    base = Matching(m.N, tuple(Arc(s, e) for s, e in pairs.items()))
    return LabeledPiece(base, {b: labels[b.init] for b in base.arcs}, m, cut_arcs, jt)


def piece_params(piece: LabeledPiece, values: Mapping[Arc, object]) -> dict[Arc, object]:
    """Parameter vector for the cut matching: label values, ZERO -> 0."""
    uncut = [a for a in piece.origin.arcs if a not in piece.cut_arcs]
    missing = [a for a in uncut if a not in values]
    if missing:
        raise MissingParameter(f"no value for uncut arcs {missing}")
    out: dict[Arc, object] = {}
    for b in piece.base.arcs:
        lab = piece.labels[b]
        out[b] = 0 if lab is ZERO else values[lab]
    return out


def piece_matrix(piece: LabeledPiece, values: Mapping[Arc, object]) -> FlagMatrix:
    """Instantiate the cut matching's template at the labeled values."""
    template = build_template(piece.base, piece.jt)
    return instantiate(template, piece_params(piece, values))
