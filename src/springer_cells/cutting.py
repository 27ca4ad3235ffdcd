"""Cutting arcs: the unnesting operation and its label bookkeeping.

Cutting an arc swaps the letters at its two endpoints in the {B,T}-word and
rereads the word as a matching.  An arc with a parent gets unnested from it;
the two replacement arcs share an endpoint with the parent and inherit the
parent's label, so a cut remembers which variable used to sit on top.  Arcs
created against free points (or against remnants of fully cut arcs) are
labeled ZERO.  Cutting a subset A of M this way carves out a subspace of
dimension |M| - |A| inside the cell of the cut matching.

``labeled_cut`` cuts A at once with ``cut_set`` and reads each label off
the ancestor chains of M in one pass; ``verify`` checks that this is the
labeling that cutting one arc at a time, top down, leaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .cells import FlagMatrix, build_template, instantiate
from .errors import ArcNotInMatching, MissingParameter
from .matchings import Arc, JordanType, Matching, _chain, bt_word, word_to_matching


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


def labeled_cut(m: Matching, arcs: Iterable[Arc], jt: JordanType) -> LabeledPiece:
    """The piece of cutting the arcs of m: the simultaneous ``cut_set`` as
    base, each base arc labeled by the ancestor chains of m.

    Memoized on (m, cut arcs, jt) and their types, so equal calls return
    the same piece, which callers treat as read-only, and an ``Arc`` in
    place of ``jt`` raises on every call.
    """
    return _labeled_piece(m, frozenset(arcs), jt)


@lru_cache(maxsize=None, typed=True)
def _labeled_piece(m: Matching, cut_arcs: frozenset[Arc], jt: JordanType) -> LabeledPiece:
    """Label each base arc b by the arc a of m with an endpoint at b.init:
    ZERO if there is none, a if a is uncut.  Otherwise walk up a's chain
    with a counter: a cut ancestor raises it, an uncut one met above 0
    lowers it, and the first uncut one met at 0 is the label (ZERO if the
    chain runs out).  Cutting the arcs one at a time, top down, leaves
    the same labels; ``verify.check_cut_order_independence`` compares them.
    """
    base = cut_set(m, cut_arcs, jt)
    at = {end: a for a in m.arcs for end in a}
    labels: dict[Arc, Label] = {}
    for b in base.arcs:
        label = at.get(b.init, ZERO)
        if label in cut_arcs:
            depth = 0
            for up in _chain(m, label)[1:]:
                if up in cut_arcs:
                    depth += 1
                elif depth:
                    depth -= 1
                else:
                    label = up
                    break
            else:
                label = ZERO
        labels[b] = label
    return LabeledPiece(base, labels, m, cut_arcs, jt)


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
