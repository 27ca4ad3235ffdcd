"""Arcs, standard noncrossing matchings, {B,T}-words and pivot permutations.

A matching on {1..N} is a set of arcs with distinct endpoints, drawn above
the axis.  Standard noncrossing matchings with at most min(n, N-n) arcs are
in bijection with length-N words over {B, T} carrying exactly n letters T,
and with the permutations whose pivots increase within the top n rows and
within the bottom N-n rows.  Those permutations are the pivot patterns of
the nonempty Springer Schubert cells of the two-block nilpotent of Jordan
type (n, N-n).

Arcs and Jordan types are immutable tuples of two ints (``Arc(1, 2) ==
(1, 2)``), so hashing, sorting and equality run at C level; a matching
computes its hash once, when it is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

from .errors import ArcNotInMatching, TooManyArcs

B = "B"
T = "T"


class _ArcFields(NamedTuple):
    init: int
    term: int


class Arc(_ArcFields):
    """An arc from ``init`` to ``term``, an immutable pair of ints.

    Being a tuple, it hashes, sorts and compares as ``(init, term)`` does,
    so ``Arc(1, 2) == (1, 2)`` holds.
    """

    __slots__ = ()

    def __new__(cls, init: int, term: int):
        if not (1 <= init < term):
            raise ValueError(f"arc needs 1 <= init < term, got ({init},{term})")
        return tuple.__new__(cls, (init, term))

    _make = classmethod(lambda cls, fields: cls(*fields))  # validates in __new__; _replace calls it

    def __repr__(self) -> str:
        return f"({self.init},{self.term})"


class _JordanFields(NamedTuple):
    n: int
    N: int


class JordanType(_JordanFields):
    """Two nilpotent Jordan blocks: top block size n, total dimension N.

    The nilpotent sends basis vector e_i to e_{i-1} except e_1 and e_{n+1},
    which it kills.  Like ``Arc``, an immutable pair of ints:
    ``JordanType(2, 4) == (2, 4)``.
    """

    __slots__ = ()

    def __new__(cls, n: int, N: int):
        if not (0 <= n <= N):
            raise ValueError(f"need 0 <= n <= N, got ({n},{N})")
        return tuple.__new__(cls, (n, N))

    _make = classmethod(lambda cls, fields: cls(*fields))  # validates in __new__; _replace calls it

    @property
    def bottom(self) -> int:
        return self.N - self.n


@dataclass(frozen=True)
class Matching:
    """Arcs on {1..N}, stored sorted by start point, endpoints disjoint."""

    N: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        arcs = tuple(sorted(self.arcs, key=lambda a: a.init))
        object.__setattr__(self, "arcs", arcs)
        ends: set[int] = set()
        for a in arcs:
            if a.term > self.N:
                raise ValueError(f"arc {a} exceeds ground set of size {self.N}")
            if a.init in ends or a.term in ends:
                raise ValueError(f"arc {a} reuses an endpoint")
            ends.update((a.init, a.term))
        # the dataclass hash of (N, arcs), computed once per instance
        object.__setattr__(self, "_hash", hash((self.N, arcs)))

    def __len__(self) -> int:
        return len(self.arcs)

    def __iter__(self):
        return iter(self.arcs)

    def __contains__(self, arc: Arc) -> bool:
        # a scan of at most N/2 tuples compared at C level; a frozenset per
        # matching would cost more memory than it saves time
        return arc in self.arcs

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def is_noncrossing(self) -> bool:
        for a, b in itertools.combinations(self.arcs, 2):
            # sorted by init, so a.init < b.init; crossing means b starts
            # under a and ends outside it
            if a.init < b.init < a.term < b.term:
                return False
        return True

    @cached_property
    def is_standard(self) -> bool:
        on_arc = set(itertools.chain.from_iterable(self.arcs))
        for a in self.arcs:
            for i in range(a.init + 1, a.term):
                if i not in on_arc:
                    return False
        return True

    def free_points(self) -> list[int]:
        on_arc = set(itertools.chain.from_iterable(self.arcs))
        return [i for i in range(1, self.N + 1) if i not in on_arc]


def matching(N: int, pairs) -> Matching:
    return Matching(N, tuple(Arc(i, j) for i, j in pairs))


def parent(m: Matching, arc: Arc) -> Arc | None:
    """The arc nested immediately above, if any: the second link of ``ancestors``."""
    chain = ancestors(m, arc)
    return chain[1] if len(chain) > 1 else None


def ancestors(m: Matching, arc: Arc) -> list[Arc]:
    """The chain [arc, parent(arc), parent(parent(arc)), ...] of an arc of m."""
    if arc not in m:
        raise ArcNotInMatching(f"{arc} not in {m.arcs}")
    return _chain(m, arc)


def _chain(m: Matching, arc: Arc) -> list[Arc]:
    """The chain of ``ancestors`` without its membership check, for an arc
    taken from ``m.arcs``, in one scan of the arcs, latest start first: the
    first arc strictly over a link is its parent, the arc over it with the
    latest start.
    """
    chain = [arc]
    for b in reversed(m.arcs):
        if b.init < chain[-1].init and chain[-1].term < b.term:
            chain.append(b)
    return chain


def nesting_depth(m: Matching, arc: Arc) -> int:
    """Links above the arc in its chain, len(ancestors) - 1: the number of
    arcs strictly above it when m is noncrossing.
    """
    return len(ancestors(m, arc)) - 1


@dataclass(frozen=True)
class PivotProfile:
    """Start/end/free counts to the left of each position.

    The count tables are indexed 1..N (entry 0 unused).  At each i they
    count positions strictly before i, so they sum to i-1.
    """

    jbeg: tuple[int, ...]
    jend: tuple[int, ...]
    jnot: tuple[int, ...]


def j_functions(m: Matching) -> PivotProfile:
    jbeg = [0] * (m.N + 1)
    jend = [0] * (m.N + 1)
    jnot = [0] * (m.N + 1)
    starts = {a.init for a in m.arcs}
    ends = {a.term for a in m.arcs}
    for i in range(2, m.N + 1):
        p = i - 1
        jbeg[i] = jbeg[p] + (p in starts)
        jend[i] = jend[p] + (p in ends)
        jnot[i] = jnot[p] + (p not in starts and p not in ends)
    return PivotProfile(tuple(jbeg), tuple(jend), tuple(jnot))


def check_arc_count(m: Matching, jt: JordanType) -> None:
    """Raise TooManyArcs unless m has at most min(n, N-n) arcs, as a cell needs."""
    if len(m) > min(jt.n, jt.bottom):
        raise TooManyArcs(f"{len(m)} arcs exceed min({jt.n}, {jt.bottom})")


def bt_word(m: Matching, jt: JordanType) -> str:
    """Arc starts map to B, arc ends to T; of the positions on no arc the
    first n-k get T and the rest B.
    """
    if m.N != jt.N:
        raise ValueError(f"matching on {m.N} points vs N={jt.N}")
    check_arc_count(m, jt)
    k = len(m)
    letters = [""] * (m.N + 1)
    for a in m.arcs:
        letters[a.init] = B
        letters[a.term] = T
    free = m.free_points()
    for idx, i in enumerate(free):
        letters[i] = T if idx < jt.n - k else B
    return "".join(letters[1:])


def word_permutation(word: str, n: int) -> tuple[int, ...]:
    """Pivot rows by running count: the j-th T goes to row j, the j-th B to
    row n+j.  This reproduces the permutation matrices of the cells.
    """
    seen_t = seen_b = 0
    out = []
    for letter in word:
        if letter == T:
            seen_t += 1
            out.append(seen_t)
        else:
            seen_b += 1
            out.append(n + seen_b)
    if seen_t != n:
        raise ValueError(f"word {word!r} has {seen_t} T letters, expected {n}")
    return tuple(out)


def matching_permutation(m: Matching, jt: JordanType) -> tuple[int, ...]:
    """The pivot permutation of the cell of m: the pivot row of each column."""
    return word_permutation(bt_word(m, jt), jt.n)


def word_pairs(letters) -> dict[int, int]:
    """The arcs a {B,T} word (a string or a list of its letters) pairs, as
    {start: end}, 1-based, in order of end.

    One stack scan pairs each T with the nearest unmatched B to its left;
    the unpaired letters are the free points.
    """
    stack: list[int] = []
    pairs: dict[int, int] = {}
    for pos, letter in enumerate(letters, start=1):
        if letter == B:
            stack.append(pos)
        elif stack:
            pairs[stack.pop()] = pos
    return pairs


def word_to_matching(word: str) -> Matching:
    """Inverse of bt_word: repeatedly pair adjacent BT and erase.

    ``word_pairs`` realizes the recursion in one stack scan; leftover
    letters are the free points and always read as T's followed by B's.
    """
    if set(word) - {B, T}:
        raise ValueError(f"word {word!r} has letters outside {{B,T}}")
    return Matching(len(word), tuple(Arc(i, j) for i, j in word_pairs(word).items()))


def enumerate_words(N: int, n: int) -> list[str]:
    """All C(N,n) words with n T letters, lexicographically (B < T)."""
    words = []
    for t_positions in itertools.combinations(range(N), n):
        letters = [B] * N
        for p in t_positions:
            letters[p] = T
        words.append("".join(letters))
    return sorted(words)


def enumerate_matchings(jt: JordanType) -> tuple[Matching, ...]:
    """Images of all C(N,n) words, in word-lexicographic order.

    The word map is a bijection, so the tuple has no repeats; these are
    exactly the matchings indexing nonempty cells for the Jordan type.
    Built once per process for each (N, n) and shared by every caller.
    The ints are read before the lookup: an ``Arc`` or a bare pair equals
    the Jordan type of the same two ints but has no ``N``, so it raises
    ``AttributeError`` however many types were enumerated before.
    """
    return _matchings(jt.N, jt.n)


@cache
def _matchings(N: int, n: int) -> tuple[Matching, ...]:
    return tuple(word_to_matching(w) for w in enumerate_words(N, n))
