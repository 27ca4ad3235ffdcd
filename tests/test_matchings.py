"""Matchings, words, ancestor machinery and the pivot permutation."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from springer_cells.errors import ArcNotInMatching, TooManyArcs
from springer_cells.matchings import (
    Arc,
    JordanType,
    Matching,
    ancestors,
    bt_word,
    enumerate_matchings,
    enumerate_words,
    j_functions,
    matching,
    matching_permutation,
    nesting_depth,
    parent,
    word_to_matching,
)

from springer_cells.verify import check_counts

from helpers import ancestor_table, brute_noncrossing, brute_standard

M1 = matching(8, [(1, 8), (2, 3), (4, 7), (5, 6)])
M2 = matching(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
M3 = matching(8, [(1, 4), (2, 3), (7, 8)])
JT8 = JordanType(4, 8)


def test_is_noncrossing_examples():
    assert M1.is_noncrossing
    assert matching(4, []).is_noncrossing
    assert not matching(4, [(1, 3), (2, 4)]).is_noncrossing


def test_is_standard_examples():
    assert M3.is_standard
    assert not matching(4, [(1, 3)]).is_standard
    assert matching(4, []).is_standard


def test_ancestors_examples():
    assert ancestors(M1, Arc(5, 6)) == [Arc(5, 6), Arc(4, 7), Arc(1, 8)]
    assert ancestors(M1, Arc(1, 8)) == [Arc(1, 8)]
    assert ancestors(M3, Arc(7, 8)) == [Arc(7, 8)]
    with pytest.raises(ArcNotInMatching):
        ancestors(M1, Arc(2, 5))


def _all_matchings(N: int):
    """Every set of arcs with disjoint endpoints on {1..N}, crossing and
    non-standard ones included.
    """

    def pairings(points):
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        yield from pairings(rest)
        for k, other in enumerate(rest):
            for tail in pairings(rest[:k] + rest[k + 1 :]):
                yield ((first, other), *tail)

    return [matching(N, pairs) for pairs in pairings(tuple(range(1, N + 1)))]


def _reference_parent(m, arc):
    """Among the arcs strictly over arc, the one with the largest start."""
    over = [b for b in m.arcs if b.init < arc.init and arc.term < b.term]
    return max(over, key=lambda b: b.init, default=None)


def test_ancestors_follow_the_parent_chain_on_every_matching():
    """The one-scan chain is the chain of nearest arcs over each link, on
    every matching with N <= 8, including crossing ones, where it differs
    from the set of every arc over the first arc.
    """
    arcs = 0
    for N in range(1, 9):
        for m in _all_matchings(N):
            for arc in m.arcs:
                chain = [arc]
                while (up := _reference_parent(m, chain[-1])) is not None:
                    chain.append(up)
                assert ancestors(m, arc) == chain
                assert parent(m, arc) == (chain[1] if len(chain) > 1 else None)
                arcs += 1
    assert arcs == 2880
    crossing = matching(7, [(1, 5), (2, 7), (3, 4)])
    assert ancestors(crossing, Arc(3, 4)) == [(3, 4), (2, 7)]
    assert nesting_depth(crossing, Arc(3, 4)) == 1  # two arcs lie over it


def test_ancestor_function_tables():
    assert ancestor_table(M1) == (0, 0, 1, 1, 1, 4, 4, 1, 0)
    assert ancestor_table(M2) == (0,) * 9
    assert ancestor_table(M3) == (0, 0, 1, 1, 0, 0, 0, 0, 0)


def test_j_function_tables():
    prof = j_functions(M3)
    assert (prof.jbeg[8], prof.jend[8], prof.jnot[8]) == (3, 2, 2)
    prof2 = j_functions(M2)
    assert (prof2.jbeg[5], prof2.jend[5], prof2.jnot[5]) == (2, 2, 0)
    assert (prof.jbeg[1], prof.jend[1], prof.jnot[1]) == (0, 0, 0)


def test_j_functions_sum():
    for m in (M1, M2, M3):
        prof = j_functions(m)
        for i in range(1, 9):
            assert prof.jbeg[i] + prof.jend[i] + prof.jnot[i] == i - 1


def test_bt_word_examples():
    assert bt_word(M1, JT8) == "BBTBBTTT"
    assert bt_word(M3, JT8) == "BBTTTBBT"
    assert bt_word(matching(4, []), JordanType(2, 4)) == "TTBB"
    with pytest.raises(TooManyArcs):
        bt_word(matching(4, [(1, 2), (3, 4)]), JordanType(1, 4))


def test_word_to_matching_examples():
    assert word_to_matching("BBTBBTTT").arcs == M1.arcs
    assert word_to_matching("BBTTTBBT").arcs == M3.arcs
    assert word_to_matching("TTBB").arcs == ()
    with pytest.raises(ValueError):
        word_to_matching("BXT")


def test_matching_permutation_examples():
    assert matching_permutation(M1, JT8) == (5, 6, 1, 7, 8, 2, 3, 4)
    assert matching_permutation(M3, JT8) == (5, 6, 1, 2, 3, 7, 8, 4)
    assert matching_permutation(M2, JT8) == (5, 1, 6, 2, 7, 3, 8, 4)
    assert matching_permutation(matching(4, []), JordanType(2, 4)) == (1, 2, 3, 4)


def test_enumerate_matchings_counts():
    assert len(enumerate_matchings(JordanType(2, 4))) == 6
    assert len(enumerate_matchings(JordanType(4, 8))) == 70
    only = enumerate_matchings(JordanType(0, 3))
    assert len(only) == 1 and only[0].arcs == ()
    # brute-force dedup: the images really are distinct matchings
    seen = {m.arcs for m in enumerate_matchings(JordanType(2, 4))}
    assert len(seen) == 6


def test_matching_validation():
    with pytest.raises(ValueError):
        matching(4, [(1, 2), (2, 3)])  # reused endpoint
    with pytest.raises(ValueError):
        matching(3, [(1, 4)])  # exceeds ground set
    with pytest.raises(ValueError):
        Arc(3, 3)


words = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.integers(min_value=0, max_value=n).flatmap(
        lambda k: st.permutations(["T"] * k + ["B"] * (n - k)).map("".join)
    )
)


@settings(max_examples=300, deadline=None)
@given(words)
def test_word_roundtrip_property(word):
    m = word_to_matching(word)
    assert m.is_noncrossing and m.is_standard
    assert brute_noncrossing([(a.init, a.term) for a in m.arcs])
    assert brute_standard([(a.init, a.term) for a in m.arcs])
    jt = JordanType(word.count("T"), len(word))
    assert bt_word(m, jt) == word


@settings(max_examples=150, deadline=None)
@given(words)
def test_ancestor_chain_length_property(word):
    m = word_to_matching(word)
    prof = j_functions(m)
    for arc in m.arcs:
        starts_through_init = prof.jbeg[arc.init] + 1
        ends_before_init = prof.jend[arc.init]
        assert len(ancestors(m, arc)) == starts_through_init - ends_before_init


@settings(max_examples=150, deadline=None)
@given(words)
def test_consecutive_arc_ancestor_shift(word):
    m = word_to_matching(word)
    for prev, arc in zip(m.arcs, m.arcs[1:]):
        chain_prev = ancestors(m, prev)
        chain_cur = ancestors(m, arc)
        r = arc.init - prev.init - 2
        if parent(m, arc) is None:
            # the previous arc's chain is exhausted at that offset
            assert len(chain_prev) <= r + 1
            continue
        for j in range(1, len(chain_cur)):
            assert chain_cur[j] == chain_prev[j + r]


@settings(max_examples=100, deadline=None)
@given(words)
def test_pivot_blocks_increase(word):
    n = word.count("T")
    m = word_to_matching(word)
    w = matching_permutation(m, JordanType(n, len(word)))
    inv = {row: col for col, row in enumerate(w, start=1)}
    tops = [inv[r] for r in range(1, n + 1)]
    bots = [inv[r] for r in range(n + 1, len(word) + 1)]
    assert tops == sorted(tops) and bots == sorted(bots)


def test_enumeration_is_word_lexicographic():
    words_list = enumerate_words(4, 2)
    assert words_list == sorted(words_list)
    ms = enumerate_matchings(JordanType(2, 4))
    assert [bt_word(m, JordanType(2, 4)) for m in ms] == words_list


def test_counts_match_binomials_up_to_twelve():
    assert check_counts(12, random.Random(0)).passed


def test_arcs_and_jordan_types_are_validated_tuples():
    """Arcs and Jordan types are immutable tuples of two ints: they hash,
    sort and compare as the plain pair does (so sets and dicts of arcs
    keep the order they had as frozen dataclasses hashing the same pair),
    and validate on construction.
    """
    with pytest.raises(ValueError, match=r"^arc needs 1 <= init < term, got \(3,3\)$"):
        Arc(3, 3)
    with pytest.raises(ValueError, match=r"^arc needs 1 <= init < term, got \(0,2\)$"):
        Arc(0, 2)
    with pytest.raises(ValueError, match=r"^need 0 <= n <= N, got \(5,4\)$"):
        JordanType(5, 4)
    with pytest.raises(ValueError, match=r"^need 0 <= n <= N, got \(-1,4\)$"):
        JordanType(-1, 4)
    arc, jt = Arc(2, 5), JordanType(2, 6)
    for obj, name in ((arc, "init"), (arc, "other"), (jt, "n"), (jt, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    assert hash(arc) == hash((2, 5)) and hash(jt) == hash((2, 6))
    assert arc == (2, 5) and (arc.init, arc.term) == (2, 5) and (jt.n, jt.N, jt.bottom) == (2, 6, 4)
    assert repr(arc) == "(2,5)" and repr(jt) == "JordanType(n=2, N=6)"
    assert sorted([Arc(3, 4), Arc(1, 6), Arc(1, 2), Arc(2, 5)]) == [Arc(1, 2), Arc(1, 6), Arc(2, 5), Arc(3, 4)]
    for obj in (arc, jt, M1):
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and type(copy) is type(obj) and hash(copy) == hash(obj)
    assert hash(M1) == hash((M1.N, M1.arcs)) and Arc(4, 7) in M1 and Arc(4, 8) not in M1


def test_make_and_replace_validate_like_the_constructor():
    """``_make`` and ``_replace``, inherited from the named-tuple bases,
    build through ``__new__``: they raise the constructor's errors and
    return the same validated types.
    """
    bad = (
        (lambda: Arc._make((3, 3)), r"^arc needs 1 <= init < term, got \(3,3\)$"),
        (lambda: Arc(1, 2)._replace(term=0), r"^arc needs 1 <= init < term, got \(1,0\)$"),
        (lambda: JordanType._make((5, 2)), r"^need 0 <= n <= N, got \(5,2\)$"),
        (lambda: JordanType(1, 2)._replace(n=-1), r"^need 0 <= n <= N, got \(-1,2\)$"),
    )
    for build, message in bad:
        with pytest.raises(ValueError, match=message):
            build()
    good = (Arc._make([2, 5]), Arc(1, 5)._replace(init=2), JordanType._make((2, 6)), JordanType(2, 4)._replace(N=6))
    assert good == (Arc(2, 5), Arc(2, 5), JordanType(2, 6), JordanType(2, 6))
    assert [type(x) for x in good] == [Arc, Arc, JordanType, JordanType]
