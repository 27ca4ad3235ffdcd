"""Literals, JSON forms and diagram text."""

import gc
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from springer_cells import textio
from springer_cells.cells import FlagMatrix, build_template
from springer_cells.closure import closure_decomposition
from springer_cells.exact import Poly
from springer_cells.matchings import Arc, JordanType, matching
from springer_cells.textio import (
    arc_letters,
    decomposition_dot,
    decomposition_json,
    dumps,
    format_matching,
    matching_json,
    matrix_json,
    parse_matching,
    piece_json,
    poly_json,
    template_json,
)

from helpers import Q, collector_off

GOLDEN = Path(__file__).parent / "golden"


def test_matching_literal_roundtrip():
    m = matching(8, [(1, 8), (2, 3), (4, 7), (5, 6)])
    text = format_matching(m)
    assert text == "(1,8)(2,3)(4,7)(5,6)"
    assert parse_matching(text).arcs == m.arcs
    assert parse_matching("", 4).arcs == ()
    with pytest.raises(ValueError):
        parse_matching("(1,8)x")
    with pytest.raises(ValueError):
        parse_matching("(1,8)", 4)


def test_matrix_json_strings():
    g = FlagMatrix(Q([["1/2", 1], [0, "-3/4"]]))
    assert matrix_json(g) == [["1/2", "1"], ["0", "-3/4"]]


def test_poly_json_ascending():
    assert poly_json(Poly([Fraction(1, 2), 0, -2])) == ["1/2", "0", "-2"]
    assert poly_json(Poly()) == []


def test_matching_json_shape():
    jt = JordanType(4, 8)
    payload = matching_json(matching(8, [(1, 8), (2, 3)]), jt)
    assert payload["N"] == 8 and payload["n"] == 4
    assert payload["arcs"] == [[1, 8], [2, 3]]
    assert len(payload["word"]) == 8
    assert sorted(payload["perm"]) == list(range(1, 9))


def test_template_json_slots_reference_arc_indices():
    jt = JordanType(2, 4)
    m = matching(4, [(1, 4), (2, 3)])
    payload = template_json(build_template(m, jt))
    assert payload["pivots"] == [3, 4, 1, 2]
    assert [1, 1, 0] in payload["slots"]  # row 1, col 1 holds the first arc
    assert [2, 2, 0] in payload["slots"]  # the outer arc repeats below


def test_piece_json_null_for_zero_label():
    jt = JordanType(2, 4)
    m = matching(4, [(1, 2), (3, 4)])
    dec = closure_decomposition(m, jt)
    payload = piece_json(dec.piece(m.arcs))
    assert payload["labels"] == {"(2,3)": None}
    assert payload["dimension"] == 0


def test_dot_contains_letter_labels():
    jt = JordanType(2, 4)
    m = matching(4, [(1, 4), (2, 3)])
    assert arc_letters(m) == {Arc(1, 4): "a", Arc(2, 3): "b"}
    dot = decomposition_dot(closure_decomposition(m, jt))
    assert "(1,2)↦a, (3,4)↦a" in dot
    assert dot.count("->") == 4


_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_payloads)
def test_dumps_writes_the_bytes_of_json_dumps(payload):
    # the types a payload holds: str (non-ASCII and control characters
    # too), int, bool and None, in nested lists and str-keyed dicts
    assert dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_dumps_rejects_types_no_payload_holds():
    for bad in (0.5, float("nan"), (1, 2), {1}, {1: 2}, {1: 0, "1": 0}, {(1,): 2}, Fraction(1, 2), [object()]):
        with pytest.raises(TypeError):
            dumps(bad)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_dumps_rewrites_each_golden_payload(path):
    text = path.read_text()
    assert dumps(json.loads(text)) + "\n" == text


def test_dumps_writes_each_scalar_with_its_separator():
    # one fragment per scalar and one per closing bracket; an opening
    # bracket and a key go with the item after them
    payload, out = {"a": [1, "x", None], "b": {}, "c": True}, []
    textio._emit(payload, "", "\n", out)
    assert out == ['{\n  "a": [\n    1', ',\n    "x"', ',\n    null', "\n  ]", ',\n  "b": {}', ',\n  "c": true', "\n}"]
    assert "".join(out) == json.dumps(payload, indent=2, sort_keys=True)


def test_dumps_leaves_no_reference_cycles():
    dec = closure_decomposition(matching(8, [(1, 8), (2, 3), (4, 7), (5, 6)]), JordanType(4, 8))
    payload = {"closure": decomposition_json(dec), "empty": [{}, []]}
    with collector_off():
        text = dumps(payload)
        assert gc.collect() == 0
    assert text == json.dumps(payload, indent=2, sort_keys=True)
