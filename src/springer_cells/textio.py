"""Literal, JSON, LaTeX and DOT renderings of the core objects.

The matching literal is "(1,8)(2,3)(4,7)(5,6)": 1-based, sorted by start.
Matrices serialize as JSON arrays of strings like "5" or "-3/2";
polynomials as ascending coefficient arrays.  ``dumps`` writes payloads
of str-keyed dicts, lists, str, int, bool and None, and no other type.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping

from .cells import CellTemplate, FlagMatrix, instantiate
from .closure import ClosureDecomposition
from .cutting import LabeledPiece, ZERO
from .exact import Poly, rational
from .matchings import Arc, JordanType, Matching, bt_word, matching_permutation

_ARC_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")
_DECIMAL_RE = re.compile(r"[-+]?(\d*)(?:\.(\d*))?(?:[eE][-+]?(\d+))?")


def format_matching(m: Matching) -> str:
    return "".join(f"({a.init},{a.term})" for a in m.arcs)


def parse_matching(text: str, N: int | None = None) -> Matching:
    pairs = parse_arcs(text)
    top = max((b for _, b in pairs), default=0)
    if N is None:
        N = top
    elif N < top:
        raise ValueError(f"N={N} smaller than largest endpoint {top}")
    return Matching(N, tuple(Arc(a, b) for a, b in pairs))


def parse_arcs(text: str) -> list[tuple[int, int]]:
    """Arcs "(i,j)", optionally separated by commas and whitespace;
    ValueError on any other text.
    """
    leftover = _ARC_RE.sub("", text).replace(",", "").strip()
    if leftover:
        raise ValueError(f"unparsed arc text: {leftover!r}")
    return [(int(a), int(b)) for a, b in _ARC_RE.findall(text)]


def parse_scalar(text: str) -> Fraction | int:
    """An exact rational such as ``3``, ``-7/3``, ``0.5`` or ``1e-3``, an
    ``int`` when integral; ValueError if malformed, or, in time linear in the
    text, if its digits and |exponent| sum past ``sys.get_int_max_str_digits()``.
    """
    limit = sys.get_int_max_str_digits()
    parts = _DECIMAL_RE.fullmatch(text.strip().replace("_", ""))
    if limit and parts:
        whole, frac, exp = parts.groups("")
        exp = exp.lstrip("0")
        # the whole part counts one digit at least: 10**k has k + 1
        if len(exp) > len(str(limit)) or max(len(whole), 1) + len(frac) + int(exp or 0) > limit:
            raise ValueError(f"{text!r} has more than {limit} digits once its exponent is written out")
    try:
        return rational(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def matrix_json(g: FlagMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in g.rows]


def poly_json(p: Poly) -> list[str]:
    return [str(c) for c in p.coeffs]


def certificate_json(
    cut_arcs: Iterable[Arc], target: Mapping[Arc, Fraction], curve: Mapping[Arc, Poly] | None
) -> dict:
    """A limit-curve certificate; a refused piece has no curve."""
    return {
        "cut": [[a.init, a.term] for a in sorted(cut_arcs)],
        "target": {repr(a): str(v) for a, v in sorted(target.items())},
        "certified": curve is not None,
        "curve": None
        if curve is None
        else {repr(a): poly_json(p) for a, p in sorted(curve.items())},
    }


def matching_json(m: Matching, jt: JordanType) -> dict:
    return {
        "N": jt.N,
        "n": jt.n,
        "arcs": [[a.init, a.term] for a in m.arcs],
        "word": bt_word(m, jt),
        "perm": list(matching_permutation(m, jt)),
    }


def template_json(ct: CellTemplate) -> dict:
    arc_index = {a: i for i, a in enumerate(ct.matching.arcs)}
    return {
        "N": ct.jt.N,
        "n": ct.jt.n,
        "matching": format_matching(ct.matching),
        "word": ct.word,
        "pivots": list(ct.w),
        "slots": [[r, c, arc_index[a]] for r, c, a in ct.slot_items()],
    }


def arc_letters(m: Matching) -> dict[Arc, str]:
    """Letters a, b, c, ... by start order; the labels used in diagrams.
    Past z, an arc is named by its place in that order: x_{27}, x_{28}, ...
    """
    names = "abcdefghijklmnopqrstuvwxyz"
    return {arc: names[i] if i < len(names) else f"x_{{{i + 1}}}" for i, arc in enumerate(m.arcs)}


def piece_json(piece: LabeledPiece) -> dict:
    return {
        "cut": [[a.init, a.term] for a in sorted(piece.cut_arcs)],
        "base": format_matching(piece.base),
        "labels": {
            repr(arc): (None if lab is ZERO else repr(lab))
            for arc, lab in sorted(piece.labels.items())
        },
        "dimension": piece.dimension,
    }


def decomposition_json(dec: ClosureDecomposition) -> dict:
    return {
        "matching": format_matching(dec.matching),
        "N": dec.jt.N,
        "n": dec.jt.n,
        "pieces": [piece_json(dec.pieces[s]) for s in dec.subsets()],
    }


def piece_label_text(piece: LabeledPiece, letters: Mapping[Arc, str]) -> str:
    if not piece.base.arcs:
        return "point"
    parts = []
    for arc in piece.base.arcs:
        lab = piece.labels[arc]
        name = "0" if lab is ZERO else letters[lab]
        parts.append(f"{arc!r}↦{name}")
    return ", ".join(parts)


def decomposition_dot(dec: ClosureDecomposition) -> str:
    """Hasse-style DOT graph: nodes are pieces, edges single extra cuts."""
    letters = arc_letters(dec.matching)
    subsets = dec.subsets()
    ids = {s: f"p{i}" for i, s in enumerate(subsets)}
    lines = ["digraph closure {", '  rankdir="TB";', '  node [shape=box];']
    for s in subsets:
        piece = dec.pieces[s]
        base = format_matching(piece.base) or "(no arcs)"
        label = piece_label_text(piece, letters)
        lines.append(f'  {ids[s]} [label="{base}\\n{label}"];')
    for s in subsets:
        for arc in dec.matching.arcs:
            if arc in s:
                continue
            bigger = frozenset(s | {arc})
            lines.append(f'  {ids[s]} -> {ids[bigger]} [label="cut {letters[arc]}"];')
    lines.append("}")
    return "\n".join(lines)


def template_latex(ct: CellTemplate) -> str:
    rows = instantiate(ct, arc_letters(ct.matching)).rows
    body = " \\\\\n".join(" & ".join(map(str, row)) for row in rows)
    return f"\\left(\\begin{{array}}{{{'c' * ct.jt.N}}}\n{body}\n\\end{{array}}\\right)"


def dumps(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, on
    str-keyed dicts, lists, str, int, bool and None; any other value, such
    as a float, a tuple or a key that is not a str, raises TypeError.

    The standard library's indenting encoder is built of nested closures
    that refer to each other, so each of its calls leaves cyclic garbage;
    this emitter is one module-level recursion and leaves none.
    """
    out: list[str] = []
    _emit(payload, "", "\n", out)
    return "".join(out)


def _emit(x, sep: str, newline: str, out: list[str]) -> None:
    """Append sep and the JSON text of x to out, a scalar as one fragment
    with sep; the inner lines of x start with ``newline`` and two more
    spaces.
    """
    if isinstance(x, str):
        out.append(sep + encode_basestring_ascii(x))
    elif x is None:
        out.append(sep + "null")
    elif isinstance(x, bool):  # before int, its base
        out.append(sep + ("true" if x else "false"))
    elif isinstance(x, int):
        out.append(sep + int.__repr__(x))
    elif isinstance(x, (list, dict)):
        brackets = "{}" if isinstance(x, dict) else "[]"
        if not x:
            out.append(sep + brackets)
            return
        inner = newline + "  "
        sep += brackets[0] + inner
        for item in sorted(x.items()) if brackets == "{}" else x:
            if brackets == "{}":  # a key that is not a str raises TypeError here
                key, item = item
                sep = f"{sep}{encode_basestring_ascii(key)}: "
            _emit(item, sep, inner, out)
            sep = "," + inner
        out.append(newline + brackets[1])
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
