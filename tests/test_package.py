"""Guards over the package source that no installed linter runs, and over
the cyclic garbage its calls leave behind."""

import ast
import collections
import gc
import random
import re
from pathlib import Path
from types import ModuleType

import pytest

import springer_cells
from springer_cells.cells import build_template, cell_matrix, prefix_span_basis, verify_canonical, verify_springer
from springer_cells.closure import (
    _route,
    closure_decomposition,
    flag_necessary_conditions,
    synthesize_limit_curve,
    verify_limit_curve,
)
from springer_cells.cutting import labeled_cut, piece_matrix
from springer_cells.exact import canonical_reduce
from springer_cells.matchings import Arc, JordanType, enumerate_matchings, matching
from springer_cells.sampling import random_params

from helpers import collector_off

PACKAGE = Path(springer_cells.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names that an import binds and the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{node.lineno}: {name}")
    return unused


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d, e\nprint(sys, e)\n"
    assert unused_imports(source) == ["2: os", "3: d"]


def test_package_has_no_unused_imports():
    # __init__.py imports to re-export
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def definitions(source: str) -> list[str]:
    """The functions, classes and constants a module defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return names


def private_definitions(source: str) -> list[str]:
    """The private top-level definitions; dunder names are not private."""
    return [name for name in definitions(source) if name.startswith("_") and not name.startswith("__")]


def read_names(source: str) -> set[str]:
    """Names a module reads, as a variable or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_unread_private_definitions_are_found():
    source = "_A = 1\n_b: int = 2\n__all__ = []\n\ndef _f():\n    return _A\n\nclass _C:\n    pass\n\nx = y._b\n"
    assert private_definitions(source) == ["_A", "_b", "_f", "_C"]
    assert {"_A", "_b"} <= read_names(source) and not {"_f", "_C"} & read_names(source)


def test_package_reads_every_private_definition():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(read_names, sources.values()))
    found = {
        name: [d for d in private_definitions(source) if d not in read] for name, source in sources.items()
    }
    assert {name: names for name, names in found.items() if names} == {}


def public_definitions(source: str) -> list[str]:
    return [name for name in definitions(source) if not name.startswith("_")]


def test_unread_public_definitions_are_found():
    source = "A = 1\n_b = A\n\ndef f():\n    return g\n\nclass C:\n    pass\n"
    assert public_definitions(source) == ["A", "f", "C"]
    assert "A" in read_names(source) and not {"f", "C"} & read_names(source)


def test_every_public_definition_is_read():
    """A public function, class or constant is read, as a name or an
    attribute, somewhere in the package, the tests or the bench, or is
    named in README; a re-export from ``__init__`` is not a read.
    """
    root = Path(__file__).resolve().parent.parent
    scripts = [*PACKAGE.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "bench").glob("*.py")]
    read = set().union(*(read_names(path.read_text()) for path in scripts))
    read |= set(re.findall(r"\w+", (root / "README.md").read_text()))
    found = {
        path.name: [d for d in public_definitions(path.read_text()) if d not in read]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def _is_idempotent_test(node: ast.AST) -> bool:
    """Whether node compares some ``x * x`` with ``x``."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    dumps = [ast.dump(side) for side in sides]
    return any(
        isinstance(side, ast.BinOp)
        and isinstance(side.op, ast.Mult)
        and ast.dump(side.left) == ast.dump(side.right)
        and ast.dump(side.left) in dumps
        for side in sides
    )


def idempotent_tests(source: str) -> list[str]:
    """The function (or ``<module>``) around each comparison of ``x * x``
    with ``x``: the test for a pivot of 1 that only ``exact.is_one`` makes.
    """
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if _is_idempotent_test(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_idempotent_tests_are_found():
    source = "def f(p):\n    return p * p != p\n\ndef g(a, b):\n    return a * a == b or a * b == a\n"
    assert idempotent_tests(source) == ["f"]
    assert idempotent_tests("ok = v[0] == v[0] * v[0]\n") == ["<module>"]


def test_only_is_one_tests_for_a_pivot_of_one():
    found = {path.name: idempotent_tests(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {"exact.py": ["is_one"]}


def test_fq_oracle_takes_no_field_type():
    """The F_q oracle keeps F_q as int residues: from ``exact`` it imports
    ``mat_from_cols`` alone, and it names no field type and no span kernel.
    """
    source = (PACKAGE / "fqoracle.py").read_text()
    from_exact = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module in ("exact", "springer_cells.exact")
        for alias in node.names
    }
    assert from_exact == {"mat_from_cols"}
    assert not {"exact", "GFElement", "PrimeField", "SpanBasis"} & read_names(source)


def ring_parameters(source: str) -> list[str]:
    """The functions that take a parameter named ``ring``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if any(arg.arg == "ring" for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)):
                found.append(node.name)
    return found


def test_ring_parameters_are_found():
    source = "def f(x, ring=None):\n    pass\n\ndef g(*, ring):\n    pass\n\ndef h(rings):\n    pass\n"
    assert ring_parameters(source) == ["f", "g"]


def test_no_function_takes_a_ring():
    """Entries carry their own arithmetic and the library builds Q, so no
    function takes a ring, and no module names the field and ring objects
    that only tests need (the tests drive the readers over F_p and Q[t]
    through reference types of their own), the Q namespace whose zero and
    one are 0 and 1, or the split-frame wrappers that ``SplitData`` holds.
    """
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, src in sources.items() if (found := ring_parameters(src))} == {}
    gone = {"GFElement", "PrimeField", "POLY_RING", "_PolyRing", "_is_prime"}
    gone |= {"QQ", "_Rationals", "_Chi", "_chi_frame", "in_span"}
    named = {name: gone & (read_names(src) | set(definitions(src))) for name, src in sources.items()}
    assert {name: names for name, names in named.items() if names} == {}


def test_poly_is_a_curve_value():
    """``Poly`` builds, compares and evaluates a limit curve and has no
    arithmetic: the tests' ``QtPoly`` adds the Q[t] operations.
    """
    tree = ast.parse((PACKAGE / "exact.py").read_text())
    (poly,) = (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Poly")
    defined = set(definitions(ast.unparse(ast.Module(poly.body, type_ignores=[]))))
    assert {"__init__", "__eq__", "__call__", "degree"} <= defined
    assert defined & {"__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "coeff"} == set()


def memoized_functions(source: str) -> list[str]:
    """The functions decorated with ``functools.cache`` or ``lru_cache``,
    spelled bare, through ``functools`` or called with arguments.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("cache", "lru_cache"):
                    found.append(node.name)
    return found


def test_memoized_functions_are_found():
    source = (
        "@cache\ndef f():\n    pass\n\n@functools.lru_cache(maxsize=2)\ndef g():\n    pass\n\n"
        "@property\ndef h(self):\n    pass\n\n@cached_property\ndef k(self):\n    pass\n"
    )
    assert memoized_functions(source) == ["f", "g"]


def test_memos_are_the_ones_readme_names():
    """The package memoizes exactly these functions, each without a bound,
    and README's memo paragraph names each one: a new memo is named in
    both places.
    """
    memos = [name for path in sorted(PACKAGE.glob("*.py")) for name in memoized_functions(path.read_text())]
    assert sorted(memos) == ["_labeled_piece", "_matchings", "_route", "build_template"]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert [name for name in memos if f"`{name}`" not in readme] == []


@pytest.mark.parametrize("not_a_type", [Arc(2, 4), (2, 4)], ids=repr)
def test_memos_answer_a_non_type_as_they_do_cold(not_a_type):
    """``Arc(2, 4)`` and ``(2, 4)`` equal ``JordanType(2, 4)`` as tuples but
    have no ``n`` or ``N``: every memo keyed on a Jordan type raises for
    them as it does cold, also once the equal type is memoized.
    """
    jt = JordanType(2, 4)
    m = matching(4, [(1, 4), (2, 3)])
    calls = [
        lambda t: enumerate_matchings(t),
        lambda t: build_template(m, t),
        lambda t: labeled_cut(m, [Arc(1, 4)], t),
        lambda t: _route(m, t),
    ]
    for call in calls:
        call(jt)
        with pytest.raises(AttributeError):
            call(not_a_type)


def test_all_lists_no_submodule():
    """``__all__`` lists what the package exports, not the submodules its
    own imports bind, so ``import *`` shadows no module name of a caller.
    """
    assert [name for name in springer_cells.__all__ if isinstance(getattr(springer_cells, name), ModuleType)] == []
    star: dict = {}
    exec("from springer_cells import *", star)
    submodules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert submodules & set(star) == set()
    assert {"Arc", "JordanType", "cut", "ancestors"} <= set(star)


def test_library_calls_leave_no_reference_cycles():
    """The cell, kernel and closure calls leave no cyclic garbage, so the
    collector never has to run for them: over every cell of type (4,8) and
    every piece of its closure, ``gc.collect()`` after each call finds
    nothing.  ``textio.dumps`` is checked in ``test_textio``.
    """
    jt = JordanType(4, 8)
    rng = random.Random(0)
    found = collections.Counter()
    with collector_off():
        for m in enumerate_matchings(jt):
            g = cell_matrix(m, jt, random_params(m.arcs, rng))
            found["cell_matrix"] += gc.collect()
            assert verify_canonical(g)
            found["verify_canonical"] += gc.collect()
            assert verify_springer(g, jt)
            found["verify_springer"] += gc.collect()
            for i in range(jt.N + 1):
                prefix_span_basis(g, i)
                found["prefix_span_basis"] += gc.collect()
            assert canonical_reduce(g.rows) == g.rows
            found["canonical_reduce"] += gc.collect()
            dec = closure_decomposition(m, jt)
            found["closure_decomposition"] += gc.collect()
            for cut, piece in dec.pieces.items():
                target = random_params([a for a in m.arcs if a not in cut], rng)
                curve = synthesize_limit_curve(m, jt, cut, target)
                found["synthesize_limit_curve"] += gc.collect()
                assert verify_limit_curve(m, jt, curve, piece, target)
                found["verify_limit_curve"] += gc.collect()
                assert flag_necessary_conditions(m, jt, piece_matrix(piece, target)) == []
                found["flag_necessary_conditions"] += gc.collect()
    assert found == dict.fromkeys(found, 0)
