"""Guards over the package source that no installed linter runs."""

import ast
from pathlib import Path

import springer_cells

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
