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
