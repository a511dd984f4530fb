"""Rules every module of the package keeps, checked on its source."""

from __future__ import annotations

import ast

from conftest import SRC


def test_no_module_relies_on_assert():
    # python -O strips assert statements, so an invariant they guard would
    # silently go unchecked; invariants raise instead
    modules = sorted((SRC / "securedom").glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
