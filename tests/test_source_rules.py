"""Rules every module of the package keeps, checked on its source."""

from __future__ import annotations

import ast

import pytest

from conftest import SRC
from securedom.report import METHOD_BLOCK, formula_report


def _nodes():
    """(module file name, node) for every AST node of the package."""
    modules = sorted((SRC / "securedom").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            yield path.name, node


def test_no_module_relies_on_assert():
    # python -O strips assert statements, so an invariant they guard would
    # silently go unchecked; invariants raise instead
    assert [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)] == []


def test_only_report_and_exact_build_solve_reports():
    # every closed-form answer goes through report.formula_report, which
    # checks its witness size; the exact search builds its own report
    builders = {
        name
        for name, node in _nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "SolveReport"
    }
    assert builders == {"report.py", "exact.py"}


def test_every_private_helper_is_used_in_the_package():
    # a private top-level function or class that no package code names
    # outside its own definition is dead, even when a test still calls it
    name_field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    nodes = list(_nodes())
    own: dict[tuple[str, str], set[int]] = {}  # each helper's own nodes
    refs: dict[str, list[int]] = {}  # every node that names an identifier
    for module, node in nodes:
        if isinstance(node, ast.Module):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                    if not stmt.name.endswith("__"):
                        own[module, stmt.name] = {id(n) for n in ast.walk(stmt)}
        if type(node) in name_field:
            refs.setdefault(getattr(node, name_field[type(node)]), []).append(id(node))
    assert own
    dead = [
        f"{module}:{name}" for (module, name), body in own.items() if all(r in body for r in refs.get(name, []))
    ]
    assert dead == []


def test_formula_report_refuses_a_witness_of_the_wrong_size():
    assert formula_report(METHOD_BLOCK, 2, frozenset({0, 3}), 0.0)[:4] == ("scds", 2, frozenset({0, 3}), METHOD_BLOCK)
    with pytest.raises(RuntimeError, match="^block_formula witness size disagrees with the formula$"):
        formula_report(METHOD_BLOCK, 3, frozenset({0, 3}), 0.0)
