"""Rules every module of the package keeps, checked on its source."""

from __future__ import annotations

import ast

import pytest

from conftest import SRC
from securedom.report import METHOD_BLOCK, formula_report

# Wrapped or read by name in perfbench/tracer.py (ROADMAP items 7 and 8), so
# the rules below keep them while the tracer does.
TRACER_BOUND = frozenset({"Graph.components", "SolveReport.nodes_explored"})


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


def test_only_reductions_build_makes_artifacts():
    # every gadget goes through reductions.build, which checks the kind, the
    # input and the parameter in one order and shifts the parameter by the
    # kind's offset
    nodes = list(_nodes())
    inside_build = {
        id(inner)
        for module, node in nodes
        if module == "reductions.py" and isinstance(node, ast.FunctionDef) and node.name == "build"
        for inner in ast.walk(node)
    }
    makers = [
        f"{module}:{node.lineno}"
        for module, node in nodes
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ReductionArtifact"
        and id(node) not in inside_build
    ]
    assert inside_build
    assert makers == []


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


def test_every_public_method_of_a_class_is_read_in_the_package():
    # a public method or property of a package class that no package code
    # reads as an attribute outside its own definition is dead, even when a
    # test still calls it
    nodes = list(_nodes())
    own = {
        f"{node.name}.{stmt.name}": (stmt.name, {id(n) for n in ast.walk(stmt)})
        for _, node in nodes
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
    }
    assert "Graph.edges" in own
    reads: dict[str, list[int]] = {}
    for _, node in nodes:
        if isinstance(node, ast.Attribute):
            reads.setdefault(node.attr, []).append(id(node))
    dead = [
        method
        for method, (name, body) in own.items()
        if method not in TRACER_BOUND and all(r in body for r in reads.get(name, []))
    ]
    assert dead == []


def test_every_record_field_is_read_in_the_package():
    # an annotated field of a package NamedTuple that no package code reads
    # as an attribute is dead, even when a test still reads it.  Besides the
    # tracer-bound fields, ComponentLabeling.labels is returned only by the
    # tracer-bound Graph.components.
    exempt = TRACER_BOUND | {"ComponentLabeling.labels"}
    nodes = [node for _, node in _nodes()]
    fields = {
        f"{node.name}.{stmt.target.id}": stmt.target.id
        for node in nodes
        if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) == "NamedTuple" for base in node.bases)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
    }
    assert "SolveReport.witness" in fields
    reads = {node.attr for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert [field for field, name in fields.items() if field not in exempt and name not in reads] == []


def test_every_raise_is_one_the_cli_maps():
    # cli.main turns these classes into exit codes 1, 2 and 4, so any other
    # exception would reach the user as a traceback.  Exempt: the
    # AttributeError of the package's module __getattr__ (PEP 562), and a
    # raise inside a try whose handler catches its class.
    mapped = {"DomainError", "ParseError", "RuntimeError"}
    stray = []

    def caught(handler: ast.ExceptHandler) -> set[str]:
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return {getattr(t, "id", getattr(t, "attr", None)) for t in types}

    def visit(module: str, node: ast.AST, function: str, catching: frozenset[str]) -> None:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", getattr(exc, "attr", None))
            pep562 = (module, function, name) == ("__init__.py", "__getattr__", "AttributeError")
            if name not in mapped | catching and not pep562:
                stray.append(f"{module}:{node.lineno}:{name}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Try):
            inner = catching.union(*map(caught, node.handlers))
            for stmt in node.body:
                visit(module, stmt, function, inner)
            rest = [*node.handlers, *node.orelse, *node.finalbody]
        else:
            rest = ast.iter_child_nodes(node)
        for child in rest:
            visit(module, child, function, catching)

    for module, node in _nodes():
        if isinstance(node, ast.Module):
            visit(module, node, "", frozenset())
    assert stray == []


def test_no_function_calls_itself():
    # each Python call nests a frame, so a walk that calls itself per level
    # ends in RecursionError (exit 4) on a deep enough input; walks keep an
    # explicit stack.  Only bare names count: super().__new__ is no self-call.
    calls = [
        f"{module}:{inner.lineno}"
        for module, node in _nodes()
        if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name) and inner.func.id == node.name
    ]
    assert calls == []


def test_every_imported_name_is_read_in_its_module():
    # an import that binds a name its module never reads is a leftover;
    # annotations count as reads
    bound: dict[tuple[str, str], int] = {}
    read = set()
    for module, node in _nodes():
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[module, alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add((module, node.id))
    assert ("verify.py", "bisect_right") in bound
    assert [f"{module}:{line}:{name}" for (module, name), line in bound.items() if (module, name) not in read] == []


def test_formula_report_refuses_a_witness_of_the_wrong_size():
    assert formula_report(METHOD_BLOCK, 2, frozenset({0, 3}))[:3] == (2, frozenset({0, 3}), METHOD_BLOCK)
    with pytest.raises(RuntimeError, match="^block_formula witness size disagrees with the formula$"):
        formula_report(METHOD_BLOCK, 3, frozenset({0, 3}))
