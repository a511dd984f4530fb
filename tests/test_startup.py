"""What a start of the program loads, and the package surface that keeps it
small: lazy package exports, the parser's vocabulary in the package root,
json only for JSON output, and the NamedTuple records on the solve path."""

from __future__ import annotations

import argparse
import ast
import inspect

import pytest

import securedom
from conftest import block_counts, path_graph, run_python
from securedom import crosscheck, exact, families, fast, graph, reductions, verify
from securedom.cli import build_parser

P4 = "0 1\n1 2\n2 3\n"

# A fresh interpreter runs ``python -m securedom ARGV`` and reports, as the
# last stderr line, the modules the run added to sys.modules.  The probe
# writes a repr, not JSON, so that json is loaded only if the run loads it.
START_PROBE = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["securedom", *{argv!r}]
try:
    runpy.run_module("securedom", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(repr((code, sorted(set(sys.modules) - before))), file=sys.stderr)
"""

SOLVERS = {"securedom.fast", "securedom.exact"}
BUILDERS = {"securedom.families", "securedom.reductions", "securedom.crosscheck"}


def _start(argv: list[str]) -> tuple[int, set[str]]:
    result = run_python(START_PROBE.format(argv=argv))
    code, added = ast.literal_eval(result.stderr.splitlines()[-1])
    return code, set(added)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    path = tmp_path / "p4.el"
    path.write_text(P4)
    runs = {
        "help": ["--help"],
        "recognize": ["recognize", "--in", str(path)],
        "gamma": ["gamma", "--in", str(path)],
        "verify": ["verify", "--in", str(path), "--set", "1,2"],
        "reduce": ["reduce", "--kind", "dm_to_scdm", "--param", "1", "--in", str(path)],
        "family": ["family", "--kind", "ladder", "--n", "4"],
        "exact": ["gamma", "--method", "exact", "--in", str(path)],
        "crosscheck": ["crosscheck", "--grid", "trees", "--count", "1"],
        "families_grid": ["crosscheck", "--grid", "families"],
        "equivalence": ["check-equivalence", "--kind", "dm_to_scdm", "--in", str(path)],
    }
    added = {}
    for name, argv in runs.items():
        code, added[name] = _start(argv)
        assert code == 0, name
        assert "dataclasses" not in added[name], name
    package = {m for m in added["help"] if m.startswith("securedom")}
    assert package == {"securedom", "securedom.cli", "securedom.graph"}
    assert not added["verify"] & (SOLVERS | BUILDERS)
    assert "securedom.verify" in added["verify"]
    for name in ("gamma", "recognize"):
        assert not added[name] & BUILDERS, name
        assert "securedom.fast" in added[name], name
    # P4 is a block graph, so neither command reaches the exact search.
    assert not added["recognize"] & {"securedom.exact", "securedom.verify"}
    assert "securedom.exact" not in added["gamma"]
    # The universal gadget needs neither the split helpers nor the search,
    # and a family without --emit-witness checks no witness.
    assert not added["reduce"] & {"securedom.fast", "securedom.exact", "securedom.verify"}
    assert "securedom.verify" not in added["family"]
    # The dispatch lives in the root: the search alone loads no formula.
    assert not added["exact"] & (BUILDERS | {"securedom.fast"})
    assert {"securedom.exact", "securedom.verify"} <= added["exact"]
    # Each grid loads its own modules; the trees grid needs no builder.
    assert not added["crosscheck"] & {"securedom.families", "securedom.reductions"}
    assert not added["families_grid"] & {"securedom.fast", "securedom.reductions"}
    assert not added["equivalence"] & {"securedom.fast", "securedom.families", "securedom.crosscheck"}


def test_bare_package_import_loads_no_submodule():
    result = run_python(
        "import sys\n"
        "import securedom\n"
        "# the vocabulary exports are the root's own objects\n"
        "securedom.VARIANTS, securedom.FAMILY_KINDS, securedom.REDUCTION_KINDS\n"
        "print(sorted(m for m in sys.modules if m.startswith('securedom.')))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_the_dispatch_and_the_solve_record_load_no_submodule():
    result = run_python(
        "import sys\n"
        "from securedom import gamma, SolveReport, formula_report, trivial_complete, METHOD_EXACT\n"
        "print(sorted(m for m in sys.modules if m.startswith('securedom.')))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_only_json_output_loads_json(tmp_path):
    path = tmp_path / "p4.el"
    path.write_text(P4)
    runs = {
        "help": (["--help"], 0),
        "usage": (["gamma", "--variant", "nope", "--in", str(path)], 2),
        "gamma": (["gamma", "--in", str(path)], 0),
        "recognize": (["recognize", "--in", str(path)], 0),
        "json": (["--format", "json", "gamma", "--in", str(path)], 0),
    }
    for name, (argv, expected) in runs.items():
        code, added = _start(argv)
        assert code == expected, name
        assert ("json" in added) == (name == "json"), name


def test_lazy_exports_resolve_to_their_home_objects():
    assert securedom.__all__ == sorted(securedom.__all__)
    assert len(securedom.__all__) == 44
    # SolveReport and gamma are the root's own; the rest load from a submodule
    homes = {
        name: getattr(securedom, module) for module, exported in securedom._EXPORTS.items() for name in exported
    }
    homes.update(SolveReport=securedom, gamma=securedom)
    assert sorted(homes) == securedom.__all__
    for name in securedom.__all__:
        home = homes[name]
        obj = getattr(securedom, name)
        assert obj is getattr(home, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__, name
    namespace: dict = {}
    exec("from securedom import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == securedom.__all__
    assert all(namespace[name] is getattr(securedom, name) for name in namespace)
    assert set(securedom.__all__) <= set(dir(securedom))
    with pytest.raises(AttributeError, match="no_such_name"):
        securedom.no_such_name  # noqa: B018


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, dict[str, argparse.Action]]:
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest: a for a in p._actions} for name, p in sub.choices.items()}


def test_parser_vocabulary_is_the_library_tables():
    commands = _subcommands(build_parser())
    for name in ("gamma", "verify"):
        assert commands[name]["variant"].choices is verify.VARIANTS
    for name in ("gamma", "verify", "recognize", "reduce", "check-equivalence"):
        assert commands[name]["family"].choices is families.FAMILY_KINDS
    assert commands["family"]["kind"].choices is families.FAMILY_KINDS
    assert commands["gamma"]["method"].choices is securedom.METHODS
    assert commands["gamma"]["max_n"].default == exact.DEFAULT_MAX_N
    for name in ("reduce", "check-equivalence"):
        assert list(commands[name]["kind"].choices) == sorted(reductions.REDUCTION_KINDS)
    assert commands["crosscheck"]["grid"].choices == (*crosscheck.GRID_RUNNERS, "all")
    assert commands["crosscheck"]["seed"].default == crosscheck.DEFAULT_SEED

    # The library binds its names to the package root's objects.
    assert verify.VARIANTS is securedom.VARIANTS and exact.VARIANTS is securedom.VARIANTS
    assert families.FAMILY_KINDS is securedom.FAMILY_KINDS
    assert exact.DEFAULT_MAX_N is securedom.DEFAULT_MAX_N
    assert crosscheck.DEFAULT_SEED is securedom.DEFAULT_SEED
    assert reductions.REDUCTION_KINDS is securedom.REDUCTION_KINDS
    assert securedom.REDUCTION_KIND_NAMES == tuple(sorted(reductions.REDUCTION_KINDS))
    assert securedom.GRID_NAMES == tuple(crosscheck.GRID_RUNNERS)
    for fn in (exact.solve, securedom.gamma):
        assert inspect.signature(fn).parameters["max_n"].default is securedom.DEFAULT_MAX_N
    assert commands["check-equivalence"]["max_output_n"].default == securedom.DEFAULT_MAX_N
    assert (
        inspect.signature(reductions.check_equivalence).parameters["max_output_n"].default
        is securedom.DEFAULT_MAX_N
    )
    for runner in (crosscheck.trees_grid, crosscheck.reductions_grid):
        assert inspect.signature(runner).parameters["seed"].default is securedom.DEFAULT_SEED


def _records() -> dict[type, object]:
    g = path_graph(4)
    threshold = graph.Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    return {
        graph.Graph: g,
        graph.ComponentLabeling: g.components(),
        securedom.SolveReport: exact.solve(g, "scds"),
        fast.BlockDecomposition: fast.block_decompose(g),
        fast.SplitPartition: fast.recognize_split(g),
        fast.SplitRejection: fast.recognize_split(graph.Graph.from_edges(4, [(0, 1), (2, 3)])),
        fast.ThresholdOrdering: fast.recognize_threshold(threshold),
        fast.ThresholdRejection: fast.recognize_threshold(g),
    }


def test_solve_path_records_keep_their_repr_hash_and_immutability():
    records = _records()
    for cls, record in records.items():
        assert type(record) is cls
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1

    g = graph.Graph.from_edges(3, [(1, 2), (0, 1)])
    assert repr(g) == "Graph(n=3, adj=((1,), (0, 2), (1,)), m=2)"
    assert hash(g) == hash((3, ((1,), (0, 2), (1,)), 2))
    solved = securedom.SolveReport(1, frozenset({0}), "trivial_complete", 0)
    assert repr(solved) == (
        "SolveReport(value=1, witness=frozenset({0}), method='trivial_complete', nodes_explored=0)"
    )

    rejection = fast.SplitRejection("no split partition")
    assert (rejection.obstruction, rejection.obstruction_kind) == (None, None)
    assert fast.ThresholdRejection._fields == ("reason",)
    assert fast.ThresholdOrdering._fields == ("clique_order", "independent_order")
    blocks = records[fast.BlockDecomposition]
    assert block_counts(blocks) == (3, 2, 1)

    # The documented change: a record is a tuple of its fields.
    n, adj, m = g
    assert g == (n, adj, m)


# Texts recorded from the dataclass versions of the builder records.
BAD_SPECS = [
    (("nope", 3), "unknown family kind 'nope'"),
    (("ladder", 2), "family ladder needs n >= 3, got 2"),
    (("star", 1), "family star needs n >= 2, got 1"),
    (("ladder", 5000001), "family ladder with n=5000001 would have 10000002 vertices; the cap is 10000000"),
    (("complete", 10000), "family complete with n=10000 would have 49995000 edges; the cap is 20000000"),
]


def test_builder_records_keep_their_validation_repr_and_hash():
    for args, text in BAD_SPECS:
        with pytest.raises(graph.DomainError) as caught:
            families.FamilySpec(*args)
        assert str(caught.value) == text

    spec = families.FamilySpec("book", 3)
    assert repr(spec) == "FamilySpec(kind='book', n=3)"
    assert spec == families.FamilySpec(kind="book", n=3) and hash(spec) == hash(families.FamilySpec("book", 3))
    edge = graph.Graph.from_edges(2, [(0, 1)])
    artifact = reductions.ReductionArtifact(edge, 2, {0: "v0", 1: "x"})
    assert repr(artifact) == (
        "ReductionArtifact(output_graph=Graph(n=2, adj=((1,), (0,)), m=1), "
        "output_parameter=2, provenance={0: 'v0', 1: 'x'})"
    )
    assert reductions.ReductionArtifact._fields == ("output_graph", "output_parameter", "provenance")
    assert reductions.EquivalenceReport._fields == ("source_value", "target_value", "rows")
    report = reductions.check_equivalence("dm_to_scdm", edge)
    assert repr(report.rows) == (
        "(SweepRow(t=1, source_holds=True, target_holds=True), "
        "SweepRow(t=2, source_holds=True, target_holds=True))"
    )
    assert (report.all_match, report.first_mismatch) == (True, None)
    assert reductions.SweepRow(3, True, False).match is False
    assert repr(crosscheck.CheckResult("x", True)) == "CheckResult(name='x', passed=True, detail='')"

    for record in (spec, artifact, report, report.rows[0], crosscheck.CheckResult("x", True)):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1
