"""The validation layer's outputs and refusals, pinned: the text each random
grid prints, the refusals of the grids and seeded generators, and what the
structural audit of a secure-connected certificate flags."""

from __future__ import annotations

import hashlib
from itertools import combinations

import pytest

from conftest import path_graph
from securedom import (
    DomainError,
    crosscheck,
    enumerate_connected_graphs,
    random_block_graph,
    random_graph,
    random_split_graph,
    random_threshold_graph,
    random_tree,
    solve,
)
from securedom.cli import main

# sha256 of "exit <code>\n" followed by the stdout of ``securedom crosscheck ARGV``.
GRID_DIGESTS = {
    ("--grid", "all"): "bab0d2dd7832202fc35eb432333c5d824404a33c35dd2934e5cc808ef4787497",
    ("--grid", "trees", "--count", "60", "--seed", "1733"): "9b2cc31720179f98d7272bf5ecbffe61fe67e345e0148edca0c82902d9b34ed7",
    ("--grid", "block", "--count", "60", "--seed", "1733"): "1b02e653c949903e6a9de44f8748be7e9b028e69eec5a8c91e9feeca71557888",
    ("--grid", "threshold", "--count", "60", "--seed", "1733"): "2ec7fdba294a40c8d8dc909859dd78715b1bc62effe154fb21e76770c95a8da3",
}


@pytest.mark.parametrize("argv", list(GRID_DIGESTS), ids=lambda argv: " ".join(argv))
def test_grid_output_is_pinned(argv, capsys):
    code = main(["crosscheck", *argv])
    out = capsys.readouterr().out
    digest = hashlib.sha256(f"exit {code}\n{out}".encode()).hexdigest()
    assert digest == GRID_DIGESTS[argv]


def test_random_grids_refuse_a_too_small_max_n():
    for runner, smallest in (
        (crosscheck.trees_grid, 3),
        (crosscheck.block_grid, 2),
        (crosscheck.threshold_grid, 1),
    ):
        grid = runner.__name__.removesuffix("_grid")
        with pytest.raises(DomainError) as caught:
            runner(count=1, max_n=smallest - 1)
        assert str(caught.value) == f"{grid} grid needs max_n >= {smallest}"


def test_generators_refuse_an_empty_graph():
    for make in (
        lambda: random_graph(0, 0.5, 1),
        lambda: random_tree(0, 1),
        lambda: random_block_graph(0, 1),
        lambda: random_threshold_graph(0, 1),
        lambda: random_split_graph(0, 1),
    ):
        with pytest.raises(DomainError) as caught:
            make()
        assert str(caught.value) == "n must be at least 1"


def test_audit_flags_every_set_no_larger_than_the_domination_number():
    # A secure connected set of a non-complete graph has more members than
    # the domination number, so the audit must flag every smaller set.
    flagged = 0
    for n in range(1, 7):
        for graph in enumerate_connected_graphs(n):
            if graph.is_complete():
                continue
            gamma = solve(graph, "ds").value
            for size in range(1, gamma + 1):
                for s in combinations(range(n), size):
                    assert crosscheck.structural_audit(graph, frozenset(s)), (graph, s)
                    flagged += 1
    assert flagged == 2111


def test_audit_runs_no_search(monkeypatch):
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(crosscheck, "solve", counting_solve)
    graphs = [path_graph(4), *(g for g in enumerate_connected_graphs(5) if not g.is_complete())]
    for graph in graphs:
        witness = solve(graph, "scds").witness
        assert crosscheck.structural_audit(graph, witness) == []
    assert calls == []
