"""The connectivity tests of the exact search and the checkers against the
component labeling they replaced, on one graph per isomorphism class with
n <= 6, connected or not."""

from __future__ import annotations

import pytest

from securedom import DomainError, Graph, exact, solve, verify
from securedom.exact import random_graph
from securedom.families import FamilySpec, generate
from securedom.verify import VARIANTS


def _every_class(n: int):
    """One graph per isomorphism class on n vertices, disconnected ones too."""
    slots = exact._edge_slots(n)
    seen: set[int] = set()
    for mask in range(1 << len(slots)):
        if mask not in seen:
            seen.update(exact._relabelings(n, mask))
            yield exact._graph_of_mask(n, mask)


CORPUS = [g for n in range(1, 7) for g in _every_class(n)]


def _closed_masks(graph: Graph) -> list[int]:
    return [sum(1 << w for w in nbrs) | 1 << v for v, nbrs in enumerate(graph.adj)]


def _members(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


# The component-labeling versions, as they stood before the member DFS.
def _old_is_connected_dominating(graph: Graph, members) -> bool:
    s = set(members)
    if not s:
        return False
    if not verify.is_dominating(graph, s):
        return False
    return graph.components(restrict=s).count == 1


def _old_connectivity_reason(graph: Graph, variant: str, members) -> str | None:
    s = frozenset(members)
    if variant in ("ds", "cds", "sds", "scds") and not verify.is_dominating(graph, s):
        covered = graph.closed_neighborhood(s)
        missed = min(v for v in range(graph.n) if v not in covered)
        return f"vertex {missed} is not dominated"
    if not s:
        return "set is empty"
    if graph.components(restrict=s).count != 1:
        return "induced subgraph is disconnected"
    return None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error type and text are part of the behaviour
        return type(exc), str(exc)


def test_corpus_holds_every_class():
    # OEIS A000088: graphs on n = 1..6 vertices up to isomorphism
    assert [sum(1 for g in CORPUS if g.n == n) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_mask_search_matches_component_labeling_on_every_subset():
    for g in CORPUS:
        cover = _closed_masks(g)
        for mask in range(1, 1 << g.n):
            expected = g.components(restrict=_members(mask)).count == 1
            assert exact._members_connected(cover, mask) == expected, (g, mask)


def test_connected_domination_matches_component_labeling_on_every_subset():
    for g in CORPUS:
        for mask in range(1 << g.n):
            s = _members(mask)
            assert verify.is_connected_dominating(g, s) == _old_is_connected_dominating(g, s), (g, s)
            for variant in ("cds", "scds"):
                reason = verify.failure_reason(g, variant, s)
                old = _old_connectivity_reason(g, variant, s)
                if old is None:
                    # past the connectivity test: only scds adds the swap rule
                    assert reason is None or (variant == "scds" and reason.endswith("no valid defender"))
                else:
                    assert reason == old, (g, variant, s)


@pytest.mark.parametrize("outside", [-1, -3, 6, 9])
def test_members_outside_the_range_behave_as_before(outside):
    graphs = [g for g in CORPUS if g.n in (3, 5)]
    for g in graphs:
        for mask in range(1 << g.n):
            s = _members(mask) | {outside}
            assert _outcome(verify.is_connected_dominating, g, s) == _outcome(_old_is_connected_dominating, g, s)
            for variant in ("cds", "scds"):
                new = _outcome(verify.failure_reason, g, variant, s)
                old = _outcome(_old_connectivity_reason, g, variant, s)
                if old is None:
                    assert new is None or new.endswith("no valid defender")
                else:
                    assert new == old, (g, variant, s)


def test_range_error_is_the_graphs_own():
    # -1 indexes the last row, so {-1, 0} counts as dominating the path 0-1-2
    # and the connectivity test is the first to see the stray member
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError, match=r"vertex -1 outside range 0\.\.2"):
        verify.is_connected_dominating(g, {-1, 0})


def _answer(report):
    return report.value, report.witness, report.nodes_explored


def test_connectivity_filter_changes_neither_answers_nor_candidate_counts(monkeypatch):
    cases = [g for g in CORPUS if g.is_connected()]
    cases += [random_graph(7 + seed % 3, 0.25 + 0.15 * (seed % 3), 900 + seed) for seed in range(12)]
    cases += [generate(FamilySpec("ladder", 6)), generate(FamilySpec("subdivided_wheel", 5))]
    for g in cases:
        variants = [v for v in VARIANTS if g.n >= 2 or v not in ("tds", "stds")]
        filtered = [_answer(solve(g, v)) for v in variants]
        with monkeypatch.context() as m:
            m.setattr(exact, "_members_connected", lambda cover, members: True)
            assert [_answer(solve(g, v)) for v in variants] == filtered, g


def test_the_checker_sees_only_connected_candidates(monkeypatch):
    checked = []
    for variant in ("cds", "scds"):
        check = verify.CHECKERS[variant]

        def record(graph, members, check=check):
            checked.append((graph, members))
            return check(graph, members)

        monkeypatch.setitem(verify.CHECKERS, variant, record)
    # the path 0-1-2-3-4 included: its forced set {0, 1, 3, 4} dominates every
    # vertex twice but is disconnected, so no candidate reaches the checker
    for g in CORPUS:
        if g.is_connected():
            solve(g, "cds")
            solve(g, "scds")
    assert checked
    assert all(g.components(restrict=s).count == 1 for g, s in checked)

    # ladder 9 scds: of the candidates reached, only the witness is connected
    checked.clear()
    report = solve(generate(FamilySpec("ladder", 9)), "scds")
    assert report.nodes_explored == 103_830
    assert [s for _, s in checked] == [report.witness]
