from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bowtie_graph,
    complete_graph,
    cycle_graph,
    fig_five_vertex_graph,
    path_graph,
)
from securedom import (
    DomainError,
    Graph,
    enumerate_connected_graphs,
    is_connected_dominating,
    is_dominating,
    is_scds,
    is_scds_definition,
    is_secure_dominating,
    is_stds,
    is_total_dominating,
)
from securedom.families import FamilySpec, generate
from securedom.graph import parse_vertex_set
from securedom.crosscheck import random_graph
from securedom.verify import VARIANTS, _swap_check, check_variant, failure_reason


def ladder3():
    return generate(FamilySpec("ladder", 3))


def all_subsets(n):
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            yield frozenset(combo)


def test_is_dominating():
    assert is_dominating(path_graph(3), {1})
    assert not is_dominating(path_graph(4), {0})
    assert is_dominating(fig_five_vertex_graph(), {2})
    assert not is_dominating(path_graph(1), set())


def test_is_connected_dominating():
    p4 = path_graph(4)
    assert is_connected_dominating(p4, {1, 2})
    assert not is_connected_dominating(p4, {0, 3})
    assert is_connected_dominating(bowtie_graph(), {2})
    assert not is_connected_dominating(p4, set())


def test_is_total_dominating():
    assert is_total_dominating(path_graph(4), {1, 2})
    assert not is_total_dominating(path_graph(3), {1})
    assert is_total_dominating(cycle_graph(4), {0, 1})


def test_scds_definition_examples():
    ok, dmap = is_scds_definition(complete_graph(4), {0})
    assert ok
    assert all(dmap[u] == {0} for u in (1, 2, 3))
    ok, _ = is_scds_definition(path_graph(4), {1, 2})
    assert not ok
    ok, _ = is_scds_definition(ladder3(), {0, 1, 2, 4})
    assert ok


def test_scds_characterization_examples():
    assert is_scds(complete_graph(4), {0})
    assert not is_scds(path_graph(4), {1, 2})
    # one-member sets are secure exactly on complete graphs
    assert not is_scds(path_graph(3), {1})


def test_is_secure_dominating():
    assert is_secure_dominating(complete_graph(3), {0})
    assert not is_secure_dominating(path_graph(3), {1})
    assert is_secure_dominating(path_graph(3), {0, 2})


def test_is_stds():
    assert is_stds(cycle_graph(4), {0, 1, 2})[0]
    assert not is_stds(path_graph(4), {1, 2})[0]
    assert is_stds(complete_graph(4), {0, 1})[0]
    assert is_stds(path_graph(2), set()) == (False, {})


def test_defender_map_on_failure_names_undefended_vertex():
    ok, dmap = is_stds(path_graph(4), {1, 2})
    assert not ok
    assert [u for u, d in dmap.items() if not d] == [0]


def test_checkers_agree_on_all_subsets_of_small_connected_graphs():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for s in all_subsets(n):
                assert is_scds_definition(g, s)[0] == is_scds(g, s)


def test_secure_connected_and_total_sets_cover_outside_vertices_twice():
    # the exact search drops candidates that fail this before the checker:
    # a swap of u for v leaves u needing a neighbour in S - v
    accepted = 0
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            for s in all_subsets(n):
                if len(s) < 2 or not (is_scds_definition(g, s)[0] or is_stds(g, s)[0]):
                    continue
                outside = [u for u in range(n) if u not in s]
                accepted += bool(outside)
                for u in outside:
                    assert len(s.intersection(g.adj[u])) >= 2, (n, g.edges(), sorted(s), u)
    assert accepted > 0


def test_full_vertex_set_is_always_secure_on_connected_graphs():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            everything = frozenset(range(n))
            assert is_connected_dominating(g, everything)
            assert is_scds_definition(g, everything)[0]


def test_secure_sets_contain_leaves_and_supports_and_never_use_them_as_defenders():
    for n in range(3, 6):
        for g in enumerate_connected_graphs(n):
            mandatory = g.leaves() | g.supports()
            for s in all_subsets(n):
                ok, dmap = is_scds_definition(g, s)
                if not ok:
                    continue
                assert mandatory <= s
                for defenders in dmap.values():
                    assert not (defenders & mandatory)


def test_secure_sets_stay_dominating_after_any_single_removal():
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            if g.is_complete():
                continue
            for s in all_subsets(n):
                if not is_scds_definition(g, s)[0]:
                    continue
                for v in s:
                    assert is_dominating(g, s - {v})


def test_defender_maps_list_only_adjacent_members():
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            for s in all_subsets(n):
                _, dmap = is_scds_definition(g, s)
                for u, defenders in dmap.items():
                    assert u not in s
                    for v in defenders:
                        assert v in s
                        assert v in g.adj[u]


# The base check of each secure variant; the literal swap loop re-runs it
# after every swap.
SECURE_BASES = {
    "sds": is_dominating,
    "scds": is_connected_dominating,
    "stds": is_total_dominating,
}


def _assert_fast_matches_literal(g, s, counts):
    """For each secure variant whose base property S has, the fast checker and
    failure_reason agree with the literal swap loop, down to the vertex named."""
    for variant, base in SECURE_BASES.items():
        if not s and variant == "stds" or not base(g, s):
            continue
        counts[variant] += 1
        ok, dmap = _swap_check(g, set(s), base)
        case = (g.n, g.edges(), sorted(s), variant)
        # the loop stops at the first undefended vertex: the map holds at
        # most one empty entry, the last one inserted, and none when S passes
        undefended = [u for u, d in dmap.items() if not d]
        assert undefended == ([] if ok else [list(dmap)[-1]]), case
        expected = None if ok else f"vertex {undefended[0]} has no valid defender"
        assert check_variant(g, variant, s) == ok, case
        assert failure_reason(g, variant, s) == expected, case


def test_local_swap_rules_match_literal_swap_loop_on_all_small_graphs():
    counts = dict.fromkeys(SECURE_BASES, 0)
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            for s in all_subsets(n):
                _assert_fast_matches_literal(g, s, counts)
    assert sum(counts.values()) == 13_361
    assert min(counts.values()) > 0


def test_local_swap_rules_match_literal_swap_loop_on_seeded_gnp():
    counts = dict.fromkeys(SECURE_BASES, 0)
    for seed in range(72):
        n = 7 + seed % 3
        g = random_graph(n, 0.25 + 0.15 * (seed % 3), 500 + seed)
        for s in all_subsets(n):
            _assert_fast_matches_literal(g, s, counts)
    assert min(counts.values()) > 0


def test_checks_run_a_bounded_number_of_whole_graph_base_checks(monkeypatch):
    import securedom.verify as verify

    calls = []
    for name in ("_first_uncovered", "_induces_connected"):
        original = getattr(verify, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(verify, name, counted)
    # a path of 60 vertices: its interior is the secure connected set, and
    # dropping one interior vertex disconnects it
    g = Graph.from_edges(60, [(i, i + 1) for i in range(59)])
    interior = frozenset(range(1, 59))
    for variant, members in (
        ("scds", interior),
        ("sds", frozenset(range(0, 60, 2))),
        ("stds", interior),
        ("scds", interior - {30}),
        ("cds", interior),
    ):
        for check in (check_variant, failure_reason):
            calls.clear()
            check(g, variant, members)
            assert calls.count("_first_uncovered") == 1, variant
            assert calls.count("_induces_connected") == (variant in ("cds", "scds")), variant


def test_checker_table_covers_every_variant():
    with pytest.raises(DomainError, match="unknown variant 'xds'"):
        check_variant(path_graph(3), "xds", {1})


# The public boolean of each variant; the literal stds check is the public one
# for stds, whose fast checker is reached through check_variant.
PUBLIC_CHECKS = {
    "ds": is_dominating,
    "cds": is_connected_dominating,
    "tds": is_total_dominating,
    "sds": is_secure_dominating,
    "scds": is_scds,
    "stds": is_stds,
}


@pytest.mark.parametrize("g", [path_graph(2), path_graph(3)], ids=["K2", "P3"])
def test_members_outside_the_range_raise_the_graphs_range_error(g):
    # -1 would index the last row, and n would overrun the rows
    outside = r"vertex -?\d+ outside range 0\.\.\d+"
    for members in ({-1}, {g.n}, {0, g.n + 2}):
        for variant in VARIANTS:
            for check in (
                lambda: check_variant(g, variant, members),
                lambda: failure_reason(g, variant, members),
                lambda: PUBLIC_CHECKS[variant](g, members),
            ):
                with pytest.raises(DomainError, match=outside):
                    check()


def test_the_empty_graph_names_its_empty_range():
    empty = Graph.from_edges(0, [])
    text = "^vertex 0 outside range: the graph has no vertices$"
    with pytest.raises(DomainError, match=text):
        failure_reason(empty, "ds", [0])
    with pytest.raises(DomainError, match=text):
        parse_vertex_set("0", empty)
    with pytest.raises(DomainError, match=r"^vertex 3 outside range 0\.\.2$"):
        parse_vertex_set("1,3", path_graph(3))


def test_checkers_are_total_on_disconnected_graphs():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected_dominating(g, {0, 1})
    assert not is_scds_definition(g, {0, 2})[0]
    assert not is_scds(g, {0, 2})
    assert is_dominating(g, {0, 2})


@st.composite
def graph_and_subset(draw, max_n: int = 7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    slots = list(combinations(range(n), 2))
    edges = (
        draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
        if slots
        else []
    )
    members = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return Graph.from_edges(n, edges), frozenset(members)


@settings(max_examples=300)
@given(graph_and_subset())
def test_checkers_agree_on_random_inputs(case):
    g, s = case
    assert is_scds_definition(g, s)[0] == is_scds(g, s)
