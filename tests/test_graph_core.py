from __future__ import annotations

import random
import warnings
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bowtie_graph, complete_graph, path_graph, star_graph
from securedom import DomainError, Graph, ParseError, from_edge_list, to_edge_list
from securedom.graph import format_vertex_set, parse_vertex_set


def test_parse_path():
    g = from_edge_list("0 1\n1 2")
    assert (g.n, g.m) == (3, 2)
    assert g.adj == ((1,), (0, 2), (1,))


def test_parse_collapses_duplicates_with_warning():
    with pytest.warns(UserWarning, match="duplicate"):
        g = from_edge_list("0 1\n0 1")
    assert (g.n, g.m) == (2, 1)


def test_parse_rejects_self_loop():
    with pytest.raises(ParseError, match="line 1"):
        from_edge_list("0 0")


def test_parse_rejects_negative_and_oversized_ids():
    with pytest.raises(ParseError, match="negative"):
        from_edge_list("0 -1")
    with pytest.raises(ParseError, match="too large"):
        from_edge_list(f"0 {10**8}")


def test_parse_reports_offending_line_number():
    with pytest.raises(ParseError, match="line 3"):
        from_edge_list("# comment\n0 1\n1 2 3")
    with pytest.raises(ParseError, match="line 2"):
        from_edge_list("0 1\nx y")


def test_parse_header_adds_isolated_vertices():
    g = from_edge_list("p 5 2\n0 1\n1 2")
    assert (g.n, g.m) == (5, 2)
    assert g.adj[4] == ()


def test_parse_header_must_cover_all_ids():
    with pytest.raises(ParseError, match="header declares 2"):
        from_edge_list("p 2 1\n0 2")


def test_parse_header_edge_count_mismatch_warns():
    with pytest.warns(UserWarning, match="header declares 3"):
        from_edge_list("p 3 3\n0 1")


def test_parse_skips_comments_and_blank_lines():
    g = from_edge_list("# a comment\n\n0 1\n# another\n1 2\n")
    assert (g.n, g.m) == (3, 2)


# One input per malformed-line class, with the exact ParseError text.
MALFORMED = [
    ("0 1\nx y\n", "line 2: non-numeric vertex id in 'x y'"),
    ("1 #2\n", "line 1: non-numeric vertex id in '1 #2'"),
    ("p 5\n", "line 1: header must be 'p <n> <m>'"),
    ("p 3 1\n0 1\np 3 1\n", "line 3: duplicate header"),
    ("p a 1\n", "line 1: non-numeric header field"),
    ("p -1 0\n", "line 1: header out of range"),
    ("0 1\n0 -1\n", "line 2: negative vertex id"),
    (f"0 {10**7}\n", "line 1: vertex id too large"),
    ("0 1\n  1 1  \n", "line 2: self-loop at vertex 1"),
    ("1 2 3\n", "line 1: expected 'u v', got '1 2 3'"),
    ("\t7\r\n", "line 1: expected 'u v', got '7'"),
    ("p 2 1\n0 2\n", "header declares 2 vertices but id 2 appears"),
    # the first bad line wins, whatever its class
    ("-1 0\n0 0\n", "line 1: negative vertex id"),
    ("0 0\n-1 0\n", "line 1: self-loop at vertex 0"),
]


@pytest.mark.parametrize("text,message", MALFORMED)
def test_parse_error_text_per_malformed_line_class(text, message):
    with pytest.raises(ParseError) as info:
        from_edge_list(text)
    assert str(info.value) == message


def test_hash_first_token_is_a_comment_line():
    g = from_edge_list("#1 2\n  # x y z\n0 1\n")
    assert (g.n, g.m) == (2, 1)


def _parse_recording_warnings(text: str):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph = from_edge_list(text)
    return graph, [str(w.message) for w in caught]


def test_parse_warnings_pinned():
    g, messages = _parse_recording_warnings("0 1\n1 0\n0 1\n1 2\n")
    assert (g.n, g.m, g.adj) == (3, 2, ((1,), (0, 2), (1,)))
    assert messages == ["2 duplicate edge(s) collapsed"]
    g, messages = _parse_recording_warnings("p 4 3\n2 1\n1 2\n")
    assert (g.n, g.m) == (4, 1)
    assert messages == [
        "1 duplicate edge(s) collapsed",
        "header declares 3 edges but 1 unique edges parsed",
    ]
    _, messages = _parse_recording_warnings("p 3 2\n0 1\n1 2\n")
    assert messages == []
    # the header counts distinct edges, so a repeated line alone is no mismatch
    _, messages = _parse_recording_warnings("p 3 1\n0 1\n1 0\n")
    assert messages == ["1 duplicate edge(s) collapsed"]


def test_crlf_and_tab_input_parse_like_plain_input():
    plain = from_edge_list("p 5 3\n0 1\n1 2\n3 4\n")
    assert from_edge_list("p 5 3\r\n0 1\r\n1 2\r\n3 4\r\n") == plain
    assert from_edge_list("p\t5\t3\n0\t1\n\t1 \t2\t\n3\t4") == plain
    assert from_edge_list("# c\r\n\r\np 5 3\r\n0\t1\r\n1 2\n3 4\r\n") == plain


def _reference_adjacency(n: int, edges: list[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    directed = edges + [(v, u) for u, v in edges]
    return tuple(tuple(sorted(set(v for a, v in directed if a == u))) for u in range(n))


def test_from_edges_matches_literal_reference():
    rng = random.Random(20240605)
    for trial in range(60):
        n = rng.randint(1, 40)
        if n == 1:
            edges = []
        else:
            edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))]
            # repeat some edges, half of them reversed
            edges += [rng.choice([e, e[::-1]]) for e in rng.sample(edges, len(edges) // 3)]
            rng.shuffle(edges)
        g = Graph.from_edges(n, edges)
        assert g.adj == _reference_adjacency(n, edges), trial
        assert g.m == len({frozenset(e) for e in edges}), trial
        assert from_edge_list(to_edge_list(g)) == g


def test_neighbors():
    assert path_graph(3).neighbors(1) == {0, 2}
    assert complete_graph(4).neighbors(0) == {1, 2, 3}
    assert star_graph(3).neighbors(2) == {0}
    with pytest.raises(DomainError):
        path_graph(3).neighbors(3)


def test_closed_neighborhood():
    p4 = path_graph(4)
    assert p4.closed_neighborhood({1}) == {0, 1, 2}
    assert p4.closed_neighborhood(range(4)) == {0, 1, 2, 3}
    assert bowtie_graph().closed_neighborhood({2}) == {0, 1, 2, 3, 4}


def test_components_full_and_restricted():
    p4 = path_graph(4)
    assert p4.components().count == 1
    assert p4.components(restrict={0, 1, 3}).count == 2
    assert bowtie_graph().components(restrict={0, 1, 3, 4}).count == 2
    assert p4.components(restrict=set()).count == 0


def test_component_ids_assigned_by_first_discovery():
    g = Graph.from_edges(5, [(0, 1), (3, 4)])
    lab = g.components()
    assert lab.count == 3
    assert lab.labels == {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}


def test_serialization_examples():
    assert to_edge_list(path_graph(3)) == "p 3 2\n0 1\n1 2\n"
    assert to_edge_list(complete_graph(3)) == "p 3 3\n0 1\n0 2\n1 2\n"
    assert to_edge_list(Graph.from_edges(1, [])) == "p 1 0\n"


def test_from_edges_validates():
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(0, 3)])


def test_degree_and_leaves_and_supports():
    p4 = path_graph(4)
    assert [p4.degree(v) for v in range(4)] == [1, 2, 2, 1]
    assert p4.leaves() == {0, 3}
    assert p4.supports() == {1, 2}


def test_vertex_set_round_trip():
    g = path_graph(5)
    assert parse_vertex_set("3,0, 2", g) == {0, 2, 3}
    assert parse_vertex_set("", g) == frozenset()
    assert format_vertex_set({3, 0, 2}) == "0,2,3"
    with pytest.raises(ParseError):
        parse_vertex_set("1,a", g)
    with pytest.raises(DomainError):
        parse_vertex_set("9", g)


@st.composite
def graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    slots = list(combinations(range(n), 2))
    if not slots:
        return Graph.from_edges(n, [])
    edges = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    return Graph.from_edges(n, edges)


@given(graphs())
def test_serialization_round_trips(g):
    assert from_edge_list(to_edge_list(g)).adj == g.adj


@given(graphs())
def test_adjacency_is_symmetric_and_sorted(g):
    for u in range(g.n):
        assert list(g.adj[u]) == sorted(g.adj[u])
        for v in g.adj[u]:
            assert u in g.adj[v]
    assert sum(len(a) for a in g.adj) == 2 * g.m


def _union_find_component_count(g: Graph) -> int:
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in g.edges():
        parent[find(u)] = find(v)
    return len({find(v) for v in range(g.n)})


@settings(max_examples=200)
@given(graphs())
def test_component_count_matches_union_find(g):
    assert g.components().count == _union_find_component_count(g)
    assert g.is_connected() == (_union_find_component_count(g) == 1)


@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=127), max_size=120))
def test_parser_never_fails_with_anything_but_parse_error(text):
    import warnings as warnings_module

    with warnings_module.catch_warnings():
        warnings_module.simplefilter("ignore")
        try:
            from_edge_list(text)
        except ParseError:
            pass
