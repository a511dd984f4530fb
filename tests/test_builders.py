"""The graph builders against the edge-list definitions they replaced.

Each reference below is the earlier code, kept here as the oracle: the
family members and the universal and split gadgets built as edge lists and
passed through the per-vertex-set bucket builder, serialization through a
``bisect`` slice and ``str`` per edge, and parsing that hands its edges to
that builder.
"""

from __future__ import annotations

import random
import warnings
from bisect import bisect_right
from itertools import combinations

from securedom import Graph, from_edge_list, random_split_graph, random_threshold_graph, to_edge_list
from securedom.families import _SIZES, FAMILY_KINDS, FamilySpec, generate
from securedom.reductions import reduce_split, reduce_universal


def _old_from_edges(n: int, edges) -> Graph:
    buckets: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        buckets[u].append(v)
        buckets[v].append(u)
    distinct = sum(map(len, map(set, buckets)))
    if distinct != sum(map(len, buckets)):
        buckets = [list(set(bucket)) for bucket in buckets]
    for bucket in buckets:
        bucket.sort()
    return Graph(n=n, adj=tuple(map(tuple, buckets)), m=distinct // 2)


def _old_generate(kind: str, n: int) -> Graph:
    if kind == "complete":
        return _old_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if kind == "star":
        return _old_from_edges(n + 1, [(0, i) for i in range(1, n + 1)])
    if kind == "subdivided_wheel":
        hub = 2 * n
        edges = []
        for j in range(n):
            c, s, c_next = 2 * j, 2 * j + 1, 2 * ((j + 1) % n)
            edges += [(c, s), (s, c_next), (hub, c)]
        return _old_from_edges(2 * n + 1, edges)
    if kind == "book":
        center1 = n + 1
        edges = [(0, i) for i in range(1, n + 1)]
        edges += [(center1, center1 + i) for i in range(1, n + 1)]
        edges += [(i, i + n + 1) for i in range(0, n + 1)]
        return _old_from_edges(2 * n + 2, edges)
    assert kind == "ladder"
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(n + i, n + i + 1) for i in range(n - 1)]
    edges += [(i, i + n) for i in range(n)]
    return _old_from_edges(2 * n, edges)


def _old_to_edge_list(graph: Graph) -> str:
    lines = [f"p {graph.n} {graph.m}"]
    for u, nbrs in enumerate(graph.adj):
        head = f"{u} "
        for v in nbrs[bisect_right(nbrs, u) :]:
            lines.append(head + str(v))
    return "\n".join(lines) + "\n"


def _old_parse(text: str) -> tuple[Graph, list[str]]:
    """Well-formed edge-list text through the old builder, with the
    warnings the parser gives."""
    header = None
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "p":
            header = (int(parts[1]), int(parts[2]))
        else:
            edges.append((int(parts[0]), int(parts[1])))
    n = max((max(e) for e in edges), default=-1) + 1
    graph = _old_from_edges(n, edges)
    if header is not None and header[0] > n:
        graph = Graph(header[0], graph.adj + ((),) * (header[0] - n), graph.m)
    messages = []
    if len(edges) != graph.m:
        messages.append(f"{len(edges) - graph.m} duplicate edge(s) collapsed")
    if header is not None and header[1] != graph.m:
        messages.append(f"header declares {header[1]} edges but {graph.m} unique edges parsed")
    return graph, messages


def _same(a: Graph, b: Graph) -> bool:
    return (a.n, a.adj, a.m) == (b.n, b.adj, b.m) and hash(a) == hash(b)


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _pad(graph: Graph, isolated: int) -> Graph:
    return Graph(graph.n + isolated, graph.adj + ((),) * isolated, graph.m)


def _seeded_graphs():
    """n = 0 and 1, isolated vertices, a hub, and seeded G(n, p) up to 40."""
    rng = random.Random(41)
    yield Graph.from_edges(0, [])
    yield Graph.from_edges(1, [])
    yield _pad(Graph.from_edges(3, [(0, 2)]), 4)
    yield Graph.from_edges(30, [(0, v) for v in range(1, 30)])
    for n in range(2, 41):
        graph = _gnp(n, rng.choice((0.05, 0.2, 0.5, 0.9)), rng)
        yield graph
        yield _pad(graph, rng.randint(1, 3))


def test_generate_equals_the_edge_list_definitions():
    for kind in FAMILY_KINDS:
        for n in range(_SIZES[kind][0], 41):
            assert _same(generate(FamilySpec(kind, n)), _old_generate(kind, n)), (kind, n)


def test_universal_gadget_equals_the_edge_list_build():
    for graph in _seeded_graphs():
        x = graph.n
        old = _old_from_edges(x + 1, graph.edges() + [(u, x) for u in range(x)])
        assert _same(reduce_universal(graph, 1).output_graph, old), graph


def test_split_gadget_equals_the_edge_list_build():
    rng = random.Random(43)
    graphs = [Graph.from_edges(1, [])]
    for n in range(1, 41):
        seed = rng.randrange(10**6)
        graphs += [random_split_graph(n, seed)[0], random_threshold_graph(n, seed)]
        graphs.append(_pad(graphs[-1], rng.randint(1, 3)))
    for graph in graphs:
        x, y = graph.n, graph.n + 1
        edges = graph.edges() + [(u, x) for u in range(x)] + [(x, y)]
        old = _old_from_edges(x + 2, edges)
        assert _same(reduce_split(graph, 1).output_graph, old), graph


def test_to_edge_list_is_byte_equal_to_the_bisect_version():
    graphs = list(_seeded_graphs())
    graphs += [generate(FamilySpec(kind, 12)) for kind in FAMILY_KINDS]
    graphs.append(reduce_universal(_pad(Graph.from_edges(5, [(1, 3)]), 2), 1).output_graph)
    for graph in graphs:
        assert to_edge_list(graph) == _old_to_edge_list(graph), graph


def _parse(text: str) -> tuple[Graph, list[str]]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        graph = from_edge_list(text)
    return graph, [str(w.message) for w in caught]


def test_from_edge_list_equals_the_old_parse_and_build():
    rng = random.Random(47)
    texts = ["", "p 0 0\n", "p 3 0\n", "0 1\n1 0\n", "p 6 2\n# c\n\n2 1\n1 2\n4 3\n"]
    for _ in range(80):
        n = rng.randint(2, 40)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
        if rng.random() < 0.5:
            # repeat some edges, in either orientation
            edges += [rng.choice([e, e[::-1]]) for e in rng.sample(edges, len(edges) // 3)]
        rng.shuffle(edges)
        lines = [f"{u} {v}" for u, v in edges]
        if rng.random() < 0.6:
            declared = len({frozenset(e) for e in edges}) + rng.choice((0, 0, 1, -1))
            lines.insert(0, f"p {n + rng.randint(0, 3)} {max(declared, 0)}")
        texts.append("\n".join(lines) + "\n")
    for text in texts:
        graph, messages = _parse(text)
        old, old_messages = _old_parse(text)
        assert _same(graph, old), text
        assert messages == old_messages, text
    assert any("duplicate" in message for text in texts for message in _parse(text)[1])
    assert any("header declares" in message for text in texts for message in _parse(text)[1])
