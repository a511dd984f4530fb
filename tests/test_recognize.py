"""The ``recognize`` command against every recognizer run in full, and the
count-based threshold certificate against the rank-based and set-based
checks it replaced."""

from __future__ import annotations

import io
import json
import random
from bisect import bisect_left
from collections import Counter
from contextlib import redirect_stdout
from itertools import combinations, permutations

import pytest

from conftest import bench_block_graph, bench_threshold_graph, canonical_form
from securedom import (
    DomainError,
    Graph,
    SplitPartition,
    SplitRejection,
    ThresholdOrdering,
    ThresholdRejection,
    block_decompose,
    enumerate_connected_graphs,
    is_bipartite,
    random_block_graph,
    random_graph,
    random_split_graph,
    random_threshold_graph,
    random_tree,
    recognize_split,
    recognize_threshold,
    to_edge_list,
)
from securedom import cli, fast


def _small_graphs():
    """One graph per isomorphism class on 0..6 vertices (disjoint unions of
    the connected classes), each also under two seeded relabelings."""
    pieces = [g for k in range(1, 7) for g in enumerate_connected_graphs(k)]
    rng = random.Random(6)

    def grow(start: int, graph: Graph):
        yield graph
        for i in range(start, len(pieces)):
            if graph.n + pieces[i].n <= 6:
                yield from grow(i, _union(graph, pieces[i]))

    for graph in grow(0, Graph.from_edges(0, [])):
        yield graph
        yield _relabel(graph, rng)
        yield _relabel(graph, rng)


def _relabel(graph: Graph, rng: random.Random) -> Graph:
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return Graph.from_edges(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])


def _union(a: Graph, b: Graph) -> Graph:
    return Graph.from_edges(a.n + b.n, a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()])


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _seeded_graphs():
    """Relabeled threshold, split, block, tree and G(n, p) graphs with
    n = 7..40, and disjoint unions and isolated-vertex paddings of them."""
    rng = random.Random(8)
    for n in range(7, 41):
        seed = rng.randrange(10**6)
        pieces = [
            random_threshold_graph(n, seed),
            random_split_graph(n, seed)[0],
            random_block_graph(n, seed),
            random_tree(n, seed),
            _gnp(n, rng.choice((0.1, 0.3, 0.6)), rng),
        ]
        for graph in pieces:
            yield _relabel(graph, rng)
        small = random_threshold_graph(rng.randint(1, 5), seed)
        for graph in pieces[:4]:
            yield _relabel(_union(graph, small), rng)
            yield _relabel(_union(graph, Graph.from_edges(rng.randint(1, 3), [])), rng)


def _reference_recognize(graph: Graph) -> dict:
    """The classes and obstruction with every recognizer run in full."""
    try:
        block_graph = block_decompose(graph).cliques
        connected = True
    except DomainError:
        block_graph = connected = False
    split = recognize_split(graph)
    payload = {
        "classes": {
            "connected": connected,
            "complete": graph.is_complete(),
            "tree": connected and graph.m == graph.n - 1,
            "block_graph": block_graph,
            "split": not isinstance(split, SplitRejection),
            "threshold": not isinstance(recognize_threshold(graph), ThresholdRejection),
            "bipartite": is_bipartite(graph),
        }
    }
    if isinstance(split, SplitRejection) and split.obstruction:
        payload["split_obstruction"] = {
            "kind": split.obstruction_kind,
            "vertices": list(split.obstruction),
        }
    return payload


@pytest.fixture
def recognize_main(monkeypatch):
    """``securedom --format json recognize --in -`` through ``cli.main``,
    with one parser built for all calls."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)

    def run(graph: Graph) -> dict:
        monkeypatch.setattr("sys.stdin", io.StringIO(to_edge_list(graph)))
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["--format", "json", "recognize", "--in", "-"])
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload.pop("command") == "recognize"
        assert payload.pop("graph") == {"n": graph.n, "m": graph.m}
        payload.pop("elapsed_ms")
        return payload

    return run


def test_small_graph_corpus_holds_every_class():
    classes = {canonical_form(g) for g in _small_graphs()}
    assert len(classes) == 1 + 1 + 2 + 4 + 11 + 34 + 156


def test_recognize_matches_full_recognizers_on_every_small_graph(recognize_main):
    for graph in _small_graphs():
        assert recognize_main(graph) == _reference_recognize(graph), graph


def test_recognize_matches_full_recognizers_on_seeded_graphs(recognize_main):
    seen = {"connected": set(), "block_graph": set(), "split": set(), "threshold": set(), "bipartite": set()}
    for graph in _seeded_graphs():
        payload = recognize_main(graph)
        assert payload == _reference_recognize(graph), graph
        for name, values in seen.items():
            values.add(payload["classes"][name])
    # the corpus reaches both answers of every class the shortcuts touch
    assert all(values == {True, False} for values in seen.values())


def _shortcut_graphs():
    """Graphs at the boundaries of the shortcuts: disconnected graphs with
    m = n - 1, tiny threshold graphs, stars, complete graphs, a star beside
    an isolated vertex, and cliques with pendants on one vertex."""
    for k in range(3, 9):
        cycle = [(i, (i + 1) % k) for i in range(k)]
        yield Graph.from_edges(k + 1, cycle)  # a cycle plus an isolated vertex
        for a in range(2, 5):
            path = [(k + i, k + i + 1) for i in range(a - 1)]
            yield Graph.from_edges(k + a, cycle + path)  # a path plus a cycle
            yield Graph.from_edges(k + a + 1, cycle + path + [(k + a - 1, k + a)])
        yield Graph.from_edges(k + 3, cycle + [(k, k + 1)])  # ... plus an isolated vertex
    yield Graph.from_edges(1, [])
    yield Graph.from_edges(2, [])
    yield Graph.from_edges(2, [(0, 1)])
    for k in range(1, 10):
        star = [(0, i) for i in range(1, k + 1)]
        yield Graph.from_edges(k + 1, star)
        yield Graph.from_edges(k + 2, star)  # beside an isolated vertex
        yield Graph.from_edges(k, list(combinations(range(k), 2)))
    for h in range(1, 7):
        for p in range(0, 4):
            clique = list(combinations(range(h), 2))
            yield Graph.from_edges(h + p, clique + [(0, h + i) for i in range(p)])
            if h >= 4:
                yield Graph.from_edges(h + p, clique[1:] + [(h - 1, h + i) for i in range(p)])


def test_recognize_matches_full_recognizers_on_the_shortcut_cases(recognize_main):
    rng = random.Random(11)
    for graph in _shortcut_graphs():
        for labeled in (graph, _relabel(graph, rng)):
            assert recognize_main(labeled) == _reference_recognize(labeled), labeled


# -- the split obstruction search ------------------------------------------


def _reference_obstruction(graph: Graph) -> tuple[str, tuple[int, ...]] | None:
    """The first 4-subset in combinations order whose induced edges are two
    disjoint edges (2K2) or a 4-cycle (C4), else the first 5-subset whose
    induced edges are a 5-cycle (C5), compared as explicit edge lists."""
    edge_set = set(graph.edges())

    def induced(vertices):
        return {e for e in combinations(vertices, 2) if e in edge_set}

    def cycles(vertices):
        first, *rest = vertices
        orders = [(first, *p) for p in permutations(rest)]
        return [{tuple(sorted(e)) for e in zip(order, order[1:] + order[:1])} for order in orders]

    for quad in combinations(range(graph.n), 4):
        a, b, c, d = quad
        edges = induced(quad)
        if edges in ({(a, b), (c, d)}, {(a, c), (b, d)}, {(a, d), (b, c)}):
            return "2K2", quad
        if len(edges) == 4 and edges in cycles(quad):
            return "C4", quad
    for quint in combinations(range(graph.n), 5):
        edges = induced(quint)
        if len(edges) == 5 and edges in cycles(quint):
            return "C5", quint
    return None


def _pseudo_split_graph(n: int, seed: int) -> Graph:
    """A seeded split graph on n - 5 vertices with a 5-cycle joined to its
    clique: free of 2K2 and C4, so its obstruction is a C5."""
    split, part = random_split_graph(n - 5, seed)
    q = range(n - 5, n)
    cycle = [(v, n - 5 + (i + 1) % 5) for i, v in enumerate(q)]
    return Graph.from_edges(n, split.edges() + cycle + [(u, v) for u in part.clique for v in q])


def _obstruction_corpus():
    """Every labeled graph with n <= 5, every connected class with n = 6,
    and 500 seeded graphs with n = 7..16: G(n, p) at three densities, and
    one in ten a split graph, a pseudo-split graph (whose obstruction is a
    C5) or one beside an isolated vertex, each of which scans every subset."""
    for n in range(6):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            yield Graph.from_edges(n, [e for i, e in enumerate(slots) if mask >> i & 1])
    yield from enumerate_connected_graphs(6)
    rng = random.Random(20)
    for i in range(500):
        n = 7 + i // 10 % 10
        seed = rng.randrange(10**6)
        if i % 10:
            yield _gnp(n, (0.15, 0.5, 0.85)[i % 3], rng)
        elif i // 10 % 3 == 0:
            yield _relabel(random_split_graph(n, seed)[0], rng)
        elif i // 10 % 3 == 1:
            yield _relabel(_pseudo_split_graph(n, seed), rng)
        else:
            yield _relabel(_union(_pseudo_split_graph(n - 1, seed), Graph.from_edges(1, [])), rng)


def _obstruction(graph: Graph) -> tuple[str, tuple[int, ...]] | None:
    found = recognize_split(graph)
    if isinstance(found, SplitPartition):
        return None
    return found.obstruction_kind, found.obstruction


def test_split_obstruction_matches_the_edge_list_reference():
    kinds = set()
    for graph in _obstruction_corpus():
        expected = _reference_obstruction(graph)
        assert _obstruction(graph) == expected, graph
        kinds.add(expected and expected[0])
    assert kinds == {None, "2K2", "C4", "C5"}


def test_split_obstruction_on_a_clique_joined_to_a_five_cycle():
    # the only obstruction is the last 5-subset, so the search scans them all
    k25 = list(combinations(range(25), 2))
    join = [(u, v) for u in range(25) for v in range(25, 30)]
    c5 = [(25 + i, 25 + (i + 1) % 5) for i in range(5)]
    assert _obstruction(Graph.from_edges(30, k25 + join + c5)) == ("C5", (25, 26, 27, 28, 29))


# -- the threshold certificate ---------------------------------------------


def _set_based_ordering_valid(graph: Graph, ordering: ThresholdOrdering) -> bool:
    """The nesting check the rank certificate replaced: clique, independent
    set, and both chains by consecutive subset tests."""
    adj = graph.adj
    c = set(ordering.clique_order)
    i = set(ordering.independent_order)
    for x in c:
        if sum(1 for w in adj[x] if w in c) != len(c) - 1:
            return False
    for y in i:
        if any(w in i for w in adj[y]):
            return False
    xs = ordering.clique_order
    for a, b in zip(xs, xs[1:]):
        if not set(adj[a]) | {a} <= set(adj[b]) | {b}:
            return False
    ys = ordering.independent_order
    for a, b in zip(ys, ys[1:]):
        if not set(adj[b]) <= set(adj[a]):
            return False
    return True


def _rank_ordering_valid(graph: Graph, ordering: ThresholdOrdering) -> bool:
    """The rank certificate the count certificate replaced: a clique side,
    and each independent vertex of degree d seeing the d highest ranks of
    clique_order, with degrees not increasing along independent_order."""
    adj = graph.adj
    xs = ordering.clique_order
    top = len(xs)
    rank = [-1] * graph.n
    for r, x in enumerate(xs):
        rank[x] = r
    for x in xs:
        if sum(1 for w in adj[x] if rank[w] >= 0) != top - 1:
            return False
    previous = top
    for y in ordering.independent_order:
        d = len(adj[y])
        if d > previous or (d and min(rank[w] for w in adj[y]) < top - d):
            return False
        previous = d
    return True


def _ordering(xs, ys) -> ThresholdOrdering:
    xs, ys = tuple(xs), tuple(ys)
    return ThresholdOrdering(xs, ys)


def _orderings(graph: Graph, rng: random.Random):
    """The peel's ordering, or a degree-sorted guess on the split partition
    (or the top half by degree), followed by corrupted copies: two entries
    swapped on either side, and a vertex moved across the partition."""
    found = recognize_threshold(graph)
    if isinstance(found, ThresholdOrdering):
        base = found
    else:
        degree = lambda v: (len(graph.adj[v]), v)  # noqa: E731
        split = recognize_split(graph)
        if isinstance(split, SplitPartition):
            clique = split.clique
        else:
            clique = sorted(range(graph.n), key=degree)[graph.n // 2 :]
        xs = sorted(clique, key=degree)
        ys = sorted(set(range(graph.n)) - set(clique), key=degree, reverse=True)
        base = _ordering(xs, ys)
    yield base
    xs, ys = list(base.clique_order), list(base.independent_order)
    for side, other in ((xs, ys), (ys, xs)):
        if len(side) >= 2:
            a, b = rng.sample(range(len(side)), 2)
            swapped = side.copy()
            swapped[a], swapped[b] = swapped[b], swapped[a]
            yield _ordering(swapped, ys) if side is xs else _ordering(xs, swapped)
        if side:
            moved = side.copy()
            v = moved.pop(rng.randrange(len(moved)))
            target = other.copy()
            target.insert(rng.randint(0, len(target)), v)
            yield _ordering(moved, target) if side is xs else _ordering(target, moved)


def test_count_certificate_agrees_with_the_rank_and_set_based_checks():
    rng = random.Random(2007)
    verdicts = set()
    corpus = [g for g in _small_graphs() if g.n >= 1]
    corpus.extend(_seeded_graphs())
    corpus.extend(_shortcut_graphs())
    for graph in corpus:
        for ordering in _orderings(graph, rng):
            verdict = fast._threshold_ordering_valid(graph, ordering)
            assert verdict == _rank_ordering_valid(graph, ordering), (graph, ordering)
            assert verdict == _set_based_ordering_valid(graph, ordering), (graph, ordering)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_recognize_threshold_rejects_with_the_same_reason_when_the_certificate_fails(monkeypatch):
    monkeypatch.setattr(fast, "_threshold_ordering_valid", lambda graph, ordering: False)
    rejection = recognize_threshold(random_threshold_graph(12, 3))
    assert rejection == ThresholdRejection(reason="nesting chains failed validation")


# -- the recognizers against copies of the code they replaced ---------------
#
# The copies read each vertex's degree off its row as often as they need it,
# sort before the peel can refuse, flag the clique side in two places and
# sort the split order on negated degrees.  The recognizers must return the
# same records, field by field.


def _copied_validate_partition(graph: Graph, partition: SplitPartition) -> bool:
    c, i = partition.clique, partition.independent
    if c & i or (c | i) != frozenset(range(graph.n)):
        return False
    in_clique = bytearray(graph.n)
    for v in c:
        in_clique[v] = 1
    flag = in_clique.__getitem__
    adj = graph.adj
    want = len(c) - 1
    for u in c:
        if sum(map(flag, adj[u])) != want:
            return False
    for u in i:
        if not all(map(flag, adj[u])):
            return False
    return True


def _copied_recognize_split(graph: Graph) -> SplitPartition | SplitRejection:
    n = graph.n
    adj = graph.adj
    order = sorted(range(n), key=[-len(a) for a in adj].__getitem__)
    degs = [len(adj[v]) for v in order]
    k = 0
    while k < n and degs[k] >= k:
        k += 1
    if sum(degs[:k]) == k * (k - 1) + sum(degs[k:]):
        partition = SplitPartition(clique=frozenset(order[:k]), independent=frozenset(order[k:]))
        if _copied_validate_partition(graph, partition):
            return partition
    # the obstruction search is not part of the change, so both sides share it
    found = fast._find_split_obstruction(graph)
    if found is None:
        return SplitRejection(reason="degree sequence fails the split equality")
    kind, vertices = found
    return SplitRejection(
        reason=f"induced {kind} on vertices {list(vertices)}",
        obstruction=vertices,
        obstruction_kind=kind,
    )


def _copied_ordering_valid(graph: Graph, ordering: ThresholdOrdering) -> bool:
    adj = graph.adj
    xs = ordering.clique_order
    top = len(xs)
    in_clique = bytearray(graph.n)
    for x in xs:
        in_clique[x] = 1
    flag = in_clique.__getitem__
    for x in xs:
        if sum(map(flag, adj[x])) != top - 1:
            return False
    degrees = list(map(len, map(adj.__getitem__, ordering.independent_order)))
    if degrees and (degrees[0] > top or degrees != sorted(degrees, reverse=True)):
        return False
    outward = [len(adj[x]) - (top - 1) for x in xs]
    if sum(degrees) != sum(outward):
        return False
    ascending = degrees[::-1]
    count = len(ascending)
    for r, d in enumerate(outward):
        if d != count - bisect_left(ascending, top - r):
            return False
    return True


def _copied_recognize_threshold(graph: Graph) -> ThresholdOrdering | ThresholdRejection:
    n = graph.n
    if n == 0:
        return ThresholdRejection(reason="empty graph")
    adj = graph.adj
    order = sorted(range(n), key=list(map(len, adj)).__getitem__)
    lo, hi = 0, n - 1
    removed_universal: list[int] = []
    removed_isolated: list[int] = []
    universal_count = 0
    alive = n
    while alive:
        if len(adj[order[lo]]) == universal_count:
            removed_isolated.append(order[lo])
            lo += 1
            alive -= 1
        elif len(adj[order[hi]]) == universal_count + alive - 1:
            removed_universal.append(order[hi])
            hi -= 1
            alive -= 1
            universal_count += 1
        else:
            return ThresholdRejection(
                reason="no isolated or universal vertex remains", remaining=alive
            )
    ordering = ThresholdOrdering(
        clique_order=tuple(reversed(removed_universal)),
        independent_order=tuple(reversed(removed_isolated)),
    )
    if not _copied_ordering_valid(graph, ordering):
        return ThresholdRejection(reason="nesting chains failed validation")
    return ordering


def _labeled_graphs(top: int):
    """Every labeled graph on 0..top vertices."""
    for n in range(top + 1):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            yield Graph.from_edges(n, [e for i, e in enumerate(slots) if mask >> i & 1])


def _parity_corpus():
    yield from _labeled_graphs(6)
    rng = random.Random(23)
    for n in range(2, 41):
        for seed in range(3):
            for graph in (
                random_threshold_graph(n, seed),
                random_block_graph(n, seed),
                random_tree(n, seed),
                random_split_graph(n, seed)[0],
                random_graph(n, 0.5, seed),
            ):
                yield graph
                yield _relabel(graph, rng)
    yield from _seeded_graphs()
    yield bench_threshold_graph(20_000)
    yield bench_block_graph(20_000)


def _partitions(graph: Graph):
    """The degree order's prefixes of length k - 1, k and k + 1 as clique
    sides, k being the split test's clique size."""
    order = sorted(range(graph.n), key=lambda v: (-len(graph.adj[v]), v))
    k = 0
    while k < graph.n and len(graph.adj[order[k]]) >= k:
        k += 1
    for size in range(max(k - 1, 0), min(k + 1, graph.n) + 1):
        yield SplitPartition(frozenset(order[:size]), frozenset(order[size:]))


def _same(record, expected) -> bool:
    return type(record) is type(expected) and tuple(record) == tuple(expected)


def test_recognizers_return_the_records_of_the_code_they_replaced():
    outcomes = Counter()
    for graph in _parity_corpus():
        expected = _copied_recognize_threshold(graph)
        assert _same(recognize_threshold(graph), expected), graph.edges()
        if isinstance(expected, ThresholdRejection):
            outcomes[expected.reason, expected.remaining == graph.n] += 1
        expected = _copied_recognize_split(graph)
        assert _same(recognize_split(graph), expected), graph.edges()
        outcomes[type(expected).__name__, getattr(expected, "obstruction_kind", None)] += 1
        for partition in _partitions(graph):
            verdict = _copied_validate_partition(graph, partition)
            assert fast.validate_partition(graph, partition) == verdict, (graph.edges(), partition)
            outcomes["validate_partition", verdict] += 1
    # refused before the sort (every vertex left) and during the peel
    peel = "no isolated or universal vertex remains"
    assert {("empty graph", True), (peel, True), (peel, False)} <= set(outcomes)
    kinds = {None, "2K2", "C4", "C5"}
    assert {("SplitPartition", None)} | {("SplitRejection", k) for k in kinds} <= set(outcomes)
    assert {("validate_partition", True), ("validate_partition", False)} <= set(outcomes)
