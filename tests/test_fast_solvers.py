from __future__ import annotations

import json
from collections import Counter, defaultdict
from itertools import combinations

import pytest

import securedom.fast as fast

from conftest import (
    bench_block_graph,
    bench_threshold_graph,
    block_counts,
    bowtie_graph,
    closed_neighborhood,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    validate_partition,
)
from securedom import (
    METHOD_BLOCK,
    METHOD_EXACT,
    METHOD_THRESHOLD,
    METHOD_TRIVIAL,
    DomainError,
    Graph,
    SplitPartition,
    SplitRejection,
    ThresholdRejection,
    block_decompose,
    enumerate_connected_graphs,
    gamma,
    gamma_sc_block,
    gamma_sc_threshold,
    is_bipartite,
    is_block_graph,
    random_block_graph,
    random_graph,
    random_split_graph,
    random_threshold_graph,
    random_tree,
    recognize_split,
    recognize_threshold,
    solve,
    trivial_complete,
)
from securedom.cli import main
from securedom.verify import is_scds_definition


def four_vertex_threshold():
    # clique {0, 1}; 2 adjacent to both, 3 pendant on 0
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def paw_like():
    # triangle {0, 1, 2}; 3 adjacent to 0 and 1; no pendants
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])


def test_block_decomposition_examples():
    d = block_decompose(bowtie_graph())
    assert block_counts(d) == (2, 1, 0)
    assert d.cut_vertices == {2}
    assert d.blocks == ((2, 3, 4), (0, 1, 2))
    d = block_decompose(path_graph(4))
    assert block_counts(d) == (3, 2, 1)
    assert d.blocks == ((2, 3), (1, 2), (0, 1))
    d = block_decompose(complete_graph(4))
    assert block_counts(d) == (1, 0, 0)


def test_block_decomposition_invariants():
    for seed in range(25):
        g = random_block_graph(2 + seed % 12, seed)
        d = block_decompose(g)
        edge_homes = {}
        for i, block in enumerate(d.blocks):
            for u, v in g.edges():
                if u in block and v in block:
                    edge_homes.setdefault((u, v), []).append(i)
        assert all(len(homes) == 1 for homes in edge_homes.values())
        assert len(edge_homes) == g.m
        for v in range(g.n):
            in_blocks = sum(1 for b in d.blocks if v in b)
            assert (v in d.cut_vertices) == (in_blocks >= 2)
    tree = path_graph(7)
    assert block_counts(block_decompose(tree))[0] == 6


def test_block_decompose_requires_connected():
    with pytest.raises(DomainError, match="connected"):
        block_decompose(Graph.from_edges(4, [(0, 1), (2, 3)]))


def _blocks_are_cliques_oracle(graph, blocks):
    """The pairwise clique scan over each block's sorted members."""
    adj = graph.adj
    for block in blocks:
        members = sorted(block)
        want = len(members) - 1
        for idx in range(want):
            u = members[idx]
            if len(adj[u]) < want:
                return False
            nbr_u = set(adj[u])
            for v in members[idx + 1 :]:
                if v not in nbr_u:
                    return False
    return True


def _blocks_and_cuts_oracle(graph):
    """Blocks and cut vertices of a connected graph from vertex deletions.

    Two edges share a block iff no vertex x leaves them in different
    components of G - x (an edge at x goes with its other end), and x is a
    cut vertex iff G - x is disconnected.
    """
    if graph.n == 1:
        return [frozenset({0})], frozenset()
    everyone = set(range(graph.n))
    edges = graph.edges()
    signature = defaultdict(list)
    cuts = set()
    labelings = []
    for x in range(graph.n):
        labeling = graph.components(restrict=everyone - {x})
        if labeling.count > 1:
            cuts.add(x)
        labelings.append(labeling.labels)
    for u, v in edges:
        key = tuple(labels[v if u == x else u] for x, labels in enumerate(labelings))
        signature[key].append((u, v))
    blocks = [frozenset(w for e in group for w in e) for group in signature.values()]
    return blocks, frozenset(cuts)


def _differential_corpus():
    for n in range(1, 7):
        yield from enumerate_connected_graphs(n)
    for n in range(7, 31):
        for p in (3.0 / n, 0.3):
            yield random_graph(n, p, seed=1000 * n + int(100 * p))
        yield random_block_graph(n, seed=n)


def test_block_decompose_matches_deletion_oracle():
    checked = block_graphs = 0
    for g in _differential_corpus():
        d = block_decompose(g)
        blocks, cuts = _blocks_and_cuts_oracle(g)
        expected_cliques = _blocks_are_cliques_oracle(g, blocks)
        assert all(len(set(b)) == len(b) for b in d.blocks), g.edges()
        assert len(d.blocks) == len(blocks), g.edges()
        assert ({frozenset(b) for b in d.blocks}, d.cut_vertices, d.cliques) == (
            set(blocks),
            cuts,
            expected_cliques,
        ), g.edges()
        assert is_block_graph(g) == expected_cliques
        checked += 1
        block_graphs += expected_cliques
    # n <= 6: 1 + 1 + 2 + 6 + 21 + 112 classes; n = 7-30: three graphs each
    assert checked == 143 + 3 * 24
    assert 0 < block_graphs < checked


@pytest.mark.parametrize(
    "text,n,classes",
    [
        ("", 0, {"connected": False, "block_graph": False, "tree": False, "complete": True,
                 "split": True, "threshold": False, "bipartite": True}),
        ("p 1 0\n", 1, {"connected": True, "block_graph": True, "tree": True, "complete": True,
                        "split": True, "threshold": True, "bipartite": True}),
        ("0 1\n2 3\n", 4, {"connected": False, "block_graph": False, "tree": False,
                           "complete": False, "split": False, "threshold": False,
                           "bipartite": True}),
    ],
)
def test_recognize_classes_at_the_edges(tmp_path, capsys, text, n, classes):
    path = tmp_path / "g.el"
    path.write_text(text)
    assert main(["--format", "json", "recognize", "--in", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph"]["n"] == n
    assert payload["classes"] == classes


def test_is_block_graph():
    assert is_block_graph(path_graph(6))
    assert is_block_graph(bowtie_graph())
    assert not is_block_graph(cycle_graph(4))


def test_block_solver_examples():
    report = gamma_sc_block(bowtie_graph())
    assert report.value == 3
    assert report.witness == {0, 2, 3}
    assert report.method == METHOD_BLOCK
    assert gamma_sc_block(path_graph(5)).value == 5
    assert gamma_sc_block(star_graph(4)).value == 5
    assert gamma_sc_block(complete_graph(4)).value == 1
    single = gamma_sc_block(Graph.from_edges(1, []))
    assert (single.value, single.witness, single.method) == (1, {0}, METHOD_BLOCK)


def test_block_solver_rejects_non_block_graphs():
    with pytest.raises(DomainError, match="not a block graph"):
        gamma_sc_block(cycle_graph(4))


def test_single_cut_vertex_gives_block_count_plus_one():
    # windmill: three triangles sharing vertex 0
    windmill = Graph.from_edges(
        7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)]
    )
    d = block_decompose(windmill)
    assert block_counts(d) == (3, 1, 0)
    report = gamma_sc_block(windmill)
    assert report.value == 4
    assert report.value == solve(windmill, "scds").value


def test_all_cut_block_contributes_no_extra_vertex():
    # two triangles joined by a bridge whose endpoints are both cut vertices
    chain = Graph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    )
    d = block_decompose(chain)
    assert block_counts(d) == (3, 2, 1)
    report = gamma_sc_block(chain)
    assert report.value == 2 + 3 - 1 == solve(chain, "scds").value


def test_split_recognition():
    part = recognize_split(complete_graph(4))
    assert isinstance(part, SplitPartition)
    assert part.clique == {0, 1, 2, 3} and part.independent == frozenset()
    part = recognize_split(path_graph(3))
    assert isinstance(part, SplitPartition)
    assert validate_partition(path_graph(3), part)


def test_split_rejections_carry_obstructions():
    rej = recognize_split(cycle_graph(4))
    assert isinstance(rej, SplitRejection)
    assert rej.obstruction_kind == "C4"
    rej = recognize_split(cycle_graph(5))
    assert rej.obstruction_kind == "C5"
    # the bowtie induces two disjoint edges on {0, 1, 3, 4}, so it is not split
    rej = recognize_split(bowtie_graph())
    assert isinstance(rej, SplitRejection)
    assert rej.obstruction_kind == "2K2"
    assert rej.obstruction == (0, 1, 3, 4)


def test_random_split_graphs_validate():
    for seed in range(50):
        g, part = random_split_graph(1 + seed % 8, seed)
        assert validate_partition(g, part)
        assert isinstance(recognize_split(g), SplitPartition)


def test_threshold_recognition():
    assert not isinstance(recognize_threshold(star_graph(3)), ThresholdRejection)
    assert isinstance(recognize_threshold(path_graph(4)), ThresholdRejection)
    ordering = recognize_threshold(four_vertex_threshold())
    assert ordering.clique_order[-1] == 0
    assert set(ordering.clique_order) == {0, 2}
    assert set(ordering.independent_order) == {1, 3}


def test_threshold_ordering_chains_nest():
    for seed in range(30):
        g = random_threshold_graph(1 + seed % 13, seed)
        ordering = recognize_threshold(g)
        xs = ordering.clique_order
        for a, b in zip(xs, xs[1:]):
            assert closed_neighborhood(g, {a}) <= closed_neighborhood(g, {b})
        ys = ordering.independent_order
        for a, b in zip(ys, ys[1:]):
            assert set(g.adj[b]) <= set(g.adj[a])


def test_threshold_solver_examples():
    report = gamma_sc_threshold(four_vertex_threshold())
    assert report.value == 3
    assert report.method == METHOD_THRESHOLD
    assert solve(four_vertex_threshold(), "scds").value == 3
    assert gamma_sc_threshold(paw_like()).value == 2
    assert solve(paw_like(), "scds").value == 2
    assert gamma_sc_threshold(complete_graph(5)).method == METHOD_TRIVIAL
    assert gamma_sc_threshold(complete_graph(5)).value == 1


def test_threshold_star_correction():
    # stars take the every-vertex tree value, one below pendants + 2
    assert gamma_sc_threshold(star_graph(3)).value == 4
    assert solve(star_graph(3), "scds").value == 4
    assert gamma_sc_threshold(path_graph(3)).value == 3
    assert solve(path_graph(3), "scds").value == 3
    for leaves in range(2, 7):
        assert gamma_sc_threshold(star_graph(leaves)).value == leaves + 1


def test_threshold_solver_witnesses_verify():
    for seed in range(40):
        g = random_threshold_graph(1 + seed % 13, seed)
        report = gamma_sc_threshold(g)
        assert is_scds_definition(g, report.witness)[0]
        assert len(report.witness) == report.value


def test_threshold_solver_rejects_non_threshold():
    with pytest.raises(DomainError, match="not a threshold graph"):
        gamma_sc_threshold(path_graph(4))


def test_threshold_solver_rejects_disconnected_threshold_graphs():
    triangle_and_isolated = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    star_and_isolated = Graph.from_edges(5, star_graph(3).edges())
    for g in (triangle_and_isolated, star_and_isolated):
        assert not isinstance(recognize_threshold(g), ThresholdRejection)
        for formula in (gamma_sc_threshold, fast.gamma_sc_formula):
            with pytest.raises(DomainError, match="threshold solver requires a connected graph"):
                formula(g)


def test_threshold_connectivity_rule_matches_a_search_on_every_labeled_graph():
    checked = 0
    for n in range(1, 7):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            g = Graph.from_edges(n, [e for i, e in enumerate(slots) if mask >> i & 1])
            ordering = recognize_threshold(g)
            if not isinstance(ordering, ThresholdRejection):
                connected, block_graph, pendants = fast._threshold_shape(g, ordering)
                assert connected == g.is_connected(), g.edges()
                assert block_graph == (connected and is_block_graph(g)), g.edges()
                assert pendants == len(g.leaves()), g.edges()
                if g.is_connected() and not g.is_complete():
                    star = g.m == n - 1 and max(map(len, g.adj)) == n - 1
                    assert (len(ordering.clique_order) == 1) == star, g.edges()
                checked += 1
    # OEIS A005840: labeled threshold graphs on 1..6 vertices
    assert checked == 1 + 2 + 8 + 46 + 332 + 2874


def test_block_solver_matches_oracle_on_random_instances():
    for seed in range(20):
        g = random_block_graph(2 + seed % 11, seed)
        assert gamma_sc_block(g).value == solve(g, "scds").value


def test_threshold_solver_matches_oracle_on_random_instances():
    for seed in range(20):
        g = random_threshold_graph(1 + seed % 11, seed)
        assert gamma_sc_threshold(g).value == solve(g, "scds").value


def test_is_bipartite():
    assert is_bipartite(path_graph(5))
    assert is_bipartite(cycle_graph(4))
    assert not is_bipartite(cycle_graph(5))
    assert not is_bipartite(bowtie_graph())
    assert is_bipartite(Graph.from_edges(3, []))


def test_bench_instances_have_the_advertised_classes():
    g = bench_block_graph(13)
    assert is_block_graph(g)
    assert gamma_sc_block(g).value == solve(g, "scds").value
    g = bench_threshold_graph(12)
    assert not isinstance(recognize_threshold(g), ThresholdRejection)
    assert gamma_sc_threshold(g).value == solve(g, "scds").value == 2


def _edge_stack_blocks(graph):
    """Blocks (as frozensets) and cut vertices of a connected graph by the
    textbook edge-stack DFS, which pops each block's edges as it closes;
    None when the graph is disconnected."""
    if graph.n == 1:
        return [frozenset({0})], frozenset()
    adj = graph.adj
    disc = [0] * graph.n
    low = [0] * graph.n
    disc[0] = low[0] = 1
    timer = 2
    edges, blocks, heads = [], [], []
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent, neighbours = stack[-1]
        for w in neighbours:
            if not disc[w]:
                disc[w] = low[w] = timer
                timer += 1
                edges.append((v, w))
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent and disc[w] < disc[v]:
                edges.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    block, edge = set(), None
                    while edge != (p, v):
                        edge = edges.pop()
                        block.update(edge)
                    blocks.append(frozenset(block))
                    heads.append(p)
    if timer - 1 < graph.n:
        return None
    return blocks, frozenset(h for h in heads if h != 0 or heads.count(0) > 1)


def _set_based_block_formula(graph):
    """The r, k, r' form over frozenset blocks sorted by their sorted
    members: k + r - r' with every cut vertex and each block's least
    non-cut vertex as witness; None where gamma_sc_block refuses."""
    found = _edge_stack_blocks(graph)
    if found is None:
        return None
    blocks, cut = found
    if sum(len(b) * (len(b) - 1) // 2 for b in blocks) != graph.m:
        return None
    blocks.sort(key=sorted)
    r, k, r_prime = len(blocks), len(cut), sum(1 for b in blocks if b <= cut)
    witness = set(cut)
    for b in blocks:
        if b - cut:
            witness.add(min(b - cut))
    return k + r - r_prime, frozenset(witness), METHOD_BLOCK


def _set_based_threshold_formula(graph):
    """2 + pendants witnessed by the last two clique-order vertices and the
    window N(x_last) - N(x_prev) on the independent side; None where
    gamma_sc_threshold refuses."""
    ordering = recognize_threshold(graph)
    if isinstance(ordering, ThresholdRejection) or not graph.is_connected():
        return None
    if graph.is_complete():
        return 1, frozenset({0}), METHOD_TRIVIAL
    xs = ordering.clique_order
    if len(xs) == 1:
        return graph.n, frozenset(range(graph.n)), METHOD_THRESHOLD
    x_last, x_prev = xs[-1], xs[-2]
    window = (set(graph.adj[x_last]) - set(graph.adj[x_prev])) & set(ordering.independent_order)
    pendants = sum(1 for a in graph.adj if len(a) == 1)
    return 2 + pendants, frozenset({x_last, x_prev} | window), METHOD_THRESHOLD


def _answer(solver, graph):
    try:
        report = solver(graph)
    except DomainError:
        return None
    return report.value, report.witness, report.method


def _witness_identity_corpus():
    for n in range(1, 7):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            yield Graph.from_edges(n, [e for i, e in enumerate(slots) if mask >> i & 1])
    for n in range(7, 41):
        for seed in range(3):
            yield random_threshold_graph(n, seed)
            yield random_block_graph(n, seed)
            yield random_tree(n, seed)
    yield bench_block_graph(20_000)
    yield bench_threshold_graph(20_000)


def test_formula_witnesses_match_the_set_based_constructions():
    answered = Counter()
    for g in _witness_identity_corpus():
        for solver, reference in (
            (gamma_sc_block, _set_based_block_formula),
            (gamma_sc_threshold, _set_based_threshold_formula),
        ):
            expected = reference(g)
            assert _answer(solver, g) == expected, (solver.__name__, g.edges())
            answered[solver.__name__] += expected is not None
    assert answered == {"gamma_sc_block": 4998, "gamma_sc_threshold": 1735}


def test_validate_partition():
    g = path_graph(3)
    assert validate_partition(g, SplitPartition(frozenset({1}), frozenset({0, 2})))
    assert not validate_partition(g, SplitPartition(frozenset({0, 2}), frozenset({1})))
    assert not validate_partition(g, SplitPartition(frozenset({1}), frozenset({0})))
    # a valid clique side does not excuse an edge inside the independent side
    assert not validate_partition(g, SplitPartition(frozenset({0}), frozenset({1, 2})))


def test_gamma_auto_matches_oracle_on_all_small_connected_graphs():
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            report = gamma(g, "scds")
            assert report.value == solve(g, "scds").value
            assert is_scds_definition(g, report.witness)[0]


def test_gamma_auto_method_per_path():
    assert not is_block_graph(paw_like())
    cases = [
        (complete_graph(4), METHOD_TRIVIAL),
        (bowtie_graph(), METHOD_BLOCK),
        (paw_like(), METHOD_THRESHOLD),
        (cycle_graph(4), METHOD_EXACT),
    ]
    for g, method in cases:
        assert gamma(g, "scds").method == method
    # the complete-graph shortcut runs before the exact-search size cap
    assert gamma(complete_graph(30), "scds").value == 1


def test_gamma_auto_runs_each_recognizer_once(monkeypatch):
    calls = Counter()
    for name in ("block_decompose", "recognize_threshold", "_threshold_shape"):
        def counted(*args, _name=name, _original=getattr(fast, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fast, name, counted)
    # the bowtie is not threshold, so the block formula answers it without a
    # shape; the paw is a threshold block graph, which one shape sends to the
    # block formula; paw_like and K4 are threshold graphs that one
    # certificate and one shape send on without a block walk
    gamma(bowtie_graph(), "scds")
    assert calls == {"recognize_threshold": 1, "block_decompose": 1}
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    calls.clear()
    gamma(paw, "scds")
    assert calls == {"recognize_threshold": 1, "_threshold_shape": 1, "block_decompose": 1}
    for g in (paw_like(), complete_graph(4)):
        calls.clear()
        gamma(g, "scds")
        assert calls == {"recognize_threshold": 1, "_threshold_shape": 1}


def _stepwise_auto(graph):
    """The ``auto`` scds dispatch as it was before one threshold certificate
    chose the formula: the complete-graph shortcut, then the block formula,
    then the threshold formula, then the exact search, each formula passing
    on DomainError."""
    if graph.n >= 1 and graph.is_complete():
        return trivial_complete()
    if graph.n >= 1 and graph.m >= graph.n - 1:
        for formula in (gamma_sc_block, gamma_sc_threshold):
            try:
                return formula(graph)
            except DomainError:
                pass
    return solve(graph, "scds")


def _outcome(run, graph):
    try:
        report = run(graph)
    except DomainError as exc:
        return str(exc)
    return report.value, report.witness, report.method


def test_gamma_auto_matches_the_stepwise_dispatch():
    def labeled(n):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            yield Graph.from_edges(n, [e for i, e in enumerate(slots) if mask >> i & 1])

    def seeded():
        for n in range(2, 16):
            for seed in range(60):
                yield random_threshold_graph(n, seed)
                yield random_block_graph(n, seed)
                yield random_tree(n, seed)
                yield random_graph(n, 0.5, seed)

    # a clique plus isolated vertices: threshold, disconnected, m >= n - 1
    padded = (Graph.from_edges(k + i, complete_graph(k).edges()) for k in range(4, 8) for i in (1, 2, 3))
    bench = (bench_threshold_graph(20_000), bench_block_graph(20_000))
    corpus = [g for n in range(7) for g in labeled(n)]
    corpus += [*seeded(), *padded, *bench]
    methods = Counter()
    for g in corpus:
        expected = _outcome(_stepwise_auto, g)
        assert _outcome(lambda h: gamma(h, "scds"), g) == expected, g.edges()
        methods[expected[2] if isinstance(expected, tuple) else "refused"] += 1
    assert set(methods) == {METHOD_TRIVIAL, METHOD_BLOCK, METHOD_THRESHOLD, METHOD_EXACT, "refused"}


def test_gamma_named_methods_and_refusals():
    assert gamma(bowtie_graph(), "scds", "exact").method == METHOD_EXACT
    assert gamma(bowtie_graph(), "scds", "block").method == METHOD_BLOCK
    assert gamma(path_graph(4), "ds").method == METHOD_EXACT
    with pytest.raises(DomainError, match="the block formula computes the scds variant only"):
        gamma(path_graph(4), "ds", "block")
    with pytest.raises(DomainError, match="not a threshold graph"):
        gamma(path_graph(4), "scds", "threshold")
    with pytest.raises(DomainError, match="unknown method"):
        gamma(path_graph(4), "scds", "fastest")
    with pytest.raises(DomainError, match="variant scds requires a connected graph"):
        gamma(Graph.from_edges(4, [(0, 1), (2, 3)]), "scds")
