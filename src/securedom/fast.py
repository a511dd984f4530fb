"""Linear-time secure-connected-domination solvers for block graphs and
threshold graphs, with the supporting recognizers.

Block graphs are handled through a lowpoint (DFS) block decomposition and a
counting formula over blocks and cut vertices.  Threshold graphs are
recognized by degree peeling: repeatedly remove a vertex that is isolated or
universal in the remaining graph.  Because removing an isolated vertex
changes no remaining degree and removing a universal vertex lowers every
remaining degree by exactly one, the peel runs with two pointers over the
degree-sorted vertex order and a single removed-universal counter, keeping
the whole recognition linear apart from the initial sort.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .exact import DEFAULT_MAX_N, METHOD_BLOCK, METHOD_THRESHOLD, SolveReport, solve, trivial_complete
from .graph import DomainError, Graph, require_vertex_count


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected pieces / bridges) and cut vertices.

    blocks are vertex sets ordered by smallest contained vertex; r is the
    block count, k the cut-vertex count, and r_prime the number of blocks
    whose vertices are all cut vertices.  cliques is True iff every block
    induces a clique, that is, iff the graph is a block graph.
    """

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    cliques: bool

    @property
    def r(self) -> int:
        return len(self.blocks)

    @property
    def k(self) -> int:
        return len(self.cut_vertices)

    @property
    def r_prime(self) -> int:
        return sum(1 for b in self.blocks if b <= self.cut_vertices)


@dataclass(frozen=True)
class SplitPartition:
    """A clique / independent-set bipartition of the vertex set."""

    clique: frozenset[int]
    independent: frozenset[int]


@dataclass(frozen=True)
class SplitRejection:
    reason: str
    obstruction: tuple[int, ...] | None = None
    obstruction_kind: str | None = None


@dataclass(frozen=True)
class ThresholdOrdering:
    """Split partition plus the nested-neighborhood orders.

    Closed neighborhoods grow along clique_order; open neighborhoods shrink
    along independent_order.
    """

    partition: SplitPartition
    clique_order: tuple[int, ...]
    independent_order: tuple[int, ...]


@dataclass(frozen=True)
class ThresholdRejection:
    reason: str
    remaining: int = 0


def block_decompose(graph: Graph) -> BlockDecomposition:
    """Blocks and cut vertices via an iterative lowpoint DFS.

    Deterministic: neighbors are explored in ascending order and blocks are
    sorted by their smallest vertex.  Requires a connected graph.  Each path
    vertex keeps an iterator over its adjacency tuple, and the edge stack is
    a flat list of endpoint pairs that receives every edge exactly once (a
    tree edge from its parent side, a back edge from its lower end).  A block
    is therefore the stack slice above its tree edge, and with k vertices it
    is a clique iff that slice holds k(k-1)/2 edges, which sets ``cliques``
    without a second scan.
    """
    n = graph.n
    if n == 0:
        raise DomainError("block decomposition requires a connected graph")
    if n == 1:
        return BlockDecomposition(blocks=(frozenset({0}),), cut_vertices=frozenset(), cliques=True)
    adj = graph.adj
    disc = [0] * n
    low = [0] * n
    parent = [-1] * n
    cut: set[int] = set()
    estack: list[int] = []
    blocks: list[frozenset[int]] = []
    cliques = True
    disc[0] = low[0] = 1
    timer = 2
    # The DFS path, each vertex's neighbor iterator, and the edge-stack
    # length just before the vertex's tree edge was pushed.
    path = [0]
    iters = [iter(adj[0])]
    marks = [0]
    while path:
        v = path[-1]
        dv = disc[v]
        pv = parent[v]
        for w in iters[-1]:
            dw = disc[w]
            if dw == 0:
                parent[w] = v
                marks.append(len(estack))
                estack.append(v)
                estack.append(w)
                disc[w] = low[w] = timer
                timer += 1
                path.append(w)
                iters.append(iter(adj[w]))
                break
            if dw < dv and w != pv:
                estack.append(v)
                estack.append(w)
                if dw < low[v]:
                    low[v] = dw
        else:
            path.pop()
            iters.pop()
            mark = marks.pop()
            if not path:
                break
            lv = low[v]
            if lv < low[pv]:
                low[pv] = lv
            if lv >= disc[pv]:
                ends = estack[mark:]
                del estack[mark:]
                members = frozenset(ends)
                k = len(members)
                if len(ends) != k * (k - 1):
                    cliques = False
                blocks.append(members)
                if pv != 0:
                    cut.add(pv)
    if timer - 1 != n:
        raise DomainError("block decomposition requires a connected graph")
    if estack:
        raise RuntimeError("block decomposition left an unclosed block")
    if parent.count(0) > 1:
        cut.add(0)  # the root cuts iff it has two DFS children
    # Two blocks share at most one vertex, so the two smallest vertices of a
    # block already fix its place in the order of sorted vertex lists, and
    # an integer key sorts far faster than a list key.
    def two_smallest(block: frozenset[int]) -> int:
        lowest = sorted(block)
        return lowest[0] * n + lowest[1]

    blocks.sort(key=two_smallest)
    return BlockDecomposition(blocks=tuple(blocks), cut_vertices=frozenset(cut), cliques=cliques)


def is_block_graph(graph: Graph) -> bool:
    """True iff the (connected) graph's blocks all induce cliques."""
    return block_decompose(graph).cliques


def gamma_sc_block(graph: Graph) -> SolveReport:
    """Secure connected domination number of a block graph, with witness.

    The value is cut_count + blocks - blocks_made_of_cut_vertices; the
    witness takes every cut vertex plus, per block that has one, its
    smallest non-cut vertex.
    """
    start = time.perf_counter()
    decomp = block_decompose(graph)
    if not decomp.cliques:
        raise DomainError("not a block graph: some block is not a clique")
    cut = decomp.cut_vertices
    witness = set(cut)
    for block in decomp.blocks:
        non_cut = [v for v in block if v not in cut]
        if non_cut:
            witness.add(min(non_cut))
    value = decomp.k + decomp.r - decomp.r_prime
    if len(witness) != value:
        raise RuntimeError("block witness size disagrees with the formula")
    return SolveReport(
        variant="scds",
        value=value,
        witness=frozenset(witness),
        method=METHOD_BLOCK,
        elapsed=time.perf_counter() - start,
        nodes_explored=0,
    )


# -- split graphs ----------------------------------------------------------


def validate_partition(graph: Graph, partition: SplitPartition) -> bool:
    """True iff clique/independent cover V disjointly and induce what they claim.

    One flag per vertex marks the clique side: every clique vertex must have
    |clique| - 1 flagged neighbors, and every independent vertex only
    flagged ones.
    """
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


def _induced_edges(graph: Graph, vertices: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(u, v) for u, v in combinations(vertices, 2) if graph.has_edge(u, v)]


def _find_split_obstruction(graph: Graph) -> tuple[str, tuple[int, ...]] | None:
    """Search small induced obstructions (2K2, C4, C5); feasible for n <= 30."""
    if graph.n > 30:
        return None
    for quad in combinations(range(graph.n), 4):
        edges = _induced_edges(graph, quad)
        if len(edges) == 2 and len({v for e in edges for v in e}) == 4:
            return "2K2", quad
        if len(edges) == 4:
            degs = {v: 0 for v in quad}
            for u, v in edges:
                degs[u] += 1
                degs[v] += 1
            if all(d == 2 for d in degs.values()):
                return "C4", quad
    for quint in combinations(range(graph.n), 5):
        edges = _induced_edges(graph, quint)
        if len(edges) == 5:
            degs = {v: 0 for v in quint}
            for u, v in edges:
                degs[u] += 1
                degs[v] += 1
            if all(d == 2 for d in degs.values()):
                sub = Graph.from_edges(graph.n, edges)
                if sub.components(restrict=quint).count == 1:
                    return "C5", quint
    return None


def recognize_split(graph: Graph) -> SplitPartition | SplitRejection:
    """Degree-sequence split test; returns a partition or a certified rejection.

    With degrees sorted non-increasingly, the graph is split iff the first
    k degrees (k = largest index with d_j >= j, 0-based) sum to
    k(k-1) + the remaining degrees; the top-k vertices then form the clique.
    On rejection an induced 2K2/C4/C5 is reported when the search is feasible.
    """
    n = graph.n
    adj = graph.adj
    # The sort is stable over ascending ids, so equal degrees keep id order.
    order = sorted(range(n), key=[-len(a) for a in adj].__getitem__)
    degs = [len(adj[v]) for v in order]
    k = 0
    while k < n and degs[k] >= k:
        k += 1
    if sum(degs[:k]) == k * (k - 1) + sum(degs[k:]):
        partition = SplitPartition(
            clique=frozenset(order[:k]), independent=frozenset(order[k:])
        )
        if validate_partition(graph, partition):
            return partition
    found = _find_split_obstruction(graph)
    if found is None:
        return SplitRejection(reason="degree sequence fails the split equality")
    kind, vertices = found
    return SplitRejection(
        reason=f"induced {kind} on vertices {list(vertices)}",
        obstruction=vertices,
        obstruction_kind=kind,
    )


def random_split_graph(n: int, seed: int) -> tuple[Graph, SplitPartition]:
    """Seeded split graph with a known partition (clique size random)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = random.Random(seed)
    c = rng.randint(1, n)
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    for w in range(c, n):
        for u in range(c):
            if rng.random() < 0.5:
                edges.append((u, w))
    graph = Graph.from_edges(n, edges)
    return graph, SplitPartition(
        clique=frozenset(range(c)), independent=frozenset(range(c, n))
    )


# -- threshold graphs -------------------------------------------------------


def recognize_threshold(graph: Graph) -> ThresholdOrdering | ThresholdRejection:
    """Degree peel; returns nested-neighborhood orders or a rejection.

    The orders are re-validated directly (clique, independent set, and both
    nesting chains via consecutive subset checks), so acceptance certifies
    the characterization and never rests on the peel alone.
    """
    n = graph.n
    if n == 0:
        return ThresholdRejection(reason="empty graph")
    adj = graph.adj
    # The sort is stable over ascending ids, so equal degrees keep id order.
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
    clique_order = tuple(reversed(removed_universal))
    independent_order = tuple(reversed(removed_isolated))
    partition = SplitPartition(
        clique=frozenset(clique_order), independent=frozenset(independent_order)
    )
    ordering = ThresholdOrdering(
        partition=partition,
        clique_order=clique_order,
        independent_order=independent_order,
    )
    if not _threshold_ordering_valid(graph, ordering):
        return ThresholdRejection(reason="nesting chains failed validation")
    return ordering


def _threshold_ordering_valid(graph: Graph, ordering: ThresholdOrdering) -> bool:
    adj = graph.adj
    c = ordering.partition.clique
    i = ordering.partition.independent
    for x in c:
        if sum(1 for w in adj[x] if w in c) != len(c) - 1:
            return False
    for y in i:
        if any(w in i for w in adj[y]):
            return False
    xs = ordering.clique_order
    for a, b in zip(xs, xs[1:]):
        closed_a = set(adj[a]) | {a}
        closed_b = set(adj[b]) | {b}
        if not closed_a <= closed_b:
            return False
    ys = ordering.independent_order
    for a, b in zip(ys, ys[1:]):
        if not set(adj[b]) <= set(adj[a]):
            return False
    return True


def _is_star(graph: Graph) -> bool:
    if graph.n < 3 or graph.m != graph.n - 1:
        return False
    return max(len(a) for a in graph.adj) == graph.n - 1


def gamma_sc_threshold(graph: Graph) -> SolveReport:
    """Secure connected domination number of a connected threshold graph.

    Non-star case: 2 + pendant count, witnessed by the last two clique-order
    vertices plus the pendant independents.  Stars are the one connected
    non-complete threshold family where that count is off by one (the lower
    bound argument needs a second clique vertex that stars do not have), so
    they take the tree value instead: every vertex.
    """
    start = time.perf_counter()
    ordering = recognize_threshold(graph)
    if isinstance(ordering, ThresholdRejection):
        raise DomainError(f"not a threshold graph: {ordering.reason}")
    if not graph.is_connected():
        raise DomainError("threshold solver requires a connected graph")
    if graph.is_complete():
        return trivial_complete(start)
    if _is_star(graph):
        return SolveReport(
            variant="scds",
            value=graph.n,
            witness=frozenset(range(graph.n)),
            method=METHOD_THRESHOLD,
            elapsed=time.perf_counter() - start,
            nodes_explored=0,
        )
    xs = ordering.clique_order
    if len(xs) < 2:
        raise RuntimeError(
            "connected non-complete non-star threshold graph with fewer than two "
            "clique-order vertices; recognition is broken"
        )
    x_last, x_prev = xs[-1], xs[-2]
    window = (graph.neighbors(x_last) - graph.neighbors(x_prev)) & frozenset(
        ordering.independent_order
    )
    witness = frozenset({x_last, x_prev}) | window
    pendants = sum(1 for a in graph.adj if len(a) == 1)
    value = 2 + pendants
    if len(witness) != value:
        raise RuntimeError("threshold witness size disagrees with the formula")
    return SolveReport(
        variant="scds",
        value=value,
        witness=witness,
        method=METHOD_THRESHOLD,
        elapsed=time.perf_counter() - start,
        nodes_explored=0,
    )


# -- dispatch ----------------------------------------------------------------

METHODS = ("auto", "exact", "block", "threshold")


def gamma(
    graph: Graph, variant: str, method: str = "auto", *, max_n: int | None = DEFAULT_MAX_N
) -> SolveReport:
    """Minimum certificate size and witness by the named method.

    ``block`` and ``threshold`` compute scds only.  ``auto`` tries, for scds,
    the complete-graph shortcut, then the block formula, then the threshold
    formula, moving on when one raises DomainError (wrong class or
    disconnected); the exact search takes the rest and reports any refusal.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}")
    if method == "exact":
        return solve(graph, variant, max_n=max_n)
    if method != "auto" and variant != "scds":
        raise DomainError(f"the {method} formula computes the scds variant only")
    if method == "block":
        return gamma_sc_block(graph)
    if method == "threshold":
        return gamma_sc_threshold(graph)
    if variant == "scds" and graph.n >= 1:
        if graph.is_complete():
            return trivial_complete(time.perf_counter())
        for formula in (gamma_sc_block, gamma_sc_threshold):
            try:
                return formula(graph)
            except DomainError:
                pass
    return solve(graph, variant, max_n=max_n)


# -- misc recognizers and benchmark instances -------------------------------


def is_bipartite(graph: Graph) -> bool:
    color = [-1] * graph.n
    for start in range(graph.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in graph.adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def bench_block_graph(n: int) -> Graph:
    """Chain of K4 blocks glued at shared cut vertices, padded with a path
    tail so the instance hits the requested vertex count exactly."""
    if n < 2:
        raise DomainError("bench instance needs n >= 2")
    require_vertex_count(n, "bench instance")
    edges: list[tuple[int, int]] = []
    v = 0
    while n - 1 - v >= 3:
        edges.extend(combinations(range(v, v + 4), 2))
        v += 3
    while v < n - 1:
        edges.append((v, v + 1))
        v += 1
    return Graph.from_edges(n, edges)


def bench_threshold_graph(n: int) -> Graph:
    """Sparse connected threshold graph: n-2 independents under two universal
    vertices, so the edge count stays linear in n."""
    if n < 4:
        raise DomainError("bench instance needs n >= 4")
    require_vertex_count(n, "bench instance")
    edges = [(u, n - 2) for u in range(n - 2)]
    edges += [(u, n - 1) for u in range(n - 1)]
    return Graph.from_edges(n, edges)
