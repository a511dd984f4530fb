"""Linear-time secure-connected-domination solvers for block graphs and
threshold graphs, with the supporting recognizers.

Block graphs are handled through a block decomposition and a counting
formula over blocks and cut vertices; the decomposition and the block-graph
test run ``graph.lowpoint_walk``, the one lowpoint DFS of the package, which
the scds checker in ``verify`` runs on G[S].  Threshold graphs are
recognized by degree peeling: repeatedly remove a vertex that is isolated or
universal in the remaining graph.  Because removing an isolated vertex
changes no remaining degree and removing a universal vertex lowers every
remaining degree by exactly one, the peel runs with two pointers over the
degree-sorted vertex order, whose positions count the removed vertices; a
graph with no vertex of degree 0 or n - 1 is refused before the sort.
``gamma_sc_formula`` picks a solver for ``auto`` from one threshold
certificate and one ``_threshold_shape``, whose pendant count the threshold
formula reuses.  Both solvers return through ``securedom.formula_report``,
which checks that the witness size equals the formula's value.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import combinations
from typing import Callable, Collection, NamedTuple

from . import METHOD_BLOCK, METHOD_THRESHOLD, SolveReport, formula_report, trivial_complete
from .graph import DomainError, Graph, cut_vertices, lowpoint_walk


class BlockDecomposition(NamedTuple):
    """Blocks (maximal 2-connected pieces / bridges) and cut vertices.

    blocks are vertex tuples in the order the lowpoint walk closes them,
    each starting with the vertex it closes at.  cliques is True iff every
    block induces a clique, that is, iff the graph is a block graph.
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: frozenset[int]
    cliques: bool


class SplitPartition(NamedTuple):
    """A clique / independent-set bipartition of the vertex set."""

    clique: frozenset[int]
    independent: frozenset[int]


class SplitRejection(NamedTuple):
    reason: str
    obstruction: tuple[int, ...] | None = None
    obstruction_kind: str | None = None


class ThresholdOrdering(NamedTuple):
    """The nested-neighborhood orders of a threshold graph.

    clique_order lists the clique side and independent_order the
    independent side.  Closed neighborhoods grow along clique_order; open
    neighborhoods shrink along independent_order.
    """

    clique_order: tuple[int, ...]
    independent_order: tuple[int, ...]


class ThresholdRejection(NamedTuple):
    reason: str


def _walk_whole(graph: Graph, blocks: list[int] | None = None) -> tuple[list[int], int]:
    """The lowpoint walk of the whole graph from vertex 0: its preorder
    numbers and block pair sum (see ``graph.lowpoint_walk``).  Refuses
    exactly the empty and the disconnected graphs."""
    disc = [0] * graph.n
    if graph.n:
        reached, pairs = lowpoint_walk(graph.adj, disc, 0, blocks)
        if reached == graph.n:
            return disc, pairs
    raise DomainError("block decomposition requires a connected graph")


def block_decompose(graph: Graph) -> BlockDecomposition:
    """Blocks and cut vertices from the lowpoint walk.

    Deterministic: blocks come in the order the walk closes them, each
    starting with the vertex p it closes at.  Requires a connected graph.
    The cut vertices come from ``graph.cut_vertices``.
    """
    n = graph.n
    if n == 1:
        return BlockDecomposition(blocks=((0,),), cut_vertices=frozenset(), cliques=True)
    records: list[int] = []
    disc, pairs = _walk_whole(graph, records)
    # A block holds its head and the vertices of its interval that no block
    # closed inside it took.  Those blocks took whole intervals, which
    # ``skip`` jumps; ``order`` maps preorder numbers back to vertices.
    order = [0] * (n + 1)
    for v, d in enumerate(disc):
        order[d] = v
    skip = [0] * (n + 1)
    blocks: list[tuple[int, ...]] = []
    for p, lo, hi in zip(records[0::3], records[1::3], records[2::3]):
        block = [p]
        i = lo
        while i < hi:
            if skip[i]:
                i = skip[i]
            else:
                block.append(order[i])
                i += 1
        skip[lo] = hi
        blocks.append(tuple(block))
    return BlockDecomposition(
        blocks=tuple(blocks), cut_vertices=cut_vertices(records, 0), cliques=pairs == graph.m
    )


def is_block_graph(graph: Graph) -> bool:
    """True iff the (connected) graph's blocks all induce cliques.

    Runs the lowpoint walk alone, without collecting the blocks."""
    return _walk_whole(graph)[1] == graph.m


def gamma_sc_block(graph: Graph) -> SolveReport:
    """Secure connected domination number of a block graph, with witness.

    The value is the paper's k + r - r': k cut vertices, r blocks, and r'
    blocks made only of cut vertices.  The witness takes every cut vertex
    plus, per block that has one, its smallest non-cut vertex; the same pass
    counts r'.
    """
    decomp = block_decompose(graph)
    if not decomp.cliques:
        raise DomainError("not a block graph: some block is not a clique")
    cut = decomp.cut_vertices
    witness = set(cut)
    r_prime = 0
    for block in decomp.blocks:
        non_cut = [v for v in block if v not in cut]
        if non_cut:
            witness.add(min(non_cut))
        else:
            r_prime += 1
    value = len(cut) + len(decomp.blocks) - r_prime
    return formula_report(METHOD_BLOCK, value, frozenset(witness))


# -- split graphs ----------------------------------------------------------


def _clique_flags(graph: Graph, clique: Collection[int]) -> Callable[[int], int] | None:
    """The flag lookup of one flag per vertex marking ``clique``, or None
    unless every clique vertex has |clique| - 1 flagged neighbours."""
    in_clique = bytearray(graph.n)
    for v in clique:
        in_clique[v] = 1
    flag = in_clique.__getitem__
    adj = graph.adj
    want = len(clique) - 1
    for u in clique:
        if sum(map(flag, adj[u])) != want:
            return None
    return flag


# An induced 2K2 is a 1-regular subgraph on four vertices, and C4 and C5 are
# the only 2-regular graphs on four and five vertices, so an obstruction is a
# subset whose internal degrees are all one value.
_OBSTRUCTIONS = {(4, 1): "2K2", (4, 2): "C4", (5, 2): "C5"}


def _find_split_obstruction(graph: Graph) -> tuple[str, tuple[int, ...]] | None:
    """The first induced 2K2 or C4 over the 4-subsets in combinations order,
    else the first induced C5 over the 5-subsets; feasible for n <= 30.

    Each subset's internal degrees are read off adjacency bitmasks.
    """
    if graph.n > 30:
        return None
    masks = [sum(1 << w for w in row) for row in graph.adj]
    for size in (4, 5):
        for subset in combinations(range(graph.n), size):
            sub = sum(1 << v for v in subset)
            degrees = {(masks[v] & sub).bit_count() for v in subset}
            if len(degrees) == 1 and (kind := _OBSTRUCTIONS.get((size, degrees.pop()))):
                return kind, subset
    return None


def recognize_split(graph: Graph) -> SplitPartition | SplitRejection:
    """Degree-sequence split test; returns a partition or a certified rejection.

    With degrees sorted non-increasingly, the graph is split iff the first
    k degrees (k = largest index with d_j >= j, 0-based) sum to
    k(k-1) + the remaining degrees; the top-k vertices then form the clique.
    This is the one place the package finds a split partition: ``recognize``
    and the split reductions both call it.  On rejection with n <= 30 an
    induced 2K2, C4 or C5 (the Foldes-Hammer obstructions) is reported, the
    first that ``_find_split_obstruction`` meets.
    """
    n = graph.n
    degrees = list(map(len, graph.adj))
    # The sort is stable, also reversed, so equal degrees keep id order.
    order = sorted(range(n), key=degrees.__getitem__, reverse=True)
    degs = list(map(degrees.__getitem__, order))
    k = 0
    while k < n and degs[k] >= k:
        k += 1
    if sum(degs[:k]) == k * (k - 1) + sum(degs[k:]):
        partition = SplitPartition(clique=frozenset(order[:k]), independent=frozenset(order[k:]))
        # The sides split a permutation of the vertices, so they cover V
        # disjointly; check that they induce what they claim.
        flag = _clique_flags(graph, partition.clique)
        adj = graph.adj
        if flag is not None and all(all(map(flag, adj[u])) for u in partition.independent):
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


# -- threshold graphs -------------------------------------------------------


def recognize_threshold(graph: Graph) -> ThresholdOrdering | ThresholdRejection:
    """Degree peel; returns nested-neighborhood orders or a rejection.

    The orders are re-validated directly by a count certificate (see
    ``_threshold_ordering_valid``), so acceptance certifies the
    characterization and never rests on the peel alone.
    """
    n = graph.n
    if n == 0:
        return ThresholdRejection(reason="empty graph")
    degrees = list(map(len, graph.adj))
    # The peel's first step needs a vertex of degree 0 or n - 1.
    if min(degrees) and max(degrees) < n - 1:
        return ThresholdRejection(reason="no isolated or universal vertex remains")
    # The sort is stable over ascending ids, so equal degrees keep id order.
    order = sorted(range(n), key=degrees.__getitem__)
    # order[:lo] are peeled as isolated and order[hi + 1:] as universal, so a
    # remaining vertex is isolated at degree n - 1 - hi, universal at n - 1 - lo.
    lo, hi = 0, n - 1
    while lo <= hi:
        if degrees[order[lo]] == n - 1 - hi:
            lo += 1
        elif degrees[order[hi]] == n - 1 - lo:
            hi -= 1
        else:
            return ThresholdRejection(reason="no isolated or universal vertex remains")
    ordering = ThresholdOrdering(
        clique_order=tuple(order[lo:]), independent_order=tuple(reversed(order[:lo]))
    )
    if not _threshold_ordering_valid(graph, ordering):
        return ThresholdRejection(reason="nesting chains failed validation")
    return ordering


def _threshold_ordering_valid(graph: Graph, ordering: ThresholdOrdering) -> bool:
    """Certify the orders in O(n + m) by counting neighbours.

    The clique side must be a clique (``_clique_flags``), the
    degrees along independent_order must not increase and stay at most
    |C|, and the clique vertices must account for every independent
    degree, so no edge joins two independent vertices.  The clique vertex
    at rank r must then see exactly #{y : deg y >= |C| - r} independent
    vertices: those row sums are the conjugate of the independent degrees,
    which admit exactly one 0-1 matrix (Ryser 1957), the one in which each
    independent vertex of degree d sees the d highest ranks.  So each
    independent neighbourhood is a suffix of clique_order, which makes the
    closed neighbourhoods grow along it and the open ones shrink along
    independent_order (Chvatal-Hammer nesting).
    """
    adj = graph.adj
    xs = ordering.clique_order
    top = len(xs)
    if _clique_flags(graph, xs) is None:
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


def _threshold_shape(graph: Graph, ordering: ThresholdOrdering) -> tuple[bool, bool, int]:
    """(connected, block graph, pendant count) for a threshold graph, read
    off its certificate.  With two or more vertices it is connected iff the
    last clique-order vertex is universal; then the p pendants hang on it
    and the other h = n - p vertices form one 2-connected block, so it is a
    block graph iff n <= 2 or that block is a clique (m - p = h(h-1)/2)."""
    n, adj = graph.n, graph.adj
    pendants = list(map(len, adj)).count(1)
    xs = ordering.clique_order
    if n > 1 and not (xs and len(adj[xs[-1]]) == n - 1):
        return False, False, pendants
    h = n - pendants
    return True, n <= 2 or graph.m - pendants == h * (h - 1) // 2, pendants


def gamma_sc_threshold(graph: Graph) -> SolveReport:
    """Secure connected domination number of a connected threshold graph.

    Non-star case: 2 + pendant count, witnessed by the last two clique-order
    vertices plus the pendants.  Independent neighbourhoods are suffixes of
    clique_order, so every pendant hangs on the last clique-order vertex
    and the witness reads them off its row; the value counts pendants over
    all vertices, so ``formula_report`` checks that none hangs elsewhere.
    Stars are the one connected non-complete threshold family where that
    count is off by one (the lower bound argument needs a second clique
    vertex that stars do not have), so they take the tree value instead:
    every vertex.
    """
    ordering = recognize_threshold(graph)
    if isinstance(ordering, ThresholdRejection):
        raise DomainError(f"not a threshold graph: {ordering.reason}")
    return _threshold_formula(graph, ordering, _threshold_shape(graph, ordering))


def _threshold_formula(graph: Graph, ordering: ThresholdOrdering, shape: tuple[bool, bool, int]) -> SolveReport:
    """``gamma_sc_threshold`` on a graph whose certificate is ``ordering``
    and whose ``_threshold_shape`` is ``shape``."""
    connected, _, pendants = shape
    if not connected:
        raise DomainError("threshold solver requires a connected graph")
    if graph.is_complete():
        return trivial_complete()
    xs = ordering.clique_order
    if len(xs) == 1:
        # the one clique vertex is universal and the rest independent: a star
        return formula_report(METHOD_THRESHOLD, graph.n, frozenset(range(graph.n)))
    adj = graph.adj
    window = [y for y in adj[xs[-1]] if len(adj[y]) == 1]
    witness = frozenset(xs[-2:]).union(window)
    return formula_report(METHOD_THRESHOLD, 2 + pendants, witness)


def gamma_sc_formula(graph: Graph) -> SolveReport:
    """The scds formula chosen by one threshold certificate: the block
    formula for a non-threshold graph or a non-complete threshold block
    graph, else the threshold formula with that certificate.  Raises the
    chosen formula's DomainError when it does not apply."""
    ordering = recognize_threshold(graph)
    if isinstance(ordering, ThresholdOrdering):
        shape = _threshold_shape(graph, ordering)
        if graph.is_complete() or not shape[1]:
            return _threshold_formula(graph, ordering, shape)
    return gamma_sc_block(graph)


# -- misc recognizers ------------------------------------------------------


def is_bipartite(graph: Graph) -> bool:
    adj = graph.adj
    color = [-1] * graph.n
    for start in range(graph.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def recognize_classes(graph: Graph) -> tuple[dict[str, bool], SplitRejection | None]:
    """The classes ``securedom recognize`` reports, and the split rejection
    when the graph is not split.

    An accepted threshold certificate answers every class without a search.
    The graph is split (Chvatal-Hammer), ``_threshold_shape`` answers
    connected and block_graph, and it is bipartite iff it holds no
    triangle: the clique side has at most one vertex, or two that no
    independent vertex sees both of.

    Otherwise a graph with m = n - 1 is connected iff it is a tree, and
    trees are bipartite block graphs, so one search answers all four.  Any
    other graph runs the lowpoint walk, which refuses exactly the empty and
    disconnected graphs, and a block graph with m != n - 1 holds a triangle.
    """
    n, m, adj = graph.n, graph.m, graph.adj
    ordering = recognize_threshold(graph)
    threshold = isinstance(ordering, ThresholdOrdering)
    rejection = None
    if threshold:
        xs = ordering.clique_order
        connected, block_graph, _ = _threshold_shape(graph, ordering)
        bipartite = len(xs) <= 1 or (
            len(xs) == 2 and all(len(adj[y]) <= 1 for y in ordering.independent_order)
        )
    else:
        split = recognize_split(graph)
        if isinstance(split, SplitRejection):
            rejection = split
        if m == n - 1:
            connected = block_graph = graph.is_connected()
            bipartite = connected or is_bipartite(graph)
        else:
            try:
                block_graph = is_block_graph(graph)
                connected = True
            except DomainError:
                block_graph = connected = False
            bipartite = not block_graph and is_bipartite(graph)
    classes = {
        "connected": connected,
        "complete": graph.is_complete(),
        "tree": connected and m == n - 1,
        "block_graph": block_graph,
        "split": rejection is None,
        "threshold": threshold,
        "bipartite": bipartite,
    }
    return classes, rejection
