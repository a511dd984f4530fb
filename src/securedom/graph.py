"""Immutable simple undirected graph over dense 0-based integer vertex ids.

Edge-list text format (the interchange format for every CLI command):

    # comment lines start with '#'
    p <n> <m>        optional header; fixes the vertex count
    u v              one edge per line, ASCII decimal ids

Without a header the vertex count is 1 + the largest id seen.  Duplicate
edges are collapsed with a warning; self-loops are rejected.
"""

from __future__ import annotations

import warnings
from collections import deque
from io import StringIO
from typing import IO, Iterable, NamedTuple

# Ids at or above this bound are treated as corrupt input rather than a
# request for an absurdly large adjacency table.
MAX_VERTICES = 10**7
# Generated graphs may not exceed this many edges.  Every sparse family
# stays below it up to MAX_VERTICES vertices; it bounds the dense ones.
MAX_EDGES = 2 * MAX_VERTICES


class ParseError(ValueError):
    """Malformed edge-list input."""


class DomainError(ValueError):
    """Structurally valid input outside an operation's domain."""


def require_vertex_count(count: int, what: str) -> None:
    """Refuse a generated graph above MAX_VERTICES before it is built, so a
    mistyped size parameter fails at once instead of exhausting memory."""
    if count > MAX_VERTICES:
        raise DomainError(f"{what} would have {count} vertices; the cap is {MAX_VERTICES}")


def require_edge_count(count: int, what: str) -> None:
    """Refuse a generated graph above MAX_EDGES before it is built; the
    vertex cap alone lets a dense family ask for about 5e13 edges."""
    if count > MAX_EDGES:
        raise DomainError(f"{what} would have {count} edges; the cap is {MAX_EDGES}")


class ComponentLabeling(NamedTuple):
    """Connected-component labels for a graph or an induced subgraph.

    Labels are assigned in order of first discovery by ascending vertex id,
    so the labeling is deterministic.  ``labels`` only covers the vertices
    in scope (all of V, or the ``restrict`` set).
    """

    labels: dict[int, int]
    count: int


class Graph(NamedTuple):
    """Simple undirected graph; vertices are 0..n-1, adjacency lists sorted."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    m: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge iterable, validating simple-graph invariants.

        Duplicate edges (in either orientation) are collapsed silently here,
        so ``m`` counts distinct edges; self-loops and out-of-range
        endpoints raise.  Each edge is checked and stored as (min, max),
        and the adjacency comes from ``_build``.
        """
        if n < 0:
            raise DomainError(f"vertex count must be nonnegative, got {n}")
        pairs: list[tuple[int, int]] = []
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            pairs.append((u, v) if u < v else (v, u))
        return _build(n, pairs, len(set(pairs)))

    # -- basic queries ----------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return [(u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v]

    def is_complete(self) -> bool:
        return 2 * self.m == self.n * (self.n - 1)

    def components(self, restrict: Iterable[int] | None = None) -> ComponentLabeling:
        """Label connected components of G, or of the subgraph induced by ``restrict``."""
        if restrict is None:
            scope = range(self.n)
            member = None
        else:
            scope_set = set(restrict)
            for v in scope_set:
                self._check_vertex(v)
            scope = sorted(scope_set)
            member = scope_set
        adj = self.adj
        labels: dict[int, int] = {}
        count = 0
        for start in scope:
            if start in labels:
                continue
            labels[start] = count
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if member is not None and w not in member:
                        continue
                    if w not in labels:
                        labels[w] = count
                        queue.append(w)
            count += 1
        return ComponentLabeling(labels=labels, count=count)

    def is_connected(self) -> bool:
        """One depth-first search from vertex 0 over a flag per vertex."""
        n = self.n
        return n > 0 and flagged_reach(self.adj, bytearray(b"\x01") * n, 0) == n

    def leaves(self) -> frozenset[int]:
        """Vertices of degree 1 (pendant vertices)."""
        return frozenset(v for v, nbrs in enumerate(self.adj) if len(nbrs) == 1)

    def supports(self) -> frozenset[int]:
        """Vertices adjacent to at least one leaf."""
        return frozenset(nbrs[0] for nbrs in self.adj if len(nbrs) == 1)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            span = f" 0..{self.n - 1}" if self.n else ": the graph has no vertices"
            raise DomainError(f"vertex {v} outside range{span}")


def flagged_reach(adj: tuple[tuple[int, ...], ...], flags: bytearray, root: int) -> int:
    """How many vertices a depth-first search from ``root`` reaches when it
    may enter only flagged vertices, ``root`` included.  It clears the flag
    of each vertex it reaches, so pass flags that may be spent."""
    flags[root] = 0
    stack = [root]
    reached = 1
    while stack:
        for w in adj[stack.pop()]:
            if flags[w]:
                flags[w] = 0
                reached += 1
                stack.append(w)
    return reached


def lowpoint_walk(
    adj: tuple[tuple[int, ...], ...], disc: list[int], root: int, blocks: list[int] | None = None
) -> tuple[int, int]:
    """One iterative lowpoint DFS (Hopcroft and Tarjan, CACM 16(6), 1973)
    from ``root``; returns the number of vertices reached and the sum of
    k(k-1)/2 over the blocks it closes, k being a block's vertex count.

    ``disc`` holds 0 for every vertex the walk may enter and, on return,
    the preorder number (from 1) of every vertex reached.  A vertex whose
    entry exceeds every preorder number (n + 1 will do) is never entered
    and never lowers a lowpoint, so the walk covers the subgraph induced
    by the zero entries without a membership test.

    Neighbours are explored in ascending order.  A block closes at a tree
    edge (p, c) with low[c] >= disc[p]: it holds p and the vertices
    entered since c that no earlier block took, and c's subtree holds the
    preorder numbers [disc[c], t), t being the next number once c is done.
    Given a list, each block appends p, disc[c] and t to ``blocks``.
    Blocks partition the edges and a block on k vertices holds at most
    k(k-1)/2 of them, so every block is a clique iff the sum equals the
    edge count.
    """
    low = [0] * len(adj)
    disc[root] = low[root] = 1
    timer = 2
    pairs = 0
    # Vertices entered and not yet in a closed block.  The DFS path keeps
    # each vertex's neighbour iterator and the open count when it was
    # entered.  The edge back to the parent may lower low[v] to disc[p]
    # but never below it, so the test above is unchanged.
    open_count = 0
    path = [root]
    iters = [iter(adj[root])]
    marks = [0]
    while path:
        v = path[-1]
        lv = low[v]
        for w in iters[-1]:
            dw = disc[w]
            if dw == 0:
                low[v] = lv
                marks.append(open_count)
                open_count += 1
                disc[w] = low[w] = timer
                timer += 1
                path.append(w)
                iters.append(iter(adj[w]))
                break
            if dw < lv:
                lv = dw
        else:
            path.pop()
            iters.pop()
            mark = marks.pop()
            if not path:
                break
            pv = path[-1]
            if lv < low[pv]:
                low[pv] = lv
            if lv >= disc[pv]:
                k = open_count - mark
                pairs += k * (k + 1) // 2
                open_count = mark
                if blocks is not None:
                    blocks += (pv, disc[v], timer)
    if open_count:
        raise RuntimeError("lowpoint walk left an unclosed block")
    return timer - 1, pairs


def _build(n: int, edges: list[tuple[int, int]], distinct: int) -> Graph:
    """Graph on 0..n-1 from checked (min, max) edges, ``distinct`` of them
    different: per-vertex buckets, deduplicated only when that count shows
    a repeat, each sorted once."""
    buckets: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        buckets[u].append(v)
        buckets[v].append(u)
    if distinct != len(edges):
        buckets = [list(set(bucket)) for bucket in buckets]
    for bucket in buckets:
        bucket.sort()
    return Graph(n, tuple(map(tuple, buckets)), distinct)


def _parse_header(parts: list[str], lineno: int) -> tuple[int, int]:
    if len(parts) != 3:
        raise ParseError(f"line {lineno}: header must be 'p <n> <m>'")
    try:
        header_n, header_m = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric header field") from None
    if header_n < 0 or header_m < 0 or header_n > MAX_VERTICES:
        raise ParseError(f"line {lineno}: header out of range")
    return header_n, header_m


def from_edge_list(source: str | IO[str]) -> Graph:
    """Parse the edge-list text format into a Graph.

    Raises ParseError (with the offending line number) for self-loops,
    negative or oversized ids, malformed lines, or ids exceeding a declared
    header.  Duplicate edges are collapsed and reported via warnings.warn.

    Each line is split once; a two-token numeric line is an edge, and only
    the lines that fail that reading are classified further (blank,
    comment, header or malformed), so errors keep their line order.
    """
    stream = StringIO(source) if isinstance(source, str) else source
    header_n: int | None = None
    header_m: int | None = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(stream, start=1):
        parts = raw.split()
        try:
            a, b = parts
            u, v = int(a), int(b)
        except ValueError:
            pass
        else:
            if u > v:
                u, v = v, u
            if u < 0:
                raise ParseError(f"line {lineno}: negative vertex id")
            if v >= MAX_VERTICES:
                raise ParseError(f"line {lineno}: vertex id too large")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at vertex {u}")
            if v > max_id:
                max_id = v
            edges.append((u, v))
            continue
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] == "p":
            if header_n is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            header_n, header_m = _parse_header(parts, lineno)
            continue
        line = raw.strip()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        raise ParseError(f"line {lineno}: non-numeric vertex id in {line!r}")
    n = max_id + 1
    if header_n is not None and header_n < n:
        raise ParseError(f"header declares {header_n} vertices but id {max_id} appears")
    graph = _build(n, edges, len(set(edges)))
    if header_n is not None and header_n > n:
        # Vertices above the largest id are isolated: they share one empty
        # tuple instead of a bucket each.
        graph = Graph(n=header_n, adj=graph.adj + ((),) * (header_n - n), m=graph.m)
    duplicates = len(edges) - graph.m
    if duplicates:
        warnings.warn(f"{duplicates} duplicate edge(s) collapsed", stacklevel=2)
    if header_m is not None and header_m != graph.m:
        warnings.warn(
            f"header declares {header_m} edges but {graph.m} unique edges parsed",
            stacklevel=2,
        )
    return graph


def to_edge_list(graph: Graph) -> str:
    """Canonical serialization: header, then edges u < v in lexicographic order.

    Round-trips through from_edge_list and is byte-stable, so structurally
    equal graphs serialize identically.  Each vertex's neighbours above it
    are read straight from its sorted adjacency tuple, and each id is
    formatted once.
    """
    names = list(map(str, range(graph.n)))
    lines = [f"p {graph.n} {graph.m}"]
    for u, nbrs in enumerate(graph.adj):
        head = names[u] + " "
        for v in nbrs:
            if v > u:
                lines.append(head + names[v])
    return "\n".join(lines) + "\n"


def parse_vertex_set(text: str, graph: Graph) -> frozenset[int]:
    """Parse a comma-separated vertex list ('1,2,5') against a graph's range."""
    text = text.strip()
    if not text:
        return frozenset()
    out = set()
    for token in text.split(","):
        token = token.strip()
        try:
            if not token.isascii():  # int() also reads other scripts' digits
                raise ValueError
            v = int(token)
        except ValueError:
            raise ParseError(f"bad vertex id {token!r} in set") from None
        graph._check_vertex(v)
        out.add(v)
    return frozenset(out)


def format_vertex_set(vertices: Iterable[int]) -> str:
    return ",".join(str(v) for v in sorted(vertices))
