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
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from io import StringIO
from typing import IO, Iterable

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


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected-component labels for a graph or an induced subgraph.

    Labels are assigned in order of first discovery by ascending vertex id,
    so the labeling is deterministic.  ``labels`` only covers the vertices
    in scope (all of V, or the ``restrict`` set).
    """

    labels: dict[int, int]
    count: int


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; vertices are 0..n-1, adjacency lists sorted."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    m: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge iterable, validating simple-graph invariants.

        Duplicate edges (in either orientation) are collapsed silently here,
        so ``m`` counts distinct edges and the parser derives its duplicate
        warning from it; self-loops and out-of-range endpoints raise.  Each
        edge appends its endpoints to per-vertex buckets; the buckets are
        deduplicated only when their set sizes show a repeated edge, and each
        is sorted in place once, so construction is linear apart from the
        per-vertex sorts.
        """
        if n < 0:
            raise DomainError(f"vertex count must be nonnegative, got {n}")
        buckets: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            buckets[u].append(v)
            buckets[v].append(u)
        distinct = sum(map(len, map(set, buckets)))
        if distinct != sum(map(len, buckets)):
            buckets = [list(set(bucket)) for bucket in buckets]
        for bucket in buckets:
            bucket.sort()
        return cls(n=n, adj=tuple(map(tuple, buckets)), m=distinct // 2)

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj[v])

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood of v."""
        self._check_vertex(v)
        return frozenset(self.adj[v])

    def closed_neighborhood(self, vertices: Iterable[int]) -> frozenset[int]:
        """The given set together with every neighbor of one of its members."""
        out: set[int] = set()
        for v in vertices:
            self._check_vertex(v)
            out.add(v)
            out.update(self.adj[v])
        return frozenset(out)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if len(self.adj[u]) > len(self.adj[v]):
            u, v = v, u
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

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
        labels: dict[int, int] = {}
        count = 0
        for start in scope:
            if start in labels:
                continue
            labels[start] = count
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if member is not None and w not in member:
                        continue
                    if w not in labels:
                        labels[w] = count
                        queue.append(w)
            count += 1
        return ComponentLabeling(labels=labels, count=count)

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        return self.components().count == 1

    def leaves(self) -> frozenset[int]:
        """Vertices of degree 1 (pendant vertices)."""
        return frozenset(v for v in range(self.n) if len(self.adj[v]) == 1)

    def supports(self) -> frozenset[int]:
        """Vertices adjacent to at least one leaf."""
        return frozenset(self.adj[v][0] for v in range(self.n) if len(self.adj[v]) == 1)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise DomainError(f"vertex {v} outside range 0..{self.n - 1}")


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
            if u < 0 or v < 0:
                raise ParseError(f"line {lineno}: negative vertex id")
            high = u if u > v else v
            if high >= MAX_VERTICES:
                raise ParseError(f"line {lineno}: vertex id too large")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at vertex {u}")
            if high > max_id:
                max_id = high
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
    if header_n is not None:
        if header_n < n:
            raise ParseError(f"header declares {header_n} vertices but id {max_id} appears")
        n = header_n
    graph = Graph.from_edges(n, edges)
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
    are read straight from its sorted adjacency tuple.
    """
    lines = [f"p {graph.n} {graph.m}"]
    for u, nbrs in enumerate(graph.adj):
        head = f"{u} "
        for v in nbrs[bisect_right(nbrs, u) :]:
            lines.append(head + str(v))
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
            v = int(token)
        except ValueError:
            raise ParseError(f"bad vertex id {token!r} in set") from None
        if not (0 <= v < graph.n):
            raise DomainError(f"vertex {v} outside range 0..{graph.n - 1}")
        out.add(v)
    return frozenset(out)


def format_vertex_set(vertices: Iterable[int]) -> str:
    return ",".join(str(v) for v in sorted(vertices))
