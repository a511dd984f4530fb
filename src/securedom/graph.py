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
from dataclasses import dataclass
from io import StringIO
from typing import IO, Iterable

# Ids at or above this bound are treated as corrupt input rather than a
# request for an absurdly large adjacency table.
MAX_VERTICES = 10**7


class ParseError(ValueError):
    """Malformed edge-list input."""


class DomainError(ValueError):
    """Structurally valid input outside an operation's domain."""


def require_vertex_count(count: int, what: str) -> None:
    """Refuse a generated graph above MAX_VERTICES before it is built, so a
    mistyped size parameter fails at once instead of exhausting memory."""
    if count > MAX_VERTICES:
        raise DomainError(f"{what} would have {count} vertices; the cap is {MAX_VERTICES}")


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

        Duplicate edges are collapsed silently here (the parser is the layer
        that warns); self-loops and out-of-range endpoints raise.  Adjacency
        is assembled by sorting directed pairs and grouping, so construction
        stays lean on large sparse inputs.
        """
        if n < 0:
            raise DomainError(f"vertex count must be nonnegative, got {n}")
        pairs: list[tuple[int, int]] = []
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            pairs.append((u, v))
            pairs.append((v, u))
        pairs.sort()
        adj: list[tuple[int, ...]] = [()] * n
        m = 0
        i = 0
        total = len(pairs)
        while i < total:
            src = pairs[i][0]
            nbrs: list[int] = []
            last = -1
            while i < total and pairs[i][0] == src:
                dst = pairs[i][1]
                if dst != last:
                    nbrs.append(dst)
                    last = dst
                i += 1
            adj[src] = tuple(nbrs)
            m += len(nbrs)
        return cls(n=n, adj=tuple(adj), m=m // 2)

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


def from_edge_list(source: str | IO[str]) -> Graph:
    """Parse the edge-list text format into a Graph.

    Raises ParseError (with the offending line number) for self-loops,
    negative or oversized ids, malformed lines, or ids exceeding a declared
    header.  Duplicate edges are collapsed and reported via warnings.warn.
    """
    stream = StringIO(source) if isinstance(source, str) else source
    header_n: int | None = None
    header_m: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    duplicates = 0
    max_id = -1
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header_n is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                header_n, header_m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric header field") from None
            if header_n < 0 or header_m < 0 or header_n > MAX_VERTICES:
                raise ParseError(f"line {lineno}: header out of range")
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        if u >= MAX_VERTICES or v >= MAX_VERTICES:
            raise ParseError(f"line {lineno}: vertex id too large")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            duplicates += 1
        else:
            seen.add(key)
            edges.append(key)
        max_id = max(max_id, u, v)
    n = max_id + 1
    if header_n is not None:
        if header_n < n:
            raise ParseError(
                f"header declares {header_n} vertices but id {max_id} appears"
            )
        n = header_n
    if duplicates:
        warnings.warn(f"{duplicates} duplicate edge(s) collapsed", stacklevel=2)
    if header_m is not None and header_m != len(edges):
        warnings.warn(
            f"header declares {header_m} edges but {len(edges)} unique edges parsed",
            stacklevel=2,
        )
    return Graph.from_edges(n, edges)


def to_edge_list(graph: Graph) -> str:
    """Canonical serialization: header, then edges u < v in lexicographic order.

    Round-trips through from_edge_list and is byte-stable, so structurally
    equal graphs serialize identically.
    """
    lines = [f"p {graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
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
