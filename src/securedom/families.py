"""Named graph families with closed-form secure-connected-domination values.

Each family has a fixed canonical labeling so that generated edge lists,
witnesses, and serializations are byte-stable.  ``formula_value`` gives the
closed-form optimum and ``formula_witness`` an explicit optimal certificate
under the canonical labeling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DomainError, Graph, require_edge_count, require_vertex_count
from .names import FAMILY_KINDS

_MIN_PARAM = {
    "complete": 1,
    "subdivided_wheel": 3,
    "book": 2,
    "ladder": 3,
    "star": 2,
}

# Vertex count of each kind's member for parameter n (see ``generate``).
_VERTEX_COUNT = {
    "complete": lambda n: n,
    "subdivided_wheel": lambda n: 2 * n + 1,
    "book": lambda n: 2 * n + 2,
    "ladder": lambda n: 2 * n,
    "star": lambda n: n + 1,
}

# Edge count of each kind's member for parameter n.
_EDGE_COUNT = {
    "complete": lambda n: n * (n - 1) // 2,
    "subdivided_wheel": lambda n: 3 * n,
    "book": lambda n: 3 * n + 1,
    "ladder": lambda n: 3 * n - 2,
    "star": lambda n: n,
}


@dataclass(frozen=True)
class FamilySpec:
    """A family kind plus its size parameter (bounds per kind enforced; the
    member may not exceed ``graph.MAX_VERTICES`` vertices or
    ``graph.MAX_EDGES`` edges)."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}")
        if self.n < _MIN_PARAM[self.kind]:
            raise DomainError(
                f"family {self.kind} needs n >= {_MIN_PARAM[self.kind]}, got {self.n}"
            )
        what = f"family {self.kind} with n={self.n}"
        require_vertex_count(_VERTEX_COUNT[self.kind](self.n), what)
        require_edge_count(_EDGE_COUNT[self.kind](self.n), what)


def generate(spec: FamilySpec) -> Graph:
    """Build the family member under its canonical labeling.

    complete K_n: vertices 0..n-1.
    star K_{1,n}: center 0, leaves 1..n.
    subdivided_wheel SW(n): hub 2n; rim vertex c_j = 2j; subdivision vertex
        s_j = 2j+1 between c_j and c_{(j+1) mod n}; hub adjacent to every c_j.
    book B(n): centers 0 and n+1; first-page leaves 1..n, second-page leaves
        n+2..2n+1; page stars plus the matching i <-> i+n+1 for i = 0..n.
    ladder L(n): bottom path 0..n-1, top path n..2n-1, rungs i <-> i+n.
    """
    kind, n = spec.kind, spec.n
    if kind == "complete":
        return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if kind == "star":
        return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])
    if kind == "subdivided_wheel":
        hub = 2 * n
        edges = []
        for j in range(n):
            c, s, c_next = 2 * j, 2 * j + 1, 2 * ((j + 1) % n)
            edges.append((c, s))
            edges.append((s, c_next))
            edges.append((hub, c))
        return Graph.from_edges(2 * n + 1, edges)
    if kind == "book":
        center0, center1 = 0, n + 1
        edges = [(center0, i) for i in range(1, n + 1)]
        edges += [(center1, center1 + i) for i in range(1, n + 1)]
        edges += [(i, i + n + 1) for i in range(0, n + 1)]
        return Graph.from_edges(2 * n + 2, edges)
    if kind == "ladder":
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(n + i, n + i + 1) for i in range(n - 1)]
        edges += [(i, i + n) for i in range(n)]
        return Graph.from_edges(2 * n, edges)
    raise DomainError(f"unknown family kind {kind!r}")


def formula_value(spec: FamilySpec) -> int:
    """Closed-form secure connected domination number of the family member."""
    kind, n = spec.kind, spec.n
    if kind == "complete":
        return 1
    if kind == "subdivided_wheel":
        return n + 1
    if kind == "book":
        return n + 2
    if kind == "ladder":
        return n + -(-n // 3)
    if kind == "star":
        # a star is a tree on n+1 vertices, and trees need every vertex
        return n + 1
    raise DomainError(f"unknown family kind {kind!r}")


def formula_witness(spec: FamilySpec) -> frozenset[int]:
    """An optimal certificate under the canonical labeling.

    subdivided_wheel: hub plus all rim vertices (the even ids).
    book: all of the first page plus the second center.
    ladder: the whole bottom row plus top-row picks at 1-based positions
        2, 5, 8, ...; that spacing dominates the top path except when
        n % 3 == 1 leaves the last column uncovered, in which case the
        final top vertex is added.
    """
    kind, n = spec.kind, spec.n
    if kind == "complete":
        return frozenset({0})
    if kind == "star":
        return frozenset(range(n + 1))
    if kind == "subdivided_wheel":
        return frozenset(range(0, 2 * n + 1, 2))
    if kind == "book":
        return frozenset(range(0, n + 2))
    if kind == "ladder":
        positions = set(range(2, n + 1, 3))
        if n % 3 == 1:
            positions.add(n)
        return frozenset(range(n)) | frozenset(n + (i - 1) for i in positions)
    raise DomainError(f"unknown family kind {kind!r}")
