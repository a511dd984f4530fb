"""Named graph families with closed-form secure-connected-domination values.

Each family has a fixed canonical labeling so that generated edge lists,
witnesses, and serializations are byte-stable.  ``formula_value`` gives the
closed-form optimum and ``formula_witness`` an explicit optimal certificate
under the canonical labeling.
"""

from __future__ import annotations

from typing import NamedTuple

from . import FAMILY_KINDS
from .graph import MAX_VERTICES, DomainError, Graph

# Generated graphs may not exceed this many edges.  Every sparse family
# stays below it up to MAX_VERTICES vertices; it bounds the dense ones,
# which the vertex cap alone lets ask for about 5e13 edges.
MAX_EDGES = 2 * MAX_VERTICES

# Per kind: the least parameter n, then the vertex and edge counts of the
# member for parameter n (see ``generate``).
_SIZES = {
    "complete": (1, lambda n: n, lambda n: n * (n - 1) // 2),
    "subdivided_wheel": (3, lambda n: 2 * n + 1, lambda n: 3 * n),
    "book": (2, lambda n: 2 * n + 2, lambda n: 3 * n + 1),
    "ladder": (3, lambda n: 2 * n, lambda n: 3 * n - 2),
    "star": (2, lambda n: n + 1, lambda n: n),
}


class _Spec(NamedTuple):
    kind: str
    n: int


class FamilySpec(_Spec):
    """A family kind plus its size parameter (bounds per kind enforced; the
    member may not exceed ``graph.MAX_VERTICES`` vertices or ``MAX_EDGES``
    edges, checked before it is built, so a mistyped size parameter fails
    at once instead of exhausting memory)."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int) -> FamilySpec:
        if kind not in FAMILY_KINDS:
            raise DomainError(f"unknown family kind {kind!r}")
        least, vertices, edges = _SIZES[kind]
        if n < least:
            raise DomainError(f"family {kind} needs n >= {least}, got {n}")
        for count, noun, cap in ((vertices(n), "vertices", MAX_VERTICES), (edges(n), "edges", MAX_EDGES)):
            if count > cap:
                raise DomainError(f"family {kind} with n={n} would have {count} {noun}; the cap is {cap}")
        return super().__new__(cls, kind, n)


def generate(spec: FamilySpec) -> Graph:
    """Build the family member under its canonical labeling.

    complete K_n: vertices 0..n-1.
    star K_{1,n}: center 0, leaves 1..n.
    subdivided_wheel SW(n): hub 2n; rim vertex c_j = 2j; subdivision vertex
        s_j = 2j+1 between c_j and c_{(j+1) mod n}; hub adjacent to every c_j.
    book B(n): centers 0 and n+1; first-page leaves 1..n, second-page leaves
        n+2..2n+1; page stars plus the matching i <-> i+n+1 for i = 0..n.
    ladder L(n): bottom path 0..n-1, top path n..2n-1, rungs i <-> i+n.

    Each vertex's sorted neighbour tuple is written down from that labeling
    directly, and the edge count is the kind's closed form.
    """
    kind, n = spec.kind, spec.n
    if kind == "complete":
        everyone = tuple(range(n))
        adj = [everyone[:v] + everyone[v + 1 :] for v in range(n)]
    elif kind == "star":
        adj = [tuple(range(1, n + 1)), *((0,),) * n]
    elif kind == "subdivided_wheel":
        hub = 2 * n
        adj = [(c - 1, c + 1, hub) if c % 2 == 0 else (c - 1, c + 1) for c in range(hub)]
        adj[0] = (1, hub - 1, hub)
        adj[hub - 1] = (0, hub - 2)
        adj.append(tuple(range(0, hub, 2)))
    elif kind == "book":
        center1 = n + 1
        adj = [tuple(range(1, n + 2))]
        adj += [(0, i + center1) for i in range(1, n + 1)]
        adj.append((0, *range(n + 2, 2 * n + 2)))
        adj += [(i, center1) for i in range(1, n + 1)]
    elif kind == "ladder":
        adj = [(i - 1, i + 1, i + n) for i in range(n)]
        adj += [(i, i + n - 1, i + n + 1) for i in range(n)]
        adj[0], adj[n - 1] = (1, n), (n - 2, 2 * n - 1)
        adj[n], adj[-1] = (0, n + 1), (n - 1, 2 * n - 2)
    else:
        raise DomainError(f"unknown family kind {kind!r}")
    return Graph(len(adj), tuple(adj), _SIZES[kind][2](n))


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
