"""Certificate checkers for six domination variants.

A set S is checked against the variant's definition; the secure variants
("swap" variants) additionally require that every outside vertex u has a
defender v in S adjacent to u such that (S - {v}) + {u} still satisfies the
base property.

``failure_reason`` is the one check: it tests coverage, a non-empty set,
connectivity and the swap rules in that order, and every boolean checker,
``check_variant`` and the exact search read its verdict.  It never rebuilds
S: after the base check it applies local swap rules (Cockayne et al.,
Protection of a graph, Util. Math. 67, 2005) in near-linear time.
Swapping v for u keeps S dominating iff every vertex whose only member in
its closed neighbourhood is v lies in N[u]; it keeps S totally dominating
iff every vertex whose only member neighbour is v lies in N(u); it keeps S
connected dominating iff the first rule holds and u touches every component
of G[S - v], read from one lowpoint DFS of G[S] (Hopcroft and Tarjan, CACM
16(6), 1973): ``graph.lowpoint_walk``, the walk that block recognition and
block decomposition in ``fast`` run on the whole graph.

The literal swap loop ``_swap_check`` and its wrappers ``is_scds_definition``
and ``is_stds`` rebuild S for every pair and re-run the whole-graph check;
they are the test oracles the fast checkers are compared against.

All checkers are total: disconnected graphs or otherwise hopeless sets
yield False rather than an error.  A member outside 0..n-1 raises the
graph's range ``DomainError``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable

from . import VARIANTS
from .graph import DomainError, Graph, cut_vertices, flagged_reach, lowpoint_walk


def is_dominating(graph: Graph, members: Iterable[int]) -> bool:
    """True iff the closed neighborhood of the set covers every vertex."""
    return failure_reason(graph, "ds", members) is None


def is_connected_dominating(graph: Graph, members: Iterable[int]) -> bool:
    """Dominating and inducing a connected subgraph; empty sets never qualify."""
    return failure_reason(graph, "cds", members) is None


def is_total_dominating(graph: Graph, members: Iterable[int]) -> bool:
    """Every vertex of the graph, members included, has a neighbor in the set."""
    return failure_reason(graph, "tds", members) is None


def _member_flags(graph: Graph, s: set[int] | frozenset[int]) -> bytearray:
    """A flag per vertex, set on the members of S.  A member outside 0..n-1
    raises the graph's range error (a negative id would index a row)."""
    n = graph.n
    inside = bytearray(n)
    for v in s:
        if not 0 <= v < n:
            graph._check_vertex(v)
        inside[v] = 1
    return inside


def _first_uncovered(graph: Graph, s: set[int] | frozenset[int], closed: bool) -> int:
    """Least vertex outside N[S] (outside N(S) when ``closed`` is False), or
    -1 if there is none.  The members' neighbourhoods are joined into one
    set, which stops growing once it holds every vertex."""
    n, adj = graph.n, graph.adj
    covered = set(s) if closed else set()
    for v in s:
        covered.update(adj[v])
        if len(covered) == n:
            return -1
    return next((v for v in range(n) if v not in covered), -1)


def _induces_connected(
    adj: tuple[tuple[int, ...], ...], inside: bytearray, s: set[int] | frozenset[int]
) -> bool:
    """Whether the non-empty set S, flagged in ``inside``, induces a connected
    subgraph: one search that spends a copy of the flags."""
    return flagged_reach(adj, bytearray(inside), next(iter(s))) == len(s)


def _swap_check(
    graph: Graph, s: set[int], keeps_property: Callable[[Graph, set[int]], bool]
) -> tuple[bool, dict[int, frozenset[int]]]:
    """Common swap loop for the secure variants.

    For each outside u, collect defenders v in S adjacent to u whose swap
    preserves ``keeps_property``.  S is valid exactly when every outside
    vertex has a nonempty defender set; on a failed check the map covers the
    outside vertices inspected up to and including the first undefended one.
    """
    defenders: dict[int, frozenset[int]] = {}
    ok = True
    for u, nbrs in enumerate(graph.adj):
        if u in s:
            continue
        valid: set[int] = set()
        for v in nbrs:
            if v not in s:
                continue
            swapped = set(s)
            swapped.discard(v)
            swapped.add(u)
            if keeps_property(graph, swapped):
                valid.add(v)
        defenders[u] = frozenset(valid)
        if not valid:
            ok = False
            break
    return ok, defenders


def _private_neighbours(
    adj: tuple[tuple[int, ...], ...], inside: bytearray, closed: bool
) -> dict[int, list[int]]:
    """The vertices private to each member, in one pass over the graph.

    w is private to member v when v is its only member in N[w] (in N(w)
    when ``closed`` is False).  Members with no private vertex are absent.
    """
    private: dict[int, list[int]] = {}
    for w, nbrs in enumerate(adj):
        sole = w if closed and inside[w] else -1
        count = 0 if sole < 0 else 1
        for x in nbrs:
            if inside[x]:
                count += 1
                if count > 1:
                    break
                sole = x
        if count == 1:
            if sole in private:
                private[sole].append(w)
            else:
                private[sole] = [w]
    return private


class _Cuts:
    """Where G[S - v] falls apart, for the connected G[S] of |S| >= 2, read
    from one ``graph.lowpoint_walk`` of G[S] rooted at min(S).

    Each block the walk closes at a member v names a separating subtree of
    v by its preorder interval [lo, hi); those subtrees are components of
    G[S - v], and the rest of S - v, non-empty unless v is the root, is one
    more.  ``cut`` holds the members for which there are two or more.
    """

    def __init__(self, adj: tuple[tuple[int, ...], ...], members: set[int] | frozenset[int]) -> None:
        self.disc = disc = [len(adj) + 1] * len(adj)
        for v in members:
            disc[v] = 0
        self.root = root = min(members)
        self.records: list[int] = []
        lowpoint_walk(adj, disc, root, self.records)
        self.cut = cut_vertices(self.records, root)
        self._grouped: dict[int, list[int]] | None = None

    def parts(self, v: int) -> tuple[int, list[int]]:
        """The number of components of G[S - v] and the flat bounds
        [lo0, hi0, lo1, hi1, ...] of v's separating subtrees.

        Every head's bounds are grouped from the records on the first call;
        they arrive ascending, as the walk closes a vertex's blocks in the
        order it enters their subtrees.
        """
        if self._grouped is None:
            records = self.records
            self._grouped = {}
            for p, lo, hi in zip(records[0::3], records[1::3], records[2::3]):
                self._grouped.setdefault(p, []).extend((lo, hi))
        bounds = self._grouped.get(v, [])
        return len(bounds) // 2 + (v != self.root), bounds

    def touches_all(self, v: int, members: list[int]) -> bool:
        """Whether ``members`` (the member neighbours of an outside vertex, v
        among them) meet every component of G[S - v].

        Each member other than v is placed by bisecting its preorder number
        into v's bounds: an odd insertion point names a separating subtree,
        an even one means the rest of S - v.
        """
        count, bounds = self.parts(v)
        if len(members) <= count:
            return False
        disc = self.disc
        touched = set()
        for x in members:
            if x != v:
                i = bisect_right(bounds, disc[x])
                touched.add(i if i & 1 else 0)
        return len(touched) == count


def _first_undefended(
    graph: Graph, variant: str, s: set[int] | frozenset[int], inside: bytearray
) -> int | None:
    """Least outside vertex with no valid defender, or None if S is secure.

    S, flagged in ``inside``, must already have the variant's base property.
    Swapping member v for an adjacent outside vertex u is valid exactly when:

    * sds: every w with N[w] & S == {v} lies in N[u];
    * stds: every w with N(w) & S == {v} lies in N(u) (so w == u fails);
    * scds: the sds rule holds and u touches every component of G[S - v].
      When |S| == 1 there is none, and the sds rule alone asks deg u == n - 1.

    Cost O(n + m) plus, for each cut vertex v of G[S] that u must try, one
    bisection per member neighbour of u.
    """
    n, adj = graph.n, graph.adj
    closed = variant != "stds"
    private = _private_neighbours(adj, inside, closed)
    # With |S| >= 2, S - v is nonempty, so u must also meet it through a
    # member other than v.  Non-cut defenders leave S - v connected and need
    # nothing more, so they are tried before the cut vertices of G[S].
    connected = variant == "scds" and len(s) > 1
    cuts = None
    for u in range(n):
        if inside[u]:
            continue
        members = [x for x in adj[u] if inside[x]]
        if connected and len(members) < 2:
            return u
        defenders = members
        if private:
            # Private sets of distinct members are disjoint, and each scan
            # stops at its first vertex outside N[u], so this costs O(deg u).
            near: set[int] | None = None
            defenders = []
            for v in members:
                owned = private.get(v)
                if owned:
                    if near is None:
                        near = set(adj[u])
                        if closed:
                            near.add(u)
                    if len(owned) > len(near) or not all(w in near for w in owned):
                        continue
                defenders.append(v)
        if not defenders:
            return u
        if not connected:
            continue
        if cuts is None:
            cuts = _Cuts(adj, s)
        if any(v not in cuts.cut for v in defenders) or any(cuts.touches_all(v, members) for v in defenders):
            continue
        return u
    return None


def is_secure_dominating(graph: Graph, members: Iterable[int]) -> bool:
    """Dominating, and every outside vertex can swap in for an adjacent member
    while the set stays dominating."""
    return failure_reason(graph, "sds", members) is None


def is_scds_definition(graph: Graph, members: Iterable[int]) -> tuple[bool, dict[int, frozenset[int]]]:
    """Literal secure-connected check: S is a connected dominating set and
    every outside vertex has a swap preserving connected domination."""
    s = set(members)
    if not is_connected_dominating(graph, s):
        return False, {}
    return _swap_check(graph, s, is_connected_dominating)


def is_scds(graph: Graph, members: Iterable[int]) -> bool:
    """Secure-connected check by the local swap rules: S is a connected
    dominating set and every outside vertex has a valid defender."""
    return failure_reason(graph, "scds", members) is None


def is_stds(graph: Graph, members: Iterable[int]) -> tuple[bool, dict[int, frozenset[int]]]:
    """Literal secure-total check: S is a total dominating set and every
    outside vertex has a swap preserving total domination."""
    s = set(members)
    if not s or not is_total_dominating(graph, s):
        return False, {}
    return _swap_check(graph, s, is_total_dominating)


def check_variant(graph: Graph, variant: str, members: Iterable[int]) -> bool:
    """Dispatch a certificate check by variant name."""
    return failure_reason(graph, variant, members) is None


def failure_reason(graph: Graph, variant: str, members: Iterable[int]) -> str | None:
    """Human-readable reason a certificate fails, or None if it passes.

    The one composition of each variant's test: coverage (N[S], or N(S) for
    tds and stds), a non-empty set for cds, scds and stds, connectivity of
    G[S] for cds and scds, then the swap rules for sds, scds and stds.  A
    secure-variant failure names the least undefended vertex, the one the
    literal swap loop stops at.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    s = frozenset(members)
    inside = _member_flags(graph, s)
    closed = variant not in ("tds", "stds")
    missed = _first_uncovered(graph, s, closed)
    if missed >= 0:
        return f"vertex {missed} " + ("is not dominated" if closed else "has no neighbor in the set")
    if not s and variant in ("cds", "scds", "stds"):
        return "set is empty"
    if variant in ("cds", "scds") and not _induces_connected(graph.adj, inside, s):
        return "induced subgraph is disconnected"
    if variant in ("sds", "scds", "stds"):
        undefended = _first_undefended(graph, variant, s, inside)
        if undefended is not None:
            return f"vertex {undefended} has no valid defender"
    return None
