"""Certificate checkers for six domination variants.

A set S is checked against the variant's definition; the secure variants
("swap" variants) additionally require that every outside vertex u has a
defender v in S adjacent to u such that (S - {v}) + {u} still satisfies the
base property.

The secure checkers behind ``CHECKERS`` and ``failure_reason`` never
rebuild S: after the base check they apply local swap rules (Cockayne et
al., Protection of a graph, Util. Math. 67, 2005) in near-linear time.
Swapping v for u keeps S dominating iff every vertex whose only member in
its closed neighbourhood is v lies in N[u]; it keeps S totally dominating
iff every vertex whose only member neighbour is v lies in N(u); it keeps S
connected dominating iff the first rule holds and u touches every component
of G[S - v], read from one lowpoint DFS of G[S] (Hopcroft and Tarjan, CACM
16(6), 1973): ``graph.lowpoint_walk``, the walk that block recognition and
block decomposition in ``fast`` run on the whole graph.
``is_scds_characterization`` is another name for the fast ``is_scds``.

The literal swap loop ``_swap_check`` and its wrappers ``is_scds_definition``
and ``is_stds`` rebuild S for every pair and re-run the whole-graph check;
they are the test oracles the fast checkers are compared against.

All checkers are total: disconnected graphs or otherwise hopeless sets
yield False rather than an error.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable, NamedTuple

from .graph import DomainError, Graph, lowpoint_walk
from .names import VARIANTS


class DefenderMap(NamedTuple):
    """For each outside vertex, the set of members whose swap keeps the property.

    The certificate is valid exactly when every outside vertex has a nonempty
    defender set.  On a failed check the map covers the outside vertices
    inspected up to and including the first undefended one.
    """

    defenders: dict[int, frozenset[int]]

    def undefended(self) -> list[int]:
        return sorted(u for u, d in self.defenders.items() if not d)


def is_dominating(graph: Graph, members: Iterable[int]) -> bool:
    """True iff the closed neighborhood of the set covers every vertex."""
    s = set(members)
    covered = set(s)
    n, adj = graph.n, graph.adj
    for v in s:
        covered.update(adj[v])
        if len(covered) == n:
            return True
    return len(covered) == n


def _induces_connected(graph: Graph, s: set[int] | frozenset[int]) -> bool:
    """Whether the non-empty set S induces a connected subgraph: one
    depth-first search over a flag per member, cleared as it is reached.
    A member outside 0..n-1 raises the range error of ``Graph.components``."""
    n, adj = graph.n, graph.adj
    inside = bytearray(n)
    for v in s:
        if not 0 <= v < n:
            graph._check_vertex(v)
        inside[v] = 1
    root = next(iter(s))
    inside[root] = 0
    stack = [root]
    reached = 1
    while stack:
        for w in adj[stack.pop()]:
            if inside[w]:
                inside[w] = 0
                reached += 1
                stack.append(w)
    return reached == len(s)


def is_connected_dominating(graph: Graph, members: Iterable[int]) -> bool:
    """Dominating and inducing a connected subgraph; empty sets never qualify."""
    s = set(members)
    if not s:
        return False
    if not is_dominating(graph, s):
        return False
    return _induces_connected(graph, s)


def is_total_dominating(graph: Graph, members: Iterable[int]) -> bool:
    """Every vertex of the graph, members included, has a neighbor in the set."""
    s = set(members)
    adj = graph.adj
    return all(any(w in s for w in adj[v]) for v in range(graph.n))


def epn(graph: Graph, v: int, members: Iterable[int]) -> frozenset[int]:
    """External private neighbors of v: outside vertices whose only closed-
    neighborhood member inside the set is v."""
    s = set(members)
    if v not in s:
        raise DomainError(f"vertex {v} is not in the set")
    out = set()
    for w, nbrs in enumerate(graph.adj):
        if w in s:
            continue
        hits = [x for x in nbrs if x in s]
        if hits == [v]:
            out.add(w)
    return frozenset(out)


def _swap_check(
    graph: Graph,
    s: set[int],
    keeps_property: Callable[[Graph, set[int]], bool],
    exhaustive: bool,
) -> tuple[bool, DefenderMap]:
    """Common swap loop for the secure variants.

    For each outside u, collect defenders v in S adjacent to u whose swap
    preserves ``keeps_property``.  With exhaustive=False, stop scanning a
    vertex's candidates at the first valid defender (the boolean answer is
    unaffected; only the map is abbreviated).
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
                if not exhaustive:
                    break
        defenders[u] = frozenset(valid)
        if not valid:
            ok = False
            break
    return ok, DefenderMap(defenders=defenders)


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
    more.  ``parts[v]`` counts those components; it is 1 unless v is a cut
    vertex.
    """

    def __init__(self, adj: tuple[tuple[int, ...], ...], members: set[int] | frozenset[int]) -> None:
        n = len(adj)
        disc = [n + 1] * n
        for v in members:
            disc[v] = 0
        root = min(members)
        records: list[int] = []
        lowpoint_walk(adj, disc, root, records)
        parts = [1] * n
        parts[root] = 0
        # end[lo] = hi for each interval; 0 elsewhere, non-members' n + 1 too
        end = [0] * (n + 2)
        for i in range(0, len(records), 3):
            parts[records[i]] += 1
            end[records[i + 1]] = records[i + 2]
        self.adj, self.disc, self.end, self.parts = adj, disc, end, parts
        self._bounds: dict[int, list[int]] = {}

    def touches_all(self, v: int, members: list[int]) -> bool:
        """Whether ``members`` (the member neighbours of an outside vertex, v
        among them) meet every component of G[S - v].

        Each member other than v is placed by bisecting its preorder number
        into the flat bounds [lo0, hi0, lo1, hi1, ...] of v's separating
        subtrees: an odd insertion point names one of them, an even one
        means the rest of S - v.  The subtrees' roots are the neighbours of
        v numbered after v that start an interval: any other neighbour
        numbered after v meets v by a back edge, so its lowpoint is below
        its parent's number and no block closes at it.
        """
        parts = self.parts[v]
        if len(members) <= parts:
            return False
        disc = self.disc
        bounds = self._bounds.get(v)
        if bounds is None:
            end, dv = self.end, disc[v]
            bounds = []
            for lo in sorted(disc[c] for c in self.adj[v] if dv < disc[c] and end[disc[c]]):
                bounds += (lo, end[lo])
            self._bounds[v] = bounds
        touched = set()
        for x in members:
            if x != v:
                i = bisect_right(bounds, disc[x])
                touched.add(i if i & 1 else 0)
        return len(touched) == parts


def _first_undefended(graph: Graph, variant: str, s: set[int] | frozenset[int]) -> int | None:
    """Least outside vertex with no valid defender, or None if S is secure.

    S must already have the variant's base property.  Swapping member v for
    an adjacent outside vertex u is valid exactly when:

    * sds: every w with N[w] & S == {v} lies in N[u];
    * stds: every w with N(w) & S == {v} lies in N(u) (so w == u fails);
    * scds: the sds rule holds and u touches every component of G[S - v].
      When |S| == 1 there is none, and the sds rule alone asks deg u == n - 1.

    Cost O(n + m) plus, for each cut vertex v of G[S] that u must try, one
    bisection per member neighbour of u.
    """
    n, adj = graph.n, graph.adj
    inside = bytearray(n)
    for v in s:
        inside[v] = 1
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
        parts = cuts.parts
        if any(parts[v] == 1 for v in defenders) or any(cuts.touches_all(v, members) for v in defenders):
            continue
        return u
    return None


def is_secure_dominating(graph: Graph, members: Iterable[int]) -> bool:
    """Dominating, and every outside vertex can swap in for an adjacent member
    while the set stays dominating."""
    s = set(members)
    if not is_dominating(graph, s):
        return False
    return _first_undefended(graph, "sds", s) is None


def is_scds_definition(
    graph: Graph, members: Iterable[int], *, exhaustive: bool = True
) -> tuple[bool, DefenderMap]:
    """Literal secure-connected check: S is a connected dominating set and
    every outside vertex has a swap preserving connected domination."""
    s = set(members)
    if not is_connected_dominating(graph, s):
        return False, DefenderMap(defenders={})
    return _swap_check(graph, s, is_connected_dominating, exhaustive=exhaustive)


def is_scds(graph: Graph, members: Iterable[int]) -> bool:
    """Secure-connected check by the local swap rules: S is a connected
    dominating set and every outside vertex has a valid defender."""
    s = set(members)
    if not is_connected_dominating(graph, s):
        return False
    return _first_undefended(graph, "scds", s) is None


# The component-adjacency characterization is exactly the scds swap rule of
# _first_undefended, so the name now denotes the one fast checker.
is_scds_characterization = is_scds


def is_stds(
    graph: Graph, members: Iterable[int], *, exhaustive: bool = True
) -> tuple[bool, DefenderMap]:
    """Literal secure-total check: S is a total dominating set and every
    outside vertex has a swap preserving total domination."""
    s = set(members)
    if not s or not is_total_dominating(graph, s):
        return False, DefenderMap(defenders={})
    return _swap_check(graph, s, is_total_dominating, exhaustive=exhaustive)


def _is_stds(graph: Graph, members: Iterable[int]) -> bool:
    s = set(members)
    if not s or not is_total_dominating(graph, s):
        return False
    return _first_undefended(graph, "stds", s) is None


# The boolean checker of each variant, shared by check_variant and the exact
# search.  Keep it a module-level dict: the benchmark tracer wraps its values.
CHECKERS: dict[str, Callable[[Graph, Iterable[int]], bool]] = {
    "ds": is_dominating,
    "cds": is_connected_dominating,
    "tds": is_total_dominating,
    "sds": is_secure_dominating,
    "scds": is_scds,
    "stds": _is_stds,
}


def check_variant(graph: Graph, variant: str, members: Iterable[int]) -> bool:
    """Dispatch a certificate check by variant name."""
    if variant not in CHECKERS:
        raise DomainError(f"unknown variant {variant!r}")
    return CHECKERS[variant](graph, frozenset(members))


def failure_reason(graph: Graph, variant: str, members: Iterable[int]) -> str | None:
    """Human-readable reason a certificate fails, or None if it passes.

    A secure-variant failure names the least undefended vertex, the one the
    literal swap loop stops at.
    """
    if variant not in CHECKERS:
        raise DomainError(f"unknown variant {variant!r}")
    s = frozenset(members)
    if variant in ("ds", "cds", "sds", "scds") and not is_dominating(graph, s):
        covered = graph.closed_neighborhood(s)
        missed = min(v for v in range(graph.n) if v not in covered)
        return f"vertex {missed} is not dominated"
    if variant in ("cds", "scds"):
        if not s:
            return "set is empty"
        if not _induces_connected(graph, s):
            return "induced subgraph is disconnected"
    if variant in ("tds", "stds") and not is_total_dominating(graph, s):
        missed = min(
            v for v, nbrs in enumerate(graph.adj) if not any(w in s for w in nbrs)
        )
        return f"vertex {missed} has no neighbor in the set"
    if variant not in ("sds", "scds", "stds"):
        return None
    if variant == "stds" and not s:
        return "set is empty"
    undefended = _first_undefended(graph, variant, s)
    return None if undefended is None else f"vertex {undefended} has no valid defender"
