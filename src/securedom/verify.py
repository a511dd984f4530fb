"""Certificate checkers for six domination variants.

A set S is checked against the variant's definition; the secure variants
("swap" variants) additionally require that every outside vertex u has a
defender v in S adjacent to u such that (S - {v}) + {u} still satisfies the
base property.  Two independent checkers are provided for secure connected
domination: the literal swap definition and a private-neighbor /
component-adjacency characterization; they must agree on every input.

All checkers are total: disconnected graphs or otherwise hopeless sets
yield False rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .graph import DomainError, Graph

VARIANTS = ("ds", "cds", "tds", "sds", "scds", "stds")


@dataclass(frozen=True)
class DefenderMap:
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
    for v in s:
        covered.update(graph.adj[v])
        if len(covered) == graph.n:
            return True
    return len(covered) == graph.n


def is_connected_dominating(graph: Graph, members: Iterable[int]) -> bool:
    """Dominating and inducing a connected subgraph; empty sets never qualify."""
    s = set(members)
    if not s:
        return False
    if not is_dominating(graph, s):
        return False
    return graph.components(restrict=s).count == 1


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
    for w in range(graph.n):
        if w in s:
            continue
        hits = [x for x in graph.adj[w] if x in s]
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
    for u in range(graph.n):
        if u in s:
            continue
        valid: set[int] = set()
        for v in graph.adj[u]:
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


def is_secure_dominating(graph: Graph, members: Iterable[int]) -> bool:
    """Dominating, and every outside vertex can swap in for an adjacent member
    while the set stays dominating."""
    s = set(members)
    if not is_dominating(graph, s):
        return False
    ok, _ = _swap_check(graph, s, is_dominating, exhaustive=False)
    return ok


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
    """Boolean-only secure-connected check (first-defender short circuit)."""
    ok, _ = is_scds_definition(graph, members, exhaustive=False)
    return ok


def is_scds_characterization(graph: Graph, members: Iterable[int]) -> bool:
    """Secure-connected check via private neighbors and component adjacency.

    Given a connected dominating set S with |S| >= 2, S is secure iff
    (i) no member has an external private neighbor, and (ii) every outside
    vertex u has an adjacent member v such that every component of the
    subgraph induced by S - {v} contains a neighbor of u.

    The single-member case degenerates: S - {v} is empty, and a swap leaves
    the incoming vertex alone, which works only when that vertex dominates
    everything itself.  So a one-vertex certificate is secure exactly on
    complete graphs, matching the literal checker.
    """
    s = set(members)
    if not is_connected_dominating(graph, s):
        return False
    if len(s) == 1:
        return graph.is_complete()
    # (i) no external private neighbors: every outside vertex must see the
    # set at least twice.
    for w in range(graph.n):
        if w in s:
            continue
        hits = 0
        for x in graph.adj[w]:
            if x in s:
                hits += 1
                if hits >= 2:
                    break
        if hits < 2:
            return False
    # (ii) component adjacency, with the labeling of G[S - {v}] shared
    # across all outside vertices that try v.
    labelings: dict[int, tuple[dict[int, int], int]] = {}
    for u in range(graph.n):
        if u in s:
            continue
        found = False
        for v in graph.adj[u]:
            if v not in s:
                continue
            if v not in labelings:
                lab = graph.components(restrict=s - {v})
                labelings[v] = (lab.labels, lab.count)
            labels, count = labelings[v]
            touched = {labels[w] for w in graph.adj[u] if w in labels}
            if len(touched) == count:
                found = True
                break
        if not found:
            return False
    return True


def is_stds(
    graph: Graph, members: Iterable[int], *, exhaustive: bool = True
) -> tuple[bool, DefenderMap]:
    """Secure total check: S is a total dominating set and every outside
    vertex has a swap preserving total domination."""
    s = set(members)
    if not s or not is_total_dominating(graph, s):
        return False, DefenderMap(defenders={})
    return _swap_check(graph, s, is_total_dominating, exhaustive=exhaustive)


def _is_stds(graph: Graph, members: Iterable[int]) -> bool:
    return is_stds(graph, members, exhaustive=False)[0]


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
    """Human-readable reason a certificate fails, or None if it passes."""
    s = frozenset(members)
    if check_variant(graph, variant, s):
        return None
    if variant in ("ds", "cds", "sds", "scds") and not is_dominating(graph, s):
        missed = min(v for v in range(graph.n) if v not in graph.closed_neighborhood(s))
        return f"vertex {missed} is not dominated"
    if variant in ("cds", "scds"):
        if not s:
            return "set is empty"
        if graph.components(restrict=s).count != 1:
            return "induced subgraph is disconnected"
    if variant in ("tds", "stds") and not is_total_dominating(graph, s):
        missed = min(
            v for v in range(graph.n) if not any(w in s for w in graph.adj[v])
        )
        return f"vertex {missed} has no neighbor in the set"
    if variant == "sds":
        _, dmap = _swap_check(graph, set(s), is_dominating, exhaustive=False)
    elif variant == "scds":
        _, dmap = is_scds_definition(graph, s, exhaustive=False)
    elif variant == "stds":
        _, dmap = is_stds(graph, s, exhaustive=False)
    else:
        return "certificate check failed"
    # Every earlier base check passed, so an empty map means an empty set
    # (stds on the empty graph).
    undefended = dmap.undefended()
    return f"vertex {undefended[0]} has no valid defender" if undefended else "set is empty"
