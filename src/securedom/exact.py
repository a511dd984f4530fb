"""Exact minimum solver for all six domination variants.

The solver enumerates candidate sets in increasing size and, within a size,
in lexicographic order, returning the first certificate found.  That makes
the reported witness the lexicographically least minimum witness, so results
are bit-stable across runs.

The pruned search (forced vertices, lower bounds, the complete-graph
shortcut) walks those candidates depth first as Python-int vertex masks,
carrying the prefix cover and double cover of the chosen members.  A branch
that cannot dominate even with every remaining vertex is cut, and so, for
scds and stds sets of two or more, is a branch that cannot give every
outside vertex two member neighbours.  A full-size candidate reaches the
variant's checker only if it dominates, for cds and scds induces a
connected subgraph, and, for scds and stds sets of two or more, covers
every outside vertex twice (see ``_bitset_search`` for why these cuts and
filters only drop sets the checker would reject).  Every
returned witness has passed ``verify.CHECKERS``.  Pruning can be disabled
for soundness cross-checks: the search then feeds every subset straight to
the checker.  The complete-graph report is built by
``report.trivial_complete``, which the linear-time solvers and the
``auto`` dispatch ``report.gamma`` share.

Also houses the small-graph isomorphism-class enumerator (a brute-force
relabeling table over Python ints) and the seeded random generators used as
test corpora.

This is the ground-truth oracle: everything faster in the package is
validated against it at desk scale.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterator

from .graph import DomainError, Graph
from .names import DEFAULT_MAX_N, VARIANTS
from .report import METHOD_EXACT, SolveReport, trivial_complete
from .verify import CHECKERS


def solve(
    graph: Graph,
    variant: str,
    *,
    max_n: int | None = DEFAULT_MAX_N,
    use_pruning: bool = True,
) -> SolveReport:
    """Minimum certificate size and lexicographically least witness.

    Preconditions: n >= 1; connected input for cds/scds/stds; no isolated
    vertices for tds/stds.  Graphs larger than ``max_n`` are refused (the
    search is exponential); pass ``max_n=None`` to override.

    With ``use_pruning`` the secure-connected search short-circuits complete
    graphs, forces leaves and supports into every candidate (n >= 3), and
    starts at max(1 + domination number, forced-set size); the secure-total
    search starts at the total domination number.  The pruned candidates
    are walked as bitsets in the same order, with two branch cuts, two
    cover filters and a connectivity filter in front of the checker
    (``_bitset_search``).  Disabling pruning passes every subset from size
    1, in combinations order, straight to the checker, for soundness
    cross-checks.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    if graph.n < 1:
        raise DomainError("graph must have at least one vertex")
    refuse_oversized(graph.n, max_n)
    if variant in ("cds", "scds", "stds") and not graph.is_connected():
        raise DomainError(f"variant {variant} requires a connected graph")
    if variant in ("tds", "stds") and any(len(a) == 0 for a in graph.adj):
        raise DomainError(f"variant {variant} requires a graph without isolated vertices")

    start = time.perf_counter()
    if use_pruning and variant == "scds" and graph.is_complete():
        return trivial_complete(start)

    forced: frozenset[int] = frozenset()
    lower = 1
    if use_pruning:
        if variant == "scds":
            # Non-complete from here on: one below the optimum is still
            # dominating, and every leaf and support is mandatory.
            gamma = solve(graph, "ds", max_n=max_n).value
            if graph.n >= 3:
                forced = graph.leaves() | graph.supports()
            lower = max(1 + gamma, len(forced))
        elif variant == "stds":
            lower = solve(graph, "tds", max_n=max_n).value

    check = CHECKERS[variant]
    if use_pruning:
        witness, nodes = _bitset_search(graph, variant, forced, lower, check)
    else:
        witness, nodes = _plain_search(graph, check)
    if witness is None:
        raise RuntimeError(f"no {variant} certificate up to size n; preconditions violated?")
    return SolveReport(
        variant=variant,
        value=len(witness),
        witness=witness,
        method=METHOD_EXACT,
        elapsed=time.perf_counter() - start,
        nodes_explored=nodes,
    )


def refuse_oversized(n: int, max_n: int | None = DEFAULT_MAX_N) -> None:
    """Refuse an exact search over n > ``max_n`` vertices (None: no cap)."""
    if max_n is not None and n > max_n:
        raise DomainError(f"exact search refused for n={n} > {max_n}; raise max_n to override")


def _plain_search(
    graph: Graph, check: Callable[[Graph, frozenset[int]], bool]
) -> tuple[frozenset[int] | None, int]:
    """Every subset by size, then in combinations order, straight into ``check``."""
    nodes = 0
    for size in range(1, graph.n + 1):
        for combo in combinations(range(graph.n), size):
            nodes += 1
            if check(graph, frozenset(combo)):
                return frozenset(combo), nodes
    return None, nodes


def _bitset_search(
    graph: Graph,
    variant: str,
    forced: frozenset[int],
    lower: int,
    check: Callable[[Graph, frozenset[int]], bool],
) -> tuple[frozenset[int] | None, int]:
    """The first candidate, by size from ``lower`` and then in combinations
    order over the free vertices, that passes the filters and ``check``.

    Vertex sets are Python-int masks.  A candidate is the forced set plus one
    combination of the free vertices, walked depth first in combinations
    order; each depth carries the prefix union ``once`` of the members' cover
    masks (N[v], or N(v) for tds and stds) and ``twice``, the vertices
    covered at least twice, both seeded with the forced set.  The filters
    only drop sets that ``check`` rejects, so the first survivor it accepts
    is the first certificate in the plain order:

    - every variant dominates (totally for tds and stds), so a branch is cut
      as soon as ``once`` together with the masks of every later free vertex
      misses a vertex, and a full-size candidate is dropped unless ``once``
      is full;
    - cds and scds sets induce a connected subgraph, so a full-size
      candidate is dropped unless a search over the members' cover masks,
      restricted to the members, reaches them all;
    - for scds and stds with |S| >= 2, a full-size candidate is dropped
      unless every outside vertex has two member neighbours (``twice``
      joined with S is full).  A valid swap of u for its defender v needs a
      neighbour of u in the non-empty S - v: for (S - v) + u to stay
      connected (scds), or for u itself to stay totally dominated (stds).
      The same rule cuts a branch once no choice from the rest can meet it:
      a vertex must already be covered twice or be a member, be covered
      once and by some later mask (``rest``), or be covered twice by the
      later masks or be a later free vertex (``rest2``).  Every full-size
      set below such a branch fails the leaf test, so the cut drops only
      sets that test drops, and the checker sees the same sets in the same
      order.

    Both cuts end the loop, not just the branch: ``rest`` and ``rest2`` only
    shrink as i grows.  Returns the witness, or None when no size up to n
    has one, and the number of full-size candidates the walk reached.
    """
    closed = variant not in ("tds", "stds")
    cover = [sum(1 << w for w in nbrs) | closed << v for v, nbrs in enumerate(graph.adj)]
    full = (1 << graph.n) - 1
    free = [v for v in range(graph.n) if v not in forced]
    masks = [cover[v] for v in free]
    bits = [1 << v for v in free]
    rest = [0] * (len(free) + 1)  # rest[i]: union of the masks of free[i:]
    rest2 = [0] * (len(free) + 1)  # rest2[i]: covered twice by free[i:], or in it
    for i in range(len(free) - 1, -1, -1):
        rest[i] = rest[i + 1] | masks[i]
        rest2[i] = rest2[i + 1] | (rest[i + 1] & masks[i]) | bits[i]
    base_once = base_twice = base_members = 0
    for v in forced:
        base_twice |= base_once & cover[v]
        base_once |= cover[v]
        base_members |= 1 << v

    nodes = 0
    double = False
    connected = variant in ("cds", "scds")
    chosen: list[int] = []

    def extend(first: int, left: int, once: int, twice: int, members: int) -> frozenset[int] | None:
        nonlocal nodes
        for i in range(first, len(free) - left + 1):
            if once | rest[i] != full:
                return None
            if double and twice | members | (once & rest[i]) | rest2[i] != full:
                return None
            if left > 1:
                chosen.append(free[i])
                found = extend(i + 1, left - 1, once | masks[i], twice | (once & masks[i]), members | bits[i])
                chosen.pop()
                if found is not None:
                    return found
                continue
            nodes += 1
            c = masks[i]
            if once | c != full:
                continue
            if double and twice | (once & c) | members | bits[i] != full:
                continue
            if connected and not _members_connected(cover, members | bits[i]):
                continue
            candidate = forced.union(chosen, (free[i],))
            if check(graph, candidate):
                return candidate
        return None

    for size in range(lower, graph.n + 1):
        need = size - len(forced)
        double = variant in ("scds", "stds") and size >= 2
        if need > 0:
            found = extend(0, need, base_once, base_twice, base_members)
        elif need == 0:
            nodes += 1
            covered = (
                base_once == full
                and (not double or base_twice | base_members == full)
                and (not connected or _members_connected(cover, base_members))
            )
            found = forced if covered and check(graph, forced) else None
        else:
            continue
        if found is not None:
            return found, nodes
    return None, nodes


def _members_connected(cover: list[int], members: int) -> bool:
    """Whether the non-empty vertex mask ``members`` induces a connected
    subgraph, given each vertex's neighbourhood mask ``cover[v]`` (open or
    closed): a search from the lowest member that visits each reached
    member once."""
    reached = todo = members & -members
    while todo:
        bit = todo & -todo
        todo ^= bit
        new = cover[bit.bit_length() - 1] & members & ~reached
        reached |= new
        todo |= new
    return reached == members


# -- small-graph enumeration up to isomorphism ----------------------------

ENUMERATION_LIMIT = 6
CANONICAL_LIMIT = 8


@lru_cache(maxsize=None)
def _edge_slots(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=None)
def _permutation_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """Row r maps edge slot i to 2**(slot of the edge under permutation r).

    Rows share the dict's int objects, so the 8! rows at n=8 hold pointers
    rather than a million separate ints.
    """
    slots = _edge_slots(n)
    power = {e: 1 << i for i, e in enumerate(slots)}
    return tuple(
        tuple(power[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])] for u, v in slots)
        for p in permutations(range(n))
    )


def _relabelings(n: int, mask: int) -> Iterator[int]:
    """The edge mask under each of the n! relabelings (duplicates included)."""
    bits = [i for i in range(len(_edge_slots(n))) if mask >> i & 1]
    return (sum(row[i] for i in bits) for row in _permutation_powers(n))


def _mask_of(graph: Graph) -> int:
    index = {e: i for i, e in enumerate(_edge_slots(graph.n))}
    mask = 0
    for e in graph.edges():
        mask |= 1 << index[e]
    return mask


def _graph_of_mask(n: int, mask: int) -> Graph:
    slots = _edge_slots(n)
    return Graph.from_edges(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])


def canonical_form(graph: Graph) -> tuple[int, int]:
    """Isomorphism-invariant key (n, minimized edge bitmask over relabelings).

    Brute-forces all n! relabelings, so it is restricted to n <= 8.
    """
    if graph.n > CANONICAL_LIMIT:
        raise DomainError(f"canonical form is brute force; n={graph.n} > {CANONICAL_LIMIT}")
    return graph.n, min(_relabelings(graph.n, _mask_of(graph)))


def _mask_connected(n: int, mask: int, slots: tuple[tuple[int, int], ...]) -> bool:
    nbr = [0] * n
    for i, (u, v) in enumerate(slots):
        if mask >> i & 1:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
    return _members_connected(nbr, (1 << n) - 1)


@lru_cache(maxsize=None)
def _connected_class_masks(n: int) -> tuple[int, ...]:
    """The least edge mask of every connected class, ascending.

    Masks are walked upward and each new mask marks its whole orbit seen,
    so the first mask met in an orbit is its least member: the canonical
    mask.  Connectivity is the same across an orbit, so that member decides.
    """
    slots = _edge_slots(n)
    seen: set[int] = set()
    canons = []
    for mask in range(1 << len(slots)):
        if mask in seen:
            continue
        seen.update(_relabelings(n, mask))
        if _mask_connected(n, mask, slots):
            canons.append(mask)
    return tuple(canons)


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected graph on n vertices, one per isomorphism class, in a
    deterministic order.  Refused above n=6: the labeled universe doubles
    per edge slot and there are 2^15 masks already at n=6.
    """
    if not (1 <= n <= ENUMERATION_LIMIT):
        raise DomainError(f"enumeration supported for 1 <= n <= {ENUMERATION_LIMIT}")
    for mask in _connected_class_masks(n):
        yield _graph_of_mask(n, mask)


# -- seeded random generators ----------------------------------------------


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Connected G(n, p) sample; resamples until connected (bounded retries)."""
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = random.Random(seed)
    for _ in range(10_000):
        edges = [e for e in combinations(range(n), 2) if rng.random() < edge_probability]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g
    raise DomainError("failed to sample a connected graph; raise edge_probability")


def random_tree(n: int, seed: int) -> Graph:
    """Uniform-attachment random tree on n vertices."""
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = random.Random(seed)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_block_graph(n: int, seed: int) -> Graph:
    """Random block graph: cliques of size 2..4 glued tree-fashion at shared
    cut vertices until n vertices exist."""
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    built = 1
    while built < n:
        cut = rng.randrange(built)
        size = rng.randint(2, min(4, n - built + 1))
        block = [cut] + list(range(built, built + size - 1))
        built += size - 1
        edges.extend(combinations(block, 2))
    return Graph.from_edges(n, edges)


def random_threshold_graph(n: int, seed: int) -> Graph:
    """Random creation sequence (each new vertex isolated or universal); the
    final vertex is forced universal so the result is connected."""
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        universal = True if v == n - 1 else rng.random() < 0.5
        if universal:
            edges.extend((u, v) for u in range(v))
    return Graph.from_edges(n, edges)
