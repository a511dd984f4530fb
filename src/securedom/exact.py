"""Exact minimum solver for all six domination variants.

The solver enumerates candidate sets in increasing size and, within a size,
in lexicographic order, returning the first certificate found.  That makes
the reported witness the lexicographically least minimum witness, so results
are bit-stable across runs.

Each request runs one such search, with no bound and no sub-solve: it
starts at the size of the forced vertices (at least one) and walks the
candidates depth first as Python-int vertex masks, carrying the prefix
cover and double cover of the chosen members.  The walk is one loop over
an explicit stack, so Python's recursion limit bounds no request.  A
branch that cannot dominate even with every remaining vertex is cut, and
so, for scds and stds sets of two or more, is a branch that cannot give
every outside vertex two member neighbours.  A full-size candidate reaches
the variant's checker only if it dominates, for cds and scds induces a
connected subgraph, and, for scds and stds sets of two or more, covers
every outside vertex twice (see ``_bitset_search`` for why these cuts and
filters only drop sets the checker would reject).  The checker is
``verify.failure_reason``, and every returned witness has passed it.  The
complete-graph report is built by ``report.trivial_complete``, which the
linear-time solvers and the ``auto`` dispatch ``report.gamma`` share.

Also houses the small-graph isomorphism-class enumerator (a brute-force
relabeling table over Python ints).

This is the ground-truth oracle: everything faster in the package is
validated against it at desk scale.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator

from . import DEFAULT_MAX_N, VARIANTS
from .graph import DomainError, Graph
from .report import METHOD_EXACT, SolveReport, trivial_complete
from .verify import failure_reason


def solve(
    graph: Graph,
    variant: str,
    *,
    max_n: int | None = DEFAULT_MAX_N,
) -> SolveReport:
    """Minimum certificate size and lexicographically least witness.

    Preconditions: n >= 1; connected input for cds/scds/stds; no isolated
    vertices for tds/stds.  Graphs larger than ``max_n`` are refused (the
    search is exponential); pass ``max_n=None`` to override.

    The secure-connected search short-circuits complete graphs and forces
    leaves and supports into every candidate (n >= 3); the ds and sds
    searches force every isolated vertex.  Every request runs
    one search, from size max(1, forced-set size): the candidates are walked
    as bitsets in combinations order, with two branch cuts, two cover
    filters and a connectivity filter in front of the checker
    (``_bitset_search``).
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    if graph.n < 1:
        raise DomainError("graph must have at least one vertex")
    if max_n is not None and graph.n > max_n:
        raise DomainError(f"exact search refused for n={graph.n} > {max_n}; raise max_n to override")
    if variant in ("cds", "scds", "stds") and not graph.is_connected():
        raise DomainError(f"variant {variant} requires a connected graph")
    if variant in ("tds", "stds") and any(len(a) == 0 for a in graph.adj):
        raise DomainError(f"variant {variant} requires a graph without isolated vertices")

    if variant == "scds" and graph.is_complete():
        return trivial_complete()

    forced: frozenset[int] = frozenset()
    if variant == "scds" and graph.n >= 3:
        # every leaf and support is mandatory
        forced = graph.leaves() | graph.supports()
    elif variant in ("ds", "sds"):
        # an isolated vertex dominates only itself
        forced = frozenset(v for v, nbrs in enumerate(graph.adj) if not nbrs)

    witness, nodes = _bitset_search(graph, variant, forced)
    if witness is None:
        raise RuntimeError(f"no {variant} certificate up to size n; preconditions violated?")
    return SolveReport(value=len(witness), witness=witness, method=METHOD_EXACT, nodes_explored=nodes)


def _bitset_search(graph: Graph, variant: str, forced: frozenset[int]) -> tuple[frozenset[int] | None, int]:
    """The first candidate, by size from max(1, |forced|) and then in
    combinations order over the free vertices, that passes the filters and
    the variant's check, ``failure_reason(graph, variant, s) is None``.

    Vertex sets are Python-int masks.  A candidate is the forced set plus one
    combination of the free vertices, walked depth first in combinations
    order by one loop over an explicit stack: ``picked`` holds the free
    indices chosen so far, and ``saved`` the state before each pick.  The
    state is the union ``once`` of the members' cover masks (N[v], or N(v)
    for tds and stds), ``twice``, the vertices covered at least twice, and
    the member mask, all seeded with the forced set.  With ``left`` picks
    still to make, each step at free index i either backtracks, when i has
    passed len(free) - left or a branch cut fails; or descends, when two or
    more picks are left; or runs the leaf test, on the last pick free[i] or,
    with no pick, on the forced set alone when that has the size sought.
    The leaf test filters the candidate and then checks it.  The filters
    only drop sets that the check rejects, so the first survivor it accepts
    is the first certificate in combinations order:

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

    A cut backtracks rather than skip i: ``rest`` and ``rest2`` only shrink
    as i grows, so every later index at that depth fails it too.  The leaf
    test reads the last pick's mask and bit beside the state before it, so
    a leaf pushes nothing.  Returns the witness, or None when no size up to
    n has one, and the number of full-size candidates the walk reached.
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
    connected = variant in ("cds", "scds")
    for size in range(max(1, len(forced)), graph.n + 1):
        left = size - len(forced)  # picks still to make
        double = variant in ("scds", "stds") and size >= 2
        once, twice, members = base_once, base_twice, base_members
        picked: list[int] = []  # the free indices chosen so far
        saved: list[tuple[int, int, int]] = []  # (once, twice, members) before each pick
        i = 0
        while True:
            if left and (
                i > len(free) - left
                or once | rest[i] != full
                or double and twice | members | (once & rest[i]) | rest2[i] != full
            ):
                if not picked:
                    break
                i = picked.pop() + 1
                once, twice, members = saved.pop()
                left += 1
            elif left > 1:
                saved.append((once, twice, members))
                picked.append(i)
                once, twice, members = once | masks[i], twice | (once & masks[i]), members | bits[i]
                left -= 1
                i += 1
            else:
                # the leaf test: the last pick free[i], or none when the forced set has the size
                c, bit, last = (masks[i], bits[i], (free[i],)) if left else (0, 0, ())
                nodes += 1
                if (
                    once | c == full
                    and (not double or twice | (once & c) | members | bit == full)
                    and (not connected or _members_connected(cover, members | bit))
                ):
                    candidate = forced.union([free[j] for j in picked], last)
                    if failure_reason(graph, variant, candidate) is None:
                        return candidate, nodes
                if not left:
                    break
                i += 1
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


@lru_cache(maxsize=None)
def _edge_slots(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=None)
def _permutation_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """Row r maps edge slot i to 2**(slot of the edge under permutation r).

    Rows share the dict's int objects, so the n! rows hold pointers rather
    than separate ints.
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


def _graph_of_mask(n: int, mask: int) -> Graph:
    slots = _edge_slots(n)
    return Graph.from_edges(n, [slots[i] for i in range(len(slots)) if mask >> i & 1])


@lru_cache(maxsize=None)
def _connected_class_masks(n: int) -> tuple[int, ...]:
    """The least edge mask of every connected class, ascending.

    Masks are walked upward and each new mask marks its whole orbit seen,
    so the first mask met in an orbit is its least member: the canonical
    mask.  Connectivity is the same across an orbit, so that member decides.
    """
    seen: set[int] = set()
    canons = []
    for mask in range(1 << len(_edge_slots(n))):
        if mask in seen:
            continue
        seen.update(_relabelings(n, mask))
        if _graph_of_mask(n, mask).is_connected():
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
