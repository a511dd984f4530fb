"""Seeded input generators for the benchmark.

Every input the benchmark sends to securedom is built here from the
benchmark's own seed, never from the package's generators, so that a change
to the package cannot change what the benchmark measures.  Each generator
returns ``(n, edges)``, block generators also their blocks; ``write_edge_list`` renders that as edge-list text
and returns its sha256.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

# Only the first THRESHOLD_CORE vertices of a threshold graph's creation
# sequence are drawn at random; the rest are isolated but for two dominating
# vertices at the end, so m stays about 2n however large n is.
THRESHOLD_CORE = 40


def _relabel(n: int, edges: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _cliques(n: int, blocks: list[list[int]], rng: random.Random) -> tuple[int, list[tuple[int, int]], list[list[int]]]:
    perm = list(range(n))
    rng.shuffle(perm)
    blocks = [[perm[v] for v in block] for block in blocks]
    edges = [e for block in blocks for e in combinations(block, 2)]
    return n, edges, blocks


def k4_chain(n: int, seed: int) -> tuple[int, list[tuple[int, int]], list[list[int]]]:
    """K4 blocks glued in a chain at shared cut vertices, randomly relabelled.

    ``n`` must be 3k + 1 so that the chain is exactly k blocks.  Block
    generators also return their blocks, so that a near-miss certificate
    can be built without solving."""
    if n < 4 or (n - 1) % 3:
        raise ValueError("a K4 chain has 3k + 1 vertices")
    blocks = [list(range(v, v + 4)) for v in range(0, n - 1, 3)]
    return _cliques(n, blocks, random.Random(seed))


def random_block_graph(n: int, seed: int) -> tuple[int, list[tuple[int, int]], list[list[int]]]:
    """Cliques of 2 to 4 vertices, each glued at one random earlier vertex."""
    rng = random.Random(seed)
    blocks = []
    built = 1
    while built < n:
        size = rng.randint(2, min(4, n - built + 1))
        blocks.append([rng.randrange(built), *range(built, built + size - 1)])
        built += size - 1
    return _cliques(n, blocks, rng)


def sparse_threshold_graph(n: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Threshold graph from a creation sequence: a random isolated/dominating
    sequence over the first ``THRESHOLD_CORE`` vertices, isolated vertices
    after that, and two dominating vertices last."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        if v >= n - 2 or (v < THRESHOLD_CORE and rng.random() < 0.5):
            edges.extend((u, v) for u in range(v))
    return n, _relabel(n, edges, rng)


def random_tree(n: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Random recursive tree: vertex v attaches to a uniform earlier vertex."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return n, _relabel(n, edges, rng)


def gnp(n: int, p: float, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Connected G(n, p): resample until the draw is connected."""
    rng = random.Random(seed)
    while True:
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        if _connected(n, edges):
            return n, edges


def ladder(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Ladder with k rungs: bottom path 0..k-1, top path k..2k-1, rungs i, i+k."""
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(i, i + k) for i in range(k)]
    return 2 * k, edges


def subdivided_wheel(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Wheel with k spokes and subdivided rim: rim 2j, subdivision 2j+1, hub 2k."""
    edges = []
    for j in range(k):
        edges += [(2 * j, 2 * j + 1), (2 * j + 1, 2 * ((j + 1) % k)), (2 * k, 2 * j)]
    return 2 * k + 1, edges


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def write_edge_list(path: str, n: int, edges: list[tuple[int, int]]) -> str:
    """Write edge-list text with a ``p n m`` header, edges in the order
    given, and return its sha256."""
    lines = [f"p {n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]
    data = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as handle:
        handle.write(data)
    return hashlib.sha256(data).hexdigest()
