"""The connectivity tests of the exact search and the checkers against the
component labeling they replaced, on one graph per isomorphism class with
n <= 6, connected or not, the exact search's filters and branch cuts against
a plain walk, and the cut data of the lowpoint walk on seeded graphs beyond
that range, and the one composed check of each variant against the checks
it replaced."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from conftest import closed_neighborhood
from securedom import DomainError, Graph, exact, solve, verify
from securedom.crosscheck import random_block_graph, random_graph
from securedom.graph import lowpoint_walk
from securedom.families import FamilySpec, generate
from securedom.verify import VARIANTS


def _every_class(n: int):
    """One graph per isomorphism class on n vertices, disconnected ones too."""
    slots = exact._edge_slots(n)
    seen: set[int] = set()
    for mask in range(1 << len(slots)):
        if mask not in seen:
            seen.update(exact._relabelings(n, mask))
            yield exact._graph_of_mask(n, mask)


CORPUS = [g for n in range(1, 7) for g in _every_class(n)]


def _closed_masks(graph: Graph) -> list[int]:
    return [sum(1 << w for w in nbrs) | 1 << v for v, nbrs in enumerate(graph.adj)]


def _members(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


# The component-labeling versions, as they stood before the member DFS.
def _old_is_connected_dominating(graph: Graph, members) -> bool:
    s = set(members)
    if not s:
        return False
    if not verify.is_dominating(graph, s):
        return False
    return graph.components(restrict=s).count == 1


def _old_connectivity_reason(graph: Graph, variant: str, members) -> str | None:
    s = frozenset(members)
    if variant in ("ds", "cds", "sds", "scds") and not verify.is_dominating(graph, s):
        covered = closed_neighborhood(graph, s)
        missed = min(v for v in range(graph.n) if v not in covered)
        return f"vertex {missed} is not dominated"
    if not s:
        return "set is empty"
    if graph.components(restrict=s).count != 1:
        return "induced subgraph is disconnected"
    return None


# The checks as they stood when each boolean ran its own base checks and
# failure_reason ran them again.  The swap rules are the package's own: the
# literal swap loop pins them in test_verifiers.
def _prior_is_dominating(graph: Graph, members) -> bool:
    s = set(members)
    covered = set(s)
    n, adj = graph.n, graph.adj
    for v in s:
        covered.update(adj[v])
        if len(covered) == n:
            return True
    return len(covered) == n


def _prior_is_connected_dominating(graph: Graph, members) -> bool:
    s = set(members)
    if not s or not _prior_is_dominating(graph, s):
        return False
    inside = bytearray(graph.n)
    for v in s:
        inside[v] = 1
    root = next(iter(s))
    inside[root] = 0
    stack = [root]
    reached = 1
    while stack:
        for w in graph.adj[stack.pop()]:
            if inside[w]:
                inside[w] = 0
                reached += 1
                stack.append(w)
    return reached == len(s)


def _prior_is_total_dominating(graph: Graph, members) -> bool:
    s = set(members)
    return all(any(w in s for w in graph.adj[v]) for v in range(graph.n))


def _prior_undefended(graph: Graph, variant: str, s) -> int | None:
    inside = bytearray(graph.n)
    for v in s:
        inside[v] = 1
    return verify._first_undefended(graph, variant, s, inside)


PRIOR_CHECKERS = {
    "ds": _prior_is_dominating,
    "cds": _prior_is_connected_dominating,
    "tds": _prior_is_total_dominating,
    "sds": lambda g, s: _prior_is_dominating(g, s) and _prior_undefended(g, "sds", s) is None,
    "scds": lambda g, s: _prior_is_connected_dominating(g, s) and _prior_undefended(g, "scds", s) is None,
    "stds": lambda g, s: bool(s) and _prior_is_total_dominating(g, s) and _prior_undefended(g, "stds", s) is None,
}


def _prior_failure_reason(graph: Graph, variant: str, s) -> str | None:
    if variant in ("ds", "cds", "sds", "scds") and not _prior_is_dominating(graph, s):
        covered = closed_neighborhood(graph, s)
        missed = min(v for v in range(graph.n) if v not in covered)
        return f"vertex {missed} is not dominated"
    if variant in ("cds", "scds"):
        if not s:
            return "set is empty"
        if not _prior_is_connected_dominating(graph, s):
            return "induced subgraph is disconnected"
    if variant in ("tds", "stds") and not _prior_is_total_dominating(graph, s):
        missed = min(v for v, nbrs in enumerate(graph.adj) if not any(w in s for w in nbrs))
        return f"vertex {missed} has no neighbor in the set"
    if variant not in ("sds", "scds", "stds"):
        return None
    if variant == "stds" and not s:
        return "set is empty"
    undefended = _prior_undefended(graph, variant, s)
    return None if undefended is None else f"vertex {undefended} has no valid defender"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error type and text are part of the behaviour
        return type(exc), str(exc)


def test_corpus_holds_every_class():
    # OEIS A000088: graphs on n = 1..6 vertices up to isomorphism
    assert [sum(1 for g in CORPUS if g.n == n) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_mask_search_matches_component_labeling_on_every_subset():
    for g in CORPUS:
        cover = _closed_masks(g)
        for mask in range(1, 1 << g.n):
            expected = g.components(restrict=_members(mask)).count == 1
            assert exact._members_connected(cover, mask) == expected, (g, mask)


def test_connected_domination_matches_component_labeling_on_every_subset():
    for g in CORPUS:
        for mask in range(1 << g.n):
            s = _members(mask)
            assert verify.is_connected_dominating(g, s) == _old_is_connected_dominating(g, s), (g, s)
            for variant in ("cds", "scds"):
                reason = verify.failure_reason(g, variant, s)
                old = _old_connectivity_reason(g, variant, s)
                if old is None:
                    # past the connectivity test: only scds adds the swap rule
                    assert reason is None or (variant == "scds" and reason.endswith("no valid defender"))
                else:
                    assert reason == old, (g, variant, s)


@pytest.mark.parametrize("outside", [-1, -3, 6, 9])
def test_members_outside_the_range_behave_as_before(outside):
    graphs = [g for g in CORPUS if g.n in (3, 5)]
    for g in graphs:
        for mask in range(1 << g.n):
            s = _members(mask) | {outside}
            assert _outcome(verify.is_connected_dominating, g, s) == _outcome(_old_is_connected_dominating, g, s)
            for variant in ("cds", "scds"):
                new = _outcome(verify.failure_reason, g, variant, s)
                old = _outcome(_old_connectivity_reason, g, variant, s)
                if old is None:
                    assert new is None or new.endswith("no valid defender")
                else:
                    assert new == old, (g, variant, s)


def test_range_error_is_the_graphs_own():
    # every check range-checks the set before it reads a row, so -1 does not
    # index the last row of the path 0-1-2
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError, match=r"vertex -1 outside range 0\.\.2"):
        verify.is_connected_dominating(g, {-1, 0})


def test_one_composed_check_matches_the_checks_it_replaced():
    graphs = CORPUS + [random_graph(7 + seed % 3, 0.25 + 0.15 * (seed % 3), 700 + seed) for seed in range(24)]
    rejected = dict.fromkeys(VARIANTS, 0)
    for g in graphs:
        for mask in range(1 << g.n):
            s = _members(mask)
            for variant in VARIANTS:
                reason = _prior_failure_reason(g, variant, s)
                verdict = PRIOR_CHECKERS[variant](g, s)
                case = (g.n, g.edges(), sorted(s), variant)
                assert verify.failure_reason(g, variant, s) == reason, case
                assert verify.check_variant(g, variant, s) == verdict, case
                rejected[variant] += reason is not None
    assert min(rejected.values()) > 0


def _answer(report):
    return report.value, report.witness, report.nodes_explored


def test_connectivity_filter_changes_neither_answers_nor_candidate_counts(monkeypatch):
    cases = [g for g in CORPUS if g.is_connected()]
    cases += [random_graph(7 + seed % 3, 0.25 + 0.15 * (seed % 3), 900 + seed) for seed in range(12)]
    cases += [generate(FamilySpec("ladder", 6)), generate(FamilySpec("subdivided_wheel", 5))]
    for g in cases:
        variants = [v for v in VARIANTS if g.n >= 2 or v not in ("tds", "stds")]
        filtered = [_answer(solve(g, v)) for v in variants]
        with monkeypatch.context() as m:
            m.setattr(exact, "_members_connected", lambda cover, members: True)
            assert [_answer(solve(g, v)) for v in variants] == filtered, g


def test_the_checker_sees_only_connected_candidates(monkeypatch):
    checked = []

    def record(graph, variant, members):
        if variant in ("cds", "scds"):
            checked.append((graph, members))
        return verify.failure_reason(graph, variant, members)

    monkeypatch.setattr(exact, "failure_reason", record)
    # the path 0-1-2-3-4 included: its forced set {0, 1, 3, 4} dominates every
    # vertex twice but is disconnected, so no candidate reaches the checker
    for g in CORPUS:
        if g.is_connected():
            solve(g, "cds")
            solve(g, "scds")
    assert checked
    assert all(g.components(restrict=s).count == 1 for g, s in checked)

    # ladder 9 scds: of the candidates reached, only the witness is connected
    checked.clear()
    report = solve(generate(FamilySpec("ladder", 9)), "scds")
    assert report.nodes_explored == 10_432
    assert [s for _, s in checked] == [report.witness]


def _cut_corpus():
    """Every connected graph with n <= 6, then seeded G(n, p) with n = 7..9,
    seeded block graphs with n = 8..13, ladder 6 and subdivided wheel 5."""
    seeded = [random_graph(n, p, 7000 + 10 * n + k) for n in (7, 8, 9) for k, p in enumerate((0.25, 0.4, 0.55))]
    seeded += [random_block_graph(n, 8000 + n) for n in range(8, 14)]
    seeded += [generate(FamilySpec("ladder", 6)), generate(FamilySpec("subdivided_wheel", 5))]
    return [g for g in CORPUS if g.is_connected()], seeded


# nodes_explored of the variants without the double-cover cut, recorded before
# it was added: the sum over the connected CORPUS graphs, then each seeded graph
CANDIDATES_BEFORE_THE_CUT = {
    "ds": (549, [5, 7, 7, 16, 12, 3, 25, 29, 13, 20, 7, 5, 16, 44, 59, 122, 62]),
    "cds": (780, [25, 7, 10, 43, 22, 3, 75, 46, 29, 46, 21, 5, 16, 168, 131, 647, 77]),
    "tds": (516, [12, 12, 8, 23, 19, 7, 19, 45, 27, 21, 15, 4, 5, 32, 38, 160, 59]),
    "sds": (1341, [15, 29, 7, 30, 44, 17, 63, 141, 49, 33, 51, 247, 262, 298, 356, 330, 186]),
}


def _plain_walk(g: Graph, variant: str):
    """The sets a search with no branch cut hands to the check: every
    combination of the free vertices in plain order, by size from the
    search's lower bound, joined with its forced set and passed through the
    three leaf filters (domination, two member neighbours for every outside
    vertex, connectivity).  Returns them and the first that the check accepts."""
    forced, lower = frozenset(), 1
    if variant == "scds":
        if g.is_complete():
            return [], frozenset({0})
        forced = g.leaves() | g.supports() if g.n >= 3 else frozenset()
        lower = max(1 + solve(g, "ds").value, len(forced))
    elif variant == "stds":
        lower = solve(g, "tds").value
    closed = variant not in ("tds", "stds")
    free = [v for v in range(g.n) if v not in forced]
    checked = []
    for size in range(lower, g.n + 1):
        for combo in combinations(free, size - len(forced)):
            s = forced.union(combo)
            hits = [sum(w in s for w in g.adj[u]) + (closed and u in s) for u in range(g.n)]
            if 0 in hits:
                continue
            if variant in ("scds", "stds") and size >= 2 and any(hits[u] < 2 for u in range(g.n) if u not in s):
                continue
            if variant in ("cds", "scds") and g.components(restrict=s).count != 1:
                continue
            checked.append(s)
            if verify.check_variant(g, variant, s):
                return checked, s
    raise AssertionError(f"no {variant} certificate for {g.edges()}")


def test_branch_cuts_hand_the_checker_the_plain_walks_sets(monkeypatch):
    log = []

    def record(graph, variant, members):
        log.append((variant, members))
        return verify.failure_reason(graph, variant, members)

    monkeypatch.setattr(exact, "failure_reason", record)
    small, seeded = _cut_corpus()
    counts = {variant: [] for variant in CANDIDATES_BEFORE_THE_CUT}
    for g in small + seeded:
        for variant in VARIANTS:
            if g.n < 2 and variant in ("tds", "stds"):
                continue
            expected, witness = _plain_walk(g, variant)
            log.clear()
            report = solve(g, variant)
            assert [s for v, s in log if v == variant] == expected, (g.edges(), variant)
            assert (report.value, report.witness) == (len(witness), witness), (g.edges(), variant)
            if variant in counts:
                counts[variant].append(report.nodes_explored)
    for variant, found in counts.items():
        tail = found[-len(seeded) :]
        assert (sum(found[: -len(seeded)]), tail) == CANDIDATES_BEFORE_THE_CUT[variant], variant


def _seeded_member_sets():
    """Seeded block and G(n, p) graphs with n = 7..40, each with random
    member sets (mostly disconnected) and sets grown along edges (connected)."""
    rng = random.Random(12)
    for n in range(7, 41):
        seed = rng.randrange(10**6)
        for g in (random_block_graph(n, seed), random_graph(n, rng.choice((0.1, 0.2, 0.4)), seed)):
            yield g, frozenset(range(n))
            for _ in range(3):
                yield g, frozenset(rng.sample(range(n), rng.randint(1, n)))
                grown = {rng.randrange(n)}
                for _ in range(rng.randint(1, n)):
                    grown.add(rng.choice(g.adj[rng.choice(sorted(grown))]))
                yield g, frozenset(grown)


def test_walk_reaches_exactly_the_connected_member_sets():
    connected = disconnected = 0
    for g, s in _seeded_member_sets():
        disc = [g.n + 1] * g.n
        for v in s:
            disc[v] = 0
        reached, _ = lowpoint_walk(g.adj, disc, min(s))
        whole = g.components(restrict=s).count == 1
        assert (reached == len(s)) == whole, (g.edges(), sorted(s))
        connected += whole
        disconnected += not whole
    assert connected > 100 and disconnected > 100


def test_cut_data_matches_component_labeling_after_each_deletion():
    for g, s in _seeded_member_sets():
        if len(s) < 2 or g.components(restrict=s).count != 1:
            continue
        cuts = verify._Cuts(g.adj, s)
        for v in s:
            labeling = g.components(restrict=s - {v})
            assert cuts.parts[v] == labeling.count, (g.edges(), sorted(s), v)
            # every outside vertex next to v touches all of G[S - v] exactly
            # when its other member neighbours meet every component
            for u in g.adj[v]:
                if u not in s:
                    members = [x for x in g.adj[u] if x in s]
                    met = {labeling.labels[x] for x in members if x != v}
                    assert cuts.touches_all(v, members) == (len(met) == labeling.count)
