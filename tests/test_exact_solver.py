from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from conftest import (
    canonical_form,
    complete_graph,
    cycle_graph,
    path_graph,
    plain_solve,
    run_python,
    star_graph,
)
from securedom import (
    METHOD_EXACT,
    METHOD_TRIVIAL,
    DomainError,
    Graph,
    check_equivalence,
    enumerate_connected_graphs,
    exact,
    random_block_graph,
    random_graph,
    random_threshold_graph,
    random_tree,
    solve,
)
from securedom.families import FamilySpec, generate
from securedom.fast import ThresholdRejection, is_block_graph, recognize_threshold
from securedom.verify import VARIANTS, check_variant


def test_scds_spec_values():
    assert solve(complete_graph(4), "scds").value == 1
    assert solve(path_graph(4), "scds").value == 4
    assert solve(generate(FamilySpec("ladder", 3)), "scds").value == 4
    assert solve(generate(FamilySpec("book", 3)), "scds").value == 5
    assert solve(generate(FamilySpec("subdivided_wheel", 3)), "scds").value == 4


def test_complete_graph_short_circuit():
    report = solve(complete_graph(4), "scds")
    assert report.method == METHOD_TRIVIAL
    assert report.witness == {0}


def test_other_variant_values():
    p4 = path_graph(4)
    assert solve(p4, "ds").value == 2
    assert solve(p4, "cds").value == 2
    assert solve(p4, "tds").value == 2
    assert solve(p4, "stds").value == 4
    assert solve(path_graph(3), "sds").value == 2
    assert solve(complete_graph(3), "sds").value == 1
    assert solve(cycle_graph(4), "stds").value == 3
    assert solve(complete_graph(4), "stds").value == 2


def test_witness_is_lexicographically_least():
    assert solve(path_graph(4), "ds").witness == {0, 2}
    assert solve(cycle_graph(5), "ds").witness == {0, 2}
    assert solve(path_graph(5), "cds").witness == {1, 2, 3}


def test_witnesses_pass_their_verifier():
    for variant in ("ds", "cds", "tds", "sds", "scds", "stds"):
        for g in (path_graph(4), cycle_graph(5), complete_graph(4)):
            report = solve(g, variant)
            assert check_variant(g, variant, report.witness)
            assert len(report.witness) == report.value


def test_preconditions():
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    for variant in ("cds", "scds", "stds"):
        with pytest.raises(DomainError, match="connected"):
            solve(disconnected, variant)
    lonely = Graph.from_edges(2, [])
    with pytest.raises(DomainError, match="isolated"):
        solve(lonely, "tds")
    with pytest.raises(DomainError, match="isolated"):
        solve(Graph.from_edges(1, []), "stds")
    with pytest.raises(DomainError, match="unknown variant"):
        solve(path_graph(3), "roman")
    with pytest.raises(DomainError, match="at least one vertex"):
        solve(Graph.from_edges(0, []), "ds")


def test_size_cap_is_enforced_and_overridable():
    big = path_graph(21)
    with pytest.raises(DomainError, match="refused"):
        solve(big, "ds")
    assert solve(big, "ds", max_n=None).value == 7


def test_solving_disconnected_graphs_for_unconstrained_variants():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert solve(g, "ds").value == 2
    # each leaf swaps with its own neighbor, so one endpoint per edge suffices
    assert solve(g, "sds").value == 2
    assert solve(g, "sds").witness == {0, 2}


def test_variant_ordering_on_connected_non_complete_graphs():
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            if g.is_complete():
                continue
            gamma = solve(g, "ds").value
            assert gamma <= solve(g, "cds").value
            assert gamma <= solve(g, "sds").value
            assert 1 + gamma <= solve(g, "scds").value
            assert solve(g, "tds").value <= solve(g, "stds").value


def test_each_request_runs_one_search(monkeypatch):
    # the recursion looks solve up as a module global, so the wrapper also
    # sees any nested call
    calls = []
    inner = exact.solve

    def counting(graph, variant, **kwargs):
        calls.append(variant)
        return inner(graph, variant, **kwargs)

    monkeypatch.setattr(exact, "solve", counting)
    graphs = [g for n in range(1, 6) for g in enumerate_connected_graphs(n)]
    graphs += [generate(FamilySpec(kind, k)) for kind, k in (("ladder", 8), ("ladder", 9), ("subdivided_wheel", 8))]
    for g in graphs:
        for variant in VARIANTS:
            if variant in ("tds", "stds") and g.n < 2:
                continue
            calls.clear()
            exact.solve(g, variant)
            assert calls == [variant], (g.edges(), variant)


def test_secure_connected_witnesses_contain_leaves_and_supports():
    for n in range(3, 6):
        for g in enumerate_connected_graphs(n):
            report = solve(g, "scds")
            assert g.leaves() | g.supports() <= report.witness


def test_pruned_search_matches_plain_enumeration():
    # the bitset walk with its bounds, cuts and filters against every subset
    # straight into the checker: same value and same lexicographically least
    # witness
    cases = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    cases += [random_graph(7 + seed % 3, 0.25 + 0.15 * (seed % 3), 900 + seed) for seed in range(24)]
    for g in cases:
        for variant in VARIANTS:
            if variant in ("tds", "stds") and g.n < 2:
                continue
            report = solve(g, variant)
            case = (g.n, g.edges(), variant)
            assert (report.value, report.witness) == plain_solve(g, variant), case
    # isolated vertices, which the ds and sds searches force
    rng = random.Random(1101)
    for _ in range(40):
        n = rng.randint(1, 9)
        alone = set(rng.sample(range(n), rng.randint(1, n)))
        g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if alone.isdisjoint(e) and rng.random() < 0.4])
        for variant in ("ds", "sds"):
            report = solve(g, variant)
            assert (report.value, report.witness) == plain_solve(g, variant), (g.n, g.edges(), variant)


@pytest.mark.parametrize(
    "kind,k,variant,witness",
    [
        ("ladder", 8, "scds", (0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 14)),
        ("ladder", 8, "stds", (0, 1, 2, 3, 4, 6, 9, 12, 14, 15)),
        ("ladder", 9, "scds", (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 13, 16)),
        ("ladder", 9, "stds", (0, 1, 2, 3, 5, 7, 8, 10, 13, 14, 16)),
        ("subdivided_wheel", 8, "scds", (0, 2, 4, 6, 8, 10, 12, 14, 16)),
        ("subdivided_wheel", 8, "stds", (0, 2, 4, 6, 8, 10, 12, 14, 16)),
    ],
)
def test_exact_answers_on_the_oracle_corpus_are_pinned(kind, k, variant, witness):
    # recorded with the set-based search that preceded the bitset walk
    report = solve(generate(FamilySpec(kind, k)), variant)
    assert (report.value, report.witness, report.method) == (len(witness), frozenset(witness), METHOD_EXACT)


def test_branch_cut_bounds_the_candidates_reached():
    # the set-based search tested 218,390 candidates on ladder 9 scds
    ladder9 = generate(FamilySpec("ladder", 9))
    first = solve(ladder9, "scds").nodes_explored
    assert first < 218_390
    assert solve(ladder9, "scds").nodes_explored == first
    # the double-cover cut: 33,423 full-size candidates on ladder 9 stds without it
    report = solve(ladder9, "stds")
    assert (report.value, report.nodes_explored) == (11, 3_475)


def test_enumeration_class_counts():
    assert [sum(1 for _ in enumerate_connected_graphs(n)) for n in range(1, 7)] == [
        1,
        1,
        2,
        6,
        21,
        112,
    ]
    with pytest.raises(DomainError):
        list(enumerate_connected_graphs(7))
    with pytest.raises(DomainError):
        list(enumerate_connected_graphs(0))


def test_enumeration_yields_connected_pairwise_nonisomorphic_graphs():
    for n in range(1, 6):
        graphs = list(enumerate_connected_graphs(n))
        assert all(g.is_connected() for g in graphs)
        forms = {canonical_form(g) for g in graphs}
        assert len(forms) == len(graphs)
    assert [g.adj for g in enumerate_connected_graphs(5)] == [
        g.adj for g in enumerate_connected_graphs(5)
    ]


def test_enumeration_order_is_pinned():
    # crosscheck's "enum n=.. #idx" labels and test indices depend on this order
    adjacency = repr([g.adj for n in range(1, 7) for g in enumerate_connected_graphs(n)])
    assert hashlib.sha256(adjacency.encode()).hexdigest() == (
        "cd21039071212c48f1493907b9c60687e570bdc8f53d8038e019179a75f8b332"
    )


def test_package_runs_without_numpy():
    result = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import securedom.cli\n"
        "from securedom import enumerate_connected_graphs, exact, random_graph\n"
        "g = random_graph(8, 0.4, 3)\n"
        "slot = {e: i for i, e in enumerate(exact._edge_slots(8))}\n"
        "form = (8, min(exact._relabelings(8, sum(1 << slot[e] for e in g.edges()))))\n"
        "print(sum(1 for _ in enumerate_connected_graphs(6)), form)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "112 (8, 838624)"


def test_canonical_form_is_relabeling_invariant():
    g = path_graph(5)
    relabeled = Graph.from_edges(5, [(4, 2), (2, 0), (0, 3), (3, 1)])
    assert canonical_form(g) == canonical_form(relabeled)
    assert canonical_form(g) != canonical_form(cycle_graph(5))


def test_random_tree_properties():
    for seed in range(10):
        t = random_tree(8, seed)
        assert t.m == t.n - 1
        assert t.is_connected()
        assert solve(t, "scds").value == 8
    assert random_tree(8, 3).adj == random_tree(8, 3).adj


def test_random_block_graph_passes_recognizer():
    for seed in range(100):
        g = random_block_graph(1 + seed % 13, seed)
        assert is_block_graph(g)


def test_random_threshold_graph_passes_recognizer():
    for seed in range(100):
        g = random_threshold_graph(1 + seed % 13, seed)
        assert not isinstance(recognize_threshold(g), ThresholdRejection)
        assert g.n == 1 or g.is_connected()
    assert random_threshold_graph(1, 7).n == 1


def test_random_graph_connected_and_deterministic():
    g = random_graph(8, 0.4, 99)
    assert g.is_connected()
    assert g.adj == random_graph(8, 0.4, 99).adj
    assert random_graph(4, 1.0, 0).is_complete()


def test_solve_reports_progress_metadata():
    report = solve(path_graph(4), "scds")
    assert report.nodes_explored >= 1


def test_star_value_is_vertex_count():
    for leaves in range(2, 6):
        g = star_graph(leaves)
        assert solve(g, "scds").value == leaves + 1


@pytest.mark.parametrize("n", range(2, 9))
def test_secure_domination_of_paths_matches_closed_form(n):
    # independently derivable: ceil(3n/7)
    assert solve(path_graph(n), "sds").value == -(-3 * n // 7)


@pytest.mark.parametrize("n", range(3, 11))
def test_domination_of_paths_matches_closed_form(n):
    assert solve(path_graph(n), "ds").value == -(-n // 3)


@pytest.mark.parametrize("n,expected", [(4, 2), (6, 4), (7, 4), (10, 6)])
def test_total_domination_of_paths_matches_closed_form(n, expected):
    # floor(n/2) + ceil(n/4) - floor(n/4)
    assert solve(path_graph(n), "tds").value == expected


@pytest.mark.parametrize("n", range(4, 8))
def test_secure_connected_domination_of_cycles(n):
    # one vertex can stay out: its neighbors defend it along the rim
    assert solve(cycle_graph(n), "scds").value == n - 1


def test_more_secure_total_values():
    assert solve(cycle_graph(3), "stds").value == 2
    assert solve(path_graph(3), "stds").value == 3
    assert solve(cycle_graph(5), "stds").value == 4


def test_connected_domination_of_paths_is_the_interior():
    for n in range(3, 9):
        report = solve(path_graph(n), "cds")
        assert report.value == n - 2
        assert report.witness == frozenset(range(1, n - 1))


def test_equivalence_checker_rejects_oversized_outputs():
    with pytest.raises(DomainError, match="refused"):
        check_equivalence("dm_to_scdm", path_graph(20))


def _second_route_scds_value(g: Graph) -> int:
    # independent route end to end: descending bitmask enumeration paired
    # with the literal swap definition instead of the local swap rules
    from securedom.verify import is_scds_definition

    best = g.n
    for mask in range((1 << g.n) - 1, 0, -1):
        members = frozenset(v for v in range(g.n) if mask >> v & 1)
        if len(members) < best and is_scds_definition(g, members)[0]:
            best = len(members)
    return best


def test_solver_agrees_with_an_independent_route():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            assert solve(g, "scds").value == _second_route_scds_value(g)
