from __future__ import annotations

import pytest

from conftest import complete_graph, fig_five_vertex_graph, path_graph, plain_solve, run_python
from securedom import (
    DomainError,
    Graph,
    ReductionArtifact,
    SplitPartition,
    check_equivalence,
    enumerate_connected_graphs,
    is_bipartite,
    random_graph,
    random_split_graph,
    recognize_split,
    reduce_bipartite,
    reduce_split,
    reduce_universal,
    solve,
    to_edge_list,
)
from securedom.crosscheck import MEASURED_REDUCTION_KINDS
from securedom.fast import validate_partition
from securedom.reductions import REDUCTION_KINDS, build
from securedom.verify import is_scds, is_scds_definition


def test_artifact_rejects_inconsistent_fields():
    edge = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError, match="shifts the parameter"):
        ReductionArtifact("dm_to_scdm", edge, 1, 1, {0: "v0", 1: "x"})
    with pytest.raises(ValueError, match="provenance"):
        ReductionArtifact("dm_to_scdm", edge, 1, 2, {0: "v0"})


def test_artifact_invariants_survive_python_O():
    result = run_python(
        "from securedom import Graph, ReductionArtifact\n"
        "print('debug', __debug__)\n"
        "try:\n"
        "    ReductionArtifact('dm_to_scdm', Graph.from_edges(2, [(0, 1)]), 1, 1, {0: 'v0', 1: 'x'})\n"
        "except ValueError as exc:\n"
        "    print('raised', exc)\n",
        "-O",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["debug False", "raised dm_to_scdm shifts the parameter by 1"]


def test_universal_reduction_examples():
    art = reduce_universal(path_graph(3), 1)
    assert (art.output_graph.n, art.output_graph.m) == (4, 5)
    assert art.output_parameter == 2
    art = reduce_universal(Graph.from_edges(1, []), 1)
    assert (art.output_graph.n, art.output_graph.m, art.output_parameter) == (2, 1, 2)
    art = reduce_universal(path_graph(4), 2)
    assert (art.output_graph.n, art.output_graph.m, art.output_parameter) == (5, 7, 3)
    assert solve(path_graph(4), "ds").value == 2
    assert solve(art.output_graph, "scds").value == 3


def test_universal_reduction_output_is_connected_even_from_disconnected_input():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    art = reduce_universal(g, 1)
    assert art.output_graph.is_connected()
    assert art.provenance[4] == "x"


def test_bipartite_reduction_counts():
    art = reduce_bipartite(fig_five_vertex_graph(), 1)
    assert (art.output_graph.n, art.output_graph.m) == (14, 33)
    art = reduce_bipartite(Graph.from_edges(2, [(0, 1)]), 1)
    assert (art.output_graph.n, art.output_graph.m, art.output_parameter) == (8, 12, 3)


def test_bipartite_reduction_layout_and_provenance():
    art = reduce_bipartite(path_graph(3), 2)
    g = art.output_graph
    n = 3
    assert art.provenance == {
        0: "v0",
        1: "v1",
        2: "v2",
        3: "v0'",
        4: "v1'",
        5: "v2'",
        6: "p",
        7: "q",
        8: "x",
        9: "y",
    }
    # mirrored edges, the per-vertex matching, and the hub fan
    assert g.has_edge(0, 1 + n) and g.has_edge(0 + n, 1)
    assert all(g.has_edge(u, u + n) for u in range(n))
    for w in (0, 1, 2, 6, 7):
        assert g.has_edge(w, 8) and g.has_edge(w, 9)
    assert is_bipartite(g)


def test_bipartite_reduction_outputs_stay_bipartite():
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            assert is_bipartite(reduce_bipartite(g, 1).output_graph)


def test_bipartite_reduction_requires_connected_input():
    with pytest.raises(DomainError, match="connected"):
        reduce_bipartite(Graph.from_edges(4, [(0, 1), (2, 3)]), 1)


def test_split_reduction_example():
    art = reduce_split(complete_graph(3), 1)
    assert (art.output_graph.n, art.output_graph.m, art.output_parameter) == (5, 7, 3)
    assert art.provenance[3] == "x" and art.provenance[4] == "y"


def test_split_reduction_preserves_splitness_with_shifted_partition():
    for seed in range(20):
        g, part = random_split_graph(1 + seed % 6, seed)
        art = reduce_split(g, 1)
        out_part = SplitPartition(
            clique=part.clique | {g.n}, independent=part.independent | {g.n + 1}
        )
        assert validate_partition(art.output_graph, out_part)
        assert isinstance(recognize_split(art.output_graph), SplitPartition)


def test_split_reduction_forces_gadget_into_any_secure_set():
    # pendant y and its support x are mandatory in every secure connected set
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    art = reduce_split(g, 1)
    x, y = g.n, g.n + 1
    witness = solve(art.output_graph, "scds").witness
    assert {x, y} <= witness


def test_split_reduction_refuses_a_non_split_input_before_the_parameter():
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DomainError, match=r"^input is not a split graph: induced 2K2 on vertices \[0, 1, 2, 3\]$"):
        reduce_split(two_k2, 0)
    with pytest.raises(DomainError, match="^parameter must be at least 1$"):
        reduce_split(path_graph(4), 0)


def test_parameter_offsets_are_fixed_constants():
    p3 = path_graph(3)
    for k in (1, 2, 5):
        assert reduce_universal(p3, k).output_parameter == k + 1
        assert reduce_bipartite(p3, k).output_parameter == k + 2
    for kind in REDUCTION_KINDS:
        with pytest.raises(DomainError, match="at least 1"):
            build(kind, complete_graph(3), 0)


def test_artifacts_serialize_canonically():
    a = to_edge_list(reduce_bipartite(path_graph(3), 1).output_graph)
    b = to_edge_list(reduce_bipartite(path_graph(3), 4).output_graph)
    assert a == b
    assert a.startswith("p 10 ")


def test_forward_witnesses():
    # a dominating set plus the new hub is secure-connected in the output
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            d = solve(g, "ds").witness
            art = reduce_universal(g, max(1, len(d)))
            assert is_scds_definition(art.output_graph, d | {g.n})[0]
    # a secure connected set of a non-complete source plus both hubs
    for seed in range(6):
        g = random_graph(5, 0.55, seed)
        if g.is_complete():
            continue
        s = solve(g, "scds").witness
        art = reduce_bipartite(g, max(1, len(s)))
        assert is_scds_definition(art.output_graph, s | {2 * g.n + 2, 2 * g.n + 3})[0]
    # a dominating set of a split source plus x and y
    for seed in range(10):
        g, _ = random_split_graph(1 + seed % 6, seed)
        d = solve(g, "ds").witness
        art = reduce_split(g, max(1, len(d)))
        assert is_scds_definition(art.output_graph, d | {g.n, g.n + 1})[0]


@pytest.mark.parametrize("kind", [k for k in REDUCTION_KINDS if k not in MEASURED_REDUCTION_KINDS])
def test_gated_kinds_all_match_on_samples(kind):
    if kind.startswith("dm_split"):
        for seed in range(8):
            g, _ = random_split_graph(1 + seed % 6, seed)
            assert check_equivalence(kind, g).all_match
    else:
        for n in range(1, 5):
            for g in enumerate_connected_graphs(n):
                assert check_equivalence(kind, g).all_match
        for seed in range(4):
            assert check_equivalence(kind, random_graph(8, 0.4, seed)).all_match


def test_universal_kind_report_shape():
    report = check_equivalence("dm_to_scdm", path_graph(4))
    assert report.source_value == 2 and report.target_value == 3
    assert [row.t for row in report.rows] == [1, 2, 3, 4]
    assert report.all_match and report.first_mismatch is None


def test_bipartite_equivalence_counterexample_on_complete_sources():
    """The doubled instance of a complete graph needs x, y and two originals,
    so its optimum is 4 while a one-vertex source certificate shifts to 3.
    The checker must report the t=1 mismatch, with values verified unpruned."""
    for n in (1, 2, 3):
        g = complete_graph(n)
        report = check_equivalence("scdm_to_scdb", g)
        assert not report.all_match
        assert report.first_mismatch == 1
        assert report.source_value == 1
        assert report.target_value == 4
        assert plain_solve(report.artifact.output_graph, "scds")[0] == 4


def test_bipartite_equivalence_counterexample_on_hard_to_defend_source():
    """Converse failure: the hubs defend originals in the output, which the
    projection back to the source cannot emulate.  This unicyclic graph with
    two pendants has source optimum 5 but output optimum 6 < 5 + 2."""
    g = Graph.from_edges(5, [(0, 1), (0, 3), (1, 2), (1, 3), (3, 4)])
    assert solve(g, "scds").value == 5
    report = check_equivalence("scdm_to_scdb", g)
    assert not report.all_match
    assert report.first_mismatch == 4
    assert report.target_value == 6
    assert plain_solve(report.artifact.output_graph, "scds")[0] == 6
    hubs = {2 * g.n + 2, 2 * g.n + 3}
    assert is_scds(report.artifact.output_graph, frozenset({1, 2, 3, 4}) | hubs)


def test_secure_total_bipartite_twin_counterexample():
    """The secure-total reading of the bipartite gadget fails immediately:
    for a single-edge source the output needs x, y and both originals."""
    k2 = complete_graph(2)
    report = check_equivalence("stdm_to_stdb", k2)
    assert not report.all_match
    assert report.first_mismatch == 1
    assert report.source_value == 1
    assert report.target_value == 4
    assert plain_solve(report.artifact.output_graph, "stds")[0] == 4


def test_builders_reject_mismatched_kinds():
    with pytest.raises(DomainError):
        reduce_universal(path_graph(3), 1, kind="scdm_to_scdb")
    with pytest.raises(DomainError):
        reduce_bipartite(path_graph(3), 1, kind="dm_to_scdm")
    with pytest.raises(DomainError):
        build("dm_to_dm", path_graph(3), 1)


def test_build_recognizes_split_partition_when_absent():
    g, _ = random_split_graph(5, 3)
    art = build("dm_split_to_scdm_split", g, 2)
    assert art.output_parameter == 4
    with pytest.raises(DomainError, match="not a split graph"):
        build("dm_split_to_scdm_split", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 1)


def test_provenance_covers_every_output_vertex():
    for art in (
        reduce_universal(path_graph(4), 1),
        reduce_bipartite(path_graph(4), 1),
        reduce_split(random_split_graph(5, 1)[0], 1),
    ):
        assert sorted(art.provenance) == list(range(art.output_graph.n))


def test_universal_equivalence_holds_on_larger_seeded_instances():
    for seed, n in ((0, 8), (1, 8), (2, 7)):
        g = random_graph(n, 0.35, seed)
        assert check_equivalence("dm_to_scdm", g).all_match
        assert check_equivalence("dm_to_stdm", g).all_match
