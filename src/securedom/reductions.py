"""Hardness-reduction gadgets, all made by ``build``, and an empirical
equivalence checker.

Three constructions, each with a secure-connected and a secure-total
flavor:

  universal   add one vertex adjacent to everything; parameter offset +1.
  bipartite   doubled bipartite gadget: originals on one side, a mirror copy
              plus hubs x,y on the other, padding vertices p,q attached to
              the hubs; parameter offset +2.
  split       add a universal vertex x and a pendant y on x to a split
              input; parameter offset +2.  The input's split partition is
              found by ``fast.recognize_split``, never passed in.

New gadget vertices always take the highest ids in a fixed order (p, q
before x, y), so artifacts serialize canonically.  The equivalence checker
sweeps every threshold rather than trusting a single parameter value: the
claimed instance equivalences are treated as claims under test, and any
counterexample is reported with the witnessing threshold.
"""

from __future__ import annotations

from typing import NamedTuple

from . import DEFAULT_MAX_N, REDUCTION_KINDS
from .graph import DomainError, Graph

# The split recognizer loads with the split kinds and the exact search with
# check_equivalence, so the universal and bipartite kinds build without them.

_BIPARTITE_KINDS = ("scdm_to_scdb", "stdm_to_stdb")
_SPLIT_KINDS = ("dm_split_to_scdm_split", "dm_split_to_stdm_split")


class ReductionArtifact(NamedTuple):
    """A transformed instance: output graph, shifted parameter, and a map
    from every output vertex to its role in the construction."""

    output_graph: Graph
    output_parameter: int
    provenance: dict[int, str]


def _doubled_bipartite(graph: Graph) -> tuple[Graph, dict[int, str]]:
    """The doubled bipartite gadget and its provenance.

    Layout: originals 0..n-1; copies v' = v + n; then p = 2n, q = 2n+1,
    x = 2n+2, y = 2n+3.  Edges: u-v' and u'-v per input edge, u-u' per
    vertex, and w-x, w-y for every w among the originals and p, q.  The
    sides (V + {p,q}) and (V' + {x,y}) witness bipartiteness.
    """
    n = graph.n
    p, q, x, y = 2 * n, 2 * n + 1, 2 * n + 2, 2 * n + 3
    edges: list[tuple[int, int]] = []
    for u, v in graph.edges():
        edges.append((u, v + n))
        edges.append((u + n, v))
    edges.extend((u, u + n) for u in range(n))
    for w in [*range(n), p, q]:
        edges.append((w, x))
        edges.append((w, y))
    provenance = {u: f"v{u}" for u in range(n)}
    provenance.update({u + n: f"v{u}'" for u in range(n)})
    provenance.update({p: "p", q: "q", x: "x", y: "y"})
    return Graph.from_edges(2 * n + 4, edges), provenance


def build(kind: str, graph: Graph, parameter: int) -> ReductionArtifact:
    """Build the reduction of one kind; the parameter shifts by the kind's
    offset in ``REDUCTION_KINDS``.

    The checks run in this order: the kind; for the split kinds, that the
    input is split (``fast.recognize_split`` decides, and its reason is the
    error); the parameter; for the bipartite kinds, that the input is
    connected.  The split gadget never reads the partition: for any split
    partition (C, I) of the input, C + {x} and I + {y} split the output.
    """
    if kind not in REDUCTION_KINDS:
        raise DomainError(f"unknown reduction kind {kind!r}")
    if kind in _SPLIT_KINDS:
        from .fast import SplitRejection, recognize_split

        found = recognize_split(graph)
        if isinstance(found, SplitRejection):
            raise DomainError(f"input is not a split graph: {found.reason}")
    if parameter < 1:
        raise DomainError("parameter must be at least 1")
    if kind in _BIPARTITE_KINDS:
        if not graph.is_connected():
            raise DomainError("bipartite reduction requires a connected input")
        output_graph, provenance = _doubled_bipartite(graph)
    else:
        # x, then y for the split kinds, take the highest ids, so appending
        # them keeps every row sorted.
        x = graph.n
        adj = [row + (x,) for row in graph.adj]
        adj.append(tuple(range(x)))
        provenance = {u: f"v{u}" for u in range(x)}
        provenance[x] = "x"
        m = graph.m + x
        if kind in _SPLIT_KINDS:
            adj[x] += (x + 1,)
            adj.append((x,))
            provenance[x + 1] = "y"
            m += 1
        output_graph = Graph(len(adj), tuple(adj), m)
    return ReductionArtifact(output_graph, parameter + REDUCTION_KINDS[kind][2], provenance)


class SweepRow(NamedTuple):
    t: int
    source_holds: bool
    target_holds: bool

    @property
    def match(self) -> bool:
        return self.source_holds == self.target_holds


class EquivalenceReport(NamedTuple):
    """Exact optima on both sides plus the full threshold sweep.

    For every t in 1..n the instance equivalence demands
    (source optimum <= t) == (target optimum <= t + offset), with the
    variants and the offset of the kind's ``REDUCTION_KINDS`` row; the
    first violated t, if any, is recorded as the counterexample.
    """

    source_value: int
    target_value: int
    rows: tuple[SweepRow, ...]

    @property
    def all_match(self) -> bool:
        return all(row.match for row in self.rows)

    @property
    def first_mismatch(self) -> int | None:
        for row in self.rows:
            if not row.match:
                return row.t
        return None


def check_equivalence(kind: str, graph: Graph, *, max_output_n: int = DEFAULT_MAX_N) -> EquivalenceReport:
    """Solve both sides exactly and sweep all parameter thresholds.

    The artifact comes from ``build``, so a split kind refuses a non-split
    input with the recognizer's reason.  Guarded: refuses when the output graph would exceed ``max_output_n``
    vertices, since both sides go through the exponential exact solver,
    and the same cap bounds both searches.
    """
    from .exact import solve

    artifact = build(kind, graph, 1)
    source_variant, target_variant, offset = REDUCTION_KINDS[kind]
    if artifact.output_graph.n > max_output_n:
        raise DomainError(
            f"equivalence check refused: output has {artifact.output_graph.n} "
            f"vertices > {max_output_n}"
        )
    source_value = solve(graph, source_variant, max_n=max_output_n).value
    target_value = solve(artifact.output_graph, target_variant, max_n=max_output_n).value
    rows = tuple(
        SweepRow(
            t=t,
            source_holds=source_value <= t,
            target_holds=target_value <= t + offset,
        )
        for t in range(1, graph.n + 1)
    )
    return EquivalenceReport(source_value, target_value, rows)
