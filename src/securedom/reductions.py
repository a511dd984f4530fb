"""Hardness-reduction gadget builders and an empirical equivalence checker.

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

from .graph import DomainError, Graph
from .names import REDUCTION_KINDS

# The split recognizer loads with the split kinds and the exact search with
# check_equivalence, so the universal and bipartite builders run without them.

_UNIVERSAL_KINDS = ("dm_to_scdm", "dm_to_stdm")
_BIPARTITE_KINDS = ("scdm_to_scdb", "stdm_to_stdb")
_SPLIT_KINDS = ("dm_split_to_scdm_split", "dm_split_to_stdm_split")


class _Artifact(NamedTuple):
    kind: str
    output_graph: Graph
    input_parameter: int
    output_parameter: int
    provenance: dict[int, str]


class ReductionArtifact(_Artifact):
    """A transformed instance: output graph, shifted parameter, and a map
    from every output vertex to its role in the construction."""

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        output_graph: Graph,
        input_parameter: int,
        output_parameter: int,
        provenance: dict[int, str],
    ) -> ReductionArtifact:
        offset = REDUCTION_KINDS[kind][2]
        if output_parameter != input_parameter + offset:
            raise ValueError(f"{kind} shifts the parameter by {offset}")
        if sorted(provenance) != list(range(output_graph.n)):
            raise ValueError("provenance must name every output vertex exactly once")
        return super().__new__(cls, kind, output_graph, input_parameter, output_parameter, provenance)


def reduce_universal(graph: Graph, k: int, kind: str = "dm_to_scdm") -> ReductionArtifact:
    """Append a vertex adjacent to all of V; parameter becomes k + 1."""
    if kind not in _UNIVERSAL_KINDS:
        raise DomainError(f"kind {kind!r} is not a universal-vertex reduction")
    if k < 1:
        raise DomainError("parameter must be at least 1")
    # x takes the highest id, so appending it keeps every row sorted.
    x = graph.n
    adj = [row + (x,) for row in graph.adj]
    adj.append(tuple(range(x)))
    provenance = {u: f"v{u}" for u in range(graph.n)}
    provenance[x] = "x"
    return ReductionArtifact(
        kind=kind,
        output_graph=Graph(x + 1, tuple(adj), graph.m + x),
        input_parameter=k,
        output_parameter=k + 1,
        provenance=provenance,
    )


def reduce_bipartite(graph: Graph, r: int, kind: str = "scdm_to_scdb") -> ReductionArtifact:
    """Doubled bipartite gadget; parameter becomes r + 2.

    Layout: originals 0..n-1; copies v' = v + n; then p = 2n, q = 2n+1,
    x = 2n+2, y = 2n+3.  Edges: u-v' and u'-v per input edge, u-u' per
    vertex, and w-x, w-y for every w among the originals and p, q.  The
    sides (V + {p,q}) and (V' + {x,y}) witness bipartiteness.
    """
    if kind not in _BIPARTITE_KINDS:
        raise DomainError(f"kind {kind!r} is not a bipartite reduction")
    if r < 1:
        raise DomainError("parameter must be at least 1")
    if not graph.is_connected():
        raise DomainError("bipartite reduction requires a connected input")
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
    return ReductionArtifact(
        kind=kind,
        output_graph=Graph.from_edges(2 * n + 4, edges),
        input_parameter=r,
        output_parameter=r + 2,
        provenance=provenance,
    )


def reduce_split(graph: Graph, k: int, kind: str = "dm_split_to_scdm_split") -> ReductionArtifact:
    """Add a universal vertex x and a pendant y on x; parameter becomes k + 2.

    The input must be split, which ``fast.recognize_split`` decides; a
    non-split input raises ``DomainError`` with the recognizer's reason.  The
    kind is checked first, then splitness, then the parameter.  The gadget
    never reads the partition: for any split partition (C, I) of the input,
    C + {x} and I + {y} split the output.
    """
    from .fast import SplitRejection, recognize_split

    if kind not in _SPLIT_KINDS:
        raise DomainError(f"kind {kind!r} is not a split reduction")
    found = recognize_split(graph)
    if isinstance(found, SplitRejection):
        raise DomainError(f"input is not a split graph: {found.reason}")
    if k < 1:
        raise DomainError("parameter must be at least 1")
    # x and y take the two highest ids, so appending them keeps every row
    # sorted.
    x, y = graph.n, graph.n + 1
    adj = [row + (x,) for row in graph.adj]
    adj += [(*range(x), y), (x,)]
    provenance = {u: f"v{u}" for u in range(graph.n)}
    provenance.update({x: "x", y: "y"})
    return ReductionArtifact(
        kind=kind,
        output_graph=Graph(y + 1, tuple(adj), graph.m + x + 1),
        input_parameter=k,
        output_parameter=k + 2,
        provenance=provenance,
    )


def build(kind: str, graph: Graph, parameter: int) -> ReductionArtifact:
    """Dispatch to the right builder for a reduction kind; the split kinds
    find the input's partition themselves."""
    if kind in _UNIVERSAL_KINDS:
        return reduce_universal(graph, parameter, kind)
    if kind in _BIPARTITE_KINDS:
        return reduce_bipartite(graph, parameter, kind)
    if kind in _SPLIT_KINDS:
        return reduce_split(graph, parameter, kind)
    raise DomainError(f"unknown reduction kind {kind!r}")


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
    (source optimum <= t) == (target optimum <= t + offset); the first
    violated t, if any, is recorded as the counterexample.
    """

    kind: str
    artifact: ReductionArtifact
    source_variant: str
    target_variant: str
    source_value: int
    target_value: int
    offset: int
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


def check_equivalence(kind: str, graph: Graph, *, max_output_n: int = 20) -> EquivalenceReport:
    """Solve both sides exactly and sweep all parameter thresholds.

    The artifact comes from ``build``, so a split kind refuses a non-split
    input with the recognizer's reason.  Guarded: refuses when the output graph would exceed ``max_output_n``
    vertices, since both sides go through the exponential exact solver,
    and the same cap bounds both searches.
    """
    from .exact import solve

    if kind not in REDUCTION_KINDS:
        raise DomainError(f"unknown reduction kind {kind!r}")
    source_variant, target_variant, offset = REDUCTION_KINDS[kind]
    artifact = build(kind, graph, 1)
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
    return EquivalenceReport(
        kind=kind,
        artifact=artifact,
        source_variant=source_variant,
        target_variant=target_variant,
        source_value=source_value,
        target_value=target_value,
        offset=offset,
        rows=rows,
    )
