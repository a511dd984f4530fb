"""Workload definitions: the requests each workload sends, built from a seed.

A workload is a fixed list of CLI requests over inputs that ``inputs.py``
generates, made of parts that each hold one command class.  The seed picks
one of ``POOL_SIZE`` instances; the expected answers of every instance were
recorded once by ``record.py``, part by part, so every request of every
seed is checked field by field.

* ``cli_linear`` runs only the linear layers (parse, build, serialize,
  recognizers, builders) at n = 1e5 to 2e5, with no re-check and no search.
* ``cli_certify`` runs the certificate re-check, which dominates ``gamma``
  on block and threshold inputs of a few thousand vertices.
* ``oracle`` runs the exponential exact search, as a few big searches
  (``gamma``) and as thousands of tiny solves (``audit``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import inputs

POOL_SIZE = 16

# Input sizes; README.md lists them with the request lists.
LINEAR_SIZES = {"k4_chain": 100_000, "random_block": 200_000, "sparse_threshold": 200_000, "random_tree": 100_000}
LINEAR_FAMILIES = (("ladder", 100_000), ("subdivided_wheel", 50_000))
CERTIFY_SIZES = {"k4_chain": 1_501, "random_block": 1_500, "sparse_threshold": 4_000}
CERTIFY_FAMILIES = (("ladder", 500), ("subdivided_wheel", 500))
ORACLE_FIXED = {"ladder8": inputs.ladder(8), "ladder9": inputs.ladder(9), "wheel8": inputs.subdivided_wheel(8)}
ORACLE_GNP = {"gnp16": (16, 0.3), "gnp18": (18, 0.4)}
# The random-instance grids run with a larger --count than the default 50, so
# that most audit requests are thousands of tiny solves rather than process
# start-up.
AUDIT_GRIDS = ("trees", "block", "threshold")
AUDIT_COUNT = 400
# The unicyclic graph {01,03,12,13,34}: its documented counterexample to the
# doubled-bipartite reduction must keep being reported as one.
UNICYCLIC = (5, [(0, 1), (0, 3), (1, 2), (1, 3), (3, 4)])

# Each part is "<workload>.<command class>".
WORKLOADS = {
    "cli_linear": ("cli_linear.recognize", "cli_linear.emit"),
    "cli_certify": ("cli_certify.gamma", "cli_certify.verify", "cli_certify.emit"),
    "oracle": ("oracle.gamma", "oracle.audit"),
}
PARTS = tuple(part for parts in WORKLOADS.values() for part in parts)


@dataclass(frozen=True)
class Request:
    """One CLI call: ``python -m securedom --format json <argv>``."""

    part: str
    id: str
    argv: tuple[str, ...]


@dataclass
class Instance:
    """A workload's requests plus the sha256 of every input file written,
    by part and input name."""

    requests: list[Request]
    input_sha: dict[str, dict[str, str]]


def instance_index(seed: int) -> int:
    return seed % POOL_SIZE


def _sub_seed(index: int, tag: int) -> int:
    return 1000 * index + tag


def _near_miss(witness: list[int], blocks: list[list[int]]) -> list[int]:
    """The optimal witness minus one block representative, chosen so that the
    first undefended vertex is as late as possible.

    The set stays connected and dominating but is one below the optimum, so
    it is rejected only by the swap condition, after a long scan."""
    members = set(witness)
    count: dict[int, int] = {}
    for block in blocks:
        for v in block:
            count[v] = count.get(v, 0) + 1
    best, best_at = None, -1
    for block in blocks:
        reps = [v for v in block if count[v] == 1 and v in members]
        for r in reps:
            first = min(v for v in block if v not in members or v == r)
            if first > best_at:
                best, best_at = r, first
    return sorted(members - {best})


def build(workload: str, seed: int, workdir: str, witnesses: dict[str, str]) -> Instance:
    """Write the workload's inputs under ``workdir`` and list its requests.

    ``witnesses`` maps a certify input name to its recorded optimal witness;
    ``cli_certify.verify`` needs it to build its accepted and rejected sets."""
    instance = Instance(requests=[], input_sha={})
    for part in WORKLOADS[workload]:
        requests, sha = build_part(part, instance_index(seed), workdir, witnesses)
        instance.requests.extend(requests)
        instance.input_sha[part] = sha
    return instance


def build_part(part: str, index: int, workdir: str, witnesses: dict[str, str]) -> tuple[list[Request], dict[str, str]]:
    """The requests of one part of instance ``index``, and its inputs' sha256."""
    sha: dict[str, str] = {}
    requests: list[Request] = []

    def request(rid: str, *argv: str) -> None:
        requests.append(Request(part, rid, argv))

    def write(name: str, graph: tuple) -> str:
        path = os.path.join(workdir, f"{name}.el")
        sha[name] = inputs.write_edge_list(path, graph[0], graph[1])
        return path

    def certify_graphs() -> dict[str, tuple]:
        s = CERTIFY_SIZES
        return {
            "k4_chain": inputs.k4_chain(s["k4_chain"], _sub_seed(index, 1)),
            "random_block": inputs.random_block_graph(s["random_block"], _sub_seed(index, 2)),
            "sparse_threshold": inputs.sparse_threshold_graph(s["sparse_threshold"], _sub_seed(index, 3)),
        }

    if part == "cli_linear.recognize":
        s = LINEAR_SIZES
        graphs = {
            "k4_chain": inputs.k4_chain(s["k4_chain"], _sub_seed(index, 1)),
            "random_block": inputs.random_block_graph(s["random_block"], _sub_seed(index, 2)),
            "sparse_threshold": inputs.sparse_threshold_graph(s["sparse_threshold"], _sub_seed(index, 3)),
            "random_tree": inputs.random_tree(s["random_tree"], _sub_seed(index, 4)),
        }
        for name, graph in graphs.items():
            request(f"recognize:{name}", "recognize", "--in", write(name, graph))
    elif part == "cli_linear.emit":
        tree = write("random_tree", inputs.random_tree(LINEAR_SIZES["random_tree"], _sub_seed(index, 4)))
        request("reduce:dm_to_scdm:random_tree", "reduce", "--kind", "dm_to_scdm", "--param", "1", "--in", tree)
        for kind, k in LINEAR_FAMILIES:
            request(f"family:{kind}:{k}", "family", "--kind", kind, "--n", str(k))
    elif part == "cli_certify.gamma":
        for name, graph in certify_graphs().items():
            request(f"gamma:{name}", "gamma", "--variant", "scds", "--in", write(name, graph))
    elif part == "cli_certify.verify":
        for name, graph in certify_graphs().items():
            path = write(name, graph)
            witness = [int(v) for v in witnesses[name].split(",")]
            if name == "sparse_threshold":
                near = sorted(witness)[1:]
            else:
                near = _near_miss(witness, graph[2])
            for label, members in (("accept", witness), ("reject", near)):
                request(f"verify:{label}:{name}", "verify", "--variant", "scds", "--set", ",".join(map(str, members)), "--in", path)
    elif part == "cli_certify.emit":
        for kind, k in CERTIFY_FAMILIES:
            request(f"family:{kind}:{k}:witness", "family", "--kind", kind, "--n", str(k), "--emit-witness")
    elif part == "oracle.gamma":
        graphs = dict(ORACLE_FIXED)
        for name, (n, p) in ORACLE_GNP.items():
            graphs[name] = inputs.gnp(n, p, _sub_seed(index, n))
        for name, graph in graphs.items():
            path = write(name, graph)
            for variant in ("scds", "stds"):
                request(f"gamma:{variant}:{name}", "gamma", "--method", "exact", "--variant", variant, "--in", path)
    elif part == "oracle.audit":
        grid_seed = str(1729 + index)
        request("crosscheck:all", "crosscheck", "--grid", "all", "--seed", grid_seed)
        for grid in AUDIT_GRIDS:
            request(f"crosscheck:{grid}:{AUDIT_COUNT}", "crosscheck", "--grid", grid, "--count", str(AUDIT_COUNT), "--seed", grid_seed)
        request("crosscheck:reductions", "crosscheck", "--grid", "reductions", "--seed", grid_seed)
        small = {
            "unicyclic": (UNICYCLIC, "scdm_to_scdb"),
            "gnp8": (inputs.gnp(8, 0.4, _sub_seed(index, 8)), "dm_to_scdm"),
            "gnp5": (inputs.gnp(5, 0.5, _sub_seed(index, 5)), "stdm_to_stdb"),
        }
        for name, (graph, kind) in small.items():
            request(f"check-equivalence:{kind}:{name}", "check-equivalence", "--kind", kind, "--in", write(name, graph))
    else:
        raise ValueError(f"unknown part {part!r}")
    return requests, sha

