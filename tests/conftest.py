"""Shared small-graph builders for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from securedom import Graph

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run a snippet in a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def bowtie_graph() -> Graph:
    # two triangles sharing vertex 2
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def fig_five_vertex_graph() -> Graph:
    # 5 vertices, 7 edges; vertex 2 is adjacent to everything else
    return Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (2, 4), (3, 4)])
