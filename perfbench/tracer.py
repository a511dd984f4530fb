"""In-process span tracer that wraps securedom's public functions.

Each traced name is replaced, as a module attribute, by a wrapper that
records a span around the call.  The wrapper is installed in every
securedom module that holds the function (``from .fast import
is_block_graph`` makes ``securedom.cli.is_block_graph`` a second binding)
and in module-level dicts such as ``crosscheck.GRID_RUNNERS``.  Python
resolves globals at call time, so calls made inside a module are caught as
well.  Nothing in the package changes.

The exact search makes millions of calls, so spans are not kept one by one:
each span is folded, when it ends, into per-name totals (calls, self time,
and time entered from another layer), which stay in memory until the run
reads them.  A name that no longer exists is skipped and reported in
``missing`` instead of failing the run, because later changes may move
functions.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

PACKAGE = "securedom"

# (module, attribute) pairs; "Graph.x" names a method of the Graph class.
TRACED = (
    ("graph", "from_edge_list"),
    ("graph", "to_edge_list"),
    ("graph", "Graph.from_edges"),
    ("graph", "Graph.components"),
    ("fast", "block_decompose"),
    ("fast", "is_block_graph"),
    ("fast", "gamma_sc_block"),
    ("fast", "gamma_sc_threshold"),
    ("fast", "recognize_threshold"),
    ("fast", "recognize_split"),
    ("fast", "is_bipartite"),
    ("verify", "check_variant"),
    ("verify", "failure_reason"),
    ("verify", "is_dominating"),
    ("verify", "is_connected_dominating"),
    ("verify", "is_total_dominating"),
    ("verify", "is_secure_dominating"),
    ("verify", "is_scds"),
    ("verify", "is_scds_definition"),
    ("verify", "is_stds"),
    ("exact", "solve"),
    ("exact", "enumerate_connected_graphs"),
    ("families", "generate"),
    ("families", "formula_value"),
    ("families", "formula_witness"),
    ("reductions", "build"),
    ("reductions", "check_equivalence"),
    ("crosscheck", "families_grid"),
    ("crosscheck", "trees_grid"),
    ("crosscheck", "block_grid"),
    ("crosscheck", "threshold_grid"),
    ("crosscheck", "reductions_grid"),
    ("cli", "main"),
)

BASE_CHECKS = frozenset(("verify.is_dominating", "verify.is_connected_dominating", "verify.is_total_dominating"))
CHECK_ENTRIES = frozenset(("verify.check_variant", "verify.failure_reason"))
SECURE_VARIANTS = frozenset(("sds", "scds", "stds"))
GRIDS = tuple(f"crosscheck.{name}" for module, name in TRACED if module == "crosscheck")
VERIFY_NAMES = tuple(f"verify.{name}" for module, name in TRACED if module == "verify")

# Counters a fixed request list must reproduce exactly on every pass.
DETERMINISTIC = (
    "exact.candidates",
    "fast.block_decompose_calls",
    "verify.base_checks",
    "verify.swap_pairs",
    "graph.components_calls",
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [name, layer, start, time in children]
        self.checking = 0  # depth of check_variant / failure_reason calls
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.entry_s: defaultdict = defaultdict(float)  # (name, parent) -> time, parent in another layer
        self.nested_s: defaultdict = defaultdict(float)  # name -> time of calls made by the same name
        self.nested_self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str, layer: str) -> None:
        self.stack.append([name, layer, perf_counter(), 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        name, layer, start, child = self.stack.pop()
        duration = end - start
        own = duration - child
        self.calls[name] += 1
        self.self_s[name] += own
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            if parent[0] == name:
                self.nested_s[name] += duration
                self.nested_self_s[name] += own
            if parent[1] != layer:
                self.entry_s[(name, parent[0])] += duration
        else:
            self.entry_s[(name, None)] += duration

    # -- counters computed at layer boundaries --------------------------------

    def _count_swap_pairs(self, graph, variant, members) -> None:
        if self.stack and self.stack[-1][1] == "verify":
            return
        if variant not in SECURE_VARIANTS:
            return
        inside = set(members)
        adj = graph.adj
        self.counters["verify.swap_pairs"] += sum(
            1 for u in range(graph.n) if u not in inside for w in adj[u] if w in inside
        )

    def _count_base_check(self, args: tuple, kwargs: dict) -> None:
        if self.checking and self.stack[-1][0] not in BASE_CHECKS:
            self.counters["verify.base_checks"] += 1

    def _count_candidates(self, result) -> None:
        if not any(frame[0] == "exact.solve" for frame in self.stack):
            self.counters["exact.candidates"] += getattr(result, "nodes_explored", 0)

    # -- installation ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        layer = _layer(name)
        if inspect.isgeneratorfunction(fn):
            @wraps(fn)
            def steps(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self._enter(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    yield item

            return steps

        pre = post = None
        if name == "verify.check_variant":
            signature = inspect.signature(fn)

            def pre(args, kwargs):
                self._count_swap_pairs(*list(signature.bind(*args, **kwargs).arguments.values())[:3])

        elif name in BASE_CHECKS:
            pre = self._count_base_check
        elif name == "exact.solve":
            post = self._count_candidates

        checks = 1 if name in CHECK_ENTRIES else 0

        @wraps(fn)
        def call(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            self._enter(name, layer)
            self.checking += checks
            try:
                result = fn(*args, **kwargs)
            finally:
                self.checking -= checks
                self._exit()
            if post is not None:
                post(result)
            return result

        return call

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every name in TRACED that exists; record the ones that do not."""
        modules = {}
        for module, _ in TRACED:
            try:
                modules[module] = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                modules[module] = None
        loaded = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module, attr in TRACED:
            mod = modules[module]
            name = _span_name(module, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name, None) if mod else None
                raw = cls.__dict__.get(method) if isinstance(cls, type) else None
                if isinstance(raw, classmethod):
                    self._set(cls, method, classmethod(self._wrap(name, raw.__func__)))
                elif inspect.isfunction(raw):
                    self._set(cls, method, self._wrap(name, raw))
                else:
                    self.missing.add(f"{module}.{attr}")
                continue
            original = getattr(mod, attr, None) if mod else None
            if not callable(original):
                self.missing.add(f"{module}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._undo.append((value, dkey, dvalue))
                                value[dkey] = wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- per-layer metrics -------------------------------------------------------

    def _entered(self, name: str, parents: tuple[str, ...] | None = None) -> float:
        return sum(t for (n, p), t in self.entry_s.items() if n == name and (parents is None or p in parents))

    def metrics(self) -> dict[str, float]:
        """Per-layer totals since the last reset (see README.md for meanings)."""
        s, c = self.self_s, self.calls
        candidates = self.counters["exact.candidates"]
        searched = self._entered("exact.solve") - self.nested_s["exact.solve"]
        return {
            "graph.from_edge_list_s": s["graph.from_edge_list"],
            "graph.from_edges_s": s["graph.from_edges"],
            "graph.to_edge_list_s": s["graph.to_edge_list"],
            "graph.components_s": s["graph.components"],
            "graph.components_calls": c["graph.components"],
            "fast.block_decompose_s": s["fast.block_decompose"],
            "fast.block_decompose_calls": c["fast.block_decompose"],
            "fast.recognize_threshold_s": s["fast.recognize_threshold"],
            "fast.recognize_split_s": s["fast.recognize_split"],
            "fast.is_bipartite_s": s["fast.is_bipartite"],
            "fast.gamma_sc_block_s": s["fast.gamma_sc_block"],
            "fast.gamma_sc_threshold_s": s["fast.gamma_sc_threshold"],
            "verify.check_variant_s": self._entered("verify.check_variant"),
            "verify.failure_reason_s": self._entered("verify.failure_reason"),
            "verify.base_checks": self.counters["verify.base_checks"],
            "verify.swap_pairs": self.counters["verify.swap_pairs"],
            "exact.solve_s": s["exact.solve"] - self.nested_self_s["exact.solve"],
            "exact.subsolve_s": self.nested_s["exact.solve"],
            "exact.candidates": candidates,
            "exact.us_per_candidate": 1e6 * searched / candidates if candidates else 0.0,
            "exact.check_s": sum(self._entered(v, ("exact.solve",)) for v in VERIFY_NAMES),
            "exact.enumerate_s": s["exact.enumerate_connected_graphs"],
            "families.generate_s": s["families.generate"],
            "families.formula_witness_s": s["families.formula_witness"],
            "reductions.build_s": s["reductions.build"],
            "reductions.check_equivalence_s": s["reductions.check_equivalence"],
            "crosscheck.grid_s": sum(self._entered(g) for g in GRIDS),
            "cli.self_s": s["cli.main"],
        }
