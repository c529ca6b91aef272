"""Spans and counts around the calls into each imforge module, taken from
outside the program.

``Tracer.installed()`` swaps module-level names (and two methods) for timing
wrappers and puts the originals back on exit; nothing under ``src/`` is
edited.  A wrapped call's self time is its duration minus that of the
wrapped calls it makes.  Spans are kept for ops and the calls directly under
them; deeper calls only add to per-label totals, because some of them (the
view's neighbour lists) run 10^5 to 10^6 times a pass.  A name that no longer
exists is reported in ``absent`` and the metrics built on it are left out.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

Observer = Callable[[Counter, dict, Any, tuple], None]


def _spectrum(count: Counter, low: dict, report: Any, args: tuple) -> None:
    count["spectral.iterative" if report.spectrum is None else "spectral.dense"] += 1


def _red_black(count: Counter, low: dict, rb: Any, args: tuple) -> None:
    count["dense.reds_total"] += rb.red_total


def _replace(count: Counter, low: dict, result: Any, args: tuple) -> None:
    count["dense.replaced"] += len(result[0])


def _hypergraph(count: Counter, low: dict, h: Any, args: tuple) -> None:
    count["nibble.triples"] += h.n_triples


def _match(count: Counter, low: dict, m: Any, args: tuple) -> None:
    rounds = m.diagnostics["rounds"]
    count["nibble.rounds"] += rounds
    count["nibble.rounds_capped"] += rounds >= importlib.import_module("imforge.nibble").MAX_ROUNDS
    count["nibble.matched"] += m.size
    count["nibble.active"] += m.n_active
    count["nibble.greedy_ties"] += m.diagnostics["greedy_size"] == m.size


def _connect(count: Counter, low: dict, ledger: Any, args: tuple) -> None:
    count["medium.pairs_connected"] += len(ledger.full_paths)
    count["medium.pairs_missing"] += len(ledger.missing_pairs)


def _conditions(count: Counter, low: dict, result: Any, args: tuple) -> None:
    count["subdivide.reservoir_accepted"] += bool(result[0] and result[1])


def _route(count: Counter, low: dict, result: Any, args: tuple) -> None:
    count["subdivide.pairs_failed"] += len(result[1])


def _p_alpha(count: Counter, low: dict, result: Any, args: tuple) -> None:
    low["subdivide.p_alpha_margin"] = min(result[1], low.get("subdivide.p_alpha_margin", result[1]))


def _peel(count: Counter, low: dict, kept: Any, args: tuple) -> None:
    count["peel.dropped"] += len(args[0]) - len(kept)


# (label, module, attribute, observer): one entry per binding, so a function
# imported into several modules is wrapped wherever it is called from.
WRAPS: list[tuple[str, str, str, Optional[Observer]]] = [
    ("generators", "imforge.generators", "random_regular", None),
    ("generators", "imforge.generators", "paley", None),
    ("graphs.build_graph", "imforge.graphs", "build_graph", None),
    ("graphs.build_graph", "imforge.generators", "build_graph", None),
    ("graphs.build_graph", "imforge.immersion_dense", "build_graph", None),
    ("graphs.adjacency_matrix", "imforge.graphs", "Graph.adjacency_matrix", None),
    ("graphs.view_neighbors", "imforge.graphs", "GraphView.neighbors", None),
    ("spectral", "imforge.spectral", "adjacency_spectrum", _spectrum),
    ("dense", "imforge.immersion_dense", "build_dense_immersion", None),
    ("dense.red_black", "imforge.immersion_dense", "build_red_black", _red_black),
    ("dense.replace", "imforge.immersion_dense", "replace_red_edges", _replace),
    ("dense.link", "imforge.immersion_dense", "greedy_three_paths", None),
    ("nibble", "imforge.immersion_dense", "edge_disjoint_triangles", None),
    ("nibble.hypergraph", "imforge.nibble", "triangle_hypergraph", _hypergraph),
    ("nibble.match", "imforge.nibble", "near_perfect_matching", _match),
    ("medium", "imforge.immersion_medium", "build_medium_immersion", None),
    ("units.collect", "imforge.immersion_medium", "collect_units", None),
    ("units.build", "imforge.expanders", "build_unit", None),
    ("bfs", "imforge.expanders", "short_avoiding_path", None),
    ("bfs", "imforge.immersion_medium", "short_avoiding_path", None),
    ("bfs", "imforge.gadgets", "short_avoiding_path", None),
    ("medium.connect", "imforge.immersion_medium", "connect_units", _connect),
    ("subdivide", "imforge.subdivision", "build_balanced_subdivision", None),
    ("subdivide.draw", "imforge.subdivision", "draw_reservoir", None),
    ("subdivide.conditions", "imforge.subdivision", "reservoir_conditions", _conditions),
    ("subdivide.route", "imforge.subdivision", "_route_all", _route),
    ("subdivide.sprime_audit", "imforge.subdivision", "audit_sprime", None),
    ("subdivide.p_alpha", "imforge.subdivision", "p_alpha_certificate", _p_alpha),
    ("gadgets.k3", "imforge.gadgets", "bipartite_k3_immersion", None),
    ("verify", "imforge.certify", "verify", None),
    ("peel", "imforge.immersion_dense", "peel_to_complete", _peel),
    ("peel", "imforge.immersion_medium", "peel_to_complete", _peel),
    ("peel", "imforge.subdivision", "peel_to_complete", _peel),
]

SPAN_DEPTH = 2  # ops and the calls directly under them


class Tracer:
    """Per-label self time, calls, raised calls and observed counts, reset
    by ``take()``; plus spans down to ``SPAN_DEPTH``."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [label, start, child seconds, span id]
        self._next_id = 0
        self.spans: list[tuple[int, Optional[int], str, float, float]] = []
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._reset()

    def _reset(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.count: Counter = Counter()
        self.low: dict[str, float] = {}

    def take(self) -> "Tracer":
        """A snapshot of the totals since the last take, which resets them."""
        snap = Tracer.__new__(Tracer)
        snap.self_s, snap.calls, snap.raised = self.self_s, self.calls, self.raised
        snap.count, snap.low = self.count, self.low
        snap.absent, snap.broken = self.absent, self.broken
        self._reset()
        return snap

    def enter(self, label: str) -> None:
        self._next_id += 1
        self._stack.append([label, perf_counter(), 0.0, self._next_id])

    def exit(self, raised: bool = False) -> tuple[float, float]:
        """Close the innermost span; returns (duration, child seconds)."""
        label, start, child, span_id = self._stack.pop()
        end = perf_counter()
        dur = end - start
        self.self_s[label] += dur - child
        self.calls[label] += 1
        self.raised[label] += raised
        if self._stack:
            self._stack[-1][2] += dur
        if len(self._stack) < SPAN_DEPTH:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append((span_id, parent, label, start, end))
        return dur, child

    def wrap(self, label: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        def traced(*args, **kwargs):
            self.enter(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(raised=True)
                raise
            self.exit()
            if observe is not None and label not in self.broken:
                try:
                    observe(self.count, self.low, result, args)
                except (AttributeError, KeyError, IndexError, TypeError):
                    self.broken.add(label)
            return result
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap every binding in WRAPS for its wrapper for the duration."""
        swapped: list[tuple[Any, str, Any]] = []
        bound: set[str] = set()
        missing: list[str] = []
        for label, module_name, attr, observe in WRAPS:
            *owner_path, name = attr.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, name, self.wrap(label, original, observe))
            swapped.append((owner, name, original))
            bound.add(label)
        self.absent = sorted(set(missing) | {label for label, *_ in WRAPS if label not in bound})
        try:
            yield self
        finally:
            for owner, name, original in reversed(swapped):
                setattr(owner, name, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name: (unit, labels it is built on, value from one snapshot)
SETUP_METRICS: dict[str, tuple[str, tuple[str, ...], Callable[[Tracer], float]]] = {
    "generators.s": ("s", ("generators",), lambda a: a.self_s["generators"]),
    "graphs.build_graph_setup_s": ("s", ("graphs.build_graph",),
                                   lambda a: a.self_s["graphs.build_graph"]),
}

PASS_METRICS: dict[str, tuple[str, tuple[str, ...], Callable[[Tracer], float]]] = {
    "graphs.build_graph_s": ("s", ("graphs.build_graph",), lambda a: a.self_s["graphs.build_graph"]),
    "graphs.build_graph_calls": ("count", ("graphs.build_graph",),
                                 lambda a: a.calls["graphs.build_graph"]),
    "graphs.adjacency_matrix_s": ("s", ("graphs.adjacency_matrix",),
                                  lambda a: a.self_s["graphs.adjacency_matrix"]),
    "graphs.view_neighbors_calls": ("count", ("graphs.view_neighbors",),
                                    lambda a: a.calls["graphs.view_neighbors"]),
    "graphs.view_neighbors_s": ("s", ("graphs.view_neighbors",),
                                lambda a: a.self_s["graphs.view_neighbors"]),
    "spectral.s": ("s", ("spectral",), lambda a: a.self_s["spectral"]),
    "spectral.dense_calls": ("count", ("spectral",), lambda a: a.count["spectral.dense"]),
    "spectral.iterative_calls": ("count", ("spectral",), lambda a: a.count["spectral.iterative"]),
    "dense.red_black_s": ("s", ("dense.red_black",), lambda a: a.self_s["dense.red_black"]),
    "dense.replace_s": ("s", ("dense.replace",), lambda a: a.self_s["dense.replace"]),
    "dense.link_s": ("s", ("dense.link",), lambda a: a.self_s["dense.link"]),
    "dense.assemble_s": ("s", ("dense",), lambda a: a.self_s["dense"]),
    "dense.replace_yield": ("ratio", ("dense.red_black", "dense.replace"),
                            lambda a: _ratio(a.count["dense.replaced"], a.count["dense.reds_total"])),
    "dense.paths_len1": ("count", (), lambda a: a.count["out.dense_len1"]),
    "dense.paths_len2": ("count", (), lambda a: a.count["out.dense_len2"]),
    "dense.paths_len3": ("count", (), lambda a: a.count["out.dense_len3"]),
    "nibble.calls": ("count", ("nibble",), lambda a: a.calls["nibble"]),
    "nibble.triples": ("count", ("nibble.hypergraph",), lambda a: a.count["nibble.triples"]),
    "nibble.rounds": ("count", ("nibble.match",), lambda a: a.count["nibble.rounds"]),
    "nibble.rounds_capped": ("count", ("nibble.match",), lambda a: a.count["nibble.rounds_capped"]),
    "nibble.hypergraph_s": ("s", ("nibble.hypergraph",), lambda a: a.self_s["nibble.hypergraph"]),
    "nibble.match_s": ("s", ("nibble.match",), lambda a: a.self_s["nibble.match"]),
    "nibble.match_yield": ("ratio", ("nibble.match",),
                           lambda a: _ratio(3 * a.count["nibble.matched"], a.count["nibble.active"])),
    "nibble.greedy_ties": ("count", ("nibble.match",), lambda a: a.count["nibble.greedy_ties"]),
    "units.collect_s": ("s", ("units.collect",), lambda a: a.self_s["units.collect"]),
    "units.build_s": ("s", ("units.build",), lambda a: a.self_s["units.build"]),
    "units.build_calls": ("count", ("units.build",), lambda a: a.calls["units.build"]),
    "units.build_failed": ("count", ("units.build",), lambda a: a.raised["units.build"]),
    "bfs.s": ("s", ("bfs",), lambda a: a.self_s["bfs"]),
    "bfs.calls": ("count", ("bfs",), lambda a: a.calls["bfs"]),
    "bfs.nopath": ("count", ("bfs",), lambda a: a.raised["bfs"]),
    "medium.connect_s": ("s", ("medium.connect",), lambda a: a.self_s["medium.connect"]),
    "medium.pairs_connected": ("count", ("medium.connect",),
                               lambda a: a.count["medium.pairs_connected"]),
    "medium.pairs_missing": ("count", ("medium.connect",),
                             lambda a: a.count["medium.pairs_missing"]),
    "medium.assemble_s": ("s", ("medium",), lambda a: a.self_s["medium"]),
    "subdivide.reservoir_s": ("s", ("subdivide.draw", "subdivide.conditions"),
                              lambda a: a.self_s["subdivide.draw"] + a.self_s["subdivide.conditions"]),
    "subdivide.reservoir_draws": ("count", ("subdivide.draw",), lambda a: a.calls["subdivide.draw"]),
    "subdivide.reservoir_accepted": ("count", ("subdivide.conditions",),
                                     lambda a: a.count["subdivide.reservoir_accepted"]),
    "subdivide.route_s": ("s", ("subdivide.route",), lambda a: a.self_s["subdivide.route"]),
    "subdivide.pairs_failed": ("count", ("subdivide.route",), lambda a: a.count["subdivide.pairs_failed"]),
    "subdivide.sprime_audit_s": ("s", ("subdivide.sprime_audit",),
                                 lambda a: a.self_s["subdivide.sprime_audit"]),
    "subdivide.p_alpha_margin": ("1", ("subdivide.p_alpha",),
                                 lambda a: a.low.get("subdivide.p_alpha_margin", 0.0)),
    "subdivide.assemble_s": ("s", ("subdivide",), lambda a: a.self_s["subdivide"]),
    "gadgets.k3_s": ("s", ("gadgets.k3",), lambda a: a.self_s["gadgets.k3"]),
    "gadgets.k3_paths": ("count", (), lambda a: a.count["out.k3_paths"]),
    "verify.s": ("s", ("verify",), lambda a: a.self_s["verify"]),
    "verify.path_edges": ("count", (), lambda a: a.count["out.path_edges"]),
    "peel.s": ("s", ("peel",), lambda a: a.self_s["peel"]),
    "peel.dropped": ("count", ("peel",), lambda a: a.count["peel.dropped"]),
}


def layer_values(table: dict, snaps: list[Tracer]) -> dict[str, list[float]]:
    """Per-snapshot values of every metric whose labels are all present."""
    out: dict[str, list[float]] = {}
    for name, (_, labels, value) in table.items():
        if snaps and not any(lb in snaps[0].absent or lb in snaps[0].broken for lb in labels):
            out[name] = [float(value(s)) for s in snaps]
    return out
