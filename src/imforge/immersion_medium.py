"""Clique immersion pipeline for moderately dense certified graphs:
collect edge-disjoint units, connect their centers pairwise through the
unit exteriors, drop units whose pendant edges got eaten, and emit a
verifier-ready certificate.

Connection bookkeeping lives in a ledger whose invariants are checkable
from stored data alone: the exterior-to-exterior subpaths are pairwise
edge-disjoint, never ride a unit branch, and never pass through a center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .certify import IMMERSION, EmbeddingCertificate
from .errors import (
    IncompleteEmbeddingError,
    NoPathError,
    PreconditionFailedError,
    UnitShortfallError,
)
from .expanders import ExpanderParams, Unit, collect_units, mix_length_m, short_avoiding_path
from .graphs import Edge, Graph, GraphView, normalize_edge
from .spectral import SpectralReport
from .util import BEST_EFFORT, STRICT, peel_to_complete


@dataclass
class ConnectionLedger:
    """Per-pair exterior paths plus the state that keeps them disjoint."""

    mid_paths: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    full_paths: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    used_edges: set[Edge] = field(default_factory=set)
    occupied_stars: dict[int, set[int]] = field(default_factory=dict)
    forbidden_centers: set[int] = field(default_factory=set)
    missing_pairs: list[tuple[int, int]] = field(default_factory=list)

    def check_invariants(self, units: list[Unit]) -> None:
        """Assert the ledger's structural guarantees from stored data."""
        seen: set[Edge] = set()
        branch_edges: set[Edge] = set()
        for u in units:
            branch_edges |= u.branch_edges()
        for pair, path in sorted(self.mid_paths.items()):
            for e in (normalize_edge(a, b) for a, b in zip(path, path[1:])):
                assert e not in seen, f"mid-path edge {e} reused at {pair}"
                seen.add(e)
                assert e not in branch_edges, f"mid-path edge {e} rides a branch"
            for v in path[1:-1]:
                assert v not in self.forbidden_centers, f"center {v} internal at {pair}"


def _eligible_leaves(unit: Unit, occupied: set[int], used_edges: set[Edge],
                     view: GraphView) -> list[int]:
    """Exterior leaves usable as endpoints: star not yet occupied, pendant
    edge still free, vertex alive in the view."""
    out = []
    for idx, star in enumerate(unit.stars):
        if idx in occupied:
            continue
        for leaf in star.leaves:
            if not view.contains_vertex(leaf):
                continue
            if normalize_edge(star.center, leaf) in used_edges:
                continue
            out.append(leaf)
    return out


def _leaf_star(unit: Unit, leaf: int, occupied: set[int]) -> int:
    for idx, star in enumerate(unit.stars):
        if idx not in occupied and leaf in star.leaves:
            return idx
    raise KeyError(leaf)


def _assemble(unit_i: Unit, star_i: int, unit_j: Unit, star_j: int,
              mid: list[int]) -> Optional[tuple[list[int], list[Edge]]]:
    """Extend an exterior path through both units to a center-to-center
    path; returns (path, new edges) or None when the result is not simple."""
    branch_i = unit_i.branches[star_i]
    branch_j = unit_j.branches[star_j]
    # junction steps branch_i[-1] -> mid[0] and mid[-1] -> branch_j[-1]
    # are the two pendant edges
    full = list(branch_i) + list(mid) + list(reversed(branch_j))
    if len(set(full)) != len(full):
        return None
    edges = [normalize_edge(a, b) for a, b in zip(full, full[1:])]
    return full, edges


def connect_units(g: Graph, units: list[Unit], max_len: int) -> ConnectionLedger:
    """Greedy maximal pair connection in ascending pair order.

    Each pair gets one exterior-to-exterior path found by BFS that avoids
    all centers, the branch vertices of the two units involved, every branch
    edge, and every previously used edge; endpoint leaves must belong to
    unoccupied stars with a free pendant edge.  A found path is extended
    through the branches to a full center-to-center path; missing pairs get
    one more pass at the end.
    """
    ledger = ConnectionLedger(occupied_stars={u.center: set() for u in units},
                              forbidden_centers={u.center for u in units})
    # the host minus every center, branch edge and used edge
    free = GraphView(g).minus(ledger.forbidden_centers,
                              (e for u in units for e in u.branch_edges()))

    todo = [(i, j) for i in range(len(units)) for j in range(i + 1, len(units))]
    for _ in range(2):
        failed: list[tuple[int, int]] = []
        for (i, j) in todo:
            if (i, j) in ledger.full_paths:
                continue
            if _try_connect(free, units, i, j, max_len, ledger):
                full = ledger.full_paths[(i, j)]
                free = free.minus(edges=zip(full, full[1:]))
            else:
                failed.append((i, j))
        todo = failed
        if not todo:
            break
    ledger.missing_pairs = sorted(todo)
    return ledger


def _try_connect(free: GraphView, units: list[Unit], i: int, j: int, max_len: int,
                 ledger: ConnectionLedger) -> bool:
    """Connect units i and j in the free view minus their branch vertices,
    trying up to four endpoint choices: a leaf pair whose full path is not
    simple or reuses an edge is banned."""
    unit_i, unit_j = units[i], units[j]
    view = free.minus(unit_i.branch_vertices() | unit_j.branch_vertices())
    banned_leaves: set[int] = set()
    occ_i = ledger.occupied_stars[unit_i.center]
    occ_j = ledger.occupied_stars[unit_j.center]
    for _ in range(4):
        x1 = [v for v in _eligible_leaves(unit_i, occ_i, ledger.used_edges, view)
              if v not in banned_leaves]
        x2 = [v for v in _eligible_leaves(unit_j, occ_j, ledger.used_edges, view)
              if v not in banned_leaves]
        if not x1 or not x2:
            return False
        try:
            mid = short_avoiding_path(view, x1, x2, max_len)
        except NoPathError:
            return False
        star_i = _leaf_star(unit_i, mid[0], occ_i)
        star_j = _leaf_star(unit_j, mid[-1], occ_j)
        assembled = _assemble(unit_i, star_i, unit_j, star_j, mid)
        # a simple full path has distinct edges, and they include the
        # exterior path's edges and both pendant edges
        if assembled is None or set(assembled[1]) & ledger.used_edges:
            banned_leaves.update((mid[0], mid[-1]))
            continue
        full, full_edges = assembled
        ledger.mid_paths[(i, j)] = mid
        ledger.full_paths[(i, j)] = full
        ledger.used_edges.update(full_edges)
        occ_i.add(star_i)
        occ_j.add(star_j)
        return True
    return False


def filter_bad_units(units: list[Unit], ledger: ConnectionLedger,
                     threshold: float) -> list[int]:
    """Indices of units whose pendant-edge consumption stays at or below
    the threshold (strictly more consumed means dropped)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    good = []
    for idx, unit in enumerate(units):
        eaten = sum(1 for e in unit.pendant_edges() if e in ledger.used_edges)
        if eaten <= threshold:
            good.append(idx)
    return good


@dataclass
class MediumDiagnostics:
    n: int
    d: int
    lam: float
    eta: float
    m_scale: float
    h_params: tuple[int, int, int]
    units_built: int
    units_good: int
    pairs_connected: int
    pairs_missing: int
    achieved_order: int
    precondition_ok: bool


def default_h_params(n: int, d: int, eta: float, y: float,
                     params: ExpanderParams) -> tuple[int, int, int, float]:
    """Formula h-parameters, clamped so small hosts stay constructible."""
    m_raw = mix_length_m(n, d, params)
    m = min(max(m_raw, 2.0), float(n))
    h1 = min(max(1, math.ceil((1 - 4 * eta) * d)), d)
    h2 = min(max(1, math.ceil(m ** y)), max(1, d // 4))
    h3 = min(max(2, math.ceil(m)), n)
    return h1, h2, h3, m


def build_medium_immersion(g: Graph, report: SpectralReport, eta: float,
                           seed: int = 0, mode: str = BEST_EFFORT,
                           y: float = 1.0,
                           h_params: tuple[int, int, int] | None = None,
                           target_order: int | None = None,
                           max_len: int | None = None,
                           ) -> tuple[EmbeddingCertificate, MediumDiagnostics]:
    """Unit-based clique immersion under the two-eigenvalue-gap hypothesis.

    Strict mode demands d > 2*lambda and a fully connected target-order
    clique; best-effort mode always returns a verifier-passing certificate
    for the largest center subset it managed to connect completely.
    """
    precondition_ok = report.d > 2 * report.lam
    if mode == STRICT and not precondition_ok:
        raise PreconditionFailedError(
            f"need d > 2*lambda, got d={report.d}, lambda={report.lam:.3f}")

    h1f, h2f, h3f, m_scale = default_h_params(g.n, report.d, eta, y, ExpanderParams())
    h1, h2, h3 = h_params if h_params is not None else (h1f, h2f, h3f)
    if target_order is None:
        target_order = max(1, math.floor((1 - 5 * eta) * report.d))
    if max_len is None:
        max_len = int(min(max(m_scale, 2), g.n))
    # a unit with more pendant edges eaten than this is dropped
    bad_threshold = max(1.0, eta * report.d * h2 / 2)

    units = collect_units(g, count=max(target_order, 1), h1=h1, h2=h2, h3=h3,
                          seed=seed)
    if len(units) < 2:
        cert = EmbeddingCertificate(kind=IMMERSION,
                                    branch=[units[0].center] if units else
                                           ([0] if g.n else []),
                                    pairs={}, ell=None)
        diag = MediumDiagnostics(g.n, report.d, report.lam, eta, m_scale,
                                 (h1, h2, h3), len(units), len(units), 0, 0,
                                 len(cert.branch), precondition_ok)
        if mode == STRICT and target_order > len(cert.branch):
            raise UnitShortfallError(
                f"built {len(units)} units, target order {target_order}")
        return cert, diag

    ledger = connect_units(g, units, max_len=max_len)
    good_idx = filter_bad_units(units, ledger, bad_threshold)

    connected_center_pairs = {
        (units[i].center, units[j].center) for (i, j) in ledger.full_paths}
    good_centers = [units[i].center for i in good_idx]
    if mode == STRICT:
        want = good_centers[:target_order]
        connected = {normalize_edge(*p) for p in connected_center_pairs}
        missing = [(u, v) for a, u in enumerate(want) for v in want[a + 1:]
                   if normalize_edge(u, v) not in connected]
        if len(want) < target_order:
            raise UnitShortfallError(
                f"only {len(want)} good units for target {target_order}")
        if missing:
            raise IncompleteEmbeddingError(f"unconnected pairs: {missing[:5]}")
        chosen = want
    else:
        chosen = peel_to_complete(good_centers, connected_center_pairs)
        if not chosen:
            chosen = good_centers[:1] or [units[0].center]

    center_index = {units[i].center: i for i in range(len(units))}

    def path_of(a: int, b: int) -> list[int]:
        ui, uj = center_index[a], center_index[b]
        return ledger.full_paths[(ui, uj) if ui < uj else (uj, ui)]

    cert = EmbeddingCertificate.from_paths(IMMERSION, chosen, path_of)
    diag = MediumDiagnostics(g.n, report.d, report.lam, eta, m_scale,
                             (h1, h2, h3), len(units), len(good_idx),
                             len(ledger.full_paths), len(ledger.missing_pairs),
                             len(cert.branch), precondition_ok)
    return cert, diag
