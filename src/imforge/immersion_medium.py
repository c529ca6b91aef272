"""Clique immersion pipeline for moderately dense certified graphs:
collect edge-disjoint units, connect their centers pairwise through the
unit exteriors in one greedy pass, and emit a verifier-ready certificate on
the largest center set whose pairs all connected.  Every unit built stays a
candidate: the linked paths are already pairwise edge-disjoint.

The linker's one record of its used edges is a view of the host without
them.  The ledger's invariants are checkable from stored data alone: the
exterior-to-exterior subpaths are pairwise edge-disjoint, never ride a unit
branch, and never pass through a center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .certify import IMMERSION, EmbeddingCertificate
from .errors import (
    DomainError,
    IncompleteEmbeddingError,
    NoPathError,
    PreconditionFailedError,
    UnitShortfallError,
)
from .expanders import Unit, collect_units, mix_length_m, short_avoiding_path
from .graphs import Edge, Graph, GraphView, normalize_edge
from .spectral import SpectralReport, check_regular
from .util import BEST_EFFORT, STRICT, check_eta, peel_to_complete


@dataclass
class ConnectionLedger:
    """Per-pair exterior and full paths, and the stars each unit has spent."""

    mid_paths: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    full_paths: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    occupied_stars: dict[int, set[int]] = field(default_factory=dict)
    missing_pairs: list[tuple[int, int]] = field(default_factory=list)

    def check_invariants(self, units: list[Unit]) -> None:
        """Assert the ledger's structural guarantees from stored data."""
        seen: set[Edge] = set()
        branch_edges: set[Edge] = set()
        for u in units:
            branch_edges |= u.branch_edges()
        centers = {u.center for u in units}
        for pair, path in sorted(self.mid_paths.items()):
            for e in (normalize_edge(a, b) for a, b in zip(path, path[1:])):
                assert e not in seen, f"mid-path edge {e} reused at {pair}"
                seen.add(e)
                assert e not in branch_edges, f"mid-path edge {e} rides a branch"
            for v in path[1:-1]:
                assert v not in centers, f"center {v} internal at {pair}"


def _eligible_leaves(unit: Unit, occupied: set[int], free: GraphView,
                     view: GraphView) -> dict[int, int]:
    """Usable exterior leaves with their star indices: star unoccupied,
    pendant edge still free, leaf alive in the pair's view."""
    out = {}
    for idx, star in enumerate(unit.stars):
        if idx in occupied:
            continue
        for leaf in star.leaves:
            if view.contains_vertex(leaf) and free.has_edge(star.center, leaf):
                out[leaf] = idx
    return out


def connect_units(g: Graph, units: list[Unit], max_len: int) -> ConnectionLedger:
    """Greedy maximal pair connection in ascending pair order.

    Each pair gets one exterior-to-exterior path found by BFS that avoids
    all centers, the branch vertices of the two units involved, every branch
    edge, and every previously used edge; endpoint leaves must belong to
    unoccupied stars with a free pendant edge.  A found path is extended
    through the branches to a full center-to-center path.  The pairs get
    one pass: the free view and the eligible leaves only shrink, so a pair
    with no path finds none later; a retry could only help a pair whose four
    tries all gave full paths that are not simple.
    """
    ledger = ConnectionLedger(occupied_stars={u.center: set() for u in units})
    centers = frozenset(u.center for u in units)
    # the host minus every branch edge and every used edge
    free = GraphView(g).minus(edges=(e for u in units for e in u.branch_edges()))

    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            if _try_connect(free, centers, units, i, j, max_len, ledger):
                full = ledger.full_paths[(i, j)]
                free = free.minus(edges=zip(full, full[1:]))
            else:
                ledger.missing_pairs.append((i, j))
    return ledger


def _try_connect(free: GraphView, centers: frozenset[int], units: list[Unit],
                 i: int, j: int, max_len: int, ledger: ConnectionLedger) -> bool:
    """Connect units i and j in the free view minus every center and both
    units' branch vertices, trying up to four endpoint choices: the leaves
    of a full path that is not simple are no longer endpoints."""
    unit_i, unit_j = units[i], units[j]
    view = free.minus(centers | unit_i.branch_vertices() | unit_j.branch_vertices())
    occ_i = ledger.occupied_stars[unit_i.center]
    occ_j = ledger.occupied_stars[unit_j.center]
    x1 = _eligible_leaves(unit_i, occ_i, free, view)
    x2 = _eligible_leaves(unit_j, occ_j, free, view)
    for _ in range(4):
        if not x1 or not x2:
            return False
        try:
            mid = short_avoiding_path(view, x1, x2, max_len)
        except NoPathError:
            return False
        star_i, star_j = x1[mid[0]], x2[mid[-1]]
        # every edge is free (a branch edge enters a full path only through
        # the star it occupies), but two units' branches may share a vertex
        full = [*unit_i.branches[star_i], *mid, *reversed(unit_j.branches[star_j])]
        if len(set(full)) != len(full):
            for leaf in (mid[0], mid[-1]):
                x1.pop(leaf, None)
                x2.pop(leaf, None)
            continue
        ledger.mid_paths[(i, j)] = mid
        ledger.full_paths[(i, j)] = full
        occ_i.add(star_i)
        occ_j.add(star_j)
        return True
    return False


@dataclass
class MediumDiagnostics:
    m_scale: float
    h_params: tuple[int, int, int]
    units_built: int
    pairs_connected: int
    pairs_missing: int
    achieved_order: int
    precondition_ok: bool


def default_h_params(n: int, d: int, eta: float) -> tuple[int, int, int, float]:
    """Formula h-parameters, clamped so small hosts stay constructible."""
    m_raw = mix_length_m(n, d)
    m = min(max(m_raw, 2.0), float(n))
    h1 = min(max(1, math.ceil((1 - 4 * eta) * d)), d)
    h2 = min(math.ceil(m), max(1, d // 4))
    h3 = min(max(2, math.ceil(m)), n)
    return h1, h2, h3, m


def build_medium_immersion(g: Graph, report: SpectralReport, eta: float,
                           seed: int = 0, mode: str = BEST_EFFORT,
                           h_params: tuple[int, int, int] | None = None,
                           target_order: int | None = None,
                           max_len: int | None = None,
                           ) -> tuple[EmbeddingCertificate, MediumDiagnostics]:
    """Unit-based clique immersion under the two-eigenvalue-gap hypothesis.

    Strict mode demands d > 2*lambda and a fully connected target-order
    clique; best-effort mode always returns a verifier-passing certificate
    for the largest center subset it managed to connect completely.

    The construction draws nothing: ``seed`` is taken as every pipeline
    takes it, and the certificate does not depend on it.

    An empty host raises ``DomainError`` whatever parameters are given: the
    path-length scale ``MediumDiagnostics.m_scale`` has no value at n = 0,
    and no vertex could stand in for a missing unit.
    """
    check_eta(eta)
    check_regular(report, mode)
    precondition_ok = report.d > 2 * report.lam
    if mode == STRICT and not precondition_ok:
        raise PreconditionFailedError(
            f"need d > 2*lambda, got d={report.d}, lambda={report.lam:.3f}")

    h1f, h2f, h3f, m_scale = default_h_params(g.n, report.d, eta)
    h1, h2, h3 = h_params if h_params is not None else (h1f, h2f, h3f)
    if target_order is None:
        target_order = max(1, math.floor((1 - 5 * eta) * report.d))
    if max_len is None:
        max_len = int(m_scale)
    for name, value in zip(("h1", "h2", "h3", "target_order", "max_len"),
                           (h1, h2, h3, target_order, max_len)):
        if value < 1:
            raise DomainError(f"need {name} >= 1, got {name}={value}")

    units = collect_units(g, count=target_order, h1=h1, h2=h2, h3=h3)
    ledger = connect_units(g, units, max_len=max_len)

    # the full paths by ascending center pair
    by_centers = {normalize_edge(units[i].center, units[j].center): path
                  for (i, j), path in ledger.full_paths.items()}
    # vertex 0 stands in for a center when no unit is built
    centers = [u.center for u in units] or [0]
    if mode == STRICT:
        if len(centers) < target_order:
            raise UnitShortfallError(
                f"only {len(units)} units for target {target_order}")
        missing = [(centers[i], centers[j]) for i, j in ledger.missing_pairs]
        if missing:
            raise IncompleteEmbeddingError(f"unconnected pairs: {missing[:5]}")
        chosen = centers
    else:
        chosen = peel_to_complete(centers, by_centers)

    cert = EmbeddingCertificate.from_paths(IMMERSION, chosen, by_centers)
    diag = MediumDiagnostics(m_scale, (h1, h2, h3), len(units),
                             len(ledger.full_paths), len(ledger.missing_pairs),
                             len(cert.branch), precondition_ok)
    return cert, diag
