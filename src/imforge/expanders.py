"""Sublinear-expansion machinery: the breadth-first kernel, the path-length
scale, short path routing around forbidden sets, star packing, and units.

``bfs_tree`` is the one breadth-first search of the constructions: unit
branches, the medium linker (both through ``short_avoiding_path``), the
subdivision router and ``gadgets.grow_expansion`` all break ties by its scan
order, ascending ids level by level.

``pack_stars`` is the one greedy star packer: units pack their stars with
it in (degree, id) center order, and the balanced subdivision packs its
branch stars with it in id order.  The rule that keeps a unit's star centers
reachable lives in two places: the unit builder tries only centers with an
edge to spare beyond h2 leaves, and the packer's slack leaves never take a
center's last edge.

A unit is the tree-like gadget used to anchor one branch vertex of an
immersion: a center, edge-disjoint branch paths to a set of star centers,
and vertex-disjoint stars whose leaves form the unit's exterior.  Units are
built greedily; the construction is best-effort and every result is meant to
be validated by the independent certifier, never trusted from bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import DomainError, NoPathError, UnitFailedError
from .graphs import Edge, Graph, GraphView, normalize_edge
from .util import stream_rng

# centers a unit tries by rank before the few seeded extras
CENTER_TRIALS = 8

# expansion profile parameters of the path-length scale
EPS1 = 0.125
EPS2 = 0.2


def mix_length_m(n: int, d: int) -> float:
    """Path-length scale (2/EPS1) * ln^3(15n / (EPS2 d))."""
    if n <= 0 or d <= 0:
        raise DomainError(f"need positive n, d; got n={n}, d={d}")
    ratio = 15 * n / (EPS2 * d)
    if ratio <= 1:
        raise DomainError("EPS2*d must stay below 15n")
    return (2 / EPS1) * math.log(ratio) ** 3


def bfs_tree(view: Graph | GraphView, sources: Iterable[int], depth: int,
             reverse: bool = False) -> Iterator[tuple[int, Optional[int], int]]:
    """Breadth-first discovery from the sources, up to ``depth`` levels.

    Yields ``(level, parent, vertex)`` in discovery order: the sources
    first, at level 0 with parent None, then each further level.  Every
    level, and every neighbour list within it, is scanned in ascending id
    order, or descending when ``reverse`` is set; a vertex's parent is the
    first vertex of the previous level to reach it.  The caller stops the
    search by no longer iterating.
    """
    frontier = sorted(set(sources), reverse=reverse)
    seen = set(frontier)
    for v in frontier:
        yield 0, None, v
    for level in range(1, depth + 1):
        nxt = []
        for u in frontier:
            nbrs = view.neighbors(u)
            for w in (reversed(nbrs) if reverse else nbrs):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    yield level, u, w
        if not nxt:
            return
        frontier = sorted(nxt, reverse=reverse)


def path_to(parent: dict[int, Optional[int]], v: int) -> list[int]:
    """The tree path from its source to v, given every discovered vertex's
    parent as ``bfs_tree`` yields it."""
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def short_avoiding_path(view: GraphView, x1: Iterable[int], x2: Iterable[int],
                        max_len: int) -> list[int]:
    """BFS-shortest path from X1 to X2 in the view, touching X1 and X2 only
    at its endpoints, of length at most max_len.

    The search stops at the first X2 vertex ``bfs_tree`` reaches, so ties
    break toward ascending vertex ids and the result is deterministic.  A
    common active vertex of X1 and X2 yields the zero-length path.
    """
    x1_set = {v for v in x1 if view.contains_vertex(v)}
    x2_set = {v for v in x2 if view.contains_vertex(v)}
    if not x1_set or not x2_set:
        raise NoPathError(max_len, "empty endpoint set in the view")
    parent: dict[int, Optional[int]] = {}
    for _, p, v in bfs_tree(view, x1_set, max_len):
        parent[v] = p
        if v in x2_set:
            return path_to(parent, v)
    raise NoPathError(max_len)


@dataclass
class Star:
    center: int
    leaves: tuple[int, ...]

    def edges(self) -> list[Edge]:
        return [normalize_edge(self.center, leaf) for leaf in self.leaves]


def pack_stars(view: Graph | GraphView, order: Iterable[int], count: int,
               min_leaves: int, max_leaves: int) -> list[Star]:
    """Greedy vertex-disjoint star packing.

    Centers are tried in the given order; a free center takes its lowest-id
    free neighbors, at most ``max_leaves`` of them, when at least
    ``min_leaves`` are free.  Leaves past ``min_leaves`` are slack and never
    take the center's last edge in the view, so slack cannot cut a center
    off.  Packing stops after ``count`` stars; a shortfall is left for the
    caller to judge from the returned list.
    """
    used: set[int] = set()
    stars: list[Star] = []
    for c in order:
        if len(stars) >= count:
            break
        if c in used:
            continue
        nbrs = view.neighbors(c)
        avail = [w for w in nbrs if w not in used]
        if len(avail) >= min_leaves:
            cap = max(min_leaves, min(max_leaves, len(nbrs) - 1))
            star = Star(c, tuple(avail[:cap]))
            used.add(c)
            used.update(star.leaves)
            stars.append(star)
    return stars


@dataclass
class Unit:
    """Center, edge-disjoint branch paths to star centers, and the stars.

    ``branches[i]`` runs from the center to ``stars[i].center``; the exterior
    is the union of the stored star leaves.
    """

    center: int
    branches: list[list[int]]
    stars: list[Star]

    def exterior(self) -> set[int]:
        out: set[int] = set()
        for s in self.stars:
            out.update(s.leaves)
        return out

    def branch_edges(self) -> set[Edge]:
        out: set[Edge] = set()
        for path in self.branches:
            out.update(normalize_edge(a, b) for a, b in zip(path, path[1:]))
        return out

    def all_edges(self) -> set[Edge]:
        return self.branch_edges() | {e for s in self.stars for e in s.edges()}

    def branch_vertices(self) -> set[int]:
        out: set[int] = set()
        for path in self.branches:
            out.update(path)
        return out

    def interior_vertices(self) -> set[int]:
        """Vertices strictly inside branch paths (center and star centers
        excluded)."""
        out: set[int] = set()
        for path in self.branches:
            out.update(path[1:-1])
        return out


def _build_unit_at(view: GraphView, center: int, h1: int, h2: int, h3: int,
                   n_stars: int) -> tuple[Optional[Unit], str]:
    """Attempt the unit construction from one candidate center.

    Returns (unit, stage_reached); unit is None on failure and the stage
    names where the construction ran out of room.
    """
    pool_view = view.minus(vertices=[center])
    # stars first, centers in ascending (degree, id) order; each grabs up to
    # twice its required size so the prune step has slack; a star center
    # needs an edge of the view besides its h2 leaves, for its branch path
    order = sorted((v for v in pool_view.active_vertices() if view.degree(v) > h2),
                   key=lambda v: (pool_view.degree(v), v))
    stars = pack_stars(pool_view, order, n_stars, h2, 2 * h2)
    if len(stars) < h1:
        return None, "stars"

    # branch paths avoid the star edges and each other's edges
    bfs_view = view.minus(edges=[e for s in stars for e in s.edges()])
    connected: list[tuple[Star, list[int]]] = []
    for star in stars:
        try:
            path = short_avoiding_path(bfs_view, [center], [star.center], h3)
        except NoPathError:
            continue
        bfs_view = bfs_view.minus(edges=zip(path, path[1:]))
        connected.append((star, path))
    if len(connected) < h1:
        return None, "connect"

    # prune: a star consumed by branch interiors loses its slot
    interiors: set[int] = set()
    for _, path in connected:
        interiors.update(path[1:-1])
    survivors: list[tuple[Star, list[int]]] = []
    for star, path in connected:
        eaten = sum(1 for leaf in star.leaves if leaf in interiors)
        if eaten * 2 >= len(star.leaves):
            continue
        free = [leaf for leaf in star.leaves if leaf not in interiors]
        if len(free) < h2:
            continue
        survivors.append((Star(star.center, tuple(free[:h2])), path))
    if len(survivors) < h1:
        return None, "prune"
    kept = survivors[:h1]
    return Unit(center, [path for _, path in kept], [s for s, _ in kept]), "done"


def build_unit(view: GraphView, h1: int, h2: int, h3: int, seed: int = 0) -> Unit:
    """Build one unit in the view.

    Candidate centers are tried by descending degree in the view (plus a
    few seeded extras); every star center keeps an edge outside its star,
    branch paths avoid star edges and each other's edges, and stars
    half-eaten by branch interiors are discarded before the final trim to
    (h1, h2).
    """
    ranked = sorted(view.active_vertices(), key=lambda v: (-view.degree(v), v))
    candidates = ranked[:CENTER_TRIALS]
    extra_pool = ranked[CENTER_TRIALS:]
    if extra_pool:
        rng = stream_rng(seed, "build-unit-centers")
        candidates += rng.sample(extra_pool, min(4, len(extra_pool)))
    n_stars = h1 + max(1, h1 // 4)
    stage_rank = {"stars": 0, "connect": 1, "prune": 2}
    worst_stage = "stars"
    for center in candidates:
        unit, stage = _build_unit_at(view, center, h1, h2, h3, n_stars)
        if unit is not None:
            return unit
        if stage_rank[stage] > stage_rank[worst_stage]:
            worst_stage = stage
    raise UnitFailedError(worst_stage)


def collect_units(g: Graph, count: int, h1: int, h2: int, h3: int,
                  seed: int = 0) -> list[Unit]:
    """Collect up to ``count`` edge-disjoint units with distinct centers.

    One view of the host loses each unit's center and edges once the unit
    is built, and the next unit is built in it; stops early (without
    raising) when construction fails, leaving the partial collection to the
    caller.
    """
    units: list[Unit] = []
    view = GraphView(g)
    for i in range(count):
        try:
            unit = build_unit(view, h1, h2, h3, seed=seed + i)
        except UnitFailedError:
            break
        units.append(unit)
        view = view.minus([unit.center], unit.all_edges())
    return units
