"""Sublinear-expansion machinery: the breadth-first kernel, the path-length
scale, short path routing around forbidden sets, star packing, and units.

``bfs_tree`` is the one breadth-first search of the constructions: unit
branches, the medium linker (both through ``short_avoiding_path``), the
subdivision router and ``gadgets.grow_expansion`` all use it.  It yields
level sets, level k being the vertices at distance k from the sources, and
stores no parents.  The tree is fixed by one rule instead: a vertex's parent
is its least neighbour in the level before (its greatest with ``reverse``).
That is the tree of a search that scans each level in ascending id order,
because the first vertex of a level to reach w is w's least neighbour
there; ``bfs_parent`` and ``path_to`` read it off the levels.

``short_avoiding_path`` grows levels from both endpoint sets, the smaller
frontier first, until they meet (Pohl's bidirectional search).  The levels
then give the layers of the vertices on shortest X1-X2 paths, and the walk
back by the rule gives the path a search from X1 alone would have met
first: it ends at the X2 vertex with the least (parent, vertex).

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
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, NoPathError, UnitFailedError
from .graphs import Edge, Graph, GraphView, normalize_edge

# centers a unit tries, by rank
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


def bfs_tree(view: Graph | GraphView, sources: Iterable[int],
             depth: int) -> Iterator[set[int]]:
    """The levels of the breadth-first tree from the sources, up to
    ``depth``.

    Yields level 0, the source set, then level k for k = 1, 2, ...: the
    vertices at distance exactly k from the sources.  It stops at the first
    empty level; the caller stops the search by no longer iterating.  The
    neighbours of a level lie in it or in the levels next to it, so only the
    last two levels are kept.
    """
    level, prev = set(sources), set()
    yield level
    for _ in range(depth):
        nxt: set[int] = set()
        for u in level:
            nxt.update(view.neighbors(u))
        nxt -= level
        nxt -= prev
        if not nxt:
            return
        yield nxt
        prev, level = level, nxt


def bfs_parent(view: Graph | GraphView, v: int, level: set[int],
               reverse: bool = False) -> int:
    """v's parent in the breadth-first tree, given the level before v's:
    its least neighbour there, or its greatest with ``reverse``."""
    return (max if reverse else min)(u for u in view.neighbors(v) if u in level)


def path_to(view: Graph | GraphView, levels: Sequence[set[int]], v: int,
            reverse: bool = False) -> list[int]:
    """The tree path from a source to v, a vertex of the last of the
    levels, each step back going to the parent ``bfs_parent`` names."""
    path = [v]
    for level in reversed(levels[:-1]):
        path.append(bfs_parent(view, path[-1], level, reverse))
    return path[::-1]


def short_avoiding_path(view: GraphView, x1: Iterable[int], x2: Iterable[int],
                        max_len: int) -> list[int]:
    """Shortest path from X1 to X2 in the view, touching X1 and X2 only at
    its endpoints, of length at most max_len.

    Of the shortest paths it returns the tree path of ``bfs_tree`` from X1
    to the X2 vertex w with the least (``bfs_parent`` of w, w): the path a
    search from X1 scanning in ascending id order reaches first, so the
    result is deterministic.  A common active vertex of X1 and X2 yields
    the zero-length path to the least of them.

    Levels grow from X1 and from X2, always on the side with the smaller
    frontier, until a new level meets the other side's frontier, a side
    runs dry, or the two depths add up to max_len.  On meeting at depth a
    from X1 and L - a from X2, the walk back reads its parents from layers
    of vertices at distance k from X1 on shortest paths.  Past the meet
    set, layer k is the part of X2's level L - k that neighbours layer
    k - 1.  Up to it X1's own levels serve: every neighbour of such a
    vertex in the level before is on a shortest path too.
    """
    x1_set = {v for v in x1 if view.contains_vertex(v)}
    x2_set = {v for v in x2 if view.contains_vertex(v)}
    if not x1_set or not x2_set:
        raise NoPathError(max_len, "empty endpoint set in the view")
    common = x1_set & x2_set
    if common:
        return [min(common)]
    fwd_levels, bwd_levels = bfs_tree(view, x1_set, max_len), bfs_tree(view, x2_set, max_len)
    fwd, bwd = [next(fwd_levels)], [next(bwd_levels)]
    while len(fwd) + len(bwd) - 2 < max_len:
        if len(fwd[-1]) <= len(bwd[-1]):
            grown, other, level = fwd, bwd, next(fwd_levels, None)
        else:
            grown, other, level = bwd, fwd, next(bwd_levels, None)
        if level is None:
            break
        grown.append(level)
        if not level.isdisjoint(other[-1]):
            a, b = len(fwd) - 1, len(bwd) - 1
            layers = fwd[:a] + [fwd[a] & bwd[b]] + bwd[:b][::-1]
            for k in range(a + 1, len(layers)):
                layers[k] = {u for v in layers[k - 1] for u in view.neighbors(v)
                             if u in layers[k]}
            end = min(layers[-1], key=lambda w: (bfs_parent(view, w, layers[-2]), w))
            return path_to(view, layers, end)
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


def _build_unit_at(view: GraphView, active: np.ndarray, center: int, h1: int, h2: int,
                   h3: int, n_stars: int) -> tuple[Optional[Unit], str]:
    """Attempt the unit construction from one candidate center, given the
    view's active vertex ids in ascending order.

    Returns (unit, stage_reached); unit is None on failure and the stage
    names where the construction ran out of room.
    """
    pool_view = view.minus(vertices=[center])
    # stars first, centers in ascending (degree without the center, id)
    # order, each up to twice its required size so the prune step has slack;
    # a star center needs an edge besides its h2 leaves, for its branch path.
    # The ids ascend and the sort is stable, so ties keep id order.
    deg = view.degrees()
    near = np.zeros(view.n, dtype=bool)
    near[list(view.neighbors(center))] = True
    ids = active[(deg[active] > h2) & (active != center)]
    order = ids[np.argsort(deg[ids] - near[ids], kind="stable")].tolist()
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


def build_unit(view: GraphView, h1: int, h2: int, h3: int) -> Unit:
    """Build one unit in the view.

    The CENTER_TRIALS active vertices of highest degree in the view (least
    id first on a tie) are tried as centers in that order; every star
    center keeps an edge outside its star, branch paths avoid star edges
    and each other's edges, and stars half-eaten by branch interiors are
    discarded before the final trim to (h1, h2).
    """
    deg = view.degrees()
    active = np.ones(view.n, dtype=bool)
    active[list(view.removed_vertices)] = False
    active = np.flatnonzero(active)
    ranked = active[np.argsort(-deg[active], kind="stable")[:CENTER_TRIALS]].tolist()
    n_stars = h1 + max(1, h1 // 4)
    stage_rank = {"stars": 0, "connect": 1, "prune": 2}
    worst_stage = "stars"
    for center in ranked:
        unit, stage = _build_unit_at(view, active, center, h1, h2, h3, n_stars)
        if unit is not None:
            return unit
        if stage_rank[stage] > stage_rank[worst_stage]:
            worst_stage = stage
    raise UnitFailedError(worst_stage)


def collect_units(g: Graph, count: int, h1: int, h2: int, h3: int) -> list[Unit]:
    """Collect up to ``count`` edge-disjoint units with distinct centers.

    One view of the host loses each unit's center and edges once the unit
    is built, and the next unit is built in it; stops early (without
    raising) when construction fails, leaving the partial collection to the
    caller.
    """
    units: list[Unit] = []
    view = GraphView(g)
    for _ in range(count):
        try:
            unit = build_unit(view, h1, h2, h3)
        except UnitFailedError:
            break
        units.append(unit)
        view = view.minus([unit.center], unit.all_edges())
    return units
