"""Standalone constructive gadgets: even cycles, vertex expansions,
length-adjusting connectors, and the bipartite clique immersion with
uniform length-4 paths.

Expansions and connectors search with the kernel ``expanders.bfs_tree``;
the even-cycle search keeps its own parity BFS (``_parity_distances``).

An adjuster couples two expansion ends through a small center set that
realizes connector paths of k+1 consecutive even-spaced lengths; chaining
adjusters adds their flexibilities.  All constructions are best-effort and
meant to be validated by the certifier.

The length-4 bipartite gadget reads the host once, as its A×B
``Graph.block``, and works on that matrix alone.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import blas
from .certify import EmbeddingCertificate, IMMERSION
from .errors import (
    BadSizeError,
    ExpansionFailedError,
    NoConnectionError,
    NoEvenCycleError,
    NoPathError,
    OverlapError,
    PreconditionFailedError,
    StuckError,
)
from .expanders import bfs_parent, bfs_tree, short_avoiding_path
from .graphs import Graph, normalize_edge, vertex_ids, view_minus
from .util import BEST_EFFORT, STRICT, derive_seed, peel_to_complete, raw_order


def _parity_distances(view, target: int, banned_edge) -> dict[tuple[int, int], int]:
    """Shortest walk lengths to ``target`` by parity (bipartite double cover
    BFS); used as an admissible pruning bound for simple-path search.  Not
    ``expanders.bfs_tree``: it searches (vertex, parity) states, not vertices."""
    dist: dict[tuple[int, int], int] = {(target, 0): 0}
    queue = deque([(target, 0)])
    while queue:
        v, par = queue.popleft()
        d = dist[(v, par)]
        for w in view.neighbors(v):
            if banned_edge and normalize_edge(v, w) == banned_edge:
                continue
            state = (w, par ^ 1)
            if state not in dist:
                dist[state] = d + 1
                queue.append(state)
    return dist


def _shortest_odd_path(view, start: int, target: int, banned_edge,
                       bound: int) -> Optional[list[int]]:
    """Shortest simple odd-length path start..target avoiding one edge,
    of length <= bound; DFS with parity-walk-distance pruning, on an
    explicit stack of neighbour iterators so long paths cannot exhaust the
    call stack."""
    if bound < 1:
        return None
    dist = _parity_distances(view, target, banned_edge)
    best: Optional[list[int]] = None
    best_len = bound + 1

    def worth_entering(v: int, length: int) -> bool:
        h = dist.get((v, (1 - length) % 2))
        return h is not None and length + h < best_len

    if not worth_entering(start, 0):
        return None
    path = [start]
    on_path = {start}
    stack = [iter(view.neighbors(start))]
    while stack:
        v = path[-1]
        length = len(path)
        for w in stack[-1]:
            if w in on_path or (banned_edge and normalize_edge(v, w) == banned_edge):
                continue
            if w == target:
                if length % 2 == 1 and length < best_len:
                    best = path + [w]
                    best_len = length
            elif worth_entering(w, length):
                path.append(w)
                on_path.add(w)
                stack.append(iter(view.neighbors(w)))
                break
        else:
            stack.pop()
            on_path.remove(path.pop())
    return best


def shortest_even_cycle(g, cap: Optional[int] = None) -> Optional[list[int]]:
    """A simple cycle of minimum even length (optionally at most ``cap``),
    as a vertex list, or None.

    For every edge (u, v) the shortest odd simple u-v path avoiding that
    edge closes into an even cycle; the global minimum over edges is exact.
    """
    limit = min(cap, g.n) if cap is not None else g.n
    if limit < 4:
        return None
    best: Optional[list[int]] = None
    best_len = limit + 1
    for u, v in g.edges():
        path = _shortest_odd_path(g, u, v, (u, v), best_len - 1)
        if path is not None and len(path) < best_len:
            best = path
            best_len = len(path)
            if best_len == 4:
                break
    return best


@dataclass(frozen=True)
class Expansion:
    """A root plus vertices listed in BFS discovery order, every one within
    the growth radius of the root inside the induced subgraph."""

    root: int
    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


def grow_expansion(view, root: int, size: int, radius: int,
                   forbidden: Iterable[int] = ()) -> Expansion:
    """The root and the first vertices of its ``bfs_tree`` in the view minus
    the forbidden set, in (level, ``bfs_parent``, vertex) order, up to the
    requested size, all within the radius; a size below 1 raises
    BadSizeError."""
    if size < 1:
        raise BadSizeError(f"size {size} below 1")
    banned = set(forbidden)
    if not view.contains_vertex(root) or root in banned:
        raise ExpansionFailedError(f"root {root} unavailable")
    inside = view.minus(banned)
    order: list[int] = []
    prev: set[int] = set()
    for level in bfs_tree(inside, [root], radius):
        order += sorted(level, key=lambda w: (bfs_parent(inside, w, prev), w)) if prev else [root]
        if len(order) >= size:
            break
        prev = level
    if len(order) < size:
        raise ExpansionFailedError(f"only {len(order)} of {size} vertices within radius {radius}")
    return Expansion(root, tuple(order[:size]))


def trim_expansion(expansion: Expansion, new_size: int) -> Expansion:
    """Prefix of the BFS order: still an expansion of the same root, with
    all root distances preserved."""
    if not (1 <= new_size <= expansion.size):
        raise BadSizeError(f"size {new_size} outside 1..{expansion.size}")
    return Expansion(expansion.root, expansion.vertices[:new_size])


@dataclass
class Adjuster:
    """Two expansion ends, whose roots are the cores, a center set, and
    realizers: core-to-core paths of lengths ell, ell+2, ..., ell+2k through
    the center.  k, ell and the end size are read off the realizers and the
    first end; ``m`` is the budget the verifier checks."""

    end1: Expansion
    end2: Expansion
    center: tuple[int, ...]
    realizers: list[list[int]]
    m: int

    @property
    def u1(self) -> int:
        return self.end1.root

    @property
    def u2(self) -> int:
        return self.end2.root

    @property
    def k(self) -> int:
        return len(self.realizers) - 1

    @property
    def ell(self) -> int:
        return len(self.realizers[0]) - 1

    @property
    def d_size(self) -> int:
        return self.end1.size

    def vertices(self) -> set[int]:
        return set(self.center) | set(self.end1.vertices) | set(self.end2.vertices)

    def to_json(self) -> str:
        payload = {
            "u1": self.u1,
            "u2": self.u2,
            "ends": [list(self.end1.vertices), list(self.end2.vertices)],
            "A": sorted(self.center),
            "k": self.k,
            "ell": self.ell,
            "realizers": self.realizers,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _canonical_cycle(cycle: list[int]) -> list[int]:
    """Rotate/reflect so the minimum id leads and its smaller neighbor follows."""
    i = cycle.index(min(cycle))
    rot = cycle[i:] + cycle[:i]
    if rot[-1] < rot[1]:
        rot = [rot[0]] + rot[1:][::-1]
    return rot


def build_1_adjuster(g: Graph, removed_vertices: Iterable[int] = (),
                     d_size: int = 1, m: int = 1) -> Adjuster:
    """Seed adjuster from a shortest even cycle: the two cores sit at
    distance r-1 along a 2r-cycle, the two arcs realize lengths r-1 and r+1,
    and the ends are expansions grown off the cycle.

    The cycle is capped at m/16 when that is at least 4 (the asymptotic
    regime) and is otherwise unbounded, so small hosts stay usable.
    """
    view = view_minus(g, removed_vertices)
    cycle_cap = m // 16 if m // 16 >= 4 else None
    cycle = shortest_even_cycle(view, cycle_cap)
    if cycle is None:
        raise NoEvenCycleError(f"no even cycle within cap {cycle_cap}")
    cycle = _canonical_cycle(cycle)
    r = len(cycle) // 2
    v1 = cycle[0]
    v2 = cycle[r - 1]
    arc_short = cycle[:r]
    arc_long = [cycle[0]] + cycle[r - 1:][::-1]
    center = tuple(sorted(set(cycle) - {v1, v2}))
    off_cycle = set(cycle)
    end1 = grow_expansion(view, v1, d_size, m, forbidden=off_cycle - {v1})
    end2 = grow_expansion(view, v2, d_size, m,
                          forbidden=(off_cycle - {v2}) | set(end1.vertices))
    return Adjuster(end1, end2, center, [arc_short, arc_long], m)


def _orient(path: list[int], first: int) -> list[int]:
    return list(path) if path[0] == first else list(reversed(path))


def _path_inside(view, members: set[int], start: int, target: int) -> list[int]:
    """BFS path between two vertices staying inside a vertex set."""
    inside = view.minus(v for v in range(view.n) if v not in members)
    try:
        return short_avoiding_path(inside, [start], [target], max_len=len(members))
    except NoPathError:
        raise NoConnectionError(
            f"end not internally connected from {start} to {target}") from None


def chain_adjusters(g: Graph, first: Adjuster, second: Adjuster, m: int = 1) -> Adjuster:
    """Link one end of each adjuster by a path of length at most m,
    producing an adjuster whose flexibility is the sum of the two.

    The connector is extended through the used ends to their cores; the new
    center set is both old centers plus the connector, the new ends are the
    free ends trimmed to the smaller end size, the composed realizers cover
    every length ell+2i for i = 0..k1+k2, and the budget is the largest of
    the two budgets and m.
    """
    if first.vertices() & second.vertices():
        raise NoConnectionError("adjusters must be vertex-disjoint")
    centers = set(first.center) | set(second.center)
    view = view_minus(g, centers)
    x1 = set(first.end1.vertices) | set(first.end2.vertices)
    x2 = set(second.end1.vertices) | set(second.end2.vertices)
    try:
        mid = short_avoiding_path(view, x1, x2, max_len=m)
    except NoPathError as err:
        raise NoConnectionError(str(err)) from err

    # (used end, free end) of each adjuster: the connector lands in the used one
    used1, free1 = ((first.end1, first.end2) if mid[0] in first.end1.vertices
                    else (first.end2, first.end1))
    used2, free2 = ((second.end1, second.end2) if mid[-1] in second.end1.vertices
                    else (second.end2, second.end1))
    # the connector runs from used1's core to used2's core
    head = _path_inside(view, set(used1.vertices), used1.root, mid[0])
    tail = _path_inside(view, set(used2.vertices), mid[-1], used2.root)
    connector = head + mid[1:] + tail[1:] if len(mid) > 1 else head + tail[1:]
    if len(set(connector)) != len(connector):
        raise NoConnectionError("connector revisits a vertex")

    realizers: list[list[int]] = []
    for i in range(first.k + second.k + 1):
        i1 = min(i, first.k)
        part1 = _orient(first.realizers[i1], free1.root)
        part2 = _orient(second.realizers[i - i1], used2.root)
        composed = part1 + connector[1:] + part2[1:]
        if len(set(composed)) != len(composed):
            raise NoConnectionError("composed realizer is not simple")
        realizers.append(composed)

    center_new = tuple(sorted((centers | set(connector)) - {free1.root, free2.root}))
    d_new = min(first.d_size, second.d_size)
    end1, end2 = (end if end.size <= d_new else trim_expansion(end, d_new)
                  for end in (free1, free2))
    return Adjuster(end1, end2, center_new, realizers, max(first.m, second.m, m))


def k3_density_bound(alpha: float, n1: int, n2: int) -> float:
    """The most branch vertices the length-4 gadget's hypotheses allow at
    A-B density alpha between sides of sizes n1 and n2."""
    return min(alpha * n1 / 16, alpha * alpha * n2 / 192)


def bipartite_k3_immersion(g: Graph, a_side: Sequence[int], b_side: Sequence[int],
                           p: int, seed: int = 0,
                           mode: str = BEST_EFFORT) -> EmbeddingCertificate:
    """Clique immersion with p branch vertices on one side of a bipartite
    graph, every connecting path of length exactly 4.

    A hub b is chosen by exact scoring over a seeded candidate set
    (neighborhood size squared against the bad-pair count); branch vertices
    come from hub neighbors without too many low-codegree partners, and each
    pair is joined through a lightly-loaded middle vertex a by a path
    u - b_i - a - b_j - v of globally edge-disjoint steps, b_i and b_j in B.
    The A x B incidence matrix ``mat``, ``g.block(A, B)`` in float32, is
    the one record of the host: all codegrees come from one product
    ``mat @ mat.T``, every candidate's bad-pair counts from one product of
    the low-codegree indicator with the candidates' columns (both exact in
    float32, since every count is below 2**24), and linking spends its
    edges.  The OpenBLAS workers of the two products are released after
    the second.

    Strict mode raises when p breaks the density bound, when the hub leaves
    fewer than p usable candidates, and on a pair it cannot link.
    Best-effort takes the candidates there are (every hub neighbor when
    fewer than three are left), less one for the pool when the hub leaves
    p or fewer; links through any common pool vertex when no pair shares a
    strong one; and peels the branch set to the pairs it linked.

    Side ids outside the host raise OutOfRangeError, and an id on both
    sides raises OverlapError.
    """
    a_ids = np.unique(vertex_ids(g.n, a_side))
    b_ids = np.unique(vertex_ids(g.n, b_side))
    if np.intersect1d(a_ids, b_ids).size:
        raise OverlapError("the two sides share a vertex")
    a_list, b_list = a_ids.tolist(), b_ids.tolist()
    n1, n2 = len(a_list), len(b_list)
    if p < 0 or n1 == 0 or n2 == 0:
        raise PreconditionFailedError("need nonempty sides and p >= 0")
    mat = g.block(a_ids, b_ids, dtype=np.float32)
    alpha = float(mat.sum()) / (n1 * n2)
    if mode == STRICT:
        bound = k3_density_bound(alpha, n1, n2)
        if p > bound:
            raise PreconditionFailedError(f"p={p} exceeds the density bound {bound:.3f}")
    if p <= 1:
        return EmbeddingCertificate.from_paths(IMMERSION, a_list[:p], {}, ell=3)

    # hub candidates: the first 64 columns in raw-word order (all when n2 <= 64)
    bits = np.random.PCG64(derive_seed(seed, "k3-hub"))
    candidates = sorted(raw_order(n2, bits)[:64].tolist())
    codeg = mat @ mat.T

    # score each candidate hub column j by its A-rows x and the pairs y
    # among them of low codegree: lm[i, c] counts the low-codegree partners
    # of row i among candidate c's rows, so y is half the sum of lm over
    # those rows; argmax keeps the first best candidate
    low = (codeg < 3 * p).astype(np.float32)
    np.fill_diagonal(low, 0.0)
    cand = mat[:, candidates]
    lm = low @ cand
    blas.release()
    x = cand.sum(axis=0).astype(np.float64)
    y = (cand * lm).sum(axis=0).astype(np.float64) / 2
    ex = alpha * n1
    ey = max(3 * p * n1 * n1 / (2 * n2), 1e-12)
    best = int(np.argmax(x * x - (ex * ex / (2 * ey)) * y))
    hub = b_list[candidates[best]]
    rows = np.flatnonzero(cand[:, best])
    keep = rows[lm[rows, best] <= len(rows) / 16]
    if len(keep) < p and mode == STRICT:
        raise PreconditionFailedError(
            f"hub {hub} leaves only {len(keep)} usable branch candidates for p={p}")
    if len(keep) < 3 and mode != STRICT:
        # two branch vertices and a middle one are the least that link a pair
        keep = rows
    # best-effort leaves at least one candidate to the pool of middle
    # vertices: with an empty pool no pair can be linked
    q = p if mode == STRICT or len(keep) > p else max(len(keep) - 1, 1)
    branch_rows, pool_rows = keep[:q], keep[q:]
    branch = [a_list[i] for i in branch_rows.tolist()]
    # strong[i, k]: branch i and pool vertex k have codegree at least 3p
    strong = codeg[np.ix_(branch_rows, pool_rows)] >= 3 * p
    if mode != STRICT and not np.triu(strong.astype(np.int64) @ strong.T, 1).any():
        # no pair shares a strong pool vertex, so none would link: any
        # common pool neighbour will do
        strong[:] = True

    # free: mat less each path's four edges; load[k]: the used B vertices
    # next to pool vertex k, grown by mat's column when one is first used
    free = mat > 0
    used_col = np.zeros(n2, dtype=bool)
    load = np.zeros(len(pool_rows), dtype=np.float32)
    linked: dict[tuple[int, int], list[int]] = {}
    for i in range(len(branch)):
        for j in range(i + 1, len(branch)):
            u, v = branch[i], branch[j]
            ru, rv = branch_rows[i], branch_rows[j]
            for k in np.flatnonzero(strong[i] & strong[j] & (load <= p)):
                ra = pool_rows[k]
                # b_i, b_j: the first B columns free in rows (u, a), (v, a)
                shared = free[ru] & free[ra]
                ci = shared.argmax()
                if not shared[ci]:
                    continue
                shared = free[rv] & free[ra]
                shared[ci] = False
                cj = shared.argmax()
                if shared[cj]:
                    break
            else:
                if mode == STRICT:
                    raise StuckError((u, v))
                continue
            free[[ru, ra, ra, rv], [ci, ci, cj, cj]] = False
            for c in (ci, cj):
                if not used_col[c]:
                    used_col[c] = True
                    load += mat[pool_rows, c]
            linked[(u, v)] = [u, b_list[ci], a_list[ra], b_list[cj], v]
    if len(linked) < len(branch) * (len(branch) - 1) // 2:
        branch = peel_to_complete(branch, linked)
    return EmbeddingCertificate.from_paths(IMMERSION, branch, linked, ell=3)
