"""Dense-case clique immersion: link every non-adjacent pair inside the
branch set F by an edge-disjoint path of length two or three leaving F.

Two methods link those pairs.  ``greedy``, the default, sends every one, in
ascending order, to the greedy linker ``greedy_three_paths``.  ``paper``
follows the paper: partition the host, replace the red pairs (those across
two parts of F) by length-2 paths through dedicated middle parts (triangle
matching per color class of a round-robin factorization, by the Rödl-nibble
matcher), then link the leftovers greedily.  At desk scale the nibble stage
adds no branch vertex: both methods reached the same order on every host
measured, and wherever the nibble ran greedy took 16-57% of the time
(README.md has the ablation).

All path families (lengths 1, 2, 3) stay globally edge-disjoint.  The pairs
inside F (the block of ids 0..f-1) come from one f×f boolean block of the
host, ``Graph.block``, cut once per run: its edges are the length-1 paths,
and its non-adjacent pairs are the holes to link; ``paper`` splits them
into the red pairs of each part pair and the leftover bucket.  Every longer
path leaves F, so its edges join F to W (the vertices outside F with a
neighbour in F) or W to W.  Those edges are kept in one boolean matrix,
``FreeEdges``, the host's (F ∪ W) × W block: a row per vertex of F ∪ W, a
column per vertex of W, and a cell that is True while its host edge is on
no path.  The red-edge replacement reads a whole batch's black edges from
it in one gather, and the linker reads its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .certify import IMMERSION, EmbeddingCertificate
from .errors import (
    DegenerateTError,
    DomainError,
    IncompleteEmbeddingError,
    PreconditionFailedError,
)
from .graphs import Edge, Graph, build_graph
from .nibble import edge_disjoint_triangles
from .spectral import SpectralReport, check_regular
from .util import BEST_EFFORT, STRICT, check_eta, derive_seed, peel_to_complete

GREEDY = "greedy"  # every non-adjacent pair of F to the greedy linker
PAPER = "paper"  # red pairs through the nibble matcher first, then greedy


@dataclass
class PartitionScheme:
    """Branch set F split into cells of size t, remainder into cells of
    size s; cell 0 on each side holds the short leftover."""

    f: int
    t: int
    s: int
    m1: int
    m2: int
    v_parts: list[tuple[int, ...]]
    u_parts: list[tuple[int, ...]]

    @property
    def f_set(self) -> tuple[int, ...]:
        return tuple(v for part in self.v_parts for v in part)


def dense_partition(g: Graph, report: SpectralReport, eta: float) -> PartitionScheme:
    """Formula-exact partition sizes; F is the lowest-id block and both
    sides are split sequentially."""
    n, d = g.n, report.d
    c = d / n
    f = math.floor((1 - eta) * d)
    t = math.floor(c * eta * eta * d / 10)
    if t < 1:
        raise DegenerateTError(f"cell size t = 0 for d={d}, eta={eta}")
    m1 = f // t
    s = math.ceil((1 - c) * t / c)
    m2 = (n - f) // s
    v0, u0 = f - m1 * t, n - m2 * s  # where V_0 and U_0 end
    v_parts = [tuple(range(v0))] + [tuple(range(v0 + i * t, v0 + (i + 1) * t))
                                     for i in range(m1)]
    u_parts = [tuple(range(f, u0))] + [tuple(range(u0 + j * s, u0 + (j + 1) * s))
                                        for j in range(m2)]
    return PartitionScheme(f=f, t=t, s=s, m1=m1, m2=m2, v_parts=v_parts, u_parts=u_parts)


@dataclass
class RedBlackGraph:
    """Cross-part complement pairs inside F (red), and the leftover bucket
    of intra-part or cell-0 pairs; the black edges are the host edges
    leaving F."""

    scheme: PartitionScheme
    red: dict[tuple[int, int], list[Edge]]
    e0: list[Edge]

    @property
    def red_total(self) -> int:
        return sum(len(v) for v in self.red.values())


def f_pairs(g: Graph, f_verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjacent and the non-adjacent pairs inside F, as (k, 2) arrays of
    positions i < j in ``f_verts``, row-major, from the |F|×|F| block
    ``g.block(f_verts, f_verts)``."""
    block = g.block(f_verts, f_verts)
    return np.argwhere(np.triu(block, 1)), np.argwhere(np.triu(~block, 1))


@dataclass
class FreeEdges:
    """The host edges that leave F and are on no path yet, as one boolean
    matrix with a row per vertex of F ∪ W and a column per vertex of W,
    where W holds the vertices outside F with a neighbour in F, ascending,
    so the first True column of a row is its least free neighbour.  Edge
    (a, b) is free while ``matrix[row[a], col[b]]`` is True; an edge inside
    W has two cells, kept equal.  One last row and column stay False: they
    are where ``row`` and ``col`` send the vertices that have none (-1), so
    any pair of vertex ids reads a cell."""

    matrix: np.ndarray
    row: np.ndarray
    col: np.ndarray
    w: np.ndarray

    @classmethod
    def of(cls, g: Graph, f_verts: np.ndarray) -> "FreeEdges":
        """Every host edge from F to W and inside W, free, from the
        (F ∪ W) × W block of the host."""
        near = g.neighbor_counts(f_verts) > 0
        near[f_verts] = False
        w = np.flatnonzero(near)
        rows = np.concatenate([f_verts, w]).astype(np.intp)
        row = np.full(g.n, -1, dtype=np.intp)
        row[rows] = np.arange(len(rows))
        col = np.full(g.n, -1, dtype=np.intp)
        col[w] = np.arange(len(w))
        matrix = np.pad(g.block(rows, w), ((0, 1), (0, 1)))
        return cls(matrix=matrix, row=row, col=col, w=w)


def build_red_black(scheme: PartitionScheme, holes: np.ndarray) -> RedBlackGraph:
    """Split the non-adjacent pairs of F, given as positions in
    ``scheme.f_set`` (the second array of ``f_pairs``), by the parts of
    their ends: pairs across two parts V_j, V_k (1 <= j < k) are red, the
    rest go to e0."""
    f_verts = np.array(scheme.f_set, dtype=np.intp)
    part = np.repeat(np.arange(scheme.m1 + 1), [len(p) for p in scheme.v_parts])
    pj, pk = part[holes[:, 0]], part[holes[:, 1]]
    # key 0 for e0, j * (m1 + 1) + k for the red pairs of (j, k)
    key = np.where((pj >= 1) & (pj < pk), pj * (scheme.m1 + 1) + pk, 0)
    ends = np.sort(f_verts[holes], axis=1)
    order = np.lexsort((ends[:, 1], ends[:, 0], key))
    key, pairs = key[order], list(map(tuple, ends[order].tolist()))
    # each group is the run of pairs between two change points of the key
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    bounds = np.append(starts, len(key)).tolist()
    groups: dict[int, list[Edge]] = {
        k: pairs[lo:hi] for k, lo, hi in zip(key[starts].tolist(), bounds, bounds[1:])}
    e0 = groups.pop(0, [])
    return RedBlackGraph(scheme=scheme, e0=e0,
                         red={divmod(k, scheme.m1 + 1): v for k, v in groups.items()})


def one_factorization(m1: int) -> list[list[tuple[int, int]]]:
    """Round-robin (circle method) coloring of the complete graph on part
    labels 1..m1, as its color classes: m1 - 1 perfect matchings for even
    m1, m1 near-perfect matchings for odd m1.  Class r of the circle method
    on m = m1 + (m1 mod 2) labels pairs r + 1 with m and r + 1 ± i (mod
    m - 1) with each other; for odd m1 the pair holding label m is dropped.
    The chromatic index χ is the number of classes."""
    if m1 < 2:
        raise DomainError(f"need at least two parts, got m1={m1}")
    m = m1 + m1 % 2
    classes: list[list[tuple[int, int]]] = []
    for r in range(m - 1):
        cls = [(r + 1, m)]
        for i in range(1, m // 2):
            a, b = (r + i) % (m - 1) + 1, (r - i) % (m - 1) + 1
            cls.append((min(a, b), max(a, b)))
        classes.append(sorted(p for p in cls if p[1] <= m1))
    return classes


def replace_red_edges(rb: RedBlackGraph, classes: list[list[tuple[int, int]]],
                      free: FreeEdges, seed: int = 0,
                      ) -> tuple[dict[Edge, list[int]], list[Edge]]:
    """Replace red pairs by length-2 paths with both steps leaving F.

    Color class i works inside the middle cell U_((i-1) mod m2 + 1): cells
    are reused round-robin when there are fewer cells than classes, with the
    ledger ``free`` keeping everything edge-disjoint.  Each pair (j, k) of a
    class gets a mini graph on V_j, V_k and the cell, holding its red pairs
    and its black edges still free.  Classes whose cells are distinct form
    one batch: their pairs share no black edge, so the batch's mini graphs
    are laid side by side in one graph and matched in one call, with one
    matcher seed per batch.  Every V_j (j >= 1) has t vertices and every
    cell s, so a batch's black edges are one gather from ``free``, and its
    matched triangles clear their two edges there.  Batches run in class
    order, each seeing the ledger the earlier ones left.  Returns the
    replacements keyed by red pair, and the un-replaced red pairs, sorted.
    """
    sch = rb.scheme
    t, s = sch.t, sch.s
    width = 2 * t + s  # a pair's mini graph: V_j, then V_k, then the cell
    two_paths: dict[Edge, list[int]] = {}
    leftovers: list[Edge] = []
    numbered = list(enumerate(classes, start=1))
    if sch.m2 < 1:  # no middle cell: every red pair is left over
        leftovers = [p for reds in rb.red.values() for p in reds]
        numbered = []
    # part and position in its part of every vertex of F
    f_verts = np.array(sch.f_set, dtype=np.intp)
    sizes = [len(p) for p in sch.v_parts]
    part = np.zeros(len(free.row), dtype=np.intp)
    part[f_verts] = np.repeat(np.arange(sch.m1 + 1), sizes)
    slot = np.zeros(len(free.row), dtype=np.intp)
    slot[f_verts] = np.arange(len(f_verts)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    sides = np.repeat([0, 1, 2], [t, t, s])
    for first in range(0, len(numbered), max(sch.m2, 1)):
        jobs = [(ci, j, k) for ci, cls in numbered[first:first + sch.m2]
                for (j, k) in cls if rb.red.get((j, k))]
        if not jobs:
            continue
        host_of = np.array([sch.v_parts[j] + sch.v_parts[k] + sch.u_parts[(ci - 1) % sch.m2 + 1]
                            for ci, j, k in jobs], dtype=np.intp)
        base = np.arange(len(jobs)) * width
        black = free.matrix[free.row[host_of[:, :2 * t, None]],
                            free.col[host_of[:, None, 2 * t:]]]
        p, i, c = np.nonzero(black)
        reds = [rb.red[(j, k)] for _, j, k in jobs]
        counts = [len(r) for r in reds]
        ends = np.array([pair for r in reds for pair in r], dtype=np.intp)
        at_k = np.repeat([k for _, _, k in jobs], counts)
        red_pos = (np.repeat(base, counts)[:, None]
                   + (part[ends] == at_k[:, None]) * t + slot[ends])
        mini = build_graph(len(jobs) * width, np.concatenate(
            [red_pos, np.stack([base[p] + i, base[p] + 2 * t + c], axis=1)]))
        batch_sides = np.tile(sides, len(jobs))
        parts = tuple(np.flatnonzero(batch_sides == x) for x in range(3))
        triangles, _, _ = edge_disjoint_triangles(
            mini, parts, seed=derive_seed(seed, f"red-replace:{first}"))
        # a triangle is (V_j, V_k, cell) vertices of one pair, ascending
        abu = host_of.ravel()[np.array(triangles, dtype=np.intp).reshape(-1, 3)]
        free.matrix[free.row[abu[:, :2]], free.col[abu[:, 2:]]] = False
        for a, b, u in abu.tolist():
            pair = (a, b) if a < b else (b, a)
            two_paths[pair] = [pair[0], u, pair[1]]
        leftovers.extend(pair for r in reds for pair in r if pair not in two_paths)
    return two_paths, sorted(leftovers)


def greedy_three_paths(pairs: Sequence[Edge], free: FreeEdges,
                       ) -> tuple[dict[Edge, list[int]], list[Edge]]:
    """Link pairs inside F by paths through W, each edge taken from and
    cleared in ``free``: u–x–v through the first column free in both rows u
    and v, else u–a–b–v with a the first free column of row u whose row
    meets row v, and b the first column of that meet.  Pairs with neither
    are returned as stuck."""
    matrix, row, w = free.matrix, free.row.tolist(), free.w.tolist()
    w_rows = free.row[free.w]  # column -> the row of the same vertex
    out: dict[Edge, list[int]] = {}
    stuck: list[Edge] = []
    for pair in pairs:
        u, v = pair
        ru, rv = matrix[row[u]], matrix[row[v]]
        both = ru & rv
        x = int(both.argmax())
        if both[x]:
            ru[x] = rv[x] = False
            out[pair] = [u, w[x], v]
            continue
        a_cols = np.flatnonzero(ru)
        meets = matrix[w_rows[a_cols]] & rv
        hit = np.flatnonzero(meets.any(axis=1))
        if not hit.size:
            stuck.append(pair)
            continue
        a, b = int(a_cols[hit[0]]), int(meets[hit[0]].argmax())
        ru[a] = rv[b] = False
        matrix[w_rows[a], b] = matrix[w_rows[b], a] = False
        out[pair] = [u, w[a], w[b], v]
    return out, stuck


@dataclass
class DenseDiagnostics:
    """Run counts; ``reds_total`` and ``reds_replaced_2path`` are None under
    ``greedy``, which makes no red/black split, and 0 under ``paper`` when F
    has fewer than two parts, and so no cross-part (red) pair."""

    t: int
    m1: int
    m2: int
    reds_total: Optional[int]
    reds_replaced_2path: Optional[int]
    pairs_3path: int
    stuck: int
    achieved_order: int
    epsilon: float
    delta: float
    k_required: float
    gap_ok: bool
    degenerate_fallback: bool


def regularity_prerequisites(c: float, eta: float) -> tuple[float, float, float]:
    """(epsilon, delta, K) governing the partition-regularity hypotheses for
    0 < eta < 1; K is finite only for density 0 < c < 1."""
    if not 0 < c < 1:
        raise DomainError(f"need density 0 < c < 1; got c={c:.4g}")
    eps = min(c, 1 - c, eta) ** 2 / 64
    delta = min(c * eta * eta, (1 - c) * eta * eta) / 20
    k_required = 10 / (eps * eps * delta)
    return eps, delta, k_required


def build_dense_immersion(g: Graph, report: SpectralReport, eta: float,
                          seed: int = 0, mode: str = BEST_EFFORT, method: str = GREEDY,
                          ) -> tuple[EmbeddingCertificate, DenseDiagnostics]:
    """Clique immersion over the branch set F with paths of lengths 1-3.

    Host edges inside F serve directly as length-1 paths.  Under ``greedy``
    every other pair goes to the greedy 3-path stage, so the certificate
    does not depend on ``seed``.  Under ``paper`` cross-cell complement
    pairs are first replaced by 2-paths through the middle cells, and the
    rest is linked greedily.  Both methods check the same hypotheses in
    strict mode, which fails on any degenerate parameter or unlinked pair;
    best-effort peels the branch set to the largest fully connected subset.
    """
    if method not in (GREEDY, PAPER):
        raise DomainError(f"unknown method {method!r}; use {GREEDY!r} or {PAPER!r}")
    check_eta(eta)
    check_regular(report, mode)
    c = report.d / g.n
    eps, delta, k_required = regularity_prerequisites(c, eta)
    gap_ok = report.d >= k_required * report.lam
    scheme = None
    try:
        scheme = dense_partition(g, report, eta)
    except DegenerateTError:
        if mode == STRICT:
            raise PreconditionFailedError(
                f"degenerate cell size for d={report.d}, eta={eta}") from None
    if mode == STRICT and not gap_ok:
        raise PreconditionFailedError(
            f"need d >= K*lambda with K={k_required:.1f}, have d={report.d}, "
            f"lambda={report.lam:.3f}")
    split = scheme is not None and scheme.m1 >= 2  # F has red pairs
    if mode == STRICT and split:
        chi = scheme.m1 - 1 + scheme.m1 % 2  # the classes one_factorization(m1) makes
        if scheme.m2 < chi:
            raise PreconditionFailedError(f"need m2 >= chi, got m2={scheme.m2}, chi={chi}")

    f = math.floor((1 - eta) * report.d)
    f_list = list(range(f))
    # F is the block 0..f-1, so its positions are its vertex ids
    inside, holes = f_pairs(g, np.arange(f))
    paths: dict[Edge, list[int]] = {e: list(e) for e in map(tuple, inside.tolist())}
    free = FreeEdges.of(g, np.arange(f))

    reds_total = 0 if method == PAPER else None
    two_paths: dict[Edge, list[int]] = {}
    if method == PAPER and split:
        rb = build_red_black(scheme, holes)
        two_paths, red_left = replace_red_edges(rb, one_factorization(scheme.m1), free, seed)
        leftovers = sorted(red_left + rb.e0)
        reds_total = rb.red_total
    else:
        leftovers = list(map(tuple, holes.tolist()))
    paths.update(two_paths)

    three_paths, stuck = greedy_three_paths(leftovers, free)
    paths.update(three_paths)

    if mode == STRICT and stuck:
        raise IncompleteEmbeddingError(f"{len(stuck)} pairs unlinked: {stuck[:5]}")
    branch = peel_to_complete(f_list, paths) if stuck else f_list
    cert = EmbeddingCertificate.from_paths(IMMERSION, branch, paths)
    diag = DenseDiagnostics(
        t=scheme.t if scheme else 0,
        m1=scheme.m1 if scheme else 0,
        m2=scheme.m2 if scheme else 0,
        reds_total=reds_total,
        reds_replaced_2path=len(two_paths) if method == PAPER else None,
        pairs_3path=sum(1 for path in three_paths.values() if len(path) == 4),
        stuck=len(stuck),
        achieved_order=len(cert.branch),
        epsilon=eps, delta=delta, k_required=k_required, gap_ok=gap_ok,
        degenerate_fallback=scheme is None,
    )
    return cert, diag
