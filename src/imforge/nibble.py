"""Near-perfect matchings in triangle hypergraphs by semi-random bites.

Every cross edge of a tripartite graph becomes a hypergraph vertex; each
triangle becomes a 3-element hyperedge.  A matching of the hypergraph is the
same thing as a family of pairwise edge-disjoint triangles.  The matcher
runs iterated random bites (sample a small fraction of surviving triples,
keep the conflict-free ones, delete covered vertices) drawn from one
SplitMix64 stream per call, finishes with an exhaustive greedy sweep, and
on no connected component returns less than plain greedy would.  The
parts' and the triples' ids are both read by ``graphs.vertex_ids``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import BadPartitionError, OutOfRangeError
from .graphs import Edge, Graph, vertex_ids
from .util import derive_seed

MAX_ROUNDS = 50
BITE_FRACTION = 0.1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(key: np.uint64, index: np.ndarray) -> np.ndarray:
    """Output ``index`` (counted from 0) of SplitMix64 seeded with ``key``,
    scaled to [0, 1) as (z >> 11) * 2**-53; elementwise over uint64 arrays.
    Output k is a pure function of the state key + (k + 1) * gamma, so a
    round's draws are one vector op."""
    z = key + (index + np.uint64(1)) * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0 ** -53


def _unique_rows(arr: np.ndarray) -> np.ndarray:
    """``np.unique(arr, axis=0)`` for an (M, 3) array of nonnegative ids,
    computed on the 1-D key (a*m + b)*m + c, which sorts as the rows do;
    falls back to the row sort when m**3 would overflow int64.  A plain
    sort plus an adjacent-difference mask beats ``np.unique`` on the keys
    by far on million-row arrays."""
    if not arr.size:
        return arr
    m = int(arr.max()) + 1
    if m ** 3 > np.iinfo(np.int64).max:
        return np.unique(arr, axis=0)
    keys = np.sort((arr[:, 0] * m + arr[:, 1]) * m + arr[:, 2])
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return np.stack([keys // (m * m), keys // m % m, keys % m], axis=1)


@dataclass
class Hypergraph3:
    """3-uniform hypergraph with triples stored as a sorted (M, 3) array.

    ``vertex_labels[i]`` maps hypergraph vertex i back to a base-graph edge
    when the hypergraph came from a triangle construction.
    """

    n_vertices: int
    triples: np.ndarray
    vertex_labels: Optional[list[Edge]] = None
    isolated_count: int = 0

    @staticmethod
    def from_array(n_vertices: int, arr: np.ndarray | Sequence[Sequence[int]],
                   vertex_labels: Optional[list[Edge]] = None) -> "Hypergraph3":
        """Hypergraph on the rows of an (M, 3) integer array or list of
        triples; each row is sorted and repeated rows are dropped.  Ids are
        read by ``vertex_ids``, but one out of range, like a list row that is
        not a triple, raises ``BadPartitionError``."""
        if not isinstance(arr, np.ndarray) and set(map(len, arr)) - {3}:
            raise BadPartitionError("every triple must have three members")
        try:
            arr = vertex_ids(n_vertices, arr.ravel() if isinstance(arr, np.ndarray)
                             else chain.from_iterable(arr))
        except OutOfRangeError:
            raise BadPartitionError(f"a triple has an id outside 0..{n_vertices - 1}") from None
        arr = _unique_rows(np.sort(arr.reshape(-1, 3), axis=1))
        if arr.size and ((arr[:, 0] == arr[:, 1]) | (arr[:, 1] == arr[:, 2])).any():
            raise BadPartitionError("triples must have three distinct members")
        covered = np.zeros(n_vertices, dtype=bool)
        covered[arr.ravel()] = True
        return Hypergraph3(n_vertices, arr, vertex_labels, n_vertices - int(covered.sum()))

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    @property
    def n_active(self) -> int:
        return self.n_vertices - self.isolated_count


@dataclass
class Matching3:
    """Pairwise-disjoint triples, and the active vertex count they are
    measured against."""

    triples: np.ndarray
    n_active: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.triples)

    def achieved_fraction(self) -> float:
        if self.n_active == 0:
            return 1.0
        return self.size / (self.n_active / 3)


def triangle_hypergraph(g: Graph, parts: tuple[Sequence[int], Sequence[int], Sequence[int]]
                        ) -> Hypergraph3:
    """Hypergraph of triangles of a tripartite graph.

    Only edges between distinct parts participate; each such edge is one
    hypergraph vertex (numbered in ``g.edges()`` order), each transversal
    triangle one triple.  Edges lying in no triangle stay as isolated
    hypergraph vertices and are counted.  The parts are read by
    ``vertex_ids``; overlapping parts raise BadPartitionError.  When g is a
    disjoint union, each part of it gets the triples it would get alone,
    shifted by the number of cross edges before it.

    The triangles come from one join: every A-B edge is expanded by the
    C-neighbors of its A end, and each candidate (b, c) is looked up among
    the B-C edges.
    """
    blocks = [np.unique(vertex_ids(g.n, p)) for p in parts]
    members = np.concatenate(blocks)
    if np.unique(members).size != members.size:
        raise BadPartitionError("parts must be pairwise disjoint")
    part = np.full(g.n, -1, dtype=np.int64)
    for idx, block in enumerate(blocks):
        part[block] = idx
    indptr, indices = g.csr()
    u = np.repeat(np.arange(g.n), np.diff(indptr))
    v = indices.astype(np.int64)
    pu, pv = part[u], part[v]
    cross = (u < v) & (pu >= 0) & (pv >= 0) & (pu != pv)
    u, v, pu, pv = u[cross], v[cross], pu[cross], pv[cross]
    cross_edges = list(zip(u.tolist(), v.tolist()))

    # orient every cross edge from its lower part to its higher one
    flip = pu > pv
    lo, hi = np.where(flip, v, u), np.where(flip, u, v)
    kind = np.minimum(pu, pv) + np.maximum(pu, pv)  # AB 1, AC 2, BC 3
    eid = np.arange(len(u))
    ab, ac, bc = (kind == 1), (kind == 2), (kind == 3)
    key = lo * g.n + hi
    ac_order = np.argsort(key[ac])
    ac_a, ac_c, ac_e = lo[ac][ac_order], hi[ac][ac_order], eid[ac][ac_order]
    bc_key = key[bc]
    bc_order = np.argsort(bc_key)
    bc_key, bc_e = bc_key[bc_order], eid[bc][bc_order]
    ab_a, ab_b, ab_e = lo[ab], hi[ab], eid[ab]
    first = np.searchsorted(ac_a, ab_a, side="left")
    count = np.searchsorted(ac_a, ab_a, side="right") - first
    total = int(count.sum())
    at = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(total)
    b = np.repeat(ab_b, count)
    want = b * g.n + ac_c[at]
    hit = np.searchsorted(bc_key, want)
    found = hit < len(bc_key)
    found[found] = bc_key[hit[found]] == want[found]
    arr = np.stack([np.repeat(ab_e, count)[found], ac_e[at][found], bc_e[hit[found]]], axis=1)
    return Hypergraph3.from_array(len(cross_edges), arr, vertex_labels=cross_edges)


def _greedy_sweep(triples: np.ndarray, free: list[bool], rows: np.ndarray) -> list[int]:
    """Rows of every still-feasible triple, taken in ascending row order;
    ``free`` is updated in place."""
    taken = []
    for row, a, b, c in zip(rows.tolist(), *triples[rows].T.tolist()):
        if free[a] and free[b] and free[c]:
            free[a] = free[b] = free[c] = False
            taken.append(row)
    return taken


def near_perfect_matching(h: Hypergraph3, seed: int = 0) -> Matching3:
    """Matching via random bites plus greedy cleanup, deterministic in seed.

    Draw k is output k of SplitMix64 seeded with ``derive_seed(seed,
    "nibble")`` (see ``_splitmix64``, read as one vector per round); each
    round the surviving triples take the next unread draws in row order.
    Dominance guard: a connected component of ``h`` takes the triples of
    plain ascending greedy where greedy keeps more.  One guard over the
    whole call would hand a union of many sub-problems to greedy outright.
    """
    t = h.triples
    n_v = h.n_vertices
    key = np.uint64(derive_seed(seed, "nibble"))
    drawn = 0

    free = np.ones(n_v, dtype=bool)
    selected = np.zeros(len(t), dtype=bool)
    rounds = 0
    surviving = np.arange(len(t))
    for _ in range(MAX_ROUNDS):
        alive_mask = free[t[surviving, 0]] & free[t[surviving, 1]] & free[t[surviving, 2]]
        surviving = surviving[alive_mask]
        if surviving.size == 0:
            break
        rounds += 1
        # every vertex of a surviving triple is free
        live = np.zeros(n_v, dtype=bool)
        live[t[surviving].ravel()] = True
        p = min(1.0, BITE_FRACTION * np.count_nonzero(live) / 3 / surviving.size)
        draws = _splitmix64(key, np.arange(drawn, drawn + surviving.size, dtype=np.uint64))
        drawn += surviving.size
        bite = surviving[draws < p]
        if bite.size == 0:
            continue
        # keep the bitten triples that share no vertex with another bitten one
        hits = np.bincount(t[bite].ravel(), minlength=n_v)
        bite = bite[(hits[t[bite]] == 1).all(axis=1)]
        selected[bite] = True
        free[t[bite].ravel()] = False
    selected[_greedy_sweep(t, free.tolist(), surviving)] = True

    # dominance guard: plain ascending greedy from scratch, per component
    plain = np.zeros(len(t), dtype=bool)
    plain[_greedy_sweep(t, [True] * n_v, np.arange(len(t)))] = True
    links = coo_matrix((np.ones(2 * len(t)), (np.r_[t[:, 0], t[:, 1]], np.r_[t[:, 1], t[:, 2]])),
                       shape=(n_v, n_v))
    n_comp, label = connected_components(links, directed=False)
    comp = label[t[:, 0]]
    swap = np.bincount(comp, plain, n_comp) > np.bincount(comp, selected, n_comp)
    selected = np.where(swap[comp], plain, selected)

    return Matching3(t[selected], h.n_active, {"rounds": rounds, "greedy_size": int(plain.sum())})


def edge_disjoint_triangles(g: Graph, parts, seed: int = 0,
                            ) -> tuple[list[tuple[int, int, int]], list[Edge], dict]:
    """Edge-disjoint triangles of a tripartite graph via the hypergraph
    matcher; returns (triangles, uncovered cross edges, diagnostics)."""
    h = triangle_hypergraph(g, parts)
    matching = near_perfect_matching(h, seed=seed)
    labels = h.vertex_labels or []
    triangles = [tuple(sorted({v for vid in row for v in labels[vid]}))
                 for row in matching.triples.tolist()]
    covered = np.zeros(len(labels), dtype=bool)
    covered[matching.triples.ravel()] = True
    uncovered = [labels[i] for i in np.flatnonzero(~covered).tolist()]
    diag = {
        "cross_edges": len(labels),
        "triangles": len(triangles),
        "isolated_edges": h.isolated_count,
        **matching.diagnostics,
    }
    return triangles, uncovered, diag
