"""Near-perfect matchings in triangle hypergraphs by semi-random bites.

Every cross edge of a tripartite graph becomes a hypergraph vertex; each
triangle becomes a 3-element hyperedge.  A matching of the hypergraph is the
same thing as a family of pairwise edge-disjoint triangles.  The matcher
runs iterated random bites (sample a small fraction of surviving triples,
keep the conflict-free ones, delete covered vertices), finishes with an
exhaustive greedy sweep, and never returns less than plain greedy would.
The parts' and the triples' ids are both read by ``graphs.vertex_ids``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BadPartitionError, DomainError, OutOfRangeError
from .graphs import Edge, Graph, vertex_ids
from .util import derive_seed

MAX_ROUNDS = 50
BITE_FRACTION = 0.1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(key: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Output ``index`` (counted from 0) of SplitMix64 seeded with ``key``,
    scaled to [0, 1) as (z >> 11) * 2**-53; elementwise over uint64 arrays.
    Output k is a pure function of the state key + (k + 1) * gamma, so any
    mix of streams and positions is one vector op."""
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
    when the hypergraph came from a triangle construction.  The vertices
    fall into consecutive groups, one per independent sub-problem, starting
    at the ids in ``group_starts``; no triple spans two groups.  A lone
    problem is the single group starting at 0.
    """

    n_vertices: int
    triples: np.ndarray
    vertex_labels: Optional[list[Edge]] = None
    isolated_count: int = 0
    group_starts: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))

    @staticmethod
    def from_array(n_vertices: int, arr: np.ndarray | Sequence[Sequence[int]],
                   vertex_labels: Optional[list[Edge]] = None,
                   group_starts: Sequence[int] = (0,)) -> "Hypergraph3":
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
        starts = np.asarray(group_starts, dtype=np.int64)
        if arr.size and ((arr[:, 0] == arr[:, 1]) | (arr[:, 1] == arr[:, 2])).any():
            raise BadPartitionError("triples must have three distinct members")
        if arr.size and (np.searchsorted(starts, arr[:, 0], side="right")
                         != np.searchsorted(starts, arr[:, 2], side="right")).any():
            raise BadPartitionError("a triple spans two groups")
        covered = np.zeros(n_vertices, dtype=bool)
        if arr.size:
            covered[arr.ravel()] = True
        isolated = int(n_vertices - covered.sum())
        return Hypergraph3(n_vertices, arr, vertex_labels, isolated, starts)

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


def triangle_hypergraph(g: Graph, parts: tuple[Sequence[int], Sequence[int], Sequence[int]],
                        groups: Sequence[int] = (0,)) -> Hypergraph3:
    """Hypergraph of triangles of a tripartite graph.

    Only edges between distinct parts participate; each such edge is one
    hypergraph vertex (numbered in ``g.edges()`` order), each transversal
    triangle one triple.  Edges lying in no triangle stay as isolated
    hypergraph vertices and are counted.  The parts are read by
    ``vertex_ids``; overlapping parts raise BadPartitionError.

    ``groups`` lists the first graph vertex of each sub-problem when g is a
    disjoint union of several (ascending, starting at 0); an edge between
    two sub-problems is an error.  The hypergraph's groups follow, and each
    sub-problem gets the triples it would get alone, shifted by the number
    of cross edges before it.

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
    starts = np.asarray(groups, dtype=np.int64)
    edge_group = np.searchsorted(starts, u, side="right") - 1
    if (edge_group != np.searchsorted(starts, v, side="right") - 1).any():
        raise BadPartitionError("an edge joins two groups")

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
    group_starts = np.searchsorted(edge_group, np.arange(len(starts)))
    return Hypergraph3.from_array(len(cross_edges), arr, vertex_labels=cross_edges,
                                  group_starts=group_starts)


def _greedy_sweep(triples: np.ndarray, free: list[bool], rows: np.ndarray) -> list[int]:
    """Rows of every still-feasible triple, taken in ascending row order;
    ``free`` is updated in place."""
    taken = []
    for row, a, b, c in zip(rows.tolist(), *triples[rows].T.tolist()):
        if free[a] and free[b] and free[c]:
            free[a] = free[b] = free[c] = False
            taken.append(row)
    return taken


def near_perfect_matching(h: Hypergraph3, seed: Union[int, Sequence[int]] = 0) -> Matching3:
    """Matching via random bites plus greedy cleanup, deterministic in seed.

    The result is guaranteed to be at least as large as a plain ascending
    greedy run, so the cleanup-dominance property holds on every input.

    Every group of ``h`` is its own sub-problem with its own seed (``seed``
    holds one per group; a lone problem may pass one int).  The groups run
    in lock-step, one vectorised bite round for all of them at a time, and
    each keeps its own round cap, greedy sweep and dominance guard, so each
    gets exactly the triples, rounds and greedy size it would get alone.
    Group g's k-th draw is output k of SplitMix64 seeded with
    ``derive_seed(seed_g, "nibble")`` (see ``_splitmix64``); in each round
    the group's surviving triples take its next unread draws in row order,
    so its draws do not depend on the other groups.  The matcher reads this
    counter, not one PCG64 stream per group, because thousands of streams
    have to be read as one vector per round.  ``rounds`` and
    ``greedy_size`` are the largest round count and the total greedy size;
    the per-group values are in ``group_rounds`` and ``group_greedy_size``.
    """
    t = h.triples
    n_v = h.n_vertices
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    n_groups = len(h.group_starts)
    if len(seeds) != n_groups:
        raise DomainError(f"need one seed per group: {len(seeds)} seeds, {n_groups} groups")
    row_group = np.searchsorted(h.group_starts, t[:, 0], side="right") - 1
    vertex_group = np.searchsorted(h.group_starts, np.arange(n_v), side="right") - 1
    keys = np.array([derive_seed(s, "nibble") for s in seeds], dtype=np.uint64)
    drawn = np.zeros(n_groups, dtype=np.int64)

    free = np.ones(n_v, dtype=bool)
    selected = np.zeros(len(t), dtype=bool)
    rounds = np.zeros(n_groups, dtype=np.int64)
    surviving = np.arange(len(t))
    for _ in range(MAX_ROUNDS):
        alive_mask = free[t[surviving, 0]] & free[t[surviving, 1]] & free[t[surviving, 2]]
        surviving = surviving[alive_mask]
        if surviving.size == 0:
            break
        group = row_group[surviving]
        count = np.bincount(group, minlength=n_groups)
        rounds += count > 0
        # every vertex of a surviving triple is free
        live = np.zeros(n_v, dtype=bool)
        live[t[surviving].ravel()] = True
        n_alive_v = np.bincount(vertex_group[live], minlength=n_groups)
        want = BITE_FRACTION * n_alive_v / 3
        p = np.minimum(1.0, want / np.maximum(count, 1))
        # the k-th surviving triple of a group takes that group's next draw
        first = np.cumsum(count) - count
        at = drawn[group] + np.arange(surviving.size) - first[group]
        draws = _splitmix64(keys[group], at.astype(np.uint64))
        drawn += count
        bite = surviving[draws < p[group]]
        if bite.size == 0:
            continue
        # keep the bitten triples that share no vertex with another bitten one
        hits = np.bincount(t[bite].ravel(), minlength=n_v)
        bite = bite[(hits[t[bite]] == 1).all(axis=1)]
        selected[bite] = True
        free[t[bite].ravel()] = False
    selected[_greedy_sweep(t, free.tolist(), surviving)] = True

    # dominance guard: plain ascending greedy from scratch, per group
    plain = np.zeros(len(t), dtype=bool)
    plain[_greedy_sweep(t, [True] * n_v, np.arange(len(t)))] = True
    greedy_size = np.bincount(row_group[plain], minlength=n_groups)
    swap = greedy_size > np.bincount(row_group[selected], minlength=n_groups)
    selected = np.where(swap[row_group], plain, selected)

    diag = {"rounds": int(rounds.max(initial=0)), "greedy_size": int(greedy_size.sum()),
            "group_rounds": rounds.tolist(), "group_greedy_size": greedy_size.tolist()}
    return Matching3(t[selected], h.n_active, diag)


def edge_disjoint_triangles(g: Graph, parts, seed: Union[int, Sequence[int]] = 0,
                            groups: Sequence[int] = (0,)
                            ) -> tuple[list[tuple[int, int, int]], list[Edge], dict]:
    """Edge-disjoint triangles of a tripartite graph via the hypergraph
    matcher; returns (triangles, uncovered cross edges, diagnostics).

    When g is a disjoint union of sub-problems, ``groups`` holds the first
    vertex of each and ``seed`` one seed per sub-problem (see
    ``triangle_hypergraph`` and ``near_perfect_matching``); each gets the
    triangles it would get alone, in sub-problem order.
    """
    h = triangle_hypergraph(g, parts, groups)
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
