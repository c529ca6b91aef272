"""Near-perfect matchings in triangle hypergraphs by semi-random bites.

Every cross edge of a tripartite graph becomes a hypergraph vertex; each
triangle becomes a 3-element hyperedge.  A matching of the hypergraph is the
same thing as a family of pairwise edge-disjoint triangles.  The matcher
runs iterated random bites (sample a small fraction of surviving triples,
keep the conflict-free ones, delete covered vertices), finishes with an
exhaustive greedy sweep, and never returns less than plain greedy would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import BadPartitionError
from .graphs import Edge, Graph
from .util import np_rng

MAX_ROUNDS = 50
BITE_FRACTION = 0.1


def _unique_rows(arr: np.ndarray) -> np.ndarray:
    """``np.unique(arr, axis=0)`` for an (M, 3) array of nonnegative ids,
    computed on the 1-D key (a*m + b)*m + c, which sorts as the rows do;
    falls back to the row sort when m**3 would overflow int64.  A plain
    sort plus an adjacent-difference mask beats ``np.unique`` on the keys
    by far on million-row arrays."""
    if not arr.size:
        return arr
    m = int(arr.max()) + 1
    if arr.min() < 0 or m ** 3 > np.iinfo(np.int64).max:
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
    def from_triples(n_vertices: int, triples: Sequence[Sequence[int]],
                     vertex_labels: Optional[list[Edge]] = None) -> "Hypergraph3":
        arr = np.array(sorted({tuple(sorted(t)) for t in triples}), dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        return Hypergraph3.from_array(n_vertices, arr, vertex_labels)

    @staticmethod
    def from_array(n_vertices: int, arr: np.ndarray,
                   vertex_labels: Optional[list[Edge]] = None) -> "Hypergraph3":
        arr = _unique_rows(np.sort(np.asarray(arr, dtype=np.int64).reshape(-1, 3), axis=1))
        if arr.size and ((arr[:, 0] == arr[:, 1]) | (arr[:, 1] == arr[:, 2])).any():
            raise BadPartitionError("triples must have three distinct members")
        covered = np.zeros(n_vertices, dtype=bool)
        if arr.size:
            covered[arr.ravel()] = True
        isolated = int(n_vertices - covered.sum())
        return Hypergraph3(n_vertices, arr, vertex_labels, isolated)

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    @property
    def n_active(self) -> int:
        return self.n_vertices - self.isolated_count

    def degrees(self) -> np.ndarray:
        out = np.zeros(self.n_vertices, dtype=np.int64)
        if self.triples.size:
            np.add.at(out, self.triples.ravel(), 1)
        return out

    def max_codegree(self) -> int:
        """Largest number of triples sharing a fixed vertex pair."""
        if not self.triples.size:
            return 0
        pairs = np.concatenate([self.triples[:, [0, 1]],
                                self.triples[:, [0, 2]],
                                self.triples[:, [1, 2]]])
        _, counts = np.unique(pairs, axis=0, return_counts=True)
        return int(counts.max())

    def degree_report(self, reference: float, gamma: float, k_factor: float) -> dict:
        """Bookkeeping for the near-regularity hypotheses of the matcher."""
        deg = self.degrees()
        active = deg > 0
        within = np.abs(deg[active] - reference) <= gamma * reference
        return {
            "n_active": int(active.sum()),
            "frac_within_gamma": float(within.mean()) if active.any() else 1.0,
            "max_degree": int(deg.max()) if deg.size else 0,
            "max_degree_bound": k_factor * reference,
            "max_codegree": self.max_codegree(),
        }

    def dump(self) -> str:
        lines = [f"{self.n_vertices} {self.n_triples}"]
        lines.extend(f"{a} {b} {c}" for a, b, c in self.triples.tolist())
        return "\n".join(lines) + "\n"

    @staticmethod
    def load(text: str) -> "Hypergraph3":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        n, m = map(int, lines[0].split())
        triples = [tuple(map(int, lines[1 + i].split())) for i in range(m)]
        return Hypergraph3.from_triples(n, triples)


@dataclass
class Matching3:
    """Pairwise-disjoint triples, plus size accounting against the target."""

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
    hypergraph vertex, each transversal triangle one triple.  Edges lying in
    no triangle stay as isolated hypergraph vertices and are counted.
    """
    part_a, part_b, part_c = (sorted(set(p)) for p in parts)
    blocks = [part_a, part_b, part_c]
    all_verts = part_a + part_b + part_c
    if len(set(all_verts)) != len(all_verts):
        raise BadPartitionError("parts must be pairwise disjoint")
    part_of = {}
    offset = {}
    for idx, block in enumerate(blocks):
        for off, v in enumerate(block):
            part_of[v] = idx
            offset[v] = off
    cross_edges = [e for e in g.edges()
                   if e[0] in part_of and e[1] in part_of
                   and part_of[e[0]] != part_of[e[1]]]
    na, nb, nc = len(part_a), len(part_b), len(part_c)
    # edge-id lookup and adjacency masks per part pair
    id_ac = np.full((na, nc), -1, dtype=np.int64)
    id_bc = np.full((nb, nc), -1, dtype=np.int64)
    adj_ac = np.zeros((na, nc), dtype=bool)
    adj_bc = np.zeros((nb, nc), dtype=bool)
    ab_edges = []
    for eid, (u, v) in enumerate(cross_edges):
        pu, pv = part_of[u], part_of[v]
        if pu > pv:
            u, v, pu, pv = v, u, pv, pu
        if (pu, pv) == (0, 1):
            ab_edges.append((eid, offset[u], offset[v]))
        elif (pu, pv) == (0, 2):
            id_ac[offset[u], offset[v]] = eid
            adj_ac[offset[u], offset[v]] = True
        else:
            id_bc[offset[u], offset[v]] = eid
            adj_bc[offset[u], offset[v]] = True
    chunks = []
    for eid, ai, bi in ab_edges:
        common = np.nonzero(adj_ac[ai] & adj_bc[bi])[0]
        if common.size:
            chunk = np.empty((common.size, 3), dtype=np.int64)
            chunk[:, 0] = eid
            chunk[:, 1] = id_ac[ai, common]
            chunk[:, 2] = id_bc[bi, common]
            chunks.append(chunk)
    arr = np.vstack(chunks) if chunks else np.empty((0, 3), dtype=np.int64)
    return Hypergraph3.from_array(len(cross_edges), arr, vertex_labels=cross_edges)


def _greedy_sweep(triples: np.ndarray, free: np.ndarray,
                  selected: list[int], rows: np.ndarray) -> None:
    """Add every still-feasible triple in ascending row order (in place)."""
    t = triples
    for row in rows.tolist():
        a, b, c = t[row]
        if free[a] and free[b] and free[c]:
            free[a] = free[b] = free[c] = False
            selected.append(row)


def near_perfect_matching(h: Hypergraph3, alpha_target: float = 0.2,
                          seed: int = 0) -> Matching3:
    """Matching via random bites plus greedy cleanup, deterministic in seed.

    The result is guaranteed to be at least as large as a plain ascending
    greedy run, so the cleanup-dominance property holds on every input.
    Shortfall against (1 - alpha) * n_active / 3 is reported, not raised.
    """
    t = h.triples
    n_v = h.n_vertices
    if len(t) == 0:
        return Matching3(t.copy(), h.n_active,
                         {"rounds": 0, "target_alpha": alpha_target,
                          "target_size": 0.0, "greedy_size": 0})
    rng = np_rng(seed, "nibble")
    free = np.ones(n_v, dtype=bool)
    selected: list[int] = []
    surviving = np.arange(len(t))
    rounds = 0
    for _ in range(MAX_ROUNDS):
        alive_mask = free[t[surviving, 0]] & free[t[surviving, 1]] & free[t[surviving, 2]]
        surviving = surviving[alive_mask]
        if surviving.size == 0:
            break
        rounds += 1
        # every vertex of a surviving triple is free
        live = np.zeros(n_v, dtype=bool)
        live[t[surviving].ravel()] = True
        n_alive_v = int(np.count_nonzero(live))
        want = BITE_FRACTION * n_alive_v / 3
        p = min(1.0, want / surviving.size) if surviving.size else 0.0
        bite = surviving[rng.random(surviving.size) < p]
        if bite.size == 0:
            continue
        verts = t[bite].ravel()
        uniq, counts = np.unique(verts, return_counts=True)
        conflicted = set(uniq[counts > 1].tolist())
        for row in bite.tolist():
            a, b, c = t[row]
            if a in conflicted or b in conflicted or c in conflicted:
                continue
            free[a] = free[b] = free[c] = False
            selected.append(row)
    _greedy_sweep(t, free, selected, surviving)

    # dominance guard: plain ascending greedy from scratch
    plain_free = np.ones(n_v, dtype=bool)
    plain: list[int] = []
    _greedy_sweep(t, plain_free, plain, np.arange(len(t)))
    if len(plain) > len(selected):
        selected = plain

    chosen = t[np.array(sorted(selected), dtype=np.int64)] if selected else t[:0]
    target = (1 - alpha_target) * h.n_active / 3
    diag = {"rounds": rounds, "target_alpha": alpha_target,
            "target_size": target, "greedy_size": len(plain)}
    return Matching3(chosen, h.n_active, diag)


def edge_disjoint_triangles(g: Graph, parts, beta: float = 0.2, seed: int = 0
                            ) -> tuple[list[tuple[int, int, int]], list[Edge], dict]:
    """Edge-disjoint triangles of a tripartite graph via the hypergraph
    matcher; returns (triangles, uncovered cross edges, diagnostics)."""
    h = triangle_hypergraph(g, parts)
    matching = near_perfect_matching(h, alpha_target=beta, seed=seed)
    labels = h.vertex_labels or []
    triangles = []
    covered: set[int] = set()
    for row in matching.triples.tolist():
        verts: set[int] = set()
        for vid in row:
            verts.update(labels[vid])
            covered.add(vid)
        triangles.append(tuple(sorted(verts)))
    uncovered = [labels[i] for i in range(len(labels)) if i not in covered]
    e_cross = len(labels)
    diag = {
        "cross_edges": e_cross,
        "triangles": len(triangles),
        "target": (1 - beta) * e_cross / 3,
        "isolated_edges": h.isolated_count,
        **matching.diagnostics,
    }
    return triangles, uncovered, diag
