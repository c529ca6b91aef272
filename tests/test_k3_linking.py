"""The length-4 gadget's matrix linker against the linker it replaced.

``bipartite_k3_immersion`` links pairs on its A x B incidence matrix: a
boolean copy loses each path's four edges, a column mask marks the used
middle vertices and a per-pool load grows from the matrix column.  The
reference below is the former linker as it was, on adjacency tuples with a
used-edge set, a used-B set, an occupancy dict and a per-pool ``has_edge``
loop; it also keeps the row-by-row matrix build and the per-candidate hub
scoring loop that one scatter and one scoring product replaced.  Its hub
candidates come from ``plain_hub_candidates``, a plain-Python sort of the
raw words.  On a host whose A vertices have all their neighbours in B the
two must give the same certificate, or raise the same error.
"""

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imforge.certify import IMMERSION, EmbeddingCertificate, verify
from imforge.errors import ImforgeError, OverlapError, PreconditionFailedError, StuckError
from imforge.gadgets import bipartite_k3_immersion, k3_density_bound
from imforge.graphs import Graph, build_graph, normalize_edge, vertex_ids
from imforge.util import BEST_EFFORT, STRICT, derive_seed, peel_to_complete, raw_order

from helpers import complete_bipartite


def plain_hub_candidates(n2: int, seed: int) -> list[int]:
    """The first 64 of the n2 columns in order of (raw word, position) of the
    ``k3-hub`` stream, ascending."""
    words = np.random.PCG64(derive_seed(seed, "k3-hub")).random_raw(n2).tolist()
    return sorted(sorted(range(n2), key=lambda j: (words[j], j))[:64])


def reference_k3_immersion(g: Graph, a_side: Sequence[int], b_side: Sequence[int],
                           p: int, seed: int = 0,
                           mode: str = BEST_EFFORT) -> EmbeddingCertificate:
    """The linker as it was: adjacency tuples, a used-edge set, a used-B set,
    an occupancy dict and a per-pool ``has_edge`` loop."""
    a_ids = np.unique(vertex_ids(g.n, a_side))
    b_ids = np.unique(vertex_ids(g.n, b_side))
    if np.intersect1d(a_ids, b_ids).size:
        raise OverlapError("the two sides share a vertex")
    a_list, b_list = a_ids.tolist(), b_ids.tolist()
    n1, n2 = len(a_list), len(b_list)
    if p < 0 or n1 == 0 or n2 == 0:
        raise PreconditionFailedError("need nonempty sides and p >= 0")
    b_col = np.full(g.n, -1, dtype=np.int64)
    b_col[b_ids] = np.arange(n2)
    mat = np.zeros((n1, n2), dtype=np.float32)
    for i, u in enumerate(a_list):
        cols = b_col[np.array(g.neighbors(u), dtype=np.int64)]
        mat[i, cols[cols >= 0]] = 1.0
    alpha = float(mat.sum()) / (n1 * n2)
    if mode == STRICT:
        bound = k3_density_bound(alpha, n1, n2)
        if p > bound:
            raise PreconditionFailedError(f"p={p} exceeds the density bound {bound:.3f}")
    if p <= 1:
        branch = a_list[:p]
        return EmbeddingCertificate(kind=IMMERSION, branch=branch, pairs={}, ell=3)

    candidates = plain_hub_candidates(n2, seed)
    codeg = mat @ mat.T

    # score each candidate hub column j by its A-rows and, per row, the
    # number of low-codegree partners among them; keep the winner's
    ex = alpha * n1
    ey = max(3 * p * n1 * n1 / (2 * n2), 1e-12)
    best_score = -math.inf
    for j in candidates:
        cand_rows = np.flatnonzero(mat[:, j])
        bad = codeg[np.ix_(cand_rows, cand_rows)] < 3 * p
        np.fill_diagonal(bad, False)
        cand_bad = bad.sum(axis=1)
        x = float(cand_rows.size)
        y = float(cand_bad.sum()) / 2
        score = x * x - (ex * ex / (2 * ey)) * y
        if score > best_score:
            best_score, hub, rows, bad_counts = score, b_list[j], cand_rows, cand_bad
    keep = rows[bad_counts <= len(rows) / 16]
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
    pool = [a_list[i] for i in pool_rows.tolist()]
    # strong[i][k]: branch i and pool vertex k have codegree at least 3p
    strong = codeg[np.ix_(branch_rows, pool_rows)] >= 3 * p
    if mode != STRICT and not np.triu(strong.astype(np.int64) @ strong.T, 1).any():
        # no pair shares a strong pool vertex, so none would link: any
        # common pool neighbour will do
        strong[:] = True
    strong = strong.tolist()

    used_edges: set[tuple[int, int]] = set()
    used_b: set[int] = set()
    occupancy = {a: 0 for a in pool}
    pool_nbrs: dict[int, set[int]] = {}
    linked: dict[tuple[int, int], list[int]] = {}
    for i in range(len(branch)):
        for j in range(i + 1, len(branch)):
            u, v = branch[i], branch[j]
            path = None
            for a, ok_u, ok_v in zip(pool, strong[i], strong[j]):
                if not (ok_u and ok_v) or occupancy[a] > p:
                    continue
                na = pool_nbrs.get(a)
                if na is None:
                    na = pool_nbrs[a] = set(g.neighbors(a))
                bi = next((w for w in g.neighbors(u)
                           if w in na and normalize_edge(u, w) not in used_edges
                           and normalize_edge(a, w) not in used_edges), None)
                if bi is None:
                    continue
                bj = next((w for w in g.neighbors(v)
                           if w in na and w != bi
                           and normalize_edge(v, w) not in used_edges
                           and normalize_edge(a, w) not in used_edges), None)
                if bj is None:
                    continue
                path = [u, bi, a, bj, v]
                break
            if path is None:
                if mode == STRICT:
                    raise StuckError((u, v))
                continue
            for x, y in zip(path, path[1:]):
                used_edges.add(normalize_edge(x, y))
            for w in (path[1], path[3]):
                if w not in used_b:
                    used_b.add(w)
                    for a in pool:
                        if g.has_edge(a, w):
                            occupancy[a] += 1
            linked[(u, v)] = path
    if len(linked) < len(branch) * (len(branch) - 1) // 2:
        branch = peel_to_complete(branch, linked)
    return EmbeddingCertificate.from_paths(IMMERSION, branch, linked, ell=3)


@pytest.mark.parametrize("n2, seed", [(1, 0), (64, 5), (65, 0), (200, 3), (4096, 21)])
def test_hub_candidates_follow_the_raw_word_order(n2, seed):
    # the gadget's draw, as the matrix linker makes it; every column when n2 <= 64
    bits = np.random.PCG64(derive_seed(seed, "k3-hub"))
    assert sorted(raw_order(n2, bits)[:64].tolist()) == plain_hub_candidates(n2, seed)


@st.composite
def bipartite_hosts(draw):
    """A random bipartite host with its sides; with ``shuffled`` the ids are
    permuted, so neither side is a block of consecutive ids."""
    n1, n2 = draw(st.integers(2, 40)), draw(st.integers(2, 200))
    density = draw(st.one_of(st.floats(0, 1), st.floats(0.4, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random((n1, n2)) < density
    label = rng.permutation(n1 + n2) if draw(st.booleans()) else np.arange(n1 + n2)
    edges = label[np.argwhere(mask) + (0, n1)]
    return (build_graph(n1 + n2, edges), label[:n1].tolist(), label[n1:].tolist())


def outcome(build, g, a_side, b_side, p, seed, mode):
    """The certificate JSON, or the error type (and a stuck pair)."""
    try:
        return build(g, a_side, b_side, p=p, seed=seed, mode=mode).to_json()
    except StuckError as err:
        return StuckError, err.pair
    except ImforgeError as err:
        return type(err)


@settings(max_examples=1000, deadline=None)
@given(bipartite_hosts(), st.integers(0, 8), st.integers(0, 3),
       st.sampled_from([STRICT, BEST_EFFORT]))
def test_matrix_linker_matches_the_former_linker(host, p, seed, mode):
    g, a_side, b_side = host
    got = outcome(bipartite_k3_immersion, g, a_side, b_side, p, seed, mode)
    assert got == outcome(reference_k3_immersion, g, a_side, b_side, p, seed, mode)
    if isinstance(got, str):
        assert verify(g, EmbeddingCertificate.from_json(got)).valid


@pytest.mark.parametrize("inside_a", [
    [(0, 1)],                       # one A-A edge
    [(0, a) for a in range(1, 8)],  # a star inside A
])
@pytest.mark.parametrize("p", [2, 4])
def test_middle_vertices_come_from_b_on_a_host_with_a_a_edges(inside_a, p):
    # K_{8,64} plus edges inside A: every path is u - b - a - b - v.  On the
    # star the former linker took A vertex 0 as b_j and emitted the path
    # [0, 8, 2, 0, 1], which is not simple
    n1, n2 = 8, 64
    g = build_graph(n1 + n2, [*complete_bipartite(n1, n2).edges(), *inside_a])
    cert = bipartite_k3_immersion(g, range(n1), range(n1, n1 + n2), p=p, seed=0)
    assert verify(g, cert).valid
    assert len(cert.branch) >= 2
    for path in cert.pairs.values():
        assert len(path) == 5
        assert path[1] >= n1 and path[3] >= n1 and path[2] < n1
