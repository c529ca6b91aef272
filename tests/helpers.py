"""Small named graphs used as oracles across the test suite, a graph's
degree list and its shell with no CSR, the hypothesis strategies for
random small graphs and views, the dense pipeline's free-edge ledger built
from a set of spent edges, and the greedy 3-path linker on a set ledger."""

from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from imforge.graphs import EdgeSet, Graph, build_graph, normalize_edge, view_minus
from imforge.immersion_dense import FreeEdges


def degrees(g: Graph) -> list[int]:
    """Every vertex's degree, read off its neighbour tuple."""
    return [len(g.neighbors(v)) for v in range(g.n)]


def bare_shell(g: Graph) -> Graph:
    """g as a Graph of its neighbour tuples alone, with no CSR, as the
    benchmark hands each op its host."""
    adj = tuple(map(g.neighbors, range(g.n)))
    return Graph(g.n, adj, EdgeSet(adj))


def complete(n: int) -> Graph:
    return build_graph(n, combinations(range(n), 2))


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    # outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return build_graph(10, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete_tripartite(a: int, b: int, c: int) -> Graph:
    edges = []
    pa = list(range(a))
    pb = list(range(a, a + b))
    pc = list(range(a + b, a + b + c))
    for x in pa:
        edges += [(x, y) for y in pb] + [(x, y) for y in pc]
    for x in pb:
        edges += [(x, y) for y in pc]
    return build_graph(a + b + c, edges)


def hypercube(dim: int) -> Graph:
    n = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return build_graph(n, edges)


def half_graph(k: int) -> Graph:
    """Bipartite half graph: a_i ~ b_j iff i <= j, with a_i = i, b_j = k + j."""
    return build_graph(2 * k, [(i, k + j) for i in range(k) for j in range(k) if i <= j])


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


@st.composite
def small_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return build_graph(n, chosen)


@st.composite
def views(draw):
    """A view made by ``view_minus`` and a chain of ``minus`` calls, with
    every vertex and pair removed on the way; the pairs mix edges in either
    orientation and non-edges."""
    g = draw(small_graphs())
    ids = st.integers(min_value=0, max_value=g.n - 1)
    pair = st.tuples(ids, ids)
    if g.m:
        pair = st.one_of(pair, st.tuples(st.sampled_from(g.edges()), st.booleans()).map(
            lambda eb: eb[0][::-1] if eb[1] else eb[0]))
    verts, pairs = draw(st.sets(ids, max_size=3)), draw(st.lists(pair, max_size=6))
    view = view_minus(g, verts, pairs)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        more_verts, more_pairs = draw(st.sets(ids, max_size=3)), draw(st.lists(pair, max_size=6))
        view = view.minus(more_verts, more_pairs)
        verts |= more_verts
        pairs += more_pairs
    return view, verts, pairs


def ledger(g: Graph, f_set, spent=()) -> FreeEdges:
    """The free-edge ledger of g over F = ``f_set``, less the edges in
    ``spent`` (pairs in either orientation; pairs without a cell, such as
    the edges inside F, change nothing)."""
    free = FreeEdges.of(g, np.array(list(f_set), dtype=np.intp))
    for a, b in spent:
        free.matrix[free.row[a], free.col[b]] = free.matrix[free.row[b], free.col[a]] = False
    return free


def reference_greedy_three_paths(g, pairs, used, f_set):
    """The linker on a set ledger ``used`` with a per-vertex free-neighbour
    cache: each pair takes its least common free neighbour, else u-a-b-v
    with a the first free neighbour of u in sorted order that has a free
    middle edge to a free neighbour b of v (the least such b)."""
    f_members = set(f_set)
    free_nbrs = {}

    def free_of(v):
        if v not in free_nbrs:
            free_nbrs[v] = {w for w in g.neighbors(v)
                            if w not in f_members and normalize_edge(v, w) not in used}
        return free_nbrs[v]

    def consume(a, b):
        used.add(normalize_edge(a, b))
        for x, y in ((a, b), (b, a)):
            if x in free_nbrs:
                free_nbrs[x].discard(y)

    out, stuck = {}, []
    for pair in pairs:
        u, v = pair
        nu, nv = free_of(u), free_of(v)
        common = nu & nv
        path = None
        if common:
            path = [u, min(common), v]
        else:
            for a in sorted(nu):
                hits = nv & free_of(a)
                if hits:
                    path = [u, a, min(hits), v]
                    break
        if path is None:
            stuck.append(pair)
            continue
        for x, y in zip(path, path[1:]):
            consume(x, y)
        out[pair] = path
    return out, stuck
