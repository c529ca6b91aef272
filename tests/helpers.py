"""Small named graphs used as oracles across the test suite, a graph's
degree list and its shell with no CSR, the hypothesis strategies for
random small graphs and views, the dense pipeline's free-edge ledger built
from a set of spent edges, and its two stages on a set ledger: the
batched red-edge replacement and the greedy 3-path linker; and the
connected components of a triple system."""

from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from imforge.graphs import EdgeSet, Graph, build_graph, normalize_edge, view_minus
from imforge.immersion_dense import FreeEdges
from imforge.nibble import edge_disjoint_triangles
from imforge.util import derive_seed


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


def triple_components(n, triples):
    """Each triple's connected component in a system on vertices 0..n-1,
    named by its least vertex (union-find on plain lists)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, *rest in triples:
        for x in rest:
            ra, rx = find(a), find(x)
            parent[max(ra, rx)] = min(ra, rx)
    return [find(a) for a, *_ in triples]


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


def reference_replace_red_edges(g, rb, classes, used, seed=0):
    """Batched red-edge replacement on a set ledger: each black edge is
    ``g.has_edge(a, u)`` and not in ``used``."""
    sch = rb.scheme
    two_paths, leftovers = {}, []
    numbered = list(enumerate(classes, start=1))
    if sch.m2 < 1:
        leftovers = [p for reds in rb.red.values() for p in reds]
        numbered = []
    for first in range(0, len(numbered), max(sch.m2, 1)):
        host_of, side, edges, reds_in_batch = [], [], [], []
        for ci, cls in numbered[first:first + sch.m2]:
            u_cell = sch.u_parts[(ci - 1) % sch.m2 + 1]
            for (j, k) in cls:
                reds = rb.red.get((j, k), [])
                if not reds:
                    continue
                vj, vk = sch.v_parts[j], sch.v_parts[k]
                base = len(host_of)
                local = list(vj) + list(vk) + list(u_cell)
                pos = {v: base + i for i, v in enumerate(local)}
                edges.extend((pos[a], pos[b]) for a, b in reds)
                for a in local[:len(vj) + len(vk)]:
                    for u in u_cell:
                        if g.has_edge(a, u) and normalize_edge(a, u) not in used:
                            edges.append((pos[a], pos[u]))
                host_of.extend(local)
                side.extend([0] * len(vj) + [1] * len(vk) + [2] * len(u_cell))
                reds_in_batch.extend(reds)
        if not reds_in_batch:
            continue
        mini = build_graph(len(host_of), edges)
        sides = np.array(side)
        parts = tuple(np.flatnonzero(sides == x) for x in range(3))
        triangles, _, _ = edge_disjoint_triangles(
            mini, parts, seed=derive_seed(seed, f"red-replace:{first}"))
        replaced = set()
        for x, y, z in triangles:
            a, b, u = host_of[x], host_of[y], host_of[z]
            pair = normalize_edge(a, b)
            two_paths[pair] = [pair[0], u, pair[1]]
            used.add(normalize_edge(a, u))
            used.add(normalize_edge(b, u))
            replaced.add(pair)
        leftovers.extend(p for p in reds_in_batch if p not in replaced)
    return two_paths, sorted(leftovers)
