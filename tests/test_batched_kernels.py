"""The batched dense red-edge replacement against plain-Python references:
the matcher against one on a pure-Python SplitMix64 stream with a
union-find dominance guard, on single triple systems and on disjoint
unions of them, the join-based triangle hypergraph against the
dense-matrix builder, and ``replace_red_edges`` against the set-ledger
replacement on hand-made schemes, including cell reuse."""

import math
from collections import Counter
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imforge import nibble
from imforge.generators import random_regular
from imforge.graphs import Graph, build_graph, normalize_edge
from imforge.immersion_dense import (
    PartitionScheme,
    build_red_black,
    f_pairs,
    one_factorization,
    replace_red_edges,
)
from imforge.nibble import (
    MAX_ROUNDS,
    Hypergraph3,
    near_perfect_matching,
    triangle_hypergraph,
)
from imforge.util import derive_seed, np_rng

from helpers import ledger, reference_replace_red_edges, triple_components


SPLITMIX64_KEY0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def splitmix64_words(key):
    """SplitMix64's 64-bit outputs from seed ``key``, on Python ints."""
    mask = (1 << 64) - 1
    state = key
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def reference_matching(h, seed=0):
    """The matcher: one seeded stream read round by round, then each
    connected component takes plain greedy's triples where they are more."""
    t = h.triples
    n_v = h.n_vertices
    if len(t) == 0:
        return t.copy(), 0, 0
    words = splitmix64_words(derive_seed(seed, "nibble"))
    free = np.ones(n_v, dtype=bool)
    selected = []
    surviving = np.arange(len(t))
    rounds = 0
    for _ in range(MAX_ROUNDS):
        surviving = surviving[free[t[surviving, 0]] & free[t[surviving, 1]]
                              & free[t[surviving, 2]]]
        if surviving.size == 0:
            break
        rounds += 1
        live = np.zeros(n_v, dtype=bool)
        live[t[surviving].ravel()] = True
        want = nibble.BITE_FRACTION * int(np.count_nonzero(live)) / 3
        p = min(1.0, want / surviving.size)
        draws = np.array([(next(words) >> 11) * 2.0 ** -53 for _ in range(surviving.size)])
        bite = surviving[draws < p]
        if bite.size == 0:
            continue
        uniq, counts = np.unique(t[bite].ravel(), return_counts=True)
        conflicted = set(uniq[counts > 1].tolist())
        for row in bite.tolist():
            a, b, c = t[row]
            if a in conflicted or b in conflicted or c in conflicted:
                continue
            free[a] = free[b] = free[c] = False
            selected.append(row)

    def sweep(free, rows):
        taken = []
        for row in rows.tolist():
            a, b, c = t[row]
            if free[a] and free[b] and free[c]:
                free[a] = free[b] = free[c] = False
                taken.append(row)
        return taken

    selected += sweep(free, surviving)
    plain = sweep(np.ones(n_v, dtype=bool), np.arange(len(t)))
    comp = triple_components(n_v, t.tolist())
    ours, theirs = Counter(comp[r] for r in selected), Counter(comp[r] for r in plain)
    keep = [r for r in selected if theirs[comp[r]] <= ours[comp[r]]]
    keep += [r for r in plain if theirs[comp[r]] > ours[comp[r]]]
    return t[np.array(sorted(keep), dtype=np.int64)] if keep else t[:0], rounds, len(plain)


def reference_hypergraph(g, parts):
    """The dense-matrix triangle builder: a Python loop over the A-B edges
    against na x nc id and mask matrices."""
    part_a, part_b, part_c = (sorted(set(p)) for p in parts)
    part_of, offset = {}, {}
    for idx, block in enumerate([part_a, part_b, part_c]):
        for off, v in enumerate(block):
            part_of[v] = idx
            offset[v] = off
    cross_edges = [e for e in g.edges()
                   if e[0] in part_of and e[1] in part_of and part_of[e[0]] != part_of[e[1]]]
    na, nb, nc = len(part_a), len(part_b), len(part_c)
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
    rows = []
    for eid, ai, bi in ab_edges:
        for c in np.nonzero(adj_ac[ai] & adj_bc[bi])[0].tolist():
            rows.append((eid, int(id_ac[ai, c]), int(id_bc[bi, c])))
    return Hypergraph3.from_array(len(cross_edges), rows, vertex_labels=cross_edges)


# -- matcher --------------------------------------------------------------

@st.composite
def triple_systems(draw):
    """(n, triples): no triples, one triple, sparse random triples, or a
    dense system whose bites are so rare that it runs into MAX_ROUNDS."""
    shape = draw(st.sampled_from(["empty", "one", "random", "capped"]))
    if shape == "empty":
        return draw(st.integers(0, 6)), []
    if shape == "one":
        return 3, [(0, 1, 2)]
    if shape == "capped":  # each triple survives 50 rounds w.p. 0.9**50
        k = draw(st.integers(600, 1000))
        return 3 * k, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)]
    n = draw(st.integers(3, 12))
    ids = st.integers(0, n - 1)
    raw = draw(st.lists(st.tuples(ids, ids, ids), max_size=30))
    return n, [t for t in raw if len(set(t)) == 3]


def union_of(systems):
    """The systems side by side: vertex ids shifted by an offset each."""
    rows, offset = [], 0
    for n, triples in systems:
        rows += [(a + offset, b + offset, c + offset) for a, b, c in triples]
        offset += n
    return Hypergraph3.from_array(offset, np.array(rows, dtype=np.int64).reshape(-1, 3))


def test_splitmix64_known_answers():
    assert list(islice(splitmix64_words(0), 3)) == SPLITMIX64_KEY0
    draws = nibble._splitmix64(np.zeros(3, dtype=np.uint64), np.arange(3, dtype=np.uint64))
    assert draws.tolist() == [(w >> 11) * 2.0 ** -53 for w in SPLITMIX64_KEY0]


@settings(max_examples=120, deadline=None)
@given(st.lists(triple_systems(), min_size=1, max_size=6), st.integers(0, 2 ** 64 - 1))
def test_matcher_equals_the_reference_on_disjoint_unions(systems, seed):
    for h in (Hypergraph3.from_array(*systems[0]), union_of(systems)):
        m = near_perfect_matching(h, seed=seed)
        ref_triples, ref_rounds, ref_greedy = reference_matching(h, seed)
        assert np.array_equal(m.triples, ref_triples)
        assert (m.diagnostics["rounds"], m.diagnostics["greedy_size"]) == (ref_rounds, ref_greedy)


def test_capped_system_reaches_max_rounds():
    # 1000 disjoint triples beside a lone one and four isolated vertices:
    # the bites stop at the cap, and the sweep takes every triple left
    disjoint = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(1000)]
    m = near_perfect_matching(union_of([(3000, disjoint), (3, [(0, 1, 2)]), (4, [])]), seed=1)
    assert m.diagnostics["rounds"] == MAX_ROUNDS
    assert m.size == m.diagnostics["greedy_size"] == 1001


# -- join-based triangle hypergraph -----------------------------------------

@st.composite
def tripartite_graphs(draw):
    """A random graph with three disjoint parts in shuffled id order, plus
    edges inside parts and vertices outside every part."""
    n = draw(st.integers(3, 16))
    order = draw(st.permutations(range(n)))
    cut1 = draw(st.integers(1, n - 2))
    cut2 = draw(st.integers(cut1 + 1, n - 1))
    end = draw(st.integers(cut2 + 1, n))
    parts = (order[:cut1], order[cut1:cut2], order[cut2:end])
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return build_graph(n, edges), parts


def assert_same_hypergraph(h, ref):
    assert h.n_vertices == ref.n_vertices
    assert h.vertex_labels == ref.vertex_labels
    assert np.array_equal(h.triples, ref.triples)
    assert h.isolated_count == ref.isolated_count


@settings(max_examples=150, deadline=None)
@given(tripartite_graphs())
def test_join_hypergraph_matches_dense_builder(case):
    g, parts = case
    assert_same_hypergraph(triangle_hypergraph(g, parts), reference_hypergraph(g, parts))


@pytest.mark.parametrize("seed", range(3))
def test_join_hypergraph_matches_dense_builder_criterion4_shape(seed):
    # criterion 4's host at a smaller t: random A-B, A-C, B-C halves
    t = k = 30
    rng = np_rng(seed, "acceptance-tripartite")
    edges = [(i, t + j) for i, j in zip(*np.nonzero(rng.random((t, t)) < 0.5))]
    edges += [(i, 2 * t + j) for i, j in zip(*np.nonzero(rng.random((t, k)) < 0.5))]
    edges += [(t + i, 2 * t + j) for i, j in zip(*np.nonzero(rng.random((t, k)) < 0.5))]
    g = build_graph(2 * t + k, edges)
    parts = (range(t), range(t, 2 * t), range(2 * t, 2 * t + k))
    h = triangle_hypergraph(g, parts)
    assert h.n_triples > 1000
    assert_same_hypergraph(h, reference_hypergraph(g, parts))


@settings(max_examples=60, deadline=None)
@given(st.lists(tripartite_graphs(), min_size=1, max_size=4))
def test_disjoint_union_hypergraph_is_each_part_shifted(cases):
    starts, edges, parts, offset = [], [], ([], [], []), 0
    for g, p in cases:
        starts.append(offset)
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        for side, block in zip(parts, p):
            side.extend(v + offset for v in block)
        offset += g.n
    h = triangle_hypergraph(build_graph(offset, edges), parts)
    rows, labels, shift = [], [], 0
    for (g, p), start in zip(cases, starts):
        alone = triangle_hypergraph(g, p)
        rows.append(alone.triples + shift)
        labels += [(u + start, v + start) for u, v in alone.vertex_labels]
        shift += alone.n_vertices
    assert h.vertex_labels == labels
    assert np.array_equal(h.triples, np.concatenate(rows))


# -- batched red-edge replacement -------------------------------------------

def hand_scheme(g: Graph, t: int, m1: int, s: int, m2: int, shuffle_seed: int) -> PartitionScheme:
    """F = m1 cells of size t (plus a one-vertex cell 0), and m2 middle
    cells of size s, on shuffled vertex ids, so that m2 may fall below chi."""
    order = np_rng(shuffle_seed, "hand-scheme").permutation(g.n).tolist()
    f = 1 + m1 * t
    v_parts = [tuple(order[:1])] + [tuple(order[1 + i * t: 1 + (i + 1) * t]) for i in range(m1)]
    rest = order[f:]
    u_parts = [()] + [tuple(rest[j * s:(j + 1) * s]) for j in range(m2)]
    return PartitionScheme(f=f, t=t, s=s, m1=m1, m2=m2, v_parts=v_parts, u_parts=u_parts)


def red_black(g, scheme):
    """``build_red_black`` on the non-adjacent pairs of the scheme's F."""
    return build_red_black(scheme, f_pairs(g, np.array(scheme.f_set))[1])


def assert_same_replacement(g, scheme, seed):
    rb = red_black(g, scheme)
    classes = one_factorization(scheme.m1)
    f_set = set(scheme.f_set)
    inside = {normalize_edge(u, v) for u in f_set for v in g.neighbors(u) if v in f_set}
    free, ref_used = ledger(g, scheme.f_set), set(inside)
    two_paths, leftovers = replace_red_edges(rb, classes, free, seed=seed)
    ref_paths, ref_leftovers = reference_replace_red_edges(g, rb, classes, ref_used, seed)
    assert list(two_paths.items()) == list(ref_paths.items())
    assert leftovers == ref_leftovers
    assert np.array_equal(free.matrix, ledger(g, scheme.f_set, ref_used).matrix)
    return two_paths


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(3, 9), st.integers(1, 4), st.integers(1, 8),
       st.integers(0, 2 ** 32 - 1))
def test_replace_red_edges_matches_the_set_ledger_reference(t, m1, s, m2, seed):
    g = random_regular(80, 40, seed=seed % 7)
    if 1 + m1 * t + m2 * s > g.n:
        m2 = (g.n - 1 - m1 * t) // s
    assert_same_replacement(g, hand_scheme(g, t, m1, s, m2, seed), seed)


def test_replace_red_edges_runs_several_batches():
    # chi = 7 classes over 2 middle cells: batches of 2, 2, 2 and 1 classes
    g = random_regular(80, 40, seed=3)
    scheme = hand_scheme(g, t=3, m1=8, s=4, m2=2, shuffle_seed=5)
    two_paths = assert_same_replacement(g, scheme, seed=11)
    assert scheme.m2 < len(one_factorization(8)) and two_paths
    assert math.ceil(len(one_factorization(8)) / scheme.m2) == 4


def test_replace_red_edges_without_middle_cells_leaves_every_red_pair():
    g = random_regular(40, 20, seed=1)
    scheme = hand_scheme(g, t=2, m1=4, s=3, m2=0, shuffle_seed=2)
    rb = red_black(g, scheme)
    two_paths, leftovers = replace_red_edges(rb, one_factorization(4), ledger(g, scheme.f_set))
    assert two_paths == {} and leftovers == sorted(p for v in rb.red.values() for p in v)
