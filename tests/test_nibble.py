from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imforge.errors import BadPartitionError, OutOfRangeError
from imforge.graphs import build_graph
from imforge.nibble import (
    Hypergraph3,
    edge_disjoint_triangles,
    near_perfect_matching,
    triangle_hypergraph,
)

from helpers import complete_tripartite, triple_components


FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]

# AG(2,3): points are (x, y) over GF(3) flattened as 3x + y; 12 lines
STS9 = [
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (1, 5, 6), (2, 3, 7),
    (0, 5, 7), (1, 3, 8), (2, 4, 6),
]


def brute_force_max_matching(n, triples):
    """Exhaustive search oracle; fine for a couple dozen triples."""
    best = 0

    def rec(idx, used, size):
        nonlocal best
        best = max(best, size)
        if idx == len(triples):
            return
        remaining = len(triples) - idx
        if size + remaining <= best:
            return
        a, b, c = triples[idx]
        if not (used & {a, b, c}):
            rec(idx + 1, used | {a, b, c}, size + 1)
        rec(idx + 1, used, size)

    rec(0, set(), 0)
    return best


def test_fano_matching_is_one():
    assert brute_force_max_matching(7, FANO) == 1
    h = Hypergraph3.from_array(7, FANO)
    m = near_perfect_matching(h, seed=0)
    assert m.size == 1


def test_sts9_matching_is_three():
    assert brute_force_max_matching(9, STS9) == 3
    h = Hypergraph3.from_array(9, STS9)
    m = near_perfect_matching(h, seed=0)
    assert m.size == 3


def test_complete_3_graph_on_9():
    triples = list(combinations(range(9), 3))
    h = Hypergraph3.from_array(9, triples)
    m = near_perfect_matching(h, seed=0)
    assert m.size == 3  # perfect


def test_matching_triples_pairwise_disjoint():
    triples = list(combinations(range(12), 3))
    h = Hypergraph3.from_array(12, triples)
    m = near_perfect_matching(h, seed=5)
    flat = m.triples.ravel().tolist()
    assert len(flat) == len(set(flat))


def test_matching_deterministic():
    triples = list(combinations(range(15), 3))[::3]
    h = Hypergraph3.from_array(15, triples)
    a = near_perfect_matching(h, seed=9)
    b = near_perfect_matching(h, seed=9)
    assert np.array_equal(a.triples, b.triples)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11)),
                max_size=40),
       st.integers(0, 2 ** 32 - 1))
def test_matching_dominates_plain_greedy(raw, seed):
    triples = [t for t in raw if len(set(t)) == 3]
    h = Hypergraph3.from_array(12, triples)
    m = near_perfect_matching(h, seed=seed)
    flat = m.triples.ravel().tolist()
    assert len(flat) == len(set(flat))
    assert m.size >= m.diagnostics["greedy_size"]


# two systems side by side, B shifted by 7: at seed 0 the bites and sweep
# leave B 2 triples where plain greedy keeps 3, while A gains one over
# greedy, so a guard on the totals alone would let B fall below greedy
WITNESS_A = [(0, 1, 3), (0, 1, 6), (0, 2, 6), (0, 3, 4), (0, 3, 5), (0, 3, 6), (0, 4, 6),
             (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 5), (3, 5, 6)]
WITNESS_B = [(0, 1, 2), (0, 1, 4), (0, 1, 6), (0, 2, 4), (1, 2, 9), (1, 3, 10), (1, 5, 9),
             (2, 5, 6), (2, 6, 9), (2, 6, 10), (4, 5, 9), (6, 8, 10)]


def assert_dominates_greedy_per_component(h, m):
    """Every connected component of h keeps at least plain ascending
    greedy's count of triples."""
    rows = h.triples.tolist()
    comp = triple_components(h.n_vertices, rows)
    used, greedy = set(), Counter()
    for row, (a, b, c) in enumerate(rows):
        if not used & {a, b, c}:
            used |= {a, b, c}
            greedy[comp[row]] += 1
    ours = Counter(comp[rows.index(t)] for t in m.triples.tolist())
    assert all(ours[c] >= k for c, k in greedy.items()), (ours, greedy)


@pytest.mark.parametrize("seed", range(20))
def test_matching_dominates_plain_greedy_on_every_component(seed):
    h = Hypergraph3.from_array(18, WITNESS_A + [tuple(v + 7 for v in t) for t in WITNESS_B])
    assert_dominates_greedy_per_component(h, near_perfect_matching(h, seed=seed))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
                         max_size=15), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_matching_dominates_plain_greedy_on_every_component_of_a_union(systems, seed):
    rows = [tuple(v + 9 * i for v in t) for i, raw in enumerate(systems)
            for t in raw if len(set(t)) == 3]
    h = Hypergraph3.from_array(9 * len(systems), rows)
    assert_dominates_greedy_per_component(h, near_perfect_matching(h, seed=seed))


def test_triangle_hypergraph_single_triangle():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    h = triangle_hypergraph(g, ([0], [1], [2]))
    assert h.n_vertices == 3 and h.n_triples == 1
    assert h.isolated_count == 0


def test_triangle_hypergraph_tripartite_c6():
    # 6-cycle 0-1-2-3-4-5 with parts {0,3}, {1,4}, {2,5}: no triangles
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    h = triangle_hypergraph(g, ([0, 3], [1, 4], [2, 5]))
    assert h.n_vertices == 6 and h.n_triples == 0
    assert h.isolated_count == 6


def test_triangle_hypergraph_k222():
    g = complete_tripartite(2, 2, 2)
    h = triangle_hypergraph(g, ([0, 1], [2, 3], [4, 5]))
    assert h.n_vertices == 12 and h.n_triples == 8


def test_triangle_hypergraph_codegree_at_most_one():
    # two base edges lie in at most one common triangle in a simple graph
    g = complete_tripartite(3, 3, 3)
    h = triangle_hypergraph(g, (range(3), range(3, 6), range(6, 9)))
    codegree = Counter(pair for row in h.triples.tolist() for pair in combinations(row, 2))
    assert h.n_triples == 27 and max(codegree.values()) == 1


def test_triangle_hypergraph_bad_partition():
    g = complete_tripartite(2, 2, 2)
    with pytest.raises(BadPartitionError):
        triangle_hypergraph(g, ([0, 1], [1, 3], [4, 5]))


@pytest.mark.parametrize("parts", [([0, 1], [2, 3], [4, 6]), ([-1], [2], [4])])
def test_triangle_hypergraph_rejects_a_part_outside_the_graph(parts):
    with pytest.raises(OutOfRangeError):
        triangle_hypergraph(complete_tripartite(2, 2, 2), parts)


def test_hypergraph_rejects_a_row_that_is_not_a_triple():
    with pytest.raises(BadPartitionError, match="three members"):
        Hypergraph3.from_array(6, [[0, 1], [2, 3, 4, 5]])


@pytest.mark.parametrize("row", [[0, 1, 4], [-1, -2, 3], [-3, -2, -1]])
def test_hypergraph_rejects_ids_out_of_range(row):
    with pytest.raises(BadPartitionError, match="outside"):
        Hypergraph3.from_array(4, [[0, 1, 2], row])


def test_k222_four_disjoint_triangles():
    # brute force: a resolution into 4 transversal triangles covers all 12 edges
    g = complete_tripartite(2, 2, 2)
    h = triangle_hypergraph(g, ([0, 1], [2, 3], [4, 5]))
    assert brute_force_max_matching(12, [tuple(t) for t in h.triples.tolist()]) == 4
    triangles, uncovered, diag = edge_disjoint_triangles(g, ([0, 1], [2, 3], [4, 5]), seed=0)
    assert len(triangles) == 4
    assert uncovered == []
    used_edges = [e for t in triangles for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))]
    assert len(used_edges) == len(set(used_edges)) == 12
    for a, b, c in triangles:
        assert g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)


def test_edge_disjoint_triangles_triangle_free():
    g = build_graph(6, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)])
    triangles, uncovered, diag = edge_disjoint_triangles(
        g, ([0, 1], [2, 3], [4, 5]), seed=0)
    assert triangles == []
    assert len(uncovered) == 6


def test_from_array_round_trips_its_own_rows():
    h = Hypergraph3.from_array(9, STS9)
    assert (h.n_vertices, h.n_triples) == (9, 12)
    h2 = Hypergraph3.from_array(9, h.triples.tolist())
    assert np.array_equal(h2.triples, h.triples)
