"""Array kernels against the plain loops they replaced: the view's degree
list and its untouched-vertex neighbor path, the vectorized reservoir and
S' tests, the 1-D-key row dedup of the triangle hypergraph, and the sparse
operator of the iterative eigensolver, all on the graph's cached CSR pair."""

import math

import numpy as np
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from imforge.graphs import GraphView, build_graph, view_minus
from imforge.nibble import Hypergraph3
from imforge.spectral import adjacency_operator
from imforge.subdivision import StarSystem, audit_sprime, reservoir_conditions

from helpers import complete, cycle, petersen


@st.composite
def small_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return build_graph(n, chosen)


@st.composite
def views(draw):
    """A view made by ``view_minus``, or built directly with removed pairs
    that may be non-edges or listed in reverse order."""
    g = draw(small_graphs())
    verts = draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    if draw(st.booleans()):
        return view_minus(g, verts, draw(st.lists(st.sampled_from(g.edges())))
                          if g.m else ())
    ids = st.integers(min_value=0, max_value=g.n - 1)
    pairs = draw(st.sets(st.tuples(ids, ids).filter(lambda p: p[0] != p[1])))
    return GraphView(g, frozenset(verts), frozenset(pairs))


@settings(max_examples=150, deadline=None)
@given(views())
def test_view_degree_and_neighbors_match_materialized(view):
    mat = view.materialize()
    ends = {x for pair in view.removed_edges for x in pair}
    for v in range(view.n):
        assert view.degree(v) == len(mat.neighbors(v))
        assert list(view.neighbors(v)) == list(mat.neighbors(v))
        untouched = (v not in view.removed_vertices and v not in ends
                     and view.removed_vertices.isdisjoint(view.base.neighbors(v)))
        if untouched:
            assert view.neighbors(v) is view.base.neighbors(v)


def reference_conditions(g, stars, eta, sample):
    """The per-vertex loop that ``reservoir_conditions`` replaced."""
    d = max(len(g.neighbors(stars.centers[0])), 1) if stars.centers else 1
    u_set = set(stars.centers)
    need_leaves = (1 - eta) * d
    leaf_ok = all(sum(1 for leaf in leaves if leaf in sample) >= need_leaves
                  for leaves in stars.leaf_sets)
    need_outside = eta * eta * d / 8
    worst_outside = math.inf
    outside_ok = True
    for v in range(g.n):
        outside = sum(1 for w in g.neighbors(v) if w not in u_set and w not in sample)
        worst_outside = min(worst_outside, outside)
        if outside < need_outside:
            outside_ok = False
    return leaf_ok, outside_ok, {"need_leaves": need_leaves, "need_outside": need_outside,
                                 "worst_outside": worst_outside}


@st.composite
def reservoir_cases(draw):
    g = draw(small_graphs())
    centers = sorted(draw(st.sets(st.integers(min_value=0, max_value=g.n - 1))))
    leaf_sets = [tuple(sorted(draw(st.sets(st.sampled_from(g.neighbors(c))))))
                 if g.degree(c) else () for c in centers]
    sample = draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    eta = draw(st.sampled_from([0.1, 0.5, 0.9]))
    return g, StarSystem(centers=centers, leaf_sets=leaf_sets), eta, sample


@settings(max_examples=150, deadline=None)
@given(reservoir_cases())
def test_reservoir_conditions_match_reference_loop(case):
    g, stars, eta, sample = case
    got = reservoir_conditions(g, stars, eta, sample)
    assert got == reference_conditions(g, stars, eta, sample)
    assert type(got[2]["worst_outside"]) is int


def test_reservoir_conditions_empty_centers_and_sample():
    for g in (complete(5), cycle(7), petersen(), build_graph(3, [])):
        for stars in (StarSystem([], []), StarSystem([0], [g.neighbors(0)])):
            for sample in (set(), set(range(1, g.n))):
                assert reservoir_conditions(g, stars, 0.5, sample) == \
                    reference_conditions(g, stars, 0.5, sample)


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.data())
def test_audit_sprime_matches_reference_loop(g, data):
    s_prime = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    beta = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    worst = 0.0
    for v in range(g.n):
        if g.degree(v):
            worst = max(worst, sum(1 for w in g.neighbors(v) if w in s_prime) / g.degree(v))
    assert audit_sprime(g, s_prime, beta) == (worst <= beta, worst)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([12, 1 << 22]), st.data())
def test_hypergraph_from_array_matches_row_unique(top, data):
    # ids up to 2**22 make m**3 overflow int64, which takes the row-sort path
    triple = st.lists(st.integers(min_value=0, max_value=top), min_size=3, max_size=3,
                      unique=True)
    rows = data.draw(st.lists(triple, max_size=30))
    if rows:
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=10))
    arr = np.array(rows, dtype=np.int64).reshape(-1, 3)
    h = Hypergraph3.from_array(top + 1, arr)
    expected = np.sort(arr, axis=1)
    if expected.size:
        expected = np.unique(expected, axis=0)
    assert h.triples.dtype == expected.dtype and h.triples.shape == expected.shape
    assert np.array_equal(h.triples, expected)


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_n=20))
def test_sparse_operator_matches_coo_build(g):
    rows, cols = [], []
    for u, v in g.edges():
        rows += [u, v]
        cols += [v, u]
    ref = scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))
    op = adjacency_operator(g)
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(op, attr), getattr(ref, attr)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    dense = np.zeros((g.n, g.n), dtype=np.int8)
    for u, v in g.edges():
        dense[u, v] = dense[v, u] = 1
    assert np.array_equal(g.adjacency_matrix(), dense)
    indptr, indices = g.csr()
    for v in range(g.n):
        assert tuple(indices[indptr[v]:indptr[v + 1]].tolist()) == g.neighbors(v)
