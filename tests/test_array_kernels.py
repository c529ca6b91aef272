"""Array kernels against the plain loops they replaced: the view's degree
list and its untouched-vertex neighbor path, the vectorized reservoir and
S' tests, the 1-D-key row dedup of the triangle hypergraph, the sparse
operator of the iterative eigensolver, and the dense stage's pairs inside
F, all on the graph's cached CSR pair."""

import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from imforge.errors import DegenerateTError
from imforge.expanders import Star
from imforge.generators import paley, random_regular
from imforge.graphs import build_graph, normalize_edge, view_minus
from imforge.immersion_dense import PartitionScheme, build_red_black, dense_partition, f_pairs
from imforge.nibble import Hypergraph3
from imforge.spectral import adjacency_operator, adjacency_spectrum
from imforge.subdivision import audit_sprime, reservoir_conditions

from helpers import bare_shell, complete, cycle, degrees, petersen, small_graphs, views


@settings(max_examples=150, deadline=None)
@given(views())
def test_view_degree_and_neighbors_match_materialized(case):
    view, verts, pairs = case
    g = view.base
    gone = {tuple(sorted(p)) for p in pairs}
    expected = build_graph(g.n, [e for e in g.edges() if not verts & set(e) and e not in gone])
    mat = view.materialize()
    assert mat == expected and view.edges() == mat.edges()
    ends = {x for p in pairs if g.has_edge(*p) for x in p}
    deg = view.degrees()
    assert deg.tolist() == degrees(mat)
    assert view.degrees() is deg and not deg.flags.writeable
    # a host with no CSR, as the benchmark hands it out, gives the same degrees
    assert view_minus(bare_shell(g), verts, pairs).degrees().tolist() == degrees(mat)
    for v in range(view.n):
        assert list(view.neighbors(v)) == list(mat.neighbors(v))
        assert [view.has_edge(v, w) for w in range(g.n)] == \
            [mat.has_edge(v, w) for w in range(g.n)]
        if v not in verts and v not in ends and verts.isdisjoint(g.neighbors(v)):
            assert view.neighbors(v) is g.neighbors(v)


def reference_f_split(g, f_list):
    """The comprehensions the F block replaced: the host edges inside F
    (its length-1 paths) and its non-adjacent pairs (the leftovers when
    there are fewer than two parts)."""
    f_set = set(f_list)
    inside = {normalize_edge(u, v) for u in f_list for v in g.neighbors(u) if v in f_set}
    holes = sorted(normalize_edge(a, b) for i, a in enumerate(f_list) for b in f_list[i + 1:]
                   if not g.has_edge(a, b))
    return sorted(inside), holes


def reference_red_black(g, scheme):
    """The pair loops ``build_red_black`` replaced: (red, e0)."""
    red = {}
    for j in range(1, scheme.m1 + 1):
        for k in range(j + 1, scheme.m1 + 1):
            pairs = [normalize_edge(a, b)
                     for a in scheme.v_parts[j] for b in scheme.v_parts[k]
                     if not g.has_edge(a, b)]
            if pairs:
                red[(j, k)] = sorted(pairs)
    e0 = []
    for part in scheme.v_parts[1:]:
        for i, a in enumerate(part):
            for b in part[i + 1:]:
                if not g.has_edge(a, b):
                    e0.append(normalize_edge(a, b))
    for a in sorted(scheme.v_parts[0]):
        for b in scheme.f_set:
            if b > a and not g.has_edge(a, b):
                e0.append(normalize_edge(a, b))
    return red, sorted(set(e0))


def block_scheme(t, f):
    """F = 0..f-1 cut into parts of size t after a short cell 0, as
    ``dense_partition`` lays it out, for hosts too sparse for its formulas."""
    m1 = f // t
    v0 = f - m1 * t
    v_parts = [tuple(range(v0))] + [tuple(range(v0 + i * t, v0 + (i + 1) * t))
                                     for i in range(m1)]
    return PartitionScheme(f=f, t=t, s=1, m1=m1, m2=0, v_parts=v_parts, u_parts=[()])


@pytest.mark.parametrize("name, eta, m1", [("paley101", 0.65, 17), ("rr600x24", 0.4, None),
                                           ("paley401", 0.93, 1)])
def test_f_block_matches_reference_loops(name, eta, m1):
    g = {"paley101": lambda: paley(101), "paley401": lambda: paley(401),
         "rr600x24": lambda: random_regular(600, 24, seed=1)}[name]()
    report = adjacency_spectrum(g)
    if m1 is None:  # the pipeline's fallback when the cell size is 0
        with pytest.raises(DegenerateTError):
            dense_partition(g, report, eta)
        scheme = block_scheme(2, math.floor((1 - eta) * report.d))
    else:
        scheme = dense_partition(g, report, eta)
        assert scheme.m1 == m1
    inside, holes = f_pairs(g, np.arange(scheme.f))
    assert (list(map(tuple, inside.tolist())), list(map(tuple, holes.tolist()))) == \
        reference_f_split(g, list(range(scheme.f)))
    rb = build_red_black(scheme, holes)
    red, e0 = reference_red_black(g, scheme)
    assert list(rb.red.items()) == list(red.items()) and rb.e0 == e0
    assert red or scheme.m1 < 2


def reference_conditions(g, stars, eta, sample):
    """The per-vertex loop that ``reservoir_conditions`` replaced."""
    d = max(len(g.neighbors(stars[0].center)), 1) if stars else 1
    u_set = {s.center for s in stars}
    need_leaves = (1 - eta) * d
    leaf_ok = all(sum(1 for leaf in s.leaves if leaf in sample) >= need_leaves
                  for s in stars)
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


def vertex_mask(g, vertices):
    mask = np.zeros(g.n, dtype=bool)
    mask[list(vertices)] = True
    return mask


@st.composite
def reservoir_cases(draw):
    g = draw(small_graphs())
    centers = sorted(draw(st.sets(st.integers(min_value=0, max_value=g.n - 1))))
    leaf_sets = [tuple(sorted(draw(st.sets(st.sampled_from(g.neighbors(c))))))
                 if g.neighbors(c) else () for c in centers]
    sample = draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    eta = draw(st.sampled_from([0.1, 0.5, 0.9]))
    return g, [Star(c, leaves) for c, leaves in zip(centers, leaf_sets)], eta, sample


@settings(max_examples=150, deadline=None)
@given(reservoir_cases())
def test_reservoir_conditions_match_reference_loop(case):
    g, stars, eta, sample = case
    got = reservoir_conditions(g, stars, eta, vertex_mask(g, sample))
    assert got == reference_conditions(g, stars, eta, sample)
    assert type(got[2]["worst_outside"]) is int


def test_reservoir_conditions_empty_centers_and_sample():
    for g in (complete(5), cycle(7), petersen(), build_graph(3, [])):
        for stars in ([], [Star(0, tuple(g.neighbors(0)))]):
            for sample in (set(), set(range(1, g.n))):
                assert reservoir_conditions(g, stars, 0.5, vertex_mask(g, sample)) == \
                    reference_conditions(g, stars, 0.5, sample)


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.data())
def test_audit_sprime_matches_reference_loop(g, data):
    s_prime = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    beta = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    worst = 0.0
    for v, d in enumerate(degrees(g)):
        if d:
            worst = max(worst, sum(1 for w in g.neighbors(v) if w in s_prime) / d)
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
