import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import imforge.spectral as spectral
from imforge.errors import (
    DegenerateCutError,
    NotRegularError,
    OutOfRangeError,
    TooSmallError,
)
from imforge.generators import paley, random_regular
from imforge.graphs import build_graph
from imforge.spectral import (
    adjacency_spectrum,
    complement_report,
    cut_lower_bound,
    good_vertices,
    mixing_discrepancy,
    ordered_edge_count,
    regular_pair_audit,
)

from helpers import complete, complete_bipartite, cycle, half_graph, petersen


def test_k10_spectrum():
    r = adjacency_spectrum(complete(10))
    assert (r.n, r.d) == (10, 9)
    assert abs(r.lam - 1.0) < 1e-8
    assert abs(r.spectrum[0] - 9.0) < 1e-8
    assert np.allclose(r.spectrum[1:], -1.0, atol=1e-8)


def test_petersen_spectrum():
    # eigenvalues 3, 1 (x5), -2 (x4), solved densely as the oracle
    r = adjacency_spectrum(petersen())
    assert abs(r.spectrum[0] - 3.0) < 1e-8
    assert abs(r.lam - 2.0) < 1e-8
    assert sum(1 for x in r.spectrum if abs(x - 1.0) < 1e-6) == 5
    assert sum(1 for x in r.spectrum if abs(x + 2.0) < 1e-6) == 4


def test_c5_lambda_circulant():
    # circulant eigenvalues 2cos(2 pi k / 5); the largest below the top is
    # the golden ratio in absolute value
    r = adjacency_spectrum(cycle(5))
    assert abs(r.lam - (1 + math.sqrt(5)) / 2) < 1e-8


def test_iterative_path_used_above_cutoff():
    r = adjacency_spectrum(cycle(5000))
    assert r.spectrum is None
    assert abs(r.lam - 2.0) < 1e-4
    assert r.is_regular and r.d == 2


@pytest.mark.parametrize("host", [
    lambda: random_regular(600, 24, 1),
    lambda: random_regular(1000, 3, 2),
    lambda: paley(101),
    lambda: cycle(101),
    lambda: complete_bipartite(50, 50),
], ids=["rr600x24", "rr1000x3", "paley101", "c101", "k50-50"])
def test_one_lanczos_run_matches_the_dense_solver(monkeypatch, host):
    # differential test of the iterative path against eigvalsh: one eigsh
    # call per report, and the same ends, also for the complement
    g = host()
    dense = adjacency_spectrum(g)
    direct = adjacency_spectrum(g.complement())
    calls = []
    real_eigsh = scipy.sparse.linalg.eigsh

    def counting_eigsh(*args, **kwargs):
        calls.append(kwargs.get("which"))
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 0)
    r = adjacency_spectrum(g)
    assert len(calls) == 1
    assert r.spectrum is None and r.tol == spectral.ITERATIVE_TOL
    assert (r.n, r.d, r.is_regular) == (dense.n, dense.d, True)
    for got, want in ((r.lambda2, dense.lambda2), (r.lambdan, dense.lambdan),
                      (r.lam, dense.lam)):
        assert abs(got - want) < 1e-8
    comp, fact = complement_report(r)
    assert comp.spectrum is None and comp.d == direct.d
    for got, want in ((comp.lambda2, direct.lambda2), (comp.lambdan, direct.lambdan),
                      (comp.lam, direct.lam), (fact, direct.lambda2)):
        assert abs(got - want) < 1e-8
    assert len(calls) == 1


def test_single_vertex_report():
    r = adjacency_spectrum(build_graph(1, []))
    assert (r.n, r.d, r.lam, r.lambda2, r.lambdan) == (1, 0, 0.0, 0.0, 0.0)
    assert r.spectrum.tolist() == [0.0] and r.tol == spectral.DENSE_TOL
    comp, fact = complement_report(r)
    assert (comp.d, comp.lam, comp.lambda2, comp.lambdan) == (0, 0.0, 0.0, 0.0)


def test_trace_identities_small_graphs():
    for g in (petersen(), complete(7), cycle(9)):
        r = adjacency_spectrum(g)
        assert abs(r.spectrum.sum()) < g.n * r.tol + 1e-9
        assert abs((r.spectrum ** 2).sum() - 2 * g.m) < g.n * r.tol + 1e-6


def test_complement_k10():
    comp, fact = complement_report(adjacency_spectrum(complete(10)))
    assert comp.d == 0
    assert abs(fact - 0.0) < 1e-8
    assert np.allclose(comp.spectrum, 0.0, atol=1e-8)


def test_complement_c4():
    # C4 spectrum 2, 0, 0, -2; complement is 2K2 with spectrum 1, 1, -1, -1
    comp, fact = complement_report(adjacency_spectrum(cycle(4)))
    assert comp.d == 1
    assert abs(fact - 1.0) < 1e-8
    assert np.allclose(np.sort(comp.spectrum), [-1, -1, 1, 1], atol=1e-8)
    direct = adjacency_spectrum(cycle(4).complement())
    assert np.allclose(np.sort(direct.spectrum), np.sort(comp.spectrum), atol=1e-8)


def test_complement_petersen_fact_vs_abs():
    # the classical parameter equals the complement's lambda_2 but not its
    # max-absolute eigenvalue (which is 2 here)
    comp, fact = complement_report(adjacency_spectrum(petersen()))
    assert comp.d == 6
    assert abs(fact - 1.0) < 1e-8
    assert abs(comp.spectrum[1] - fact) < 1e-8
    assert abs(comp.lam - 2.0) < 1e-8
    direct = adjacency_spectrum(petersen().complement())
    assert np.allclose(np.sort(direct.spectrum), np.sort(comp.spectrum), atol=1e-8)


def test_complement_requires_regular():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(NotRegularError):
        complement_report(adjacency_spectrum(g))


def test_mixing_k10_disjoint_triples():
    g = complete(10)
    r = adjacency_spectrum(g)
    obs, exp, bound, ok = mixing_discrepancy(g, r, [0, 1, 2], [3, 4, 5])
    assert obs == 9 and abs(exp - 8.1) < 1e-12 and abs(bound - 3.0) < 1e-8
    assert ok


def test_mixing_empty_side():
    g = petersen()
    r = adjacency_spectrum(g)
    obs, exp, bound, ok = mixing_discrepancy(g, r, [], [1, 2])
    assert obs == 0 and exp == 0 and bound == 0 and ok


def test_mixing_overlap_counts_internal_edges_twice():
    g = complete(4)
    assert ordered_edge_count(g, [0, 1], [0, 1]) == 2  # edge (0,1) both ways


def test_mixing_always_passes_on_certified_graph():
    g = petersen()
    r = adjacency_spectrum(g)
    rng = np.random.default_rng(5)
    for _ in range(300):
        u = rng.choice(10, size=rng.integers(1, 10), replace=False).tolist()
        v = rng.choice(10, size=rng.integers(1, 10), replace=False).tolist()
        _, _, _, ok = mixing_discrepancy(g, r, u, v)
        assert ok


def test_cut_k10():
    g = complete(10)
    r = adjacency_spectrum(g)
    obs, bound, ok = cut_lower_bound(g, r, list(range(5)))
    assert obs == 25 and abs(bound - 20.0) < 1e-8 and ok


def test_cut_petersen_pentagon():
    g = petersen()
    r = adjacency_spectrum(g)
    obs, bound, ok = cut_lower_bound(g, r, [0, 1, 2, 3, 4])
    assert obs == 5 and abs(bound - 2.5) < 1e-8 and ok


def test_cut_two_triangles_boundary():
    # disconnected union of two triangles: lambda = d = 2, bound vacuous
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    r = adjacency_spectrum(g)
    assert abs(r.lam - 2.0) < 1e-8
    obs, bound, ok = cut_lower_bound(g, r, [0, 1, 2])
    assert obs == 0 and abs(bound) < 1e-8 and ok


def test_cut_degenerate():
    g = complete(4)
    r = adjacency_spectrum(g)
    with pytest.raises(DegenerateCutError):
        cut_lower_bound(g, r, [])
    with pytest.raises(DegenerateCutError):
        cut_lower_bound(g, r, [0, 1, 2, 3])


def test_regular_pair_audit_complete_bipartite():
    g = complete_bipartite(8, 8)
    audit = regular_pair_audit(g, range(8), range(8, 16), epsilon=0.2, seed=1)
    assert audit.worst_deviation == 0.0 and audit.passed and audit.witness is None


def test_regular_pair_audit_empty_pair():
    g = build_graph(16, [])
    audit = regular_pair_audit(g, range(8), range(8, 16), epsilon=0.2, seed=1)
    assert audit.worst_deviation == 0.0 and audit.passed


def test_regular_pair_audit_half_graph():
    # oracle: the degree-sorted quarter candidates include a pair of density 1
    # against base 36/64, deviation 0.4375 > 1/4
    g = half_graph(8)
    audit = regular_pair_audit(g, range(8), range(8, 16), epsilon=0.25,
                               sample_budget=0, seed=1)
    assert not audit.passed
    assert audit.worst_deviation > 0.25
    assert audit.witness is not None


def test_regular_pair_audit_too_small():
    g = complete_bipartite(2, 2)
    with pytest.raises(TooSmallError):
        regular_pair_audit(g, [0, 1], [2, 3], epsilon=0.1)


def test_good_vertices_complete_bipartite():
    g = complete_bipartite(6, 6)
    i_side = list(range(6))
    j_side = list(range(6, 12))
    assert good_vertices(g, i_side, [(j_side, j_side)], 0.1) == i_side


def test_good_vertices_excludes_isolated():
    # one vertex of I has no edges at all; pair density 1/2 filters it out
    edges = [(i, 6 + j) for i in range(1, 6) for j in range(6) if (i + j) % 2 == 0]
    g = build_graph(12, edges)
    i_side = list(range(6))
    j_side = list(range(6, 12))
    good = good_vertices(g, i_side, [(j_side, j_side)], 0.1)
    assert 0 not in good


def test_good_vertices_half_graph_matches_brute_force():
    g = half_graph(8)
    i_side = list(range(8))
    j_side = list(range(8, 16))
    j_sub = [8, 9, 10, 11]
    eps = 0.1
    dens = 36 / 64
    brute = []
    for u in i_side:
        hits = sum(1 for w in g.neighbors(u) if w in set(j_sub))
        if (dens - eps) * 4 - 1e-12 <= hits <= (dens + eps) * 4 + 1e-12:
            brute.append(u)
    assert good_vertices(g, i_side, [(j_side, j_sub)], eps) == brute == [2]


def test_good_vertices_checks_every_target():
    # half of I is complete to J and half is isolated, so at density 1/2 the
    # first target leaves no vertex good; the undersized second target
    # still raises
    g = build_graph(12, [(i, j) for i in range(3) for j in range(6, 12)])
    i_side, j_side = list(range(6)), list(range(6, 12))
    assert good_vertices(g, i_side, [(j_side, j_side)], 0.1) == []
    with pytest.raises(TooSmallError):
        good_vertices(g, i_side, [(j_side, j_side), (j_side, [])], 0.1)


def test_counting_toolbox_rejects_ids_outside_the_graph():
    g = build_graph(4, [(0, 3)])
    with pytest.raises(OutOfRangeError):
        ordered_edge_count(g, [-1], [0])
    with pytest.raises(OutOfRangeError):
        ordered_edge_count(g, [0], [4])
    with pytest.raises(OutOfRangeError):
        good_vertices(g, [-1], [([0], [0])], 0.5)


def test_good_vertex_count_bound_on_regular_pairs():
    # when every audited pair passes at epsilon, at least (1-2k eps)|I|
    # vertices are good for subsets equal to the full other side
    g = complete_bipartite(10, 10)
    i_side = list(range(10))
    j_side = list(range(10, 20))
    eps = 0.2
    audit = regular_pair_audit(g, i_side, j_side, epsilon=eps, seed=3)
    assert audit.passed
    good = good_vertices(g, i_side, [(j_side, j_side)], eps)
    assert len(good) >= (1 - 2 * 1 * eps) * len(i_side)


@st.composite
def regular_graphs(draw):
    # circulant graphs: always regular, cheap to build
    n = draw(st.integers(min_value=4, max_value=20))
    max_step = (n - 1) // 2
    steps = draw(st.sets(st.integers(min_value=1, max_value=max_step), min_size=1))
    edges = set()
    for s in steps:
        for v in range(n):
            edges.add(tuple(sorted((v, (v + s) % n))))
    return build_graph(n, edges)


@settings(max_examples=25, deadline=None)
@given(regular_graphs(), st.integers(min_value=0, max_value=10 ** 6))
def test_mixing_universal_on_circulants(g, salt):
    r = adjacency_spectrum(g)
    rng = np.random.default_rng(salt)
    for _ in range(20):
        u = rng.choice(g.n, size=rng.integers(1, g.n + 1), replace=False).tolist()
        v = rng.choice(g.n, size=rng.integers(1, g.n + 1), replace=False).tolist()
        _, _, _, ok = mixing_discrepancy(g, r, u, v)
        assert ok
