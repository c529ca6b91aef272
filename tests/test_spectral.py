import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import imforge.spectral as spectral
from imforge.errors import NotConvergedError
from imforge.generators import paley, random_regular
from imforge.graphs import build_graph
from imforge.spectral import adjacency_spectrum

from helpers import complete, complete_bipartite, cycle, petersen


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


def two_copies(g):
    edges = np.array(g.edges())
    return build_graph(2 * g.n, np.vstack([edges, edges + g.n]))


def paley101_minus_an_edge():
    g = paley(101)
    return build_graph(g.n, g.edges()[1:])


@pytest.mark.parametrize("host,solver", [
    (lambda: random_regular(600, 24, 1), "_deflated_lanczos"),
    (lambda: random_regular(1000, 3, 2), "_deflated_lanczos"),
    (lambda: paley(101), "_deflated_lanczos"),
    (lambda: cycle(101), "_deflated_lanczos"),
    (lambda: complete_bipartite(50, 50), "_deflated_lanczos"),
    (lambda: two_copies(random_regular(600, 24, 1)), "_deflated_lanczos"),
    (paley101_minus_an_edge, "eigsh"),
], ids=["rr600x24", "rr1000x3", "paley101", "c101", "k50-50", "two-rr600x24",
        "paley101-minus-an-edge"])
def test_one_lanczos_run_matches_the_dense_solver(monkeypatch, host, solver):
    # differential test of the iterative path against eigvalsh: one deflated
    # Lanczos run per regular report (two copies of rr600x24 have lambda_2 =
    # d), one eigsh call per irregular one, and the same ends
    g = host()
    dense = adjacency_spectrum(g)
    calls = []
    for module, name in ((spectral, "_deflated_lanczos"), (scipy.sparse.linalg, "eigsh")):
        def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 0)
    r = adjacency_spectrum(g)
    assert calls == [solver]
    assert r.spectrum is None and r.tol == spectral.ITERATIVE_TOL
    assert (r.n, r.d, r.is_regular) == (dense.n, dense.d, dense.is_regular)
    for got, want in ((r.lambda2, dense.lambda2), (r.lambdan, dense.lambdan),
                      (r.lam, dense.lam)):
        assert abs(got - want) < 1e-8


@pytest.mark.parametrize("host,steps", [
    (lambda: complete(10), 1),
    (petersen, 2),
    (lambda: paley(101), 2),
    (lambda: complete_bipartite(50, 50), 2),
], ids=["k10", "petersen", "paley101", "k50-50"])
def test_lanczos_stops_at_breakdown(monkeypatch, host, steps):
    # 1-perp holds one or two distinct eigenvalues, so the Krylov space is
    # invariant after as many steps and the run ends there, not at a check
    sizes = []
    ritz_ends = spectral._ritz_ends
    monkeypatch.setattr(spectral, "_ritz_ends",
                        lambda alphas, betas: sizes.append(len(alphas)) or ritz_ends(alphas, betas))
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 0)
    adjacency_spectrum(host())
    assert sizes == [steps]


def test_lanczos_checks_every_ten_steps_then_on_a_growing_schedule(monkeypatch):
    # C5000 breaks down after 2500 steps: checks come every 10 steps through
    # step 550, then step // 50 apart, so the run makes 134 checks, not 250
    sizes = []
    ritz_ends = spectral._ritz_ends
    monkeypatch.setattr(spectral, "_ritz_ends",
                        lambda alphas, betas: sizes.append(len(alphas)) or ritz_ends(alphas, betas))
    r = adjacency_spectrum(cycle(5000))
    assert sizes[:55] == list(range(10, 551, 10))
    gaps = [b - a for a, b in zip(sizes, sizes[1:-1])]
    assert gaps == [max(10, k // 50) for k in sizes[:-2]]
    assert sizes[-1] == 2500 and len(sizes) == 134
    assert abs(r.lam - 2.0) < 1e-4


def test_lanczos_past_its_step_cap_is_not_converged(monkeypatch):
    # rr600x24 needs 80 steps; 0.05 steps per vertex allows 30
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(spectral, "LANCZOS_STEPS_PER_VERTEX", 0.05)
    with pytest.raises(NotConvergedError):
        adjacency_spectrum(random_regular(600, 24, 1))


def test_single_vertex_report():
    r = adjacency_spectrum(build_graph(1, []))
    assert (r.n, r.d, r.lam, r.lambda2, r.lambdan) == (1, 0, 0.0, 0.0, 0.0)
    assert r.spectrum.tolist() == [0.0] and r.tol == spectral.DENSE_TOL


@pytest.mark.parametrize("host", [
    lambda: paley(401),
    lambda: random_regular(2048, 16, 8),
    lambda: complete_bipartite(50, 50),
    lambda: build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    lambda: build_graph(1, []),
], ids=["paley401", "rr2048x16", "k50-50", "two-triangles", "single-vertex"])
def test_dense_spectrum_is_bit_identical_to_eigvalsh_of_the_int8_matrix(host):
    # the in-place Fortran-order solve reads the same bytes as the copy
    # LAPACK's wrapper made of the C-ordered float64 matrix
    g = host()
    expect = scipy.linalg.eigvalsh(g.adjacency_matrix().astype(np.float64))[::-1]
    assert np.array_equal(adjacency_spectrum(g).spectrum, expect)


def test_dense_solve_traced_peak_is_one_matrix():
    """Traced peak of the dense path on rr1024x16 over 8n^2, the bytes of one
    float64 matrix.  Measured with tracemalloc on CPython 3.11, numpy 2.4 and
    scipy 1.17: 2.17 for the solve of commit 59a30b3 (int8 cache, float64
    copy, and the Fortran copy LAPACK's wrapper made), 1.04 for one buffer
    that LAPACK overwrites."""
    g = random_regular(1024, 16, 3)
    gc.collect()
    tracemalloc.start()
    try:
        report = adjacency_spectrum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.spectrum is not None
    assert peak <= 1.15 * 8 * g.n ** 2


def test_trace_identities_small_graphs():
    for g in (petersen(), complete(7), cycle(9)):
        r = adjacency_spectrum(g)
        assert abs(r.spectrum.sum()) < g.n * r.tol + 1e-9
        assert abs((r.spectrum ** 2).sum() - 2 * g.m) < g.n * r.tol + 1e-6


def test_cut_two_triangles_boundary():
    # disconnected union of two triangles: lambda = d = 2, so the cut floor
    # (d - lambda)|B||V-B|/n is vacuous, as it must be for a cut of no edges
    r = adjacency_spectrum(build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    assert r.d == 2 and abs(r.lam - 2.0) < 1e-8


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


def assert_mixing(g, rng, trials):
    """The mixing lemma |e(U,V) - d|U||V|/n| <= lambda sqrt(|U||V|) on random
    vertex sets, with e(U,V) counted directly as ordered adjacent pairs, so an
    edge inside both U and V counts twice."""
    r = adjacency_spectrum(g)
    mat = g.adjacency_matrix()
    for _ in range(trials):
        u = rng.choice(g.n, size=rng.integers(1, g.n + 1), replace=False)
        v = rng.choice(g.n, size=rng.integers(1, g.n + 1), replace=False)
        observed = int(mat[np.ix_(u, v)].sum())
        expected = r.d * len(u) * len(v) / g.n
        assert abs(observed - expected) <= r.lam * math.sqrt(len(u) * len(v)) + 1e-9


def test_mixing_always_passes_on_certified_graph():
    assert_mixing(petersen(), np.random.default_rng(5), 300)


@settings(max_examples=25, deadline=None)
@given(regular_graphs(), st.integers(min_value=0, max_value=10 ** 6))
def test_mixing_universal_on_circulants(g, salt):
    assert_mixing(g, np.random.default_rng(salt), 20)
