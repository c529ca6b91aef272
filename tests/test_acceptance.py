"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Heavy hosts are built once per module and shared.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from imforge.certify import verify, verify_adjuster
from imforge.gadgets import bipartite_k3_immersion, build_1_adjuster, chain_adjusters
from imforge.generators import paley, random_regular
from imforge.graphs import build_graph, normalize_edge, pair_density
from imforge.immersion_dense import GREEDY, PAPER, build_dense_immersion, one_factorization
from imforge.immersion_medium import build_medium_immersion, connect_units
from imforge.nibble import Hypergraph3, edge_disjoint_triangles, near_perfect_matching, triangle_hypergraph
from imforge.spectral import adjacency_spectrum
from imforge.subdivision import (
    PAlphaParams,
    build_balanced_subdivision,
    fixed_path_length,
    p_alpha_certificate,
)
from imforge.util import derive_seed, np_rng

from helpers import complete, complete_bipartite, complete_tripartite, cycle, petersen


# ----------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def paley401():
    g = paley(401)
    return g, adjacency_spectrum(g)


@pytest.fixture(scope="module")
def rr2000():
    g = random_regular(2000, 600, seed=7)
    return g, adjacency_spectrum(g)


@pytest.fixture(scope="module")
def rr5000():
    g = random_regular(5000, 60, seed=11)
    return g, adjacency_spectrum(g)


@pytest.fixture(scope="module")
def rr4096():
    g = random_regular(4096, 16, seed=8)
    return g, adjacency_spectrum(g)


@pytest.fixture(scope="module")
def bip512():
    rng = np_rng(21, "acceptance-bipartite")
    n1, n2 = 512, 4096
    mask = rng.random((n1, n2)) < 0.55
    edges = [(i, n1 + j) for i, j in zip(*np.nonzero(mask))]
    return build_graph(n1 + n2, edges)


def edge_sweep_clean(cert):
    """Global edge-disjointness check independent of the verifier."""
    all_edges = [normalize_edge(a, b)
                 for p in cert.pairs.values() for a, b in zip(p, p[1:])]
    return len(all_edges) == len(set(all_edges))


# ---------------------------------------------------------------- criteria

def test_criterion_01_spectral_exactness():
    started = time.time()
    for q in (13, 101, 401):
        r = adjacency_spectrum(paley(q))
        assert abs(r.lam - (1 + math.sqrt(q)) / 2) < 1e-6
    r_pet = adjacency_spectrum(petersen())
    assert abs(r_pet.lam - 2.0) <= 1e-8
    r_k10 = adjacency_spectrum(complete(10))
    assert (r_k10.n, r_k10.d) == (10, 9) and abs(r_k10.lam - 1.0) < 1e-8
    elapsed = time.time() - started
    assert elapsed < 5
    print(f"\n[criterion 1] PASS spectral exactness in {elapsed:.2f}s")


def test_criterion_02_mixing_universality():
    started = time.time()
    hosts = [paley(101)]
    hosts += [random_regular(1000, 20, seed=s) for s in range(10)]
    total = 0
    for idx, g in enumerate(hosts):
        r = adjacency_spectrum(g)
        mat = g.adjacency_matrix()
        rng = np.random.default_rng(derive_seed(2024, f"mixing:{idx}"))
        for _ in range(10 ** 4):
            su = int(rng.integers(1, 51))
            sv = int(rng.integers(1, 51))
            u = rng.choice(g.n, size=min(su, g.n), replace=False)
            v = rng.choice(g.n, size=min(sv, g.n), replace=False)
            observed = int(mat[np.ix_(u, v)].sum())
            expected = r.d * len(u) * len(v) / g.n
            bound = r.lam * math.sqrt(len(u) * len(v))
            assert abs(observed - expected) <= bound + 1e-9
            total += 1
    elapsed = time.time() - started
    assert elapsed < 30
    print(f"\n[criterion 2] PASS {total} mixing checks, zero violations, {elapsed:.2f}s")


FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
STS9 = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8),
        (0, 4, 8), (1, 5, 6), (2, 3, 7), (0, 5, 7), (1, 3, 8), (2, 4, 6)]


def brute_max_matching(triples):
    best = 0

    def rec(idx, used, size):
        nonlocal best
        best = max(best, size)
        if idx == len(triples) or size + (len(triples) - idx) <= best:
            return
        a, b, c = triples[idx]
        if not (used & {a, b, c}):
            rec(idx + 1, used | {a, b, c}, size + 1)
        rec(idx + 1, used, size)

    rec(0, set(), 0)
    return best


def test_criterion_03_nibble_small_cases():
    started = time.time()
    full9 = list(combinations(range(9), 3))
    m_full = near_perfect_matching(Hypergraph3.from_array(9, full9), seed=0)
    assert m_full.size == 3 == brute_max_matching(full9) == 3
    m_fano = near_perfect_matching(Hypergraph3.from_array(7, FANO), seed=0)
    assert m_fano.size == 1 == brute_max_matching(FANO)
    m_sts = near_perfect_matching(Hypergraph3.from_array(9, STS9), seed=0)
    assert m_sts.size == 3 == brute_max_matching(STS9)
    g222 = complete_tripartite(2, 2, 2)
    triangles, uncovered, _ = edge_disjoint_triangles(
        g222, ([0, 1], [2, 3], [4, 5]), seed=0)
    assert len(triangles) == 4 and uncovered == []
    used = [e for t in triangles for e in combinations(t, 2)]
    assert len(set(used)) == 12
    elapsed = time.time() - started
    assert elapsed < 1
    print(f"\n[criterion 3] PASS nibble small-case oracles in {elapsed:.2f}s")


def test_criterion_04_nibble_near_perfection():
    started = time.time()
    t = k = 200  # k = ceil(q t / p) with p = q = 1/2
    worst = 1.0
    for s in range(10):
        rng = np_rng(s, "acceptance-tripartite")
        mask_ab = rng.random((t, t)) < 0.5
        mask_ac = rng.random((t, k)) < 0.5
        mask_bc = rng.random((t, k)) < 0.5
        edges = [(i, t + j) for i, j in zip(*np.nonzero(mask_ab))]
        edges += [(i, 2 * t + j) for i, j in zip(*np.nonzero(mask_ac))]
        edges += [(t + i, 2 * t + j) for i, j in zip(*np.nonzero(mask_bc))]
        g = build_graph(2 * t + k, edges)
        h = triangle_hypergraph(g, (range(t), range(t, 2 * t),
                                    range(2 * t, 2 * t + k)))
        m = near_perfect_matching(h, seed=s)
        frac = m.achieved_fraction()
        worst = min(worst, frac)
        assert frac >= 0.8
    elapsed = time.time() - started
    assert elapsed < 60
    print(f"\n[criterion 4] PASS near-perfection, worst fraction {worst:.4f}, {elapsed:.2f}s")


def test_criterion_05_one_factorization():
    started = time.time()
    for m1 in range(2, 101):
        classes = one_factorization(m1)
        assert len(classes) == (m1 - 1 if m1 % 2 == 0 else m1)
        seen = set()
        for cls in classes:
            touched = set()
            for a, b in cls:
                assert (a, b) not in seen and a not in touched and b not in touched
                seen.add((a, b))
                touched.update((a, b))
        assert len(seen) == m1 * (m1 - 1) // 2
    elapsed = time.time() - started
    assert elapsed < 1
    print(f"\n[criterion 5] PASS 1-factorization exactness in {elapsed:.2f}s")


def test_criterion_06_dense_pipeline(paley401, rr2000):
    results = []
    for method in (GREEDY, PAPER):
        for name, (g, r) in (("paley401", paley401), ("rr2000x600", rr2000)):
            orders = []
            for eta in (0.4, 0.45):
                started = time.time()
                cert, diag = build_dense_immersion(g, r, eta=eta, seed=7, method=method)
                report = verify(g, cert)
                elapsed = time.time() - started
                assert elapsed < 120
                assert report.valid and not report.violations
                assert set(report.length_histogram) <= {1, 2, 3}
                assert edge_sweep_clean(cert)
                assert diag.achieved_order > 0
                orders.append(diag.achieved_order)
                results.append((method, name, eta, diag.achieved_order, f"{elapsed:.1f}s"))
            assert orders[0] >= orders[1]  # nonincreasing in eta
    print(f"\n[criterion 6] PASS dense pipeline: {results}")


def test_criterion_07_medium_pipeline(rr5000):
    g, r = rr5000
    started = time.time()
    assert r.d > 2 * r.lam  # empirical spectral-gap hypothesis
    from imforge.expanders import collect_units

    units = collect_units(g, count=8, h1=8, h2=3, h3=6)
    ledger = connect_units(g, units, max_len=8)
    ledger.check_invariants(units)  # edge-disjoint, off-branch, off-center
    cert, diag = build_medium_immersion(g, r, eta=0.45, seed=11,
                                        h_params=(8, 3, 6), target_order=8,
                                        max_len=8)
    report = verify(g, cert)
    elapsed = time.time() - started
    assert elapsed < 120
    assert report.valid and not report.violations
    print(f"\n[criterion 7] PASS medium pipeline: order {diag.achieved_order}, "
          f"{len(ledger.full_paths)} ledger paths, {elapsed:.1f}s")


def test_criterion_08_subdivision_pipeline(rr4096):
    g, r = rr4096
    started = time.time()
    cert, diag = build_balanced_subdivision(g, r, eta=0.5, seed=8)
    report = verify(g, cert)
    elapsed = time.time() - started
    assert elapsed < 120
    assert report.valid and not report.violations
    assert cert.kind == "subdivision"
    if cert.pairs:
        assert len(report.length_histogram) == 1  # balanced

    # arithmetic oracles at the stated tolerance
    n, d, lam, eta = 10 ** 10, 10 ** 5, 10.0, 0.2
    alpha = 1 - eta * eta / 16
    params = PAlphaParams(n0=eta * eta * n / 256, d0=3, alpha=alpha)
    ok, margin = p_alpha_certificate(n, d, lam, params)
    rhs = (params.n0 * 13) / (2 * n) + (lam / d) * (1 + math.sqrt(6))
    assert ok and abs(margin - ((1 - alpha) - rhs)) < 1e-12
    params_fail = PAlphaParams(n0=0.04 * 10 ** 6 / 256, d0=3, alpha=alpha)
    ok2, margin2 = p_alpha_certificate(10 ** 6, 10 ** 3, 10.0, params_fail)
    rhs2 = (params_fail.n0 * 13) / (2 * 10 ** 6) + (10.0 / 10 ** 3) * (1 + math.sqrt(6))
    assert (not ok2) and abs(margin2 - ((1 - alpha) - rhs2)) < 1e-12
    assert fixed_path_length(256, 3) == 11
    print(f"\n[criterion 8] PASS subdivision: order {diag.achieved_order}, "
          f"uniform length {diag.length + 2}, L-formula(256,3)=11, {elapsed:.1f}s")


def test_criterion_09_k3_gadget(bip512):
    started = time.time()
    g1 = complete_bipartite(64, 384)
    cert1 = bipartite_k3_immersion(g1, range(64), range(64, 448), p=2, seed=1,
                                   mode="strict")
    rep1 = verify(g1, cert1)
    assert rep1.valid and set(rep1.length_histogram) == {4}

    g2 = bip512
    a_side, b_side = list(range(512)), list(range(512, 512 + 4096))
    alpha = pair_density(g2, a_side, b_side)
    assert alpha >= 0.5
    p = int(min(alpha * 512 / 16, alpha * alpha * 4096 / 192))
    cert2 = bipartite_k3_immersion(g2, a_side, b_side, p=p, seed=2, mode="strict")
    rep2 = verify(g2, cert2)
    elapsed = time.time() - started
    assert elapsed < 30
    assert rep2.valid and set(rep2.length_histogram) == {4}
    assert rep2.path_count == p * (p - 1) // 2
    print(f"\n[criterion 9] PASS bipartite gadget: p={p}, all paths length 4, {elapsed:.1f}s")


def test_criterion_10_adjuster_parity():
    started = time.time()
    c6 = cycle(6)
    a_c6 = build_1_adjuster(c6, d_size=1, m=1)
    rep = verify_adjuster(c6, a_c6)
    assert rep.valid and sorted(rep.length_histogram) == [a_c6.ell, a_c6.ell + 2]

    pet = petersen()
    a_pet = build_1_adjuster(pet, d_size=2, m=2)
    rep = verify_adjuster(pet, a_pet)
    assert rep.valid and sorted(rep.length_histogram) == [a_pet.ell, a_pet.ell + 2]

    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    edges.append((2, 6))
    host = build_graph(12, edges)
    a1 = build_1_adjuster(host, removed_vertices=range(6, 12), d_size=1, m=1)
    a2 = build_1_adjuster(host, removed_vertices=range(6), d_size=1, m=1)
    chained = chain_adjusters(host, a1, a2, m=3)
    rep = verify_adjuster(host, chained)
    assert rep.valid and chained.k == 2
    assert sorted(rep.length_histogram) == [chained.ell, chained.ell + 2,
                                            chained.ell + 4]
    elapsed = time.time() - started
    assert elapsed < 5
    print(f"\n[criterion 10] PASS adjuster parity in {elapsed:.2f}s")


def test_criterion_11_determinism(paley401, rr5000, rr4096, bip512):
    started = time.time()
    g, r = paley401
    for method in (GREEDY, PAPER):
        dense = [build_dense_immersion(g, r, eta=0.45, seed=7, method=method)[0].to_json()
                 for _ in range(2)]
        assert dense[0] == dense[1]

    g, r = rr5000
    medium = [build_medium_immersion(g, r, eta=0.45, seed=11, h_params=(8, 3, 6),
                                     target_order=8, max_len=8)[0].to_json()
              for _ in range(2)]
    assert medium[0] == medium[1]

    g, r = rr4096
    subdiv = [build_balanced_subdivision(g, r, eta=0.5, seed=8)[0].to_json()
              for _ in range(2)]
    assert subdiv[0] == subdiv[1]

    g2 = bip512
    a_side, b_side = list(range(512)), list(range(512, 512 + 4096))
    k3 = [bipartite_k3_immersion(g2, a_side, b_side, p=5, seed=2).to_json()
          for _ in range(2)]
    assert k3[0] == k3[1]
    elapsed = time.time() - started
    print(f"\n[criterion 11] PASS byte-identical certificates on rerun, {elapsed:.1f}s")
