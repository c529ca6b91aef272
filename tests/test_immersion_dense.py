import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imforge.immersion_dense
from imforge.certify import verify
from imforge.errors import DegenerateTError, DomainError, ImforgeError, PreconditionFailedError
from imforge.generators import paley, random_regular
from imforge.graphs import build_graph, normalize_edge
from imforge.immersion_dense import (
    GREEDY,
    PAPER,
    build_dense_immersion,
    build_red_black,
    dense_partition,
    f_pairs,
    greedy_three_paths,
    one_factorization,
    replace_red_edges,
)
from imforge.spectral import adjacency_spectrum

from helpers import complete, ledger, path, reference_greedy_three_paths


class FakeReport:
    def __init__(self, n, d, lam=1.0):
        self.n = n
        self.d = d
        self.lam = lam


class FakeGraph:
    def __init__(self, n):
        self.n = n


def test_dense_partition_formulas_large():
    scheme = dense_partition(FakeGraph(10000), FakeReport(10000, 5000), eta=0.2)
    assert (scheme.t, scheme.f, scheme.m1, scheme.s, scheme.m2) == (10, 4000, 400, 10, 600)
    assert scheme.m2 >= scheme.m1


def test_dense_partition_formulas_medium():
    scheme = dense_partition(FakeGraph(1000), FakeReport(1000, 500), eta=0.4)
    assert (scheme.t, scheme.f, scheme.m1, scheme.s, scheme.m2) == (4, 300, 75, 4, 175)


def test_dense_partition_degenerate():
    with pytest.raises(DegenerateTError):
        dense_partition(FakeGraph(1000), FakeReport(1000, 100), eta=0.05)


def test_dense_partition_parts_partition_everything():
    g = random_regular(300, 150, seed=1)
    r = adjacency_spectrum(g)
    scheme = dense_partition(g, r, eta=0.45)
    flat_v = [v for part in scheme.v_parts for v in part]
    flat_u = [v for part in scheme.u_parts for v in part]
    assert sorted(flat_v + flat_u) == list(range(300))
    assert len(set(flat_v + flat_u)) == 300
    assert all(len(p) == scheme.t for p in scheme.v_parts[1:])
    assert len(scheme.v_parts[0]) < max(scheme.t, 1)


def test_red_black_complete_graph_no_red():
    g = complete(200)
    r = adjacency_spectrum(g)
    scheme = dense_partition(g, r, eta=0.3)
    rb = build_red_black(scheme, f_pairs(g, np.arange(scheme.f))[1])
    assert rb.red_total == 0 and rb.e0 == []


def test_red_black_e0_bound():
    g = random_regular(300, 150, seed=1)
    r = adjacency_spectrum(g)
    scheme = dense_partition(g, r, eta=0.45)
    rb = build_red_black(scheme, f_pairs(g, np.arange(scheme.f))[1])
    # leftover pairs: those touching V_0 (fewer than t vertices), plus those inside cells
    assert len(rb.e0) < scheme.t * scheme.f + scheme.m1 * scheme.t * (scheme.t - 1) / 2
    # red pairs are cross-part complement pairs only
    for (j, k), pairs in rb.red.items():
        pj, pk = set(scheme.v_parts[j]), set(scheme.v_parts[k])
        for a, b in pairs:
            assert not g.has_edge(a, b)
            assert (a in pj and b in pk) or (a in pk and b in pj)


@pytest.mark.parametrize("m1", list(range(2, 101)))
def test_one_factorization_exact(m1):
    classes = one_factorization(m1)
    expected_chi = m1 - 1 if m1 % 2 == 0 else m1
    assert len(classes) == expected_chi
    seen = set()
    for cls in classes:
        touched = set()
        for a, b in cls:
            assert 1 <= a < b <= m1
            assert (a, b) not in seen
            seen.add((a, b))
            assert a not in touched and b not in touched
            touched.update((a, b))
        if m1 % 2 == 0:
            assert len(cls) >= (m1 - 1) / 2
    assert len(seen) == m1 * (m1 - 1) // 2


def test_replace_red_edges_single_pair():
    # V1 = {0}, V2 = {1} non-adjacent, U1 = {2} adjacent to both
    g = build_graph(3, [(0, 2), (1, 2)])
    scheme = dense_partition_like(g, f=2, t=1, s=1)
    rb = build_red_black(scheme, f_pairs(g, np.arange(2))[1])
    free = ledger(g, [0, 1])
    assert free.matrix.sum() == 2
    two, leftover = replace_red_edges(rb, one_factorization(2), free, seed=0)
    assert two == {(0, 1): [0, 2, 1]}
    assert leftover == []
    assert np.array_equal(free.matrix, ledger(g, [0, 1], spent=[(0, 2), (1, 2)]).matrix)


def dense_partition_like(g, f, t, s):
    from imforge.immersion_dense import PartitionScheme

    m1 = f // t
    m2 = (g.n - f) // s
    f_verts = list(range(f))
    v0 = f - m1 * t
    v_parts = [tuple(f_verts[:v0])]
    for i in range(m1):
        v_parts.append(tuple(f_verts[v0 + i * t: v0 + (i + 1) * t]))
    rest = list(range(f, g.n))
    u0 = (g.n - f) - m2 * s
    u_parts = [tuple(rest[:u0])]
    for j in range(m2):
        u_parts.append(tuple(rest[u0 + j * s: u0 + (j + 1) * s]))
    return PartitionScheme(f=f, t=t, s=s, m1=m1, m2=m2, v_parts=v_parts, u_parts=u_parts)


def test_greedy_three_paths_k4_minus_edge():
    g = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    out, stuck = greedy_three_paths([(0, 1)], ledger(g, [0, 1]))
    assert stuck == []
    p = out[(0, 1)]
    assert p[0] == 0 and p[-1] == 1 and len(p) in (3, 4)


def test_greedy_three_paths_common_neighbor_gives_two_path():
    g = build_graph(3, [(0, 2), (1, 2)])
    out, stuck = greedy_three_paths([(0, 1)], ledger(g, [0, 1]))
    assert out[(0, 1)] == [0, 2, 1]


def test_greedy_three_paths_stuck():
    # path 0-2-3-1 with middle edge already consumed: no length-3 link left
    g = path(4)
    g = build_graph(4, [(0, 2), (2, 3), (3, 1)])
    out, stuck = greedy_three_paths([(0, 1)], ledger(g, [0, 1], spent=[(2, 3)]))
    assert stuck == [(0, 1)]


def test_dense_pipeline_complete_graph():
    g = complete(40)
    r = adjacency_spectrum(g)
    cert, diag = build_dense_immersion(g, r, eta=0.3, seed=1)
    report = verify(g, cert)
    assert report.valid, report.violations
    assert set(report.length_histogram) == {1}
    assert diag.achieved_order == len(cert.branch) == g.n - \
        (g.n - len(cert.branch))


def test_dense_pipeline_paley101():
    g = paley(101)
    r = adjacency_spectrum(g)
    cert, diag = build_dense_immersion(g, r, eta=0.45, seed=2)
    report = verify(g, cert)
    assert report.valid, report.violations
    assert set(report.length_histogram) <= {1, 2, 3}
    assert diag.achieved_order > 0
    all_edges = [normalize_edge(a, b)
                 for p in cert.pairs.values() for a, b in zip(p, p[1:])]
    assert len(all_edges) == len(set(all_edges))
    # middles of every non-trivial path stay outside the branch-set block F
    f_limit = diag.achieved_order  # F = lowest ids; branch is a subset
    for p in cert.pairs.values():
        for w in p[1:-1]:
            assert w >= len(cert.branch) or w not in set(cert.branch)


def test_dense_pipeline_strict_needs_gap():
    g = paley(101)
    r = adjacency_spectrum(g)
    with pytest.raises(PreconditionFailedError):
        build_dense_immersion(g, r, eta=0.45, mode="strict")


def strict_outcome(g, r, eta, method):
    """The error a strict run raises, as "type: message", or "ok" and the
    order it reached."""
    try:
        cert, diag = build_dense_immersion(g, r, eta=eta, seed=3, mode="strict", method=method)
    except ImforgeError as err:
        return f"{type(err).__name__}: {err}"
    assert verify(g, cert).valid
    return f"ok: {diag.achieved_order}"


@pytest.mark.parametrize("host, eta, gap, expect", [
    (lambda: build_graph(101, paley(101).edges()[1:]), 0.45, False, "NotRegularError"),
    (lambda: random_regular(200, 20, seed=4), 0.3, True, "degenerate cell size"),
    (lambda: paley(401), 0.45, False, "need d >= K*lambda"),
    (lambda: random_regular(200, 150, seed=3), 0.3, True, "need m2 >= chi"),
    (lambda: paley(401), 0.45, True, "ok: 110"),
], ids=["irregular", "degenerate-t", "gap", "m2-below-chi", "all-hold"])
def test_both_methods_run_the_same_strict_checks(monkeypatch, host, eta, gap, expect):
    # regularity, degenerate t, d >= K*lambda, m2 >= chi, in that order; no
    # desk-scale host meets d >= K*lambda, so ``gap`` forces K = 0
    if gap:
        prerequisites = imforge.immersion_dense.regularity_prerequisites
        monkeypatch.setattr(imforge.immersion_dense, "regularity_prerequisites",
                            lambda c, eta: (*prerequisites(c, eta)[:2], 0.0))
    g = host()
    r = adjacency_spectrum(g)
    greedy, paper = (strict_outcome(g, r, eta, m) for m in (GREEDY, PAPER))
    assert greedy == paper and expect in greedy


def test_unknown_method_is_a_domain_error():
    g = paley(13)
    with pytest.raises(DomainError, match="unknown method"):
        build_dense_immersion(g, adjacency_spectrum(g), eta=0.3, method="nibble")


def test_greedy_certificate_does_not_depend_on_the_seed():
    g = paley(401)
    r = adjacency_spectrum(g)
    certs = {build_dense_immersion(g, r, eta=0.45, seed=seed)[0].to_json() for seed in (0, 7, 99)}
    assert len(certs) == 1


def test_dense_pipeline_degenerate_fallback():
    g = random_regular(200, 20, seed=4)
    r = adjacency_spectrum(g)
    cert, diag = build_dense_immersion(g, r, eta=0.3, seed=4)
    assert diag.degenerate_fallback
    assert verify(g, cert).valid


def test_dense_pipeline_deterministic():
    g = paley(101)
    r = adjacency_spectrum(g)
    a, _ = build_dense_immersion(g, r, eta=0.4, seed=9)
    b, _ = build_dense_immersion(g, r, eta=0.4, seed=9)
    assert a.to_json() == b.to_json()


def test_pairs_3path_counts_length_three_paths():
    # at eta 0.1 some pairs need length-3 links; at eta 0.45 the greedy
    # linker finds only length-2 paths, which the counter must not report
    g = paley(101)
    r = adjacency_spectrum(g)
    for eta in (0.1, 0.45):
        cert, diag = build_dense_immersion(g, r, eta=eta, seed=7)
        assert diag.stuck == 0
        assert diag.pairs_3path == verify(g, cert).length_histogram.get(3, 0)


# -- the one-loop factorization and the cached linker against the code they replaced

def reference_one_factorization(m1):
    """The two-branch round-robin coloring one_factorization replaced."""
    classes = []
    if m1 % 2 == 0:
        mod = m1 - 1
        for r in range(mod):
            cls = [(min(m1 - 1, r) + 1, max(m1 - 1, r) + 1)]
            for i in range(1, m1 // 2):
                a = (r + i) % mod
                b = (r - i) % mod
                cls.append((min(a, b) + 1, max(a, b) + 1))
            classes.append(sorted(cls))
    else:
        for r in range(m1):
            cls = []
            for i in range(1, (m1 + 1) // 2):
                a = (r + i) % m1
                b = (r - i) % m1
                cls.append((min(a, b) + 1, max(a, b) + 1))
            classes.append(sorted(cls))
    return classes


def test_one_factorization_matches_the_two_branch_coloring():
    for m1 in range(2, 201):
        assert one_factorization(m1) == reference_one_factorization(m1), m1


@st.composite
def linker_cases(draw):
    """A random host, a random F, pairs inside F, and a random ledger.  F
    has few edges out, so that common neighbors are rare and most links
    need a middle edge, often with a choice of several."""
    n_f, n_out = draw(st.integers(2, 8)), draw(st.integers(2, 16))
    ids = draw(st.permutations(range(n_f + n_out)))
    f_set, out = ids[:n_f], ids[n_f:]
    edges = {normalize_edge(a, w) for a in f_set
             for w in draw(st.lists(st.sampled_from(out), max_size=3))}
    inner = [(a, b) for i, a in enumerate(out) for b in out[i + 1:]]
    inner += [(a, b) for i, a in enumerate(f_set) for b in f_set[i + 1:]]
    edges |= {normalize_edge(*e) for e in draw(st.lists(st.sampled_from(inner)))}
    f_pairs_all = [normalize_edge(a, b) for i, a in enumerate(f_set) for b in f_set[i + 1:]]
    pairs = draw(st.lists(st.sampled_from(f_pairs_all), unique=True))
    used = set(draw(st.lists(st.sampled_from(sorted(edges))))) if edges else set()
    return build_graph(n_f + n_out, sorted(edges)), pairs, used, f_set


@settings(max_examples=300, deadline=None)
@given(linker_cases())
def test_greedy_three_paths_matches_the_reference_linker(case):
    g, pairs, used, f_set = case
    free, ref_used = ledger(g, f_set, used), set(used)
    assert greedy_three_paths(pairs, free) == \
        reference_greedy_three_paths(g, pairs, ref_used, f_set)
    assert np.array_equal(free.matrix, ledger(g, f_set, ref_used).matrix)
