import pytest

from imforge.certify import verify, verify_adjuster
from imforge.errors import (
    BadSizeError,
    DomainError,
    ExpansionFailedError,
    NoConnectionError,
    NoEvenCycleError,
    OutOfRangeError,
    OverlapError,
    PreconditionFailedError,
)
from imforge.gadgets import (
    bipartite_k3_immersion,
    build_1_adjuster,
    chain_adjusters,
    grow_expansion,
    shortest_even_cycle,
    trim_expansion,
)
from imforge.graphs import build_graph, view_minus

from helpers import complete, complete_bipartite, cycle, path, petersen, star


def brute_even_girth(g):
    """Exhaustive simple-cycle search; oracle for small graphs only."""
    best = None

    def dfs(start, v, visited, length):
        nonlocal best
        if best is not None and length >= best:
            return
        for w in g.neighbors(v):
            if w == start and length + 1 >= 3:
                total = length + 1
                if total % 2 == 0 and (best is None or total < best):
                    best = total
            elif w > start and w not in visited:
                dfs(start, w, visited | {w}, length + 1)

    for s in range(g.n):
        dfs(s, s, {s}, 0)
    return best


def cycle_length(c):
    return len(c) if c is not None else None


def test_even_cycle_c6():
    assert cycle_length(shortest_even_cycle(cycle(6))) == 6


def test_even_cycle_k4():
    assert cycle_length(shortest_even_cycle(complete(4))) == 4


def test_even_cycle_petersen():
    g = petersen()
    assert brute_even_girth(g) == 6
    found = shortest_even_cycle(g)
    assert cycle_length(found) == 6
    for a, b in zip(found, found[1:] + found[:1]):
        assert g.has_edge(a, b)


def test_even_cycle_tree_and_odd_cycle():
    assert shortest_even_cycle(path(7)) is None
    assert shortest_even_cycle(cycle(5)) is None


def test_even_cycle_bowtie_has_none():
    # two triangles sharing a vertex: closed even walks exist, even cycles do not
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert brute_even_girth(g) is None
    assert shortest_even_cycle(g) is None


def test_even_cycle_cap():
    assert shortest_even_cycle(cycle(8), cap=6) is None
    assert cycle_length(shortest_even_cycle(cycle(8), cap=8)) == 8


def test_even_cycle_matches_brute_force_on_circulants():
    for n, steps in ((9, (1, 2)), (10, (1, 3)), (11, (2, 3)), (12, (1, 5))):
        edges = {tuple(sorted((v, (v + s) % n))) for s in steps for v in range(n)}
        g = build_graph(n, edges)
        assert cycle_length(shortest_even_cycle(g)) == brute_even_girth(g)


def test_even_cycle_longer_than_the_recursion_limit():
    # the odd-path search keeps its own stack: a 1010-vertex path is fine
    found = shortest_even_cycle(cycle(1010))
    assert sorted(found) == list(range(1010))


def test_trim_expansion():
    g = star(5)
    exp = grow_expansion(view_minus(g), 0, size=6, radius=1)
    assert exp.vertices == (0, 1, 2, 3, 4, 5)
    assert trim_expansion(exp, 1).vertices == (0,)
    assert trim_expansion(exp, 6) == exp
    assert trim_expansion(exp, 3).vertices == (0, 1, 2)
    with pytest.raises(BadSizeError):
        trim_expansion(exp, 0)
    with pytest.raises(BadSizeError):
        trim_expansion(exp, 7)


def test_grow_expansion_radius_limit():
    g = path(6)
    with pytest.raises(ExpansionFailedError):
        grow_expansion(view_minus(g), 0, size=4, radius=2)
    exp = grow_expansion(view_minus(g), 0, size=3, radius=2)
    assert exp.vertices == (0, 1, 2)


@pytest.mark.parametrize("size", [0, -1])
def test_expansions_reject_a_size_below_one(size):
    # growing floors nothing: it rejects what trimming rejects
    with pytest.raises(BadSizeError):
        grow_expansion(view_minus(star(5)), 0, size=size, radius=1)
    with pytest.raises(BadSizeError):
        build_1_adjuster(cycle(6), d_size=size, m=1)


def test_1_adjuster_c6():
    g = cycle(6)
    adj = build_1_adjuster(g, d_size=1, m=1)
    assert adj.ell == 2 and adj.k == 1
    assert sorted(len(p) - 1 for p in adj.realizers) == [2, 4]
    assert adj.end1.vertices == (adj.u1,) and adj.end2.vertices == (adj.u2,)
    report = verify_adjuster(g, adj)
    assert report.valid, report.violations


def test_1_adjuster_petersen():
    g = petersen()
    adj = build_1_adjuster(g, d_size=2, m=2)
    assert adj.ell == 2  # seeded from a 6-cycle
    report = verify_adjuster(g, adj)
    assert report.valid, report.violations


def test_1_adjuster_on_a_long_cycle():
    # m = 16 * 1010 lets the m/16 cycle cap admit the whole cycle and the
    # 10mk budget hold its 1008 center vertices
    g = cycle(1010)
    adj = build_1_adjuster(g, d_size=1, m=16 * 1010)
    assert (adj.k, adj.ell, len(adj.center)) == (1, 504, 1008)
    report = verify_adjuster(g, adj)
    assert report.valid, report.violations


def test_1_adjuster_tree():
    with pytest.raises(NoEvenCycleError):
        build_1_adjuster(path(8), d_size=1, m=1)


def two_c6_bridge():
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    edges.append((2, 6))  # joins core 2 of the first cycle to core 6 of the second
    return build_graph(12, edges)


def test_chain_adjusters_k2():
    g = two_c6_bridge()
    a1 = build_1_adjuster(g, removed_vertices=range(6, 12), d_size=1, m=1)
    a2 = build_1_adjuster(g, removed_vertices=range(6), d_size=1, m=1)
    chained = chain_adjusters(g, a1, a2, m=3)
    assert chained.k == 2
    assert sorted(len(p) - 1 for p in chained.realizers) == [chained.ell,
                                                             chained.ell + 2,
                                                             chained.ell + 4]
    report = verify_adjuster(g, chained)
    assert report.valid, report.violations


def test_chain_adjusters_keeps_the_budget_it_was_given():
    # two C30s joined by the edge 14-30: each seed adjuster breaks the 10mk
    # center budget at m = 1, and so does their chain, which keeps m = 1
    edges = [(i, (i + 1) % 30) for i in range(30)]
    edges += [(30 + i, 30 + (i + 1) % 30) for i in range(30)]
    edges.append((14, 30))
    g = build_graph(60, edges)
    a1 = build_1_adjuster(g, removed_vertices=range(30, 60), d_size=1, m=1)
    a2 = build_1_adjuster(g, removed_vertices=range(30), d_size=1, m=1)
    assert [code for code, _ in verify_adjuster(g, a1).violations] == ["CENTER_BUDGET"]
    chained = chain_adjusters(g, a1, a2, m=1)
    assert (chained.k, chained.m, len(chained.center)) == (2, 1, 58)
    assert [code for code, _ in verify_adjuster(g, chained).violations] == ["CENTER_BUDGET"]


def test_chain_adjusters_disconnected():
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    g = build_graph(12, edges)
    a1 = build_1_adjuster(g, removed_vertices=range(6, 12), d_size=1, m=1)
    a2 = build_1_adjuster(g, removed_vertices=range(6), d_size=1, m=1)
    with pytest.raises(NoConnectionError):
        chain_adjusters(g, a1, a2, m=5)


def test_k3_immersion_p1():
    g = complete_bipartite(4, 4)
    cert = bipartite_k3_immersion(g, range(4), range(4, 8), p=1, seed=0)
    assert len(cert.branch) == 1 and cert.pairs == {}
    assert verify(g, cert).valid


def test_k3_immersion_k64_384():
    g = complete_bipartite(64, 384)
    cert = bipartite_k3_immersion(g, range(64), range(64, 448), p=2, seed=1,
                                  mode="strict")
    report = verify(g, cert)
    assert report.valid, report.violations
    assert report.length_histogram == {4: 1}
    path4 = next(iter(cert.pairs.values()))
    # middles alternate sides: B, A, B
    assert path4[1] >= 64 and path4[3] >= 64 and path4[2] < 64


def test_k3_immersion_strict_precondition():
    g = complete_bipartite(8, 8)
    with pytest.raises(PreconditionFailedError):
        bipartite_k3_immersion(g, range(8), range(8, 16), p=5, seed=0, mode="strict")


@pytest.mark.parametrize("a_side, b_side", [
    ([0, 1, 72], range(8, 72)),        # an A id equal to n
    ([-1, 0, 1], range(8, 72)),        # a negative A id
    (range(8), [*range(8, 72), 500]),  # a B id past n
])
def test_k3_immersion_rejects_ids_outside_the_host(a_side, b_side):
    g = complete_bipartite(8, 64)
    with pytest.raises(OutOfRangeError):
        bipartite_k3_immersion(g, a_side, b_side, p=2, seed=0)


@pytest.mark.parametrize("a_side, b_side", [
    ([0.0, 1.0, 2.0], range(8, 72)),       # float A ids
    (range(8), [True, *range(9, 72)]),     # a bool B id
])
def test_k3_immersion_rejects_ids_that_are_not_integers(a_side, b_side):
    g = complete_bipartite(8, 64)
    with pytest.raises(DomainError):
        bipartite_k3_immersion(g, a_side, b_side, p=2, seed=0)


def test_k3_immersion_rejects_sides_that_share_an_id():
    g = complete_bipartite(8, 64)
    with pytest.raises(OverlapError):
        bipartite_k3_immersion(g, range(9), range(8, 72), p=2, seed=0)


def random_bipartite(n1, n2, density, seed):
    import random

    rng = random.Random(seed)
    edges = [(i, n1 + j) for i in range(n1) for j in range(n2) if rng.random() < density]
    return build_graph(n1 + n2, edges)


def test_k3_immersion_best_effort_peels_stuck_pairs():
    # p = 4 breaks the density bound, so strict raises; best-effort gets
    # stuck on pair (5, 10) (it used to raise StuckError) and peels
    g = random_bipartite(24, 60, 0.5, seed=0)
    with pytest.raises(PreconditionFailedError):
        bipartite_k3_immersion(g, range(24), range(24, 84), p=4, seed=0, mode="strict")
    cert = bipartite_k3_immersion(g, range(24), range(24, 84), p=4, seed=0)
    report = verify(g, cert)
    assert report.valid, report.violations
    assert 2 <= len(cert.branch) < 4
    assert set(report.length_histogram) == {4}


@pytest.mark.parametrize("n1, n2, p", [(8, 8, 5), (4, 64, 6)])
def test_k3_immersion_best_effort_hub_shortfall(n1, n2, p):
    # the hub leaves fewer than p candidates: strict raises, best-effort
    # keeps the candidates there are and peels
    g = complete_bipartite(n1, n2)
    cert = bipartite_k3_immersion(g, range(n1), range(n1, n1 + n2), p=p, seed=0)
    assert verify(g, cert).valid
    assert len(cert.branch) < p and set(cert.branch) <= set(range(n1))


@pytest.mark.parametrize("p", [4, 6])
def test_k3_immersion_best_effort_keeps_a_pool_on_hub_shortfall(p):
    # the hub leaves 4 candidates: taking all of them as branch vertices
    # leaves no middle vertex and peels to order 1; one goes to the pool
    g = complete_bipartite(4, 64)
    with pytest.raises(PreconditionFailedError):
        bipartite_k3_immersion(g, range(4), range(4, 68), p=p, seed=0, mode="strict")
    cert = bipartite_k3_immersion(g, range(4), range(4, 68), p=p, seed=0)
    report = verify(g, cert)
    assert report.valid, report.violations
    assert cert.branch == [0, 1, 2]
    assert set(report.length_histogram) == {4}


@pytest.mark.parametrize("n1, n2, p", [(8, 8, 3), (8, 8, 5), (8, 8, 7), (3, 3, 2), (6, 6, 4)])
def test_k3_immersion_best_effort_keeps_order_two_without_strong_pairs(n1, n2, p):
    # every A-pair has codegree n2 < 3p, so the hub keeps no candidate and
    # no pool vertex is strong: best-effort used to return branch [];
    # linking through any common pool neighbour gives order 2 or more
    g = complete_bipartite(n1, n2)
    with pytest.raises(PreconditionFailedError):
        bipartite_k3_immersion(g, range(n1), range(n1, n1 + n2), p=p, seed=0, mode="strict")
    cert = bipartite_k3_immersion(g, range(n1), range(n1, n1 + n2), p=p, seed=0)
    report = verify(g, cert)
    assert report.valid, report.violations
    assert 2 <= len(cert.branch) <= p
    assert set(report.length_histogram) == {4}


def test_k3_immersion_medium_random():
    import random

    rng = random.Random(99)
    n1, n2 = 64, 1280
    edges = [(i, n1 + j) for i in range(n1) for j in range(n2) if rng.random() < 0.7]
    g = build_graph(n1 + n2, edges)
    from imforge.graphs import pair_density

    alpha = pair_density(g, range(n1), range(n1, n1 + n2))
    p = int(min(alpha * n1 / 16, alpha * alpha * n2 / 192))
    cert = bipartite_k3_immersion(g, range(n1), range(n1, n1 + n2), p=p, seed=2,
                                  mode="strict")
    report = verify(g, cert)
    assert report.valid, report.violations
    assert set(report.length_histogram) == {4}
    assert report.path_count == p * (p - 1) // 2


def test_adjuster_json_shape():
    import json

    g = cycle(6)
    adj = build_1_adjuster(g, d_size=1, m=1)
    obj = json.loads(adj.to_json())
    assert set(obj) == {"u1", "u2", "ends", "A", "k", "ell", "realizers"}
    assert obj["k"] == 1 and len(obj["realizers"]) == 2
