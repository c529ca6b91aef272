"""The dense pipeline's free-edge matrix against the set of used edges it
replaced.  ``reference_replace_red_edges`` and ``reference_greedy_three_paths``
(in ``helpers``) are the set-ledger stages as they were: black edges tested one by one with
``g.has_edge`` and a ``used`` set, and a linker with a per-vertex cache of
free neighbours.  Every stage output and the certificate must be the same
on Paley and random regular hosts over a grid of eta, on hosts whose cells
hold vertices with no neighbour in F, and with edges spent beforehand: for
the ``paper`` method with both stages, and for the default ``greedy`` method
with the linker alone on every non-adjacent pair of F."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imforge.certify import IMMERSION, EmbeddingCertificate, verify
from imforge.errors import DegenerateTError
from imforge.generators import paley, random_regular
from imforge.graphs import build_graph, normalize_edge
from imforge.immersion_dense import (
    GREEDY,
    PAPER,
    FreeEdges,
    PartitionScheme,
    build_dense_immersion,
    build_red_black,
    dense_partition,
    f_pairs,
    greedy_three_paths,
    one_factorization,
    replace_red_edges,
)
from imforge.spectral import adjacency_spectrum
from imforge.util import derive_seed, np_rng, peel_to_complete

from helpers import ledger, reference_greedy_three_paths, reference_replace_red_edges


def run_stages(g, report, eta, seed, replace, link, book):
    """The best-effort dense pipeline on one ledger ``book``, given its
    two stages (``replace`` None for the greedy method, which links every
    hole); returns every stage output and the certificate JSON."""
    try:
        scheme = dense_partition(g, report, eta)
    except DegenerateTError:
        scheme = None
    f = math.floor((1 - eta) * report.d)  # the size of F with or without a scheme
    inside, holes = f_pairs(g, np.arange(f))
    paths = {e: list(e) for e in map(tuple, inside.tolist())}
    two_paths, red_left = {}, []
    if replace is not None and scheme is not None and scheme.m1 >= 2:
        rb = build_red_black(scheme, holes)
        two_paths, red_left = replace(rb, one_factorization(scheme.m1), book, seed)
        leftovers = sorted(red_left + rb.e0)
    else:
        leftovers = list(map(tuple, holes.tolist()))
    three_paths, stuck = link(leftovers, book)
    paths.update(two_paths)
    paths.update(three_paths)
    branch = peel_to_complete(list(range(f)), paths) if stuck else list(range(f))
    cert = EmbeddingCertificate.from_paths(IMMERSION, branch, paths)
    return {"two_paths": list(two_paths.items()), "leftovers": red_left,
            "three_paths": list(three_paths.items()), "stuck": stuck,
            "cert": cert.to_json()}


def both_pipelines(g, report, eta, seed, method=PAPER):
    f = math.floor((1 - eta) * report.d)
    used = {normalize_edge(a, b) for a in range(f) for b in g.neighbors(a) if b < f}
    paper = method == PAPER
    ref = run_stages(
        g, report, eta, seed,
        (lambda rb, classes, book, s: reference_replace_red_edges(g, rb, classes, book, s))
        if paper else None,
        lambda pairs, book: reference_greedy_three_paths(g, pairs, book, range(f)),
        used)
    new = run_stages(g, report, eta, seed, replace_red_edges if paper else None,
                     greedy_three_paths, FreeEdges.of(g, np.arange(f)))
    return ref, new


HOSTS = {
    **{f"paley{q}": (lambda q=q: paley(q)) for q in (13, 37, 101, 197, 401)},
    **{f"rr{n}x{d}": (lambda n=n, d=d: random_regular(n, d, seed=3))
       for n, d in ((60, 30), (100, 20), (200, 150), (300, 40), (600, 24), (600, 300))},
}
_cache = {}


def host(name):
    if name not in _cache:
        g = HOSTS[name]()
        _cache[name] = (g, adjacency_spectrum(g))
    return _cache[name]


@pytest.mark.parametrize("eta", [0.1, 0.2, 0.3, 0.5, 0.7])
@pytest.mark.parametrize("name", list(HOSTS))
def test_matrix_ledger_matches_the_set_ledger(name, eta):
    g, report = host(name)
    ref, new = both_pipelines(g, report, eta, seed=7)
    assert new == ref
    cert, _ = build_dense_immersion(g, report, eta, seed=7, method=PAPER)
    assert cert.to_json() == ref["cert"]


@pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.7])
@pytest.mark.parametrize("name", list(HOSTS))
def test_greedy_method_matches_the_set_ledger_linker_on_all_holes(name, eta):
    g, report = host(name)
    ref, new = both_pipelines(g, report, eta, seed=7, method=GREEDY)
    assert new == ref and not ref["two_paths"]
    f = math.floor((1 - eta) * report.d)
    holes = list(map(tuple, f_pairs(g, np.arange(f))[1].tolist()))
    assert sorted([pair for pair, _ in ref["three_paths"]] + ref["stuck"]) == holes
    cert, diag = build_dense_immersion(g, report, eta, seed=7)
    assert cert.to_json() == ref["cert"]
    assert diag.reds_total is None and diag.reds_replaced_2path is None


@pytest.mark.parametrize("eta", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("name", ["paley101", "paley197", "paley401", "rr200x150", "rr600x300"])
def test_greedy_order_is_at_least_the_paper_order(name, eta):
    # differential test of the two methods: greedy is the default because it
    # never built a smaller immersion than the nibble stage on the hosts measured
    g, report = host(name)
    greedy, g_diag = build_dense_immersion(g, report, eta, seed=7, method=GREEDY)
    paper, p_diag = build_dense_immersion(g, report, eta, seed=7, method=PAPER)
    assert verify(g, greedy).valid and verify(g, paper).valid
    assert g_diag.achieved_order >= p_diag.achieved_order
    assert (g_diag.t, g_diag.m1, g_diag.m2) == (p_diag.t, p_diag.m1, p_diag.m2)


def test_the_grid_reaches_three_paths_stuck_pairs_and_shared_cells():
    # rr600x24 at eta 0.1 peels stuck pairs; rr200x150 at eta 0.3 has
    # m2 = 95 cells for chi = 105 classes, so two batches
    g, report = host("rr600x24")
    ref, _ = both_pipelines(g, report, 0.1, seed=7)
    assert ref["stuck"] and any(len(p) == 4 for _, p in ref["three_paths"])
    g, report = host("rr200x150")
    scheme = dense_partition(g, report, 0.3)
    assert scheme.m2 < len(one_factorization(scheme.m1))


def test_three_paths_on_rr300x40_at_eta_0_2():
    # the host of `imforge gen --n 300 --d 40 --seed 2`
    g = random_regular(300, 40, seed=derive_seed(2, "gen:random-regular"))
    report = adjacency_spectrum(g)
    ref, new = both_pipelines(g, report, 0.2, seed=7)
    assert new == ref
    assert sum(len(p) == 4 for _, p in new["three_paths"]) == 80
    cert, diag = build_dense_immersion(g, report, 0.2, seed=7)
    assert cert.to_json() == ref["cert"] and diag.pairs_3path == 80
    assert verify(g, cert).valid


@pytest.mark.parametrize("name, eta", [("paley101", 0.2), ("rr300x40", 0.3), ("rr600x24", 0.5)])
def test_pre_spent_vertex_gets_stuck_pairs(name, eta):
    g, report = host(name)
    f = math.floor((1 - eta) * report.d)
    holes = list(map(tuple, f_pairs(g, np.arange(f))[1].tolist()))
    # vertex 0 has no free edge left, and vertex 1 keeps only one
    spent = [normalize_edge(0, w) for w in g.neighbors(0) if w >= f]
    spent += [normalize_edge(1, w) for w in g.neighbors(1) if w >= f][1:]
    free, used = ledger(g, range(f), spent), set(spent)
    out, stuck = greedy_three_paths(holes, free)
    assert (out, stuck) == reference_greedy_three_paths(g, holes, used, range(f))
    assert np.array_equal(free.matrix, ledger(g, range(f), used).matrix)
    assert {p for p in holes if 0 in p} <= set(stuck)


def scattered_scheme(g, t, m1, s, m2, shuffle_seed):
    """F = a one-vertex cell 0 and m1 cells of size t, then m2 cells of
    size s, on shuffled ids: on a sparse host many cell vertices have no
    neighbour in F, so they have no ledger column."""
    order = np_rng(shuffle_seed, "scattered-scheme").permutation(g.n).tolist()
    f = 1 + m1 * t
    v_parts = [tuple(order[:1])] + [tuple(order[1 + i * t: 1 + (i + 1) * t]) for i in range(m1)]
    u_parts = [()] + [tuple(order[f + j * s: f + (j + 1) * s]) for j in range(m2)]
    return PartitionScheme(f=f, t=t, s=s, m1=m1, m2=m2, v_parts=v_parts, u_parts=u_parts)


def assert_same_replacement(g, scheme, share, seed):
    """Both replacements from a ledger with about ``share`` of the black
    edges, and every seventh, spent beforehand."""
    f_verts = np.array(scheme.f_set)
    black = sorted({normalize_edge(a, u) for a in scheme.f_set for u in g.neighbors(a)
                    if u not in set(scheme.f_set)})
    draws = np_rng(seed, "spent").random(len(black))
    spent = [e for i, (e, x) in enumerate(zip(black, draws)) if x < share or i % 7 == 0]
    rb = build_red_black(scheme, f_pairs(g, f_verts)[1])
    classes = one_factorization(scheme.m1)
    free, used = ledger(g, scheme.f_set, spent), set(spent)
    got = replace_red_edges(rb, classes, free, seed)
    assert got == reference_replace_red_edges(g, rb, classes, used, seed)
    assert np.array_equal(free.matrix, ledger(g, scheme.f_set, used).matrix)
    return got


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(200, 4), (200, 8), (120, 30)]), st.integers(1, 3), st.integers(3, 8),
       st.integers(1, 5), st.integers(1, 8), st.floats(0, 0.5), st.integers(0, 2 ** 32 - 1))
def test_replacement_matches_on_sparse_hosts_with_spent_edges(nd, t, m1, s, m2, share, seed):
    g = random_regular(*nd, seed=seed % 5)
    m2 = min(m2, (g.n - 1 - m1 * t) // s)
    assert_same_replacement(g, scattered_scheme(g, t, m1, s, m2, seed), share, seed)


def test_replacement_with_cell_vertices_outside_the_ledger():
    g = random_regular(200, 8, seed=4)
    scheme = scattered_scheme(g, t=2, m1=6, s=4, m2=3, shuffle_seed=0)
    free = FreeEdges.of(g, np.array(scheme.f_set))
    cells = [u for part in scheme.u_parts for u in part]
    assert min(free.col[cells]) == -1 and max(free.col[cells]) >= 0
    two_paths, leftovers = assert_same_replacement(g, scheme, 0.2, seed=4)
    assert two_paths and leftovers


def test_ledger_rows_and_columns():
    # F = {0, 1}; 2 and 3 are outside with neighbours in F, 4 is not
    g = build_graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    free = FreeEdges.of(g, np.array([0, 1]))
    assert free.w.tolist() == [2, 3]
    assert free.row.tolist() == [0, 1, 2, 3, -1] and free.col.tolist() == [-1, -1, 0, 1, -1]
    assert free.matrix.astype(int).tolist() == [[1, 0, 0], [0, 1, 0], [0, 1, 0], [1, 0, 0],
                                                [0, 0, 0]]
