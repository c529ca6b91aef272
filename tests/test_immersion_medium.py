import pytest

from imforge.certify import verify
from imforge.errors import (
    DomainError,
    IncompleteEmbeddingError,
    PreconditionFailedError,
    UnitShortfallError,
)
from imforge.expanders import collect_units
from imforge.generators import paley, random_regular
from imforge.graphs import build_graph, normalize_edge
from imforge.immersion_medium import build_medium_immersion, connect_units
from imforge.spectral import SpectralReport, adjacency_spectrum

from helpers import complete


def test_connect_units_pair_in_k30():
    g = complete(30)
    units = collect_units(g, count=2, h1=2, h2=2, h3=1)
    assert len(units) == 2
    ledger = connect_units(g, units, max_len=6)
    assert (0, 1) in ledger.full_paths
    ledger.check_invariants(units)
    full = ledger.full_paths[(0, 1)]
    assert full[0] == units[0].center and full[-1] == units[1].center
    assert len(set(full)) == len(full)


def test_connect_units_single_unit_empty_ledger():
    g = complete(20)
    units = collect_units(g, count=1, h1=2, h2=2, h3=1)
    ledger = connect_units(g, units, max_len=5)
    assert ledger.full_paths == {} and ledger.missing_pairs == []


def test_connect_units_disconnected_components():
    # two far-apart cliques: units in each, exteriors unreachable
    edges = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    edges += [(20 + u, 20 + v) for u in range(20) for v in range(u + 1, 20)]
    from imforge.graphs import build_graph, view_minus

    g = build_graph(40, edges)
    from imforge.expanders import build_unit

    u1 = build_unit(view_minus(g, (), ()), h1=2, h2=2, h3=1)
    u2 = build_unit(view_minus(g, {v for v in range(20)}, ()), h1=2, h2=2, h3=1)
    ledger = connect_units(g, [u1, u2], max_len=10)
    assert ledger.missing_pairs == [(0, 1)]


def test_medium_pipeline_k50():
    g = complete(50)
    r = adjacency_spectrum(g)
    cert, diag = build_medium_immersion(g, r, eta=0.1, seed=3,
                                        h_params=(3, 2, 2), target_order=5,
                                        max_len=6)
    report = verify(g, cert)
    assert report.valid, report.violations
    assert len(cert.branch) == diag.achieved_order >= 2


def test_medium_pipeline_trivial_when_target_collapses():
    g = complete(50)
    r = adjacency_spectrum(g)
    cert, diag = build_medium_immersion(g, r, eta=0.4, seed=3)
    # (1 - 5 eta) d < 2: certificate collapses but still verifies
    assert verify(g, cert).valid


def test_medium_pipeline_without_units_stands_in_vertex_0():
    g = paley(13)
    r = adjacency_spectrum(g)
    cert, diag = build_medium_immersion(g, r, eta=0.05)
    assert (cert.branch, cert.pairs, cert.ell) == ([0], {}, None)
    assert (diag.units_built, diag.pairs_connected, diag.pairs_missing,
            diag.achieved_order) == (0, 0, 0, 1)
    with pytest.raises(UnitShortfallError):
        build_medium_immersion(g, r, eta=0.05, mode="strict")
    cert, _ = build_medium_immersion(g, r, eta=0.05, mode="strict", target_order=1)
    assert (cert.branch, cert.pairs) == ([0], {})


def test_medium_pipeline_with_one_unit_keeps_its_center():
    # Paley(13) on 1..13 beside an isolated vertex 0: one unit, centered off 0
    p = paley(13)
    g = build_graph(14, [(u + 1, v + 1) for u, v in p.edges()])
    r = adjacency_spectrum(p)
    cert, diag = build_medium_immersion(g, r, eta=0.1)
    assert diag.h_params == (4, 1, 14)
    units = collect_units(g, count=3, h1=4, h2=1, h3=14)
    assert [u.center for u in units] == [1]
    assert (cert.branch, cert.pairs, cert.ell) == ([1], {}, None)
    assert (diag.units_built, diag.pairs_connected, diag.pairs_missing,
            diag.achieved_order) == (1, 0, 0, 1)
    with pytest.raises(UnitShortfallError):
        build_medium_immersion(g, r, eta=0.1, mode="strict")
    cert, _ = build_medium_immersion(g, r, eta=0.1, mode="strict", target_order=1)
    assert (cert.branch, cert.pairs) == ([1], {})


def test_medium_pipeline_keeps_every_linked_unit():
    # at eta 0.01 every unit spends pendant edges on its links and stays
    g = complete(40)
    r = adjacency_spectrum(g)
    kwargs = dict(eta=0.01, h_params=(2, 2, 1), target_order=3, max_len=8)
    cert, diag = build_medium_immersion(g, r, **kwargs)
    units = collect_units(g, count=3, h1=2, h2=2, h3=1)
    assert cert.branch == [u.center for u in units] == [0, 4, 10]
    assert (diag.units_built, diag.pairs_connected, diag.achieved_order) == (3, 3, 3)
    assert verify(g, cert).valid
    strict, _ = build_medium_immersion(g, r, mode="strict", **kwargs)
    assert strict.to_json() == cert.to_json()


def test_medium_pipeline_default_rr600x24_links_every_unit():
    # default parameters (h2 = 6): every star center keeps an edge for its
    # branch path, and every linked unit stays
    g = random_regular(600, 24, seed=3)
    cert, diag = build_medium_immersion(g, adjacency_spectrum(g), eta=0.1, seed=3)
    assert diag.achieved_order == len(cert.branch) >= 12
    assert verify(g, cert).valid


def test_medium_pipeline_rejects_an_empty_host():
    # the path-length scale m has no value at n = 0, even when every
    # parameter it would default is given
    report = SpectralReport(n=0, d=4, lam=0.0, lambda2=0.0, lambdan=0.0,
                            is_regular=False, tol=0.0)
    with pytest.raises(DomainError):
        build_medium_immersion(build_graph(0, []), report, eta=0.1,
                               h_params=(1, 1, 1), target_order=1, max_len=3)


@pytest.mark.parametrize("kwargs", [
    {"h_params": (0, 0, 0)},
    {"h_params": (-1, 1, 1)},
    {"h_params": (1, 0, 1)},
    {"h_params": (1, 1, 0)},
    {"target_order": -3},
    {"target_order": 0},
    {"max_len": 0},
])
def test_medium_pipeline_rejects_parameters_below_one(kwargs):
    g = paley(13)
    with pytest.raises(DomainError):
        build_medium_immersion(g, adjacency_spectrum(g), eta=0.1, **kwargs)


def test_medium_pipeline_strict_precondition():
    from helpers import cycle

    g = cycle(8)  # d = 2, lambda = sqrt(2): the gap hypothesis fails
    r = adjacency_spectrum(g)
    assert r.d <= 2 * r.lam
    with pytest.raises(PreconditionFailedError):
        build_medium_immersion(g, r, eta=0.1, mode="strict")


def test_medium_pipeline_strict_raises_on_unconnected_pairs():
    # one-edge connections link only 3 of the 6 pairs of the 4 units: strict
    # mode raises, best effort keeps the largest fully linked subset
    g = paley(101)
    r = adjacency_spectrum(g)
    kwargs = dict(eta=0.1, h_params=(2, 2, 4), target_order=4, max_len=1)
    with pytest.raises(IncompleteEmbeddingError):
        build_medium_immersion(g, r, mode="strict", **kwargs)
    cert, diag = build_medium_immersion(g, r, **kwargs)
    report = verify(g, cert)
    assert report.valid, report.violations
    assert diag.pairs_missing > 0 and diag.achieved_order < 4


def test_medium_pipeline_paley_best_effort():
    g = paley(101)
    r = adjacency_spectrum(g)
    assert r.d > 2 * r.lam
    cert, diag = build_medium_immersion(g, r, eta=0.45, seed=7,
                                        h_params=(4, 2, 3), target_order=6,
                                        max_len=8)
    report = verify(g, cert)
    assert report.valid, report.violations
    assert diag.achieved_order >= 4


def test_medium_pipeline_deterministic():
    g = paley(101)
    r = adjacency_spectrum(g)
    kwargs = dict(eta=0.45, seed=11, h_params=(3, 2, 3), target_order=5, max_len=8)
    cert_a, _ = build_medium_immersion(g, r, **kwargs)
    cert_b, _ = build_medium_immersion(g, r, **kwargs)
    assert cert_a.to_json() == cert_b.to_json()


def test_medium_full_paths_edge_disjoint_globally():
    g = random_regular(400, 30, seed=5)
    r = adjacency_spectrum(g)
    cert, diag = build_medium_immersion(g, r, eta=0.45, seed=5,
                                        h_params=(4, 2, 4), target_order=5,
                                        max_len=10)
    assert verify(g, cert).valid
    all_edges = [normalize_edge(a, b)
                 for path in cert.pairs.values() for a, b in zip(path, path[1:])]
    assert len(all_edges) == len(set(all_edges))
