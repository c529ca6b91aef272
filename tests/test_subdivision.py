import math

import numpy as np
import pytest

from imforge.certify import verify
from imforge.errors import (
    InsufficientStarsError,
    PreconditionFailedError,
    RoutingFailedError,
    SampleFailedError,
)
from imforge import subdivision
from imforge.generators import random_regular
from imforge.graphs import build_graph
from imforge.spectral import SpectralReport, adjacency_spectrum
from imforge.subdivision import (
    RESERVOIR_RETRIES,
    PAlphaParams,
    _route_all,
    audit_sprime,
    build_balanced_subdivision,
    draw_reservoir,
    fixed_path_length,
    pack_disjoint_stars,
    p_alpha_certificate,
    reservoir_conditions,
    sample_reservoir,
)
from imforge.util import np_rng

from helpers import complete, hypercube, path


def test_pack_stars_hypercube():
    g = hypercube(4)
    r = adjacency_spectrum(g)
    stars = pack_disjoint_stars(g, r, eta=0.25, t=3)
    assert len(stars) == 3
    assert all(len(s.leaves) == 3 for s in stars)
    blocks = [set(s.leaves) | {s.center} for s in stars]
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            assert not (a & b)


def test_pack_stars_k5_insufficient():
    g = complete(5)
    r = adjacency_spectrum(g)
    stars = pack_disjoint_stars(g, r, eta=0.25, t=3)
    assert len(stars) == 1


def padded_host(cliques: int) -> tuple:
    """Disjoint K5s padded with isolated vertices, and a report with lambda
    set to 0 that claims regularity: large and gapped enough on paper to pass
    the strict regularity check, spectral window and expansion certificate at
    eta = 0.5."""
    n = 14000
    g = build_graph(n, [(5 * c + a, 5 * c + b) for c in range(cliques)
                        for a in range(5) for b in range(a + 1, 5)])
    report = SpectralReport(n=n, d=4, lam=0.0, lambda2=0.0, lambdan=0.0,
                            is_regular=True, tol=0.0)
    return g, report


def test_strict_pipeline_raises_on_star_shortfall():
    g, report = padded_host(1)  # one K5 holds one star; t = 2 are needed
    with pytest.raises(InsufficientStarsError) as err:
        build_balanced_subdivision(g, report, eta=0.5, mode="strict")
    assert err.value.found == 1 and err.value.wanted == 2


def test_strict_pipeline_raises_on_rejected_reservoir():
    g, report = padded_host(2)  # isolated vertices fail the outside event
    with pytest.raises(SampleFailedError):
        build_balanced_subdivision(g, report, eta=0.5, mode="strict")
    _, diag = build_balanced_subdivision(g, report, eta=0.5)
    assert diag.reservoir_attempts == RESERVOIR_RETRIES and not diag.reservoir_strict


def test_pipeline_reports_unrouted_pairs(monkeypatch):
    # with the reservoir accepted, leaves in different K5s have no path
    g, report = padded_host(2)
    monkeypatch.setattr(subdivision, "reservoir_conditions",
                        lambda *args: (True, True, {}))
    with pytest.raises(RoutingFailedError) as err:
        build_balanced_subdivision(g, report, eta=0.5, mode="strict")
    assert err.value.pair == (1, 6)
    cert, diag = build_balanced_subdivision(g, report, eta=0.5)
    assert diag.achieved_order == len(cert.branch) == 1 and diag.failed_pairs == 1


def test_pack_stars_with_target_override():
    g = random_regular(500, 120, seed=1)
    r = adjacency_spectrum(g)
    stars = pack_disjoint_stars(g, r, eta=0.9, t=5)
    assert len(stars) == 5


def test_reservoir_accepts_on_rich_graph():
    g = random_regular(500, 120, seed=1)
    r = adjacency_spectrum(g)
    stars = pack_disjoint_stars(g, r, eta=0.5, t=2)
    sample, draws, accepted = sample_reservoir(g, stars, eta=0.5, seed=3)
    assert accepted and 1 <= draws <= RESERVOIR_RETRIES
    mask = np.zeros(g.n, dtype=bool)
    mask[list(sample)] = True
    leaf_ok, outside_ok, info = reservoir_conditions(g, stars, eta=0.5, sample=mask)
    assert leaf_ok and outside_ok
    assert info["worst_outside"] >= info["need_outside"]


def test_reservoir_fails_on_tight_graph():
    # star leaves exactly at the threshold: removing any leaf kills event one,
    # and with eta this small the per-vertex outside event is also hopeless
    g = hypercube(4)
    r = adjacency_spectrum(g)
    stars = pack_disjoint_stars(g, r, eta=0.25, t=3)
    sample, draws, accepted = sample_reservoir(g, stars, eta=0.25, seed=0)
    assert not accepted and draws == RESERVOIR_RETRIES
    # the best rejected draw, or the fallback draw, is still a vertex sample
    assert sample <= set(range(g.n)) - {s.center for s in stars}


def test_reservoir_draw_deterministic():
    g = complete(50)
    a = draw_reservoir(g, [0, 1], eta=0.3, seed=7)
    b = draw_reservoir(g, [0, 1], eta=0.3, seed=7)
    assert np.array_equal(a, b) and a.dtype == bool and not a[[0, 1]].any()


def test_reservoir_draw_matches_the_former_set_draw():
    # the draw that built a pool list and a set: one Generator.random over
    # the non-center vertices in ascending order, whose bits ``uniforms``
    # reads from the raw words
    g = random_regular(300, 6, seed=4)
    for centers, eta, seed in (([], 0.5, 1), ([7, 3, 299], 0.1, 2), (range(0, 300, 2), 0.9, 3)):
        pool = [v for v in range(g.n) if v not in set(centers)]
        hits = np_rng(seed, "reservoir").random(len(pool)) < (1 - eta / 4)
        former = {v for v, hit in zip(pool, hits) if hit}
        assert set(np.flatnonzero(draw_reservoir(g, centers, eta, seed)).tolist()) == former


def test_p_alpha_pass_case():
    # hand-evaluated inequality at large scale
    n, d, lam, eta = 10 ** 10, 10 ** 5, 10.0, 0.2
    alpha = 1 - eta * eta / 16
    params = PAlphaParams(n0=eta * eta * n / 256, d0=3, alpha=alpha)
    rhs = (params.n0 * 13) / (2 * n) + (lam / d) * (1 + math.sqrt(6))
    ok, margin = p_alpha_certificate(n, d, lam, params)
    assert ok
    assert abs(margin - ((1 - alpha) - rhs)) < 1e-12
    assert abs(rhs - 1.3605739742783179e-3) < 1e-12


def test_p_alpha_fail_case():
    n, d, lam, eta = 10 ** 6, 10 ** 3, 10.0, 0.2
    alpha = 1 - eta * eta / 16
    params = PAlphaParams(n0=eta * eta * n / 256, d0=3, alpha=alpha)
    ok, margin = p_alpha_certificate(n, d, lam, params)
    assert not ok
    assert abs(margin - (0.0025 - (156.25 * 13 / 2e6 + 0.01 * (1 + math.sqrt(6))))) < 1e-12


def test_p_alpha_zero_lambda_limit():
    params = PAlphaParams(n0=100.0, d0=3, alpha=0.9)
    ok, margin = p_alpha_certificate(10 ** 12, 100, 0.0, params)
    assert ok and abs(margin - (0.1 - 100 * 13 / 2e12)) < 1e-15


def test_fixed_path_length_formula():
    assert fixed_path_length(256, 3) == 2 * 4 + 3 == 11
    assert fixed_path_length(16, 3) == 3
    assert fixed_path_length(32, 3) == 5
    assert fixed_path_length(1024, 5) == 2 * 3 + 3
    # a ratio off every integer takes the plain ceiling: log2(195.3125 / 16)
    # is 3.61, the rr200000x16 value at eta 0.5
    assert fixed_path_length(195.3125, 3) == 11


def test_connect_exact_path_graph():
    # host graph is exactly a length-5 path between the endpoints
    g = path(6)
    length = fixed_path_length(32, 3)
    by_pair, failed = _route_all(g, [(0, 5)], {0, 5}, length)
    assert by_pair == {(0, 5): [0, 1, 2, 3, 4, 5]} and failed == []


def test_connect_two_disjoint_paths():
    edges = [(i, i + 1) for i in range(5)] + [(6 + i, 6 + i + 1) for i in range(5)]
    g = build_graph(12, edges)
    by_pair, _ = _route_all(g, [(0, 5), (6, 11)], {0, 5, 6, 11}, 5)
    paths = [by_pair[(0, 5)], by_pair[(6, 11)]]
    assert not (set(paths[0]) & set(paths[1]))
    assert all(len(p) - 1 == 5 for p in paths)


def test_connect_length_violation():
    g = path(4)
    assert _route_all(g, [(0, 3)], {0, 3}, 5) == ({}, [(0, 3)])  # needs length 5


def test_connect_audits_sprime_load():
    # the middle vertex has both its neighbors in S'
    ok, worst = audit_sprime(path(3), {0, 1, 2}, beta=0.8)
    assert not ok and worst == 1.0


def test_subdivision_pipeline_small():
    g = random_regular(400, 12, seed=2)
    r = adjacency_spectrum(g)
    cert, diag = build_balanced_subdivision(g, r, eta=0.5, seed=2)
    report = verify(g, cert)
    assert report.valid, report.violations
    if cert.pairs:
        assert len(report.length_histogram) == 1
        (length,) = report.length_histogram
        assert length == diag.length + 2
        assert cert.ell == length - 1
    assert diag.achieved_order == len(cert.branch) >= 2


def test_subdivision_pipeline_strict_window_fails_small():
    g = random_regular(400, 12, seed=2)
    r = adjacency_spectrum(g)
    with pytest.raises(PreconditionFailedError):
        build_balanced_subdivision(g, r, eta=0.5, seed=2, mode="strict")


def test_subdivision_deterministic():
    g = random_regular(400, 12, seed=2)
    r = adjacency_spectrum(g)
    a, _ = build_balanced_subdivision(g, r, eta=0.5, seed=5)
    b, _ = build_balanced_subdivision(g, r, eta=0.5, seed=5)
    assert a.to_json() == b.to_json()


def test_subdivision_power_variant():
    g = random_regular(400, 12, seed=2)
    r = adjacency_spectrum(g)
    cert, diag = build_balanced_subdivision(g, r, eta=0.5, seed=2,
                                            variant="d0-power")
    assert verify(g, cert).valid
    assert diag.d0 >= 3


def test_pipeline_drops_the_star_whose_pool_runs_short(monkeypatch):
    # no reservoir draw keeps a leaf of the third star, so its pool cannot
    # give a leaf toward each other star and the trim drops it
    g = random_regular(400, 12, seed=2)
    r = adjacency_spectrum(g)
    stars = pack_disjoint_stars(g, r, 0.5, 6)
    centers = [s.center for s in stars]
    cert, _ = build_balanced_subdivision(g, r, eta=0.5, seed=2)
    assert cert.branch == centers
    lost = list(stars[2].leaves)

    def draw_without_lost(*args):
        sample = draw_reservoir(*args)
        sample[lost] = False
        return sample

    monkeypatch.setattr(subdivision, "draw_reservoir", draw_without_lost)
    cert, diag = build_balanced_subdivision(g, r, eta=0.5, seed=2)
    assert cert.branch == centers[:2] + centers[3:]
    assert diag.failed_pairs == 0
    assert verify(g, cert).valid
