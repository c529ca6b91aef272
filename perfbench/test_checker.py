"""Tests of the benchmark's output checker on the acceptance outputs.

    PYTHONPATH=src python3 -m pytest perfbench -q

Every unmodified acceptance certificate (criteria 6, 7, 8 and 9, built at
their acceptance sizes and seeds) must pass the checker, and each listed
mutation of it must be rejected with the matching violation code.
"""

import json

import numpy as np
import pytest

from imforge import certify, generators, graphs
from imforge.gadgets import bipartite_k3_immersion
from imforge.immersion_dense import build_dense_immersion
from imforge.immersion_medium import build_medium_immersion
from imforge.spectral import adjacency_spectrum
from imforge.subdivision import build_balanced_subdivision

from checker import check_certificate
from workloads import Host, bipartite_host


def _k3(host: Host, p: int, seed: int):
    a_side, b_side = host.parts
    return bipartite_k3_immersion(host.graph(), a_side, b_side, p=p, seed=seed, mode="strict")


@pytest.fixture(scope="module")
def acceptance():
    """name -> (host, certificate JSON) for every acceptance certificate."""
    out = {}
    for name, g in (("paley401", generators.paley(401)),
                    ("rr2000x600", generators.random_regular(2000, 600, seed=7))):
        report = adjacency_spectrum(g)
        for eta in (0.4, 0.45):
            cert, _ = build_dense_immersion(g, report, eta=eta, seed=7)
            out[f"{name}-eta{eta}"] = (Host.of(g), cert.to_json())
    g = generators.random_regular(5000, 60, seed=11)
    cert, _ = build_medium_immersion(g, adjacency_spectrum(g), eta=0.45, seed=11,
                                     h_params=(8, 3, 6), target_order=8, max_len=8)
    out["rr5000x60-crit7"] = (Host.of(g), cert.to_json())
    g = generators.random_regular(4096, 16, seed=8)
    cert, _ = build_balanced_subdivision(g, adjacency_spectrum(g), eta=0.5, seed=8)
    out["rr4096x16-subdivide"] = (Host.of(g), cert.to_json())
    bip = bipartite_host(512, 4096, 0.55, 21)
    alpha = len(bip.edges) / (512 * 4096)
    p = int(min(alpha * 512 / 16, alpha * alpha * 4096 / 192))
    out["bip512-k3"] = (bip, _k3(bip, p, 2).to_json())
    k64 = Host.of(graphs.build_graph(448, [(i, 64 + j) for i in range(64) for j in range(384)]),
                  (range(64), range(64, 448)))
    out["k64x384-k3"] = (k64, _k3(k64, 2, 1).to_json())
    return out


NAMES = ["paley401-eta0.4", "paley401-eta0.45", "rr2000x600-eta0.4", "rr2000x600-eta0.45",
         "rr5000x60-crit7", "rr4096x16-subdivide", "bip512-k3", "k64x384-k3"]


@pytest.mark.parametrize("name", NAMES)
def test_acceptance_certificate_passes(acceptance, name):
    host, payload = acceptance[name]
    assert certify.verify(host.graph(), certify.EmbeddingCertificate.from_json(payload)).valid
    assert check_certificate(host.n, host.edges, json.loads(payload)) == []


def _replace_vertex(cert: dict, old: int, new) -> None:
    cert["branch"] = [new if v == old else v for v in cert["branch"]]
    for p in cert["pairs"]:
        p["path"] = [new if v == old else v for v in p["path"]]


def _concatenate(cert: dict) -> bool:
    """Replace the path of a pair (i, k) by path(i, j) followed by
    path(j, k): it runs through branch vertex j and reuses every edge of
    both.  False when the certificate has no such simple concatenation."""
    paths = {(p["i"], p["j"]): p for p in cert["pairs"]}
    t = len(cert["branch"])
    for i in range(t):
        for j in range(i + 1, t):
            for k in range(j + 1, t):
                joined = paths[(i, j)]["path"] + paths[(j, k)]["path"][1:]
                if len(set(joined)) == len(joined):
                    paths[(i, k)]["path"] = joined
                    return True
    return False


def drop_pair(cert: dict, n: int) -> bool:
    cert["pairs"].pop(0)
    return True


def through_branch(cert: dict, n: int) -> bool:
    # a path through a branch vertex is legal in an immersion
    return cert["kind"] == "subdivision" and _concatenate(cert)


def bogus_kind(cert: dict, n: int) -> bool:
    cert["kind"] = "bogus"
    return True


def bool_id(cert: dict, n: int) -> bool:
    _replace_vertex(cert, cert["branch"][0], True)
    return True


def out_of_range_id(cert: dict, n: int) -> bool:
    _replace_vertex(cert, cert["branch"][0], n)
    return True


def shift_ell(cert: dict, n: int) -> bool:
    longest = max(len(p["path"]) - 1 for p in cert["pairs"])
    cert["ell"] = cert["ell"] + 1 if cert["ell"] is not None else longest
    return True


# name: (mutation, returning False where it does not apply; expected code)
MUTATIONS = {
    "drop_pair": (drop_pair, "MISSING_PAIR"),
    "reuse_edge": (lambda c, n: _concatenate(c), {"immersion": "EDGE_REUSE",
                                                 "subdivision": "INTERIOR_REUSE"}),
    "through_branch": (through_branch, "BRANCH_INTERIOR"),
    "bogus_kind": (bogus_kind, "UNKNOWN_KIND"),
    "bool_id": (bool_id, "BAD_ID"),
    "out_of_range_id": (out_of_range_id, "OUT_OF_RANGE"),
    "shift_ell": (shift_ell, "LENGTH_MISMATCH"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", NAMES)
def test_mutation_is_rejected(acceptance, name, mutation):
    host, payload = acceptance[name]
    cert = json.loads(payload)
    kind = cert["kind"]
    mutate, code = MUTATIONS[mutation]
    if not mutate(cert, host.n):
        pytest.skip(f"{mutation} does not apply to {name}")
    expected = code[kind] if isinstance(code, dict) else code
    assert expected in check_certificate(host.n, host.edges, cert)


@pytest.mark.parametrize("cert", [None, [], {"kind": "immersion"},
                                  {"kind": "immersion", "branch": 3, "pairs": [], "ell": None},
                                  {"kind": "immersion", "branch": [0, 1], "pairs": [{"i": 0}],
                                   "ell": None}])
def test_malformed_certificate_is_rejected(cert):
    assert check_certificate(4, frozenset({(0, 1)}), cert) == ["BAD_FORMAT"]


def test_small_certificates():
    edges = frozenset({(0, 1), (1, 2), (0, 2), (2, 3)})
    k3 = {"kind": "immersion", "branch": [0, 1, 2],
          "pairs": [{"i": 0, "j": 1, "path": [0, 1]}, {"i": 0, "j": 2, "path": [0, 2]},
                    {"i": 1, "j": 2, "path": [1, 2]}], "ell": 0}
    assert check_certificate(4, edges, k3) == []
    k3["pairs"][2]["path"] = [1, 0, 2]
    assert check_certificate(4, edges, k3) == ["EDGE_REUSE", "LENGTH_MISMATCH"]
    k3["pairs"][2]["path"] = [1, 3]
    assert check_certificate(4, edges, k3) == ["BAD_ENDPOINT", "NOT_EDGE"]
    k3["pairs"][2]["path"] = [1, np.int64(2)]  # not a JSON id
    assert check_certificate(4, edges, k3) == ["BAD_ID"]
