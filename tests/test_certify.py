import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imforge.certify import EmbeddingCertificate, verify, verify_adjuster, verify_unit
from imforge.expanders import Star, Unit, build_unit
from imforge.gadgets import Adjuster, Expansion
from imforge.graphs import build_graph, view_minus

from helpers import complete, cycle, petersen


def k3_identity_cert():
    return EmbeddingCertificate(
        kind="immersion",
        branch=[0, 1, 2],
        pairs={(0, 1): [0, 1], (0, 2): [0, 2], (1, 2): [1, 2]},
        ell=0,
    )


def test_verify_k3_identity():
    report = verify(complete(3), k3_identity_cert())
    assert report.valid
    assert report.strong_immersion
    assert report.length_histogram == {1: 3}
    assert report.t == 3 and report.path_count == 3


def test_verify_edge_reuse():
    cert = EmbeddingCertificate(
        kind="immersion",
        branch=[0, 1, 2],
        pairs={(0, 1): [0, 1], (0, 2): [0, 1, 2], (1, 2): [1, 2]},
    )
    report = verify(cycle(3), cert)
    assert not report.valid
    assert any(code == "EDGE_REUSE" for code, _ in report.violations)


def test_verify_subdivision_vs_immersion_semantics():
    # two paths through the same internal vertex: fine as an immersion when
    # edges differ, an INTERNAL_REUSE violation as a subdivision
    g = build_graph(6, [(0, 4), (4, 1), (2, 4), (4, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    pairs = {(0, 1): [0, 4, 1], (2, 3): [2, 4, 3], (0, 2): [0, 2],
             (0, 3): [0, 3], (1, 2): [1, 2], (1, 3): [1, 3]}
    base = dict(kind="immersion", branch=[0, 1, 2, 3], pairs=pairs)
    as_immersion = verify(g, EmbeddingCertificate(**base))
    assert as_immersion.valid
    base["kind"] = "subdivision"
    as_subdivision = verify(g, EmbeddingCertificate(**base))
    assert not as_subdivision.valid
    assert any(code == "INTERNAL_REUSE" for code, _ in as_subdivision.violations)


def test_verify_rejects_unknown_kind():
    # reuses edge (0, 1): invalid as an immersion, and never valid under a
    # kind the verifier has no rules for
    pairs = {(0, 1): [0, 1], (0, 2): [0, 1, 2], (1, 2): [1, 2]}
    for kind in ("bogus", ""):
        report = verify(cycle(3), EmbeddingCertificate(kind=kind, branch=[0, 1, 2],
                                                       pairs=pairs))
        assert not report.valid
        assert ("UNKNOWN_KIND", f"kind {kind!r}") in report.violations


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
@pytest.mark.parametrize("where", ["branch", "path", "pair"])
def test_verify_rejects_non_integer_ids(bad, where):
    cert = k3_identity_cert()
    if where == "branch":
        cert.branch[1] = bad
    elif where == "path":
        cert.pairs[(0, 1)] = [0, bad]
    else:
        cert.pairs[(0, bad)] = cert.pairs.pop((0, 1))
    report = verify(complete(3), cert)
    assert not report.valid
    assert [code for code, _ in report.violations] == ["BAD_ID"]


def test_verify_rejects_non_integer_ell():
    cert = k3_identity_cert()
    cert.ell = "0"
    assert [code for code, _ in verify(complete(3), cert).violations] == ["BAD_ID"]


@pytest.mark.parametrize("mutate", [
    lambda c: c.pairs.update({(0, 1): None}),
    lambda c: c.pairs.update({(0, 1): 1}),
    lambda c: c.pairs.update({(0, 1): np.array([0, 1])}),
    lambda c: setattr(c, "branch", None),
    lambda c: setattr(c, "pairs", list(c.pairs.values())),
], ids=["path-none", "path-int", "path-array", "branch-none", "pairs-list"])
def test_verify_reports_malformed_containers_as_bad_ids(mutate):
    cert = k3_identity_cert()
    mutate(cert)
    report = verify(complete(3), cert)
    assert not report.valid
    assert [code for code, _ in report.violations] == ["BAD_ID"]
    report.to_json()


def test_verify_accepts_numpy_integer_ids():
    cert = k3_identity_cert()
    cert.branch = [np.int64(0), np.int32(1), 2]
    cert.pairs[(0, 1)] = [np.int64(0), np.int16(1)]
    cert.ell = np.int64(0)
    assert verify(complete(3), cert).valid


def test_verify_missing_pair_and_edge():
    cert = EmbeddingCertificate(kind="immersion", branch=[0, 1, 2],
                                pairs={(0, 1): [0, 1], (0, 2): [0, 2]})
    report = verify(cycle(6), cert)
    codes = {code for code, _ in report.violations}
    assert "MISSING_PAIR" in codes
    assert "MISSING_EDGE" in codes  # (0, 2) is not an edge of C6


def test_verify_branch_internal_blocks_strong():
    g = complete(4)
    cert = EmbeddingCertificate(kind="immersion", branch=[0, 1],
                                pairs={(0, 1): [0, 2, 1]})
    report = verify(g, cert)
    assert report.valid and report.strong_immersion
    g5 = complete(5)
    cert2 = EmbeddingCertificate(kind="immersion", branch=[0, 1, 2],
                                 pairs={(0, 1): [0, 2, 1], (0, 2): [0, 3, 2],
                                        (1, 2): [1, 4, 2]})
    report2 = verify(g5, cert2)
    assert report2.valid and not report2.strong_immersion


def test_verify_length_contract():
    cert = EmbeddingCertificate(kind="immersion", branch=[0, 3],
                                pairs={(0, 1): [0, 1, 2, 3]}, ell=1)
    report = verify(cycle(4), cert)
    assert any(code == "LENGTH_MISMATCH" for code, _ in report.violations)


@pytest.mark.parametrize("branch", [[], [0], [0, 1]])
def test_verify_rejects_a_negative_ell(branch):
    # with fewer than two branch vertices no pair checks the length
    pairs = {(0, 1): [0, 1]} if len(branch) == 2 else {}
    cert = EmbeddingCertificate("subdivision", branch, pairs, ell=-3)
    report = verify(complete(3), cert)
    assert not report.valid
    assert ("BAD_ELL", "ell = -3") in report.violations
    cert.ell = 0
    assert verify(complete(3), cert).valid


def test_verify_trivial_certificate():
    cert = EmbeddingCertificate(kind="immersion", branch=[5], pairs={})
    assert verify(petersen(), cert).valid


def test_certificate_from_paths_sorts_and_orients():
    paths = {(0, 1): [1, 0], (0, 2): [0, 3, 2], (1, 2): [2, 3, 1]}
    cert = EmbeddingCertificate.from_paths("immersion", [2, 0, 1],
                                           lambda a, b: paths[(a, b)], ell=None)
    assert cert.branch == [0, 1, 2]
    assert cert.pairs == {(0, 1): [0, 1], (0, 2): [0, 3, 2], (1, 2): [1, 3, 2]}
    assert paths[(0, 1)] == [1, 0]  # the caller's paths are not reversed in place


def test_certificate_json_round_trip():
    cert = k3_identity_cert()
    again = EmbeddingCertificate.from_json(cert.to_json())
    assert again == cert
    assert again.to_json() == cert.to_json()


def test_verify_unit_round_trip():
    g = complete(20)
    unit = build_unit(view_minus(g, (), ()), h1=3, h2=2, h3=2, seed=0)
    report = verify_unit(g, unit, (3, 2, 2))
    assert report.valid, report.violations


def test_verify_unit_missing_edge():
    g = cycle(8)
    unit = Unit(center=0, branches=[[0, 3]], stars=[Star(3, (2, 4))])
    report = verify_unit(g, unit, (1, 2, 1))
    assert any(code == "MISSING_EDGE" for code, _ in report.violations)


def test_verify_unit_star_overlap():
    g = complete(8)
    unit = Unit(center=0, branches=[[0, 1], [0, 2]],
                stars=[Star(1, (3, 4)), Star(2, (4, 5))])
    report = verify_unit(g, unit, (2, 2, 1))
    assert any(code == "STAR_OVERLAP" for code, _ in report.violations)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=100))
def test_verify_rejects_any_single_edge_drop(t, salt):
    # mutate a valid complete-graph certificate by deleting one path edge
    g = complete(t + 2)
    branch = list(range(t))
    pairs = {}
    for i in range(t):
        for j in range(i + 1, t):
            pairs[(i, j)] = [branch[i], branch[j]]
    cert = EmbeddingCertificate(kind="immersion", branch=branch, pairs=pairs)
    assert verify(g, cert).valid
    keys = sorted(pairs)
    victim = keys[salt % len(keys)]
    broken = {k: (v if k != victim else [v[0], v[0] + t + 1, v[1]])
              for k, v in pairs.items()}
    mutated = EmbeddingCertificate(kind="immersion", branch=branch, pairs=broken)
    report = verify(g, mutated)
    # the rerouted path stays valid unless it collides; force a real defect
    broken[victim] = [v := pairs[victim][0], v]
    mutated = EmbeddingCertificate(kind="immersion", branch=branch, pairs=broken)
    assert not verify(g, mutated).valid


def codes(report):
    return {code for code, _ in report.violations}


def test_verify_branch_not_injective():
    cert = EmbeddingCertificate(kind="immersion", branch=[0, 0], pairs={(0, 1): [0]})
    report = verify(complete(3), cert)
    assert [code for code, _ in report.violations] == ["BRANCH_NOT_INJECTIVE"]


# a valid unit on K12 minus the edge (1, 11): center 0, branches to the star
# centers 1 and 3, interior {2}, exterior {4, 5, 6, 7}
UNIT_HOST = build_graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)
                             if (u, v) != (1, 11)])
UNIT = Unit(center=0, branches=[[0, 1], [0, 2, 3]], stars=[Star(1, (4, 5)), Star(3, (6, 7))])


@pytest.mark.parametrize("code,branches,stars,h_params", [
    ("WRONG_COUNT", None, None, (3, 2, 2)),
    ("BAD_BRANCH_ENDPOINTS", [[0, 8], [0, 2, 3]], None, (2, 2, 2)),
    ("BRANCH_TOO_LONG", None, None, (2, 2, 1)),
    ("NOT_SIMPLE", [[0, 1], [0, 8, 9, 0, 2, 3]], None, (2, 2, 5)),
    ("BRANCH_EDGE_REUSE", [[0, 1], [0, 1, 3]], None, (2, 2, 2)),
    ("STAR_TOO_SMALL", None, [Star(1, (4, 5)), Star(3, (6,))], (2, 2, 2)),
    ("MISSING_EDGE", None, [Star(1, (4, 11)), Star(3, (6, 7))], (2, 2, 2)),
    ("EXT_INT_OVERLAP", None, [Star(1, (4, 2)), Star(3, (6, 7))], (2, 2, 2)),
])
def test_verify_unit_reports_each_mutation(code, branches, stars, h_params):
    assert verify_unit(UNIT_HOST, UNIT, (2, 2, 2)).valid
    unit = Unit(UNIT.center, branches or UNIT.branches, stars or UNIT.stars)
    report = verify_unit(UNIT_HOST, unit, h_params)
    assert codes(report) == {code}, report.violations


# a valid adjuster on a 6-cycle with the chord (1, 4) and two pendant paths
# 0-6-8 and 2-7-9: cores 0 and 2, ends {0, 6} and {2, 7}, realizers of
# lengths 2 and 4 through the center {1, 3, 4, 5}
ADJ_HOST = build_graph(10, [(i, (i + 1) % 6) for i in range(6)]
                       + [(1, 4), (0, 6), (6, 8), (2, 7), (7, 9)])
ADJ = Adjuster(Expansion(0, (0, 6)), Expansion(2, (2, 7)), (1, 3, 4, 5),
               [[0, 1, 2], [0, 5, 4, 3, 2]], 1)


@pytest.mark.parametrize("code,change", [
    ("OVERLAP", {"end2": Expansion(2, (2, 3))}),
    ("END_SIZE", {"end2": Expansion(2, (2,))}),
    ("END_RADIUS", {"end1": Expansion(0, (0, 8))}),
    ("LENGTH_PARITY", {"realizers": [[0, 1, 2], [0, 1, 2]]}),
    ("BAD_ENDPOINT", {"realizers": [[2, 1, 0], [0, 5, 4, 3, 2]]}),
    ("NOT_SIMPLE", {"realizers": [[0, 1, 2], [0, 1, 4, 1, 2]]}),
    ("MISSING_EDGE", {"realizers": [[0, 1, 2], [0, 5, 1, 3, 2]]}),
    ("INTERNAL_OUTSIDE_CENTER", {"center": (3, 4, 5)}),
])
def test_verify_adjuster_reports_each_mutation(code, change):
    assert verify_adjuster(ADJ_HOST, ADJ).valid
    report = verify_adjuster(ADJ_HOST, dataclasses.replace(ADJ, **change))
    assert codes(report) == {code}, report.violations


@pytest.mark.parametrize("m", [0, 1])
def test_verify_adjuster_needs_a_realizer(m):
    adj = Adjuster(Expansion(0, (0,)), Expansion(1, (1,)), (), [], m)
    report = verify_adjuster(build_graph(2, [(0, 1)]), adj)
    assert not report.valid
    assert codes(report) == {"REALIZER_COUNT"} | ({"BAD_BUDGET"} if m < 1 else set())


def test_verify_adjuster_needs_a_budget_of_at_least_one():
    # one realizer of length 1 and an empty center: nothing else breaks at m = 0
    adj = Adjuster(Expansion(0, (0,)), Expansion(1, (1,)), (), [[0, 1]], 0)
    host = build_graph(2, [(0, 1)])
    assert verify_adjuster(host, dataclasses.replace(adj, m=1)).valid
    assert codes(verify_adjuster(host, adj)) == {"BAD_BUDGET"}
