import dataclasses
import json
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imforge.certify import (
    IMMERSION,
    SUBDIVISION,
    EmbeddingCertificate,
    VerifyReport,
    verify,
    verify_adjuster,
    verify_unit,
)
from imforge.errors import ParseError
from imforge.expanders import Star, Unit, build_unit
from imforge.gadgets import Adjuster, Expansion, bipartite_k3_immersion
from imforge.generators import paley, random_regular
from imforge.graphs import Graph, build_graph, normalize_edge, view_minus
from imforge.immersion_dense import build_dense_immersion
from imforge.immersion_medium import build_medium_immersion
from imforge.spectral import adjacency_spectrum
from imforge.subdivision import build_balanced_subdivision

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
    cert = EmbeddingCertificate.from_paths("immersion", [2, 0, 1], paths, ell=None)
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
    unit = build_unit(view_minus(g, (), ()), h1=3, h2=2, h3=2)
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


def json_k3_with(entry):
    """The K3 certificate's JSON with one more pair entry."""
    obj = json.loads(k3_identity_cert().to_json())
    obj["pairs"].append(entry)
    return json.dumps(obj)


def test_from_json_names_a_bool_index_that_collides_with_an_int_one():
    # JSON true equals and hashes as 1, so {"i": true, "j": 2} lands on (1, 2)
    text = json_k3_with({"i": True, "j": 2, "path": [1, 2]})
    with pytest.raises(ParseError, match="pair index true is not an integer"):
        EmbeddingCertificate.from_json(text)
    # a float index that collides is named too; a true duplicate still is one
    with pytest.raises(ParseError, match="pair index 1.0 is not an integer"):
        EmbeddingCertificate.from_json(json_k3_with({"i": 1.0, "j": 2, "path": [1, 2]}))
    with pytest.raises(ParseError, match=r"duplicate entry for pair \(1, 2\)"):
        EmbeddingCertificate.from_json(json_k3_with({"i": 1, "j": 2, "path": [1, 0, 2]}))
    # without a collision the bool index reaches the verifier
    cert = EmbeddingCertificate.from_json(json_k3_with({"i": True, "j": 3, "path": [1, 2]}))
    assert codes(verify(complete(3), cert)) == {"BAD_ID"}


# the verifier against the per-pair loop it replaced, kept here as an oracle

def reference_bad_ids(cert):
    def is_id(x):
        return isinstance(x, (int, np.integer)) and not isinstance(x, bool)

    def bad_list(where, ids):
        if not isinstance(ids, (list, tuple)):
            return [f"{where} is a {type(ids).__name__}"]
        return [f"{where}[{k}] = {v!r}" for k, v in enumerate(ids) if not is_id(v)]

    out = bad_list("branch", cert.branch)
    if cert.ell is not None and not is_id(cert.ell):
        out.append(f"ell = {cert.ell!r}")
    if not isinstance(cert.pairs, dict):
        return out + [f"pairs is a {type(cert.pairs).__name__}"]
    for key, path in cert.pairs.items():
        if not (isinstance(key, tuple) and len(key) == 2 and all(map(is_id, key))):
            out.append(f"pair key {key!r}")
        out += bad_list(f"pair {key!r} path", path)
    return out


def reference_verify(g, cert):
    """One pass per pair and per edge, with ``Graph.has_edge`` lookups."""
    violations = []
    if cert.kind not in (IMMERSION, SUBDIVISION):
        violations.append(("UNKNOWN_KIND", f"kind {cert.kind!r}"))
    bad_ids = reference_bad_ids(cert)
    if bad_ids:
        violations.extend(("BAD_ID", where) for where in bad_ids)
        sized = (list, tuple, dict)
        return VerifyReport(valid=False, kind=cert.kind,
                            t=len(cert.branch) if isinstance(cert.branch, sized) else 0,
                            path_count=len(cert.pairs) if isinstance(cert.pairs, sized) else 0,
                            length_histogram={}, violations=violations)
    if cert.ell is not None and cert.ell < 0:
        violations.append(("BAD_ELL", f"ell = {cert.ell}"))
    branch = cert.branch
    t = len(branch)
    if len(set(branch)) != t:
        violations.append(("BRANCH_NOT_INJECTIVE", f"branch list {branch}"))
    for v in branch:
        if not (0 <= v < g.n):
            violations.append(("BRANCH_OUT_OF_RANGE", f"vertex {v}"))
    wanted = {(i, j) for i in range(t) for j in range(i + 1, t)}
    got = set(cert.pairs)
    for pair in sorted(wanted - got):
        violations.append(("MISSING_PAIR", f"pair {pair}"))
    for pair in sorted(got - wanted):
        violations.append(("UNKNOWN_PAIR", f"pair {pair}"))
    for (i, j) in sorted(got):
        if not (0 <= i < j < t):
            continue
        path = cert.pairs[(i, j)]
        if not path or path[0] != branch[i] or path[-1] != branch[j]:
            violations.append(("BAD_ENDPOINT", f"pair {(i, j)} path {path[:3]}..."))
    lengths = Counter()
    edge_multiset = Counter()
    internal_owner = {}
    branch_set = set(branch)
    strong = True
    for (i, j), path in sorted(cert.pairs.items()):
        lengths[len(path) - 1] += 1
        if len(set(path)) != len(path):
            violations.append(("NOT_SIMPLE", f"pair {(i, j)}"))
        for e in (normalize_edge(a, b) for a, b in zip(path, path[1:])):
            if not g.has_edge(*e):
                violations.append(("MISSING_EDGE", f"pair {(i, j)} edge {e}"))
            edge_multiset[e] += 1
        for v in path[1:-1]:
            if v in branch_set:
                strong = False
                if cert.kind == SUBDIVISION:
                    violations.append(("BRANCH_INTERNAL", f"pair {(i, j)} vertex {v}"))
            if cert.kind == SUBDIVISION:
                if v in internal_owner:
                    violations.append(
                        ("INTERNAL_REUSE", f"vertex {v} in {internal_owner[v]} and {(i, j)}"))
                else:
                    internal_owner[v] = (i, j)
        if cert.ell is not None and len(path) - 1 != cert.ell + 1:
            violations.append(
                ("LENGTH_MISMATCH", f"pair {(i, j)} length {len(path) - 1} != {cert.ell + 1}"))
    if cert.kind == IMMERSION:
        for e, count in sorted(edge_multiset.items()):
            if count > 1:
                violations.append(("EDGE_REUSE", f"edge {e} used {count} times"))
    return VerifyReport(valid=not violations, kind=cert.kind, t=t,
                        path_count=len(cert.pairs), length_histogram=dict(lengths),
                        violations=violations, strong_immersion=strong and not violations)


def assert_matches_reference(g, cert):
    got, want = verify(g, cert), reference_verify(g, cert)
    assert got == want
    assert list(got.length_histogram) == list(want.length_histogram)
    assert got.to_json() == want.to_json()
    return got


@lru_cache(maxsize=None)
def pipeline_certificates():
    """(host, certificate) from each construction: dense, medium, the
    balanced subdivision and the length-4 bipartite gadget."""
    pal = paley(101)
    rr = random_regular(600, 24, seed=1)
    mask = np.random.default_rng(5).random((128, 1024)) < 0.55
    bip = build_graph(1152, np.argwhere(mask) + (0, 128))
    return (
        (pal, build_dense_immersion(pal, adjacency_spectrum(pal), eta=0.4, seed=7)[0]),
        (rr, build_medium_immersion(rr, adjacency_spectrum(rr), eta=0.2, seed=3,
                                    h_params=(6, 2, 5), target_order=8, max_len=8)[0]),
        (rr, build_balanced_subdivision(rr, adjacency_spectrum(rr), eta=0.4, seed=3)[0]),
        (bip, bipartite_k3_immersion(bip, range(128), range(128, 1152), p=6, seed=1)),
    )


def copy_cert(cert, kind=None):
    return EmbeddingCertificate(kind or cert.kind, list(cert.branch),
                                {key: list(path) for key, path in cert.pairs.items()}, cert.ell)


@pytest.mark.parametrize("which", range(4), ids=["dense", "medium", "subdivide", "k3"])
@pytest.mark.parametrize("kind", [None, IMMERSION, SUBDIVISION, "bogus"])
def test_verify_matches_reference_on_pipeline_certificates(which, kind):
    g, cert = pipeline_certificates()[which]
    report = assert_matches_reference(g, copy_cert(cert, kind))
    assert report.valid or kind is not None


MUTATIONS = ["reuse_edge", "repeat_vertex", "branch_interior", "share_interior", "shift_ell",
             "negative_ell", "drop_pair", "unknown_pair", "empty_path", "one_vertex_path"]


def mutate_cert(cert, name, draw):
    """Break one rule of the certificate in place."""
    pairs, branch = cert.pairs, cert.branch
    keys = sorted(pairs)
    if not keys:
        return
    key = draw(st.sampled_from(keys))
    path = pairs[key]
    if name == "reuse_edge":
        other = pairs[draw(st.sampled_from(keys))]
        if len(other) >= 2:
            k = draw(st.integers(0, len(other) - 2))
            pairs[key] = [*path[:1], *other[k:k + 2], *path[-1:]]
    elif name == "repeat_vertex" and path:
        pairs[key].insert(draw(st.integers(0, len(path))), draw(st.sampled_from(path)))
    elif name == "branch_interior":
        pairs[key].insert(draw(st.integers(1, max(len(path) - 1, 1))),
                          draw(st.sampled_from(branch)))
    elif name == "share_interior":
        donor = [v for p in pairs.values() for v in p[1:-1]] or list(branch)
        pairs[key].insert(draw(st.integers(1, max(len(path) - 1, 1))), draw(st.sampled_from(donor)))
    elif name == "shift_ell":
        base = cert.ell if cert.ell is not None else len(path) - 2
        cert.ell = base + draw(st.sampled_from([-1, 1]))
    elif name == "negative_ell":
        cert.ell = draw(st.sampled_from([-1, -2, -3]))
    elif name == "drop_pair":
        del pairs[key]
    elif name == "unknown_pair":
        i, j = key
        pairs[draw(st.sampled_from([(j, i), (i, i), (i, len(branch)), (-1, j)]))] = list(path)
    elif name == "empty_path":
        pairs[key] = []
    elif name == "one_vertex_path":
        pairs[key] = path[:1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_matches_reference_on_mutations(data):
    g, cert = data.draw(st.sampled_from(pipeline_certificates()))
    cert = copy_cert(cert, data.draw(st.sampled_from([IMMERSION, SUBDIVISION])))
    for name in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        mutate_cert(cert, name, data.draw)
    assert_matches_reference(g, cert)


ODD_IDS = [-1, -6, 6, 7, 2 ** 40, 2 ** 63 - 1, 2 ** 63, 2 ** 64 + 3, 2 ** 80, -2 ** 63,
           -2 ** 63 - 1, -2 ** 90, np.int32(2), np.int32(-3), np.int64(4), np.uint64(3),
           np.uint64(2 ** 63), np.uint64(2 ** 64 - 1), np.int16(9)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_matches_reference_on_odd_ids(data):
    # K4 on K6 with two 2-paths through 4 and 5; some ids swapped for
    # negative ones, ones >= n, ones beyond int64 and numpy scalars
    pairs = {(0, 1): [0, 1], (0, 2): [0, 4, 2], (0, 3): [0, 3], (1, 2): [1, 2],
             (1, 3): [1, 5, 3], (2, 3): [2, 3]}
    cert = EmbeddingCertificate(data.draw(st.sampled_from([IMMERSION, SUBDIVISION])),
                                [0, 1, 2, 3], pairs, data.draw(st.sampled_from([None, 0, 1])))
    slots = [(cert.branch, k) for k in range(4)]
    slots += [(path, k) for path in pairs.values() for k in range(len(path))]
    for _ in range(data.draw(st.integers(1, 4))):
        value = data.draw(st.sampled_from(ODD_IDS))
        where = data.draw(st.sampled_from(["slot", "pair", "ell"]))
        if where == "slot":
            owner, k = data.draw(st.sampled_from(slots))
            owner[k] = value
        elif where == "pair":
            i, j = key = data.draw(st.sampled_from(sorted(pairs, key=str)))
            new = (value, j) if data.draw(st.booleans()) else (i, value)
            pairs[new] = pairs.pop(key)
        elif not isinstance(value, np.integer):
            cert.ell = value
    if data.draw(st.booleans()):
        cert.pairs = {key: tuple(path) for key, path in pairs.items()}
    assert_matches_reference(complete(6), cert)


def test_verify_orders_ids_beyond_int64_as_integers():
    # two paths share an edge between ids past 2**63, and a third an edge
    # between negative ids past -2**63: both reused, reported in edge order
    big, neg = 2 ** 64, -2 ** 64
    pairs = {(0, 1): [0, big, big + 1, 1], (0, 2): [0, big + 1, big, 2],
             (1, 2): [1, neg, neg - 1, 2], (0, 3): [0, neg - 1, neg, 3],
             (1, 3): [1, 3], (2, 3): [2, 3]}
    report = assert_matches_reference(complete(4), EmbeddingCertificate(IMMERSION, [0, 1, 2, 3],
                                                                        pairs))
    assert [v for v in report.violations if v[0] == "EDGE_REUSE"] == [
        ("EDGE_REUSE", f"edge ({neg - 1}, {neg}) used 2 times"),
        ("EDGE_REUSE", f"edge ({big}, {big + 1}) used 2 times")]


def test_verify_never_builds_the_csr(monkeypatch):
    g, cert = pipeline_certificates()[3]
    shell = Graph(g.n, tuple(map(g.neighbors, range(g.n))), g.edge_set())

    def no_csr(self):
        raise AssertionError("verify built the CSR")

    monkeypatch.setattr(Graph, "csr", no_csr)
    assert verify(shell, cert).valid


def test_verify_reports_an_empty_path_between_paths_whose_ends_fit():
    # flattened, the empty path of (0, 2) sits between a path ending at
    # branch[2] and one starting at branch[0]
    pairs = {(0, 1): [0, 2], (0, 2): [], (0, 3): [0, 3], (1, 2): [1, 2], (1, 3): [1, 3],
             (2, 3): [2, 3]}
    report = assert_matches_reference(complete(4), EmbeddingCertificate(IMMERSION, [0, 1, 2, 3],
                                                                        pairs))
    assert ("BAD_ENDPOINT", "pair (0, 2) path []...") in report.violations
