"""The library's verifier against the benchmark's independent checker.

``perfbench/checker.py`` reads a certificate in its JSON form and the host
as a vertex count and an edge set; ``certify.verify`` reads the parsed
certificate and the graph.  On random small hosts and certificates, on
pipeline certificates, and on mutations of both that each break one rule,
the two must call the same certificates valid.  The checker is loaded by
path, as the tracer is in ``test_trace_bindings``.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imforge.certify import EmbeddingCertificate, verify
from imforge.errors import ParseError
from imforge.generators import random_regular
from imforge.graphs import build_graph, normalize_edge
from imforge.immersion_dense import build_dense_immersion
from imforge.spectral import adjacency_spectrum

CHECKER = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("perfbench_checker", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_certificate


check_certificate = load_checker()

MUTATIONS = ["none", "drop_pair", "reuse_edge", "through_branch", "bogus_kind", "bad_type_id",
             "out_of_range", "negative_id", "shift_ell", "negative_ell", "pair_twice"]

# per mutation of a pipeline certificate, the codes ``certify.verify`` may
# report and those the checker may report; each reports one of its own, and
# "ParseError" is a certificate the library refuses to parse.  An id out of
# range breaks a branch vertex, a path vertex or a pair index, and a bool
# pair index can equal an int one, so a pair is entered twice
EXPECTED_CODES = {
    "none": (set(), set()),
    "drop_pair": ({"MISSING_PAIR"}, {"MISSING_PAIR"}),
    "reuse_edge": ({"EDGE_REUSE"}, {"EDGE_REUSE"}),
    "through_branch": ({"EDGE_REUSE"}, {"EDGE_REUSE"}),
    "bogus_kind": ({"UNKNOWN_KIND"}, {"UNKNOWN_KIND"}),
    "bad_type_id": ({"BAD_ID", "ParseError"}, {"BAD_ID"}),
    "out_of_range": ({"BRANCH_OUT_OF_RANGE", "MISSING_EDGE", "UNKNOWN_PAIR"},
                     {"OUT_OF_RANGE", "BAD_PAIR"}),
    "negative_id": ({"BRANCH_OUT_OF_RANGE", "MISSING_EDGE", "UNKNOWN_PAIR"},
                    {"OUT_OF_RANGE", "BAD_PAIR"}),
    "shift_ell": ({"LENGTH_MISMATCH"}, {"LENGTH_MISMATCH"}),
    "negative_ell": ({"BAD_ELL"}, {"BAD_ELL"}),
    "pair_twice": ({"ParseError"}, {"BAD_PAIR"}),
}

# JSON that does not parse, and JSON that is not a certificate object of
# the documented shape
MALFORMED = ["", "{", "[1,", "nope", '{"kind": }',
             '{"kind": "immersion", "branch": [0, 1], "pairs": [], "ell": null']
GOOD = {"kind": "immersion", "branch": [0, 1], "pairs": [{"i": 0, "j": 1, "path": [0, 1]}],
        "ell": None}
WRONG_SHAPES = [
    None, 5, "x", [], {}, {"kind": "immersion"},
    *({key: v for key, v in GOOD.items() if key != missing} for missing in GOOD),
    *({**GOOD, "branch": branch} for branch in (3, None, "01", {"0": 1})),
    *({**GOOD, "pairs": pairs} for pairs in ({}, 3, None, "ab", [3], [[0, 1]])),
    {**GOOD, "pairs": [{"i": 0, "j": 1}]},
    {**GOOD, "pairs": [{"i": 0, "path": [0, 1]}]},
    *({**GOOD, "pairs": [{"i": 0, "j": 1, "path": path}]} for path in (5, "01", None, {"0": 1})),
]


def verdicts(n, edges, obj):
    """(library valid, checker valid) on the certificate's JSON text; a
    certificate the library cannot parse is one it rejects."""
    text = json.dumps(obj)
    g = build_graph(n, edges)
    try:
        library = verify(g, EmbeddingCertificate.from_json(text)).valid
    except ParseError:
        library = False
    return library, check_certificate(n, frozenset(g.edges()), json.loads(text)) == []


def mutate(n, edges, obj, name, rng):
    """The host edges and certificate object with one rule broken; a
    mutation that does not apply (no pairs, too few branch vertices) leaves
    them as they are."""
    edges, obj = set(edges), json.loads(json.dumps(obj))
    pairs, branch = obj["pairs"], obj["branch"]
    if name == "drop_pair" and pairs:
        pairs.pop(rng.randrange(len(pairs)))
    elif name == "reuse_edge" and len(pairs) >= 2:
        p, q = rng.sample(pairs, 2)
        k = rng.randrange(len(q["path"]) - 1)
        x, y = q["path"][k:k + 2]
        p["path"] = [branch[p["i"]], x, y, branch[p["j"]]]
        edges |= {normalize_edge(a, b) for a, b in zip(p["path"], p["path"][1:]) if a != b}
    elif name == "through_branch" and len(branch) >= 3:
        p = rng.choice(pairs)
        k = rng.choice([k for k in range(len(branch)) if k not in (p["i"], p["j"])])
        p["path"] = [branch[p["i"]], branch[k], branch[p["j"]]]
        edges |= {normalize_edge(branch[p["i"]], branch[k]),
                  normalize_edge(branch[k], branch[p["j"]])}
    elif name == "bogus_kind":
        obj["kind"] = rng.choice(["bogus", "", "Immersion", None])
    elif name in ("bad_type_id", "out_of_range", "negative_id"):
        value = {"bad_type_id": [True, False, 1.0, "1", "0"],
                 "out_of_range": [n, n + 3, 2 ** 40],
                 "negative_id": [-1, -n]}[name]
        slots = [(branch, k) for k in range(len(branch))]
        slots += [(p, key) for p in pairs for key in ("i", "j")]
        slots += [(p["path"], k) for p in pairs for k in range(len(p["path"]))]
        if slots:
            owner, key = rng.choice(slots)
            owner[key] = rng.choice(value)
    elif name == "shift_ell":
        base = obj["ell"] if obj["ell"] is not None else \
            (len(pairs[0]["path"]) - 2 if pairs else 0)
        obj["ell"] = base + rng.choice([-1, 1])
    elif name == "negative_ell":
        obj["ell"] = rng.choice([-1, -3])
    elif name == "pair_twice" and pairs:
        twin = json.loads(json.dumps(rng.choice(pairs)))
        if rng.random() < 0.5:
            twin["path"] = twin["path"][::-1]
        pairs.append(twin)
    return edges, obj


@st.composite
def random_certificates(draw):
    """A host and a certificate on it.  With ``fresh`` every interior vertex
    is new and outside the branch set, so the certificate is valid under
    both kinds; without it the interiors are arbitrary vertices."""
    t = draw(st.integers(0, 5))
    fresh = draw(st.booleans())
    uniform = draw(st.booleans())
    pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
    if uniform:
        lengths = [draw(st.integers(0, 2))] * len(pairs)
    else:
        lengths = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    n = t + sum(lengths) + draw(st.integers(0 if t else 1, 3))
    ids = draw(st.permutations(range(n)))
    branch, pool = list(ids[:t]), list(ids[t:])
    paths = []
    for (i, j), length in zip(pairs, lengths):
        if fresh:
            interior, pool = pool[:length], pool[length:]
        else:
            interior = draw(st.lists(st.integers(0, n - 1), min_size=length, max_size=length))
        paths.append([branch[i], *interior, branch[j]])
    edges = {normalize_edge(a, b) for p in paths for a, b in zip(p, p[1:]) if a != b}
    all_edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(all_edges), max_size=6))) if all_edges else set()
    obj = {"kind": draw(st.sampled_from(["immersion", "subdivision"])), "branch": branch,
           "pairs": [{"i": i, "j": j, "path": p} for (i, j), p in zip(pairs, paths)],
           "ell": lengths[0] if uniform and lengths else None}
    return n, edges, obj, fresh


@settings(max_examples=400, deadline=None)
@given(random_certificates(), st.sampled_from(MUTATIONS), st.integers(0, 2 ** 32 - 1))
def test_verifiers_agree_on_random_certificates(case, name, salt):
    n, edges, obj, fresh = case
    if fresh and name == "none":
        assert verdicts(n, edges, obj) == (True, True)
    edges, obj = mutate(n, edges, obj, name, random.Random(salt))
    library, checker = verdicts(n, edges, obj)
    assert library == checker, (name, obj)


def codes(n, edges, obj):
    """(library codes, checker codes) on the certificate's JSON text."""
    text = json.dumps(obj)
    g = build_graph(n, edges)
    try:
        library = {code for code, _ in verify(g, EmbeddingCertificate.from_json(text)).violations}
    except ParseError:
        library = {"ParseError"}
    return library, set(check_certificate(n, frozenset(g.edges()), json.loads(text)))


@pytest.fixture(scope="module")
def dense_certificates():
    """Best-effort dense certificates on small hosts: direct edges, 2-paths
    and 3-paths."""
    out = []
    for n, d, eta in ((60, 40, 0.3), (48, 20, 0.2)):
        g = random_regular(n, d, seed=n)
        cert, _ = build_dense_immersion(g, adjacency_spectrum(g), eta=eta, seed=1)
        out.append((g.n, set(g.edges()), json.loads(cert.to_json())))
    return out


@pytest.mark.parametrize("name", MUTATIONS)
def test_verifiers_agree_on_mutated_pipeline_certificates(dense_certificates, name):
    want_library, want_checker = EXPECTED_CODES[name]
    for n, edges, obj in dense_certificates:
        for salt in range(10):
            library, checker = codes(n, *mutate(n, edges, obj, name, random.Random(salt)))
            if name == "through_branch" and not library and not checker:
                continue  # an immersion may pass a branch vertex on unused edges
            if not want_library:
                assert library == checker == set(), (name, salt)
            else:
                assert library & want_library, (name, salt, library)
                assert checker & want_checker, (name, salt, checker)


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_json_is_a_parse_error_and_bad_format(text):
    with pytest.raises(ParseError):
        EmbeddingCertificate.from_json(text)
    assert check_certificate(2, frozenset({(0, 1)}), text) == ["BAD_FORMAT"]


@pytest.mark.parametrize("obj", WRONG_SHAPES)
def test_wrong_shape_is_a_parse_error_and_bad_format(obj):
    with pytest.raises(ParseError):
        EmbeddingCertificate.from_json(json.dumps(obj))
    assert check_certificate(2, frozenset({(0, 1)}), obj) == ["BAD_FORMAT"]
