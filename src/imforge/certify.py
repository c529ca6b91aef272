"""Embedding certificates and their independent verifier.

A certificate names branch vertices and one explicit connecting path per
unordered branch pair.  The verifier re-walks every path against the graph
and applies the semantics of the declared kind: immersions need pairwise
edge-disjoint paths, subdivisions pairwise internally vertex-disjoint paths
that also dodge every branch vertex.  It consults nothing but the graph and
the certificate, and reports every defect instead of stopping at the first.
Ids are Python or numpy integers: a bool, float or string branch id, pair
index, path vertex or ``ell`` is a ``BAD_ID`` violation, and so is a
branch or path that is not a list or tuple, or pairs that are not a dict;
the other checks are then skipped.  A negative ``ell`` is a ``BAD_ELL``
violation, whether or not any pair is there to miss its length.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

import numpy as np

from .errors import ParseError
from .graphs import Edge, Graph, normalize_edge

if TYPE_CHECKING:  # pragma: no cover
    from .expanders import Unit
    from .gadgets import Adjuster

IMMERSION = "immersion"
SUBDIVISION = "subdivision"


@dataclass
class EmbeddingCertificate:
    """Branch vertices plus one path per unordered pair of branch indices.

    ``pairs`` maps (i, j) with i < j (indices into ``branch``) to a vertex
    sequence from branch[i] to branch[j].  ``ell`` declares a uniform
    interior length: every path must then have length ell + 1.
    """

    kind: str
    branch: list[int]
    pairs: dict[tuple[int, int], list[int]]
    ell: Optional[int] = None

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "branch": list(self.branch),
            "pairs": [{"i": i, "j": j, "path": path}
                      for (i, j), path in sorted(self.pairs.items())],
            "ell": self.ell,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_paths(cls, kind: str, branch_vertices: Iterable[int],
                   path_of: Callable[[int, int], list[int]],
                   ell: Optional[int] = None) -> "EmbeddingCertificate":
        """Certificate over the sorted branch set, with ``path_of(a, b)``
        (a < b, either orientation) oriented to run from a to b."""
        branch = sorted(branch_vertices)
        pairs: dict[tuple[int, int], list[int]] = {}
        for i, a in enumerate(branch):
            for j in range(i + 1, len(branch)):
                path = path_of(a, branch[j])
                pairs[(i, j)] = list(path) if path[0] == a else list(reversed(path))
        return cls(kind=kind, branch=branch, pairs=pairs, ell=ell)

    @classmethod
    def from_json(cls, text: str) -> "EmbeddingCertificate":
        """Parse a certificate; malformed text, JSON not of the documented
        shape (four keys; lists for ``branch``, ``pairs`` and each path), or
        a second entry for one pair, raises ``ParseError``."""
        try:
            obj = json.loads(text)
            lists = [obj["branch"], obj["pairs"], *(e["path"] for e in obj["pairs"])]
            if not all(isinstance(x, list) for x in lists):
                raise ParseError(1, "branch, pairs and every path must be JSON lists")
            pairs = {(e["i"], e["j"]): e["path"] for e in obj["pairs"]}
            if len(pairs) < len(obj["pairs"]):
                twice = Counter((e["i"], e["j"]) for e in obj["pairs"]).most_common(1)[0][0]
                raise ParseError(1, f"duplicate entry for pair {twice}")
            return cls(kind=obj["kind"], branch=obj["branch"], pairs=pairs, ell=obj["ell"])
        except json.JSONDecodeError as err:
            raise ParseError(err.lineno, f"malformed certificate JSON: {err.msg}") from None
        except (KeyError, TypeError) as err:
            raise ParseError(1, f"malformed certificate: {err!r}") from None


@dataclass
class VerifyReport:
    valid: bool
    kind: str
    t: int
    path_count: int
    length_histogram: dict[int, int]
    violations: list[tuple[str, str]]
    strong_immersion: bool = False

    def to_json(self) -> str:
        payload = {
            "valid": self.valid,
            "kind": self.kind,
            "t": self.t,
            "path_count": self.path_count,
            "length_histogram": {str(k): v for k, v in sorted(self.length_histogram.items())},
            "violations": [list(v) for v in self.violations],
            "strong_immersion": self.strong_immersion,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _walk_edges(path: list[int]) -> list[Edge]:
    return [normalize_edge(a, b) for a, b in zip(path, path[1:])]


def _is_id(x: Any) -> bool:
    """Python and numpy integers are ids; bools, floats and strings are not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _bad_list(where: str, ids: Any) -> list[str]:
    """Where a branch list or path is not a list or tuple of integer ids."""
    if not isinstance(ids, (list, tuple)):
        return [f"{where} is a {type(ids).__name__}"]
    return [f"{where}[{k}] = {v!r}" for k, v in enumerate(ids) if not _is_id(v)]


def _bad_ids(cert: EmbeddingCertificate) -> list[str]:
    """Where the certificate holds a branch list, pairs dict, pair index,
    path, path vertex or ``ell`` of the wrong type."""
    out = _bad_list("branch", cert.branch)
    if cert.ell is not None and not _is_id(cert.ell):
        out.append(f"ell = {cert.ell!r}")
    if not isinstance(cert.pairs, dict):
        return out + [f"pairs is a {type(cert.pairs).__name__}"]
    for key, path in cert.pairs.items():
        if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_id, key))):
            out.append(f"pair key {key!r}")
        out += _bad_list(f"pair {key!r} path", path)
    return out


def verify(g: Graph, cert: EmbeddingCertificate) -> VerifyReport:
    """Check a certificate from scratch against the graph."""
    violations: list[tuple[str, str]] = []
    if cert.kind not in (IMMERSION, SUBDIVISION):
        violations.append(("UNKNOWN_KIND", f"kind {cert.kind!r}"))
    bad_ids = _bad_ids(cert)
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
    edge_multiset: Counter = Counter()
    internal_owner: dict[int, tuple[int, int]] = {}
    branch_set = set(branch)
    strong = True
    for (i, j), path in sorted(cert.pairs.items()):
        lengths[len(path) - 1] += 1
        if len(set(path)) != len(path):
            violations.append(("NOT_SIMPLE", f"pair {(i, j)}"))
        for e in _walk_edges(path):
            if not g.has_edge(*e):
                violations.append(("MISSING_EDGE", f"pair {(i, j)} edge {e}"))
            edge_multiset[e] += 1
        interior = path[1:-1]
        for v in interior:
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
    return VerifyReport(
        valid=not violations,
        kind=cert.kind,
        t=t,
        path_count=len(cert.pairs),
        length_histogram=dict(lengths),
        violations=violations,
        strong_immersion=strong and not violations,
    )


def verify_unit(g: Graph, unit: "Unit", h_params: tuple[int, int, int]) -> VerifyReport:
    """Structural check of a unit against the graph and the spec
    ``h_params = (h1, h2, h3)``: h1 branches and stars, stars of at least
    h2 leaves, branches of length at most h3."""
    violations: list[tuple[str, str]] = []
    h1, h2, h3 = h_params
    if len(unit.stars) != h1 or len(unit.branches) != h1:
        violations.append(("WRONG_COUNT", f"{len(unit.stars)} stars, {len(unit.branches)} branches, need {h1}"))
    seen_edges: set[Edge] = set()
    for idx, (branch, star) in enumerate(zip(unit.branches, unit.stars)):
        if branch[0] != unit.center or branch[-1] != star.center:
            violations.append(("BAD_BRANCH_ENDPOINTS", f"branch {idx}"))
        if len(branch) - 1 > h3:
            violations.append(("BRANCH_TOO_LONG", f"branch {idx} length {len(branch) - 1}"))
        if len(set(branch)) != len(branch):
            violations.append(("NOT_SIMPLE", f"branch {idx}"))
        for e in _walk_edges(branch):
            if not g.has_edge(*e):
                violations.append(("MISSING_EDGE", f"branch {idx} edge {e}"))
            if e in seen_edges:
                violations.append(("BRANCH_EDGE_REUSE", f"edge {e}"))
            seen_edges.add(e)
    star_blocks: set[int] = set()
    for star in unit.stars:
        if len(star.leaves) < h2:
            violations.append(("STAR_TOO_SMALL", f"star at {star.center}"))
        block = {star.center, *star.leaves}
        if block & star_blocks:
            violations.append(("STAR_OVERLAP", f"star at {star.center}"))
        star_blocks |= block
        for leaf in star.leaves:
            if not g.has_edge(star.center, leaf):
                violations.append(("MISSING_EDGE", f"pendant ({star.center}, {leaf})"))
    overlap = unit.interior_vertices() & unit.exterior()
    if overlap:
        violations.append(("EXT_INT_OVERLAP", f"vertices {sorted(overlap)[:5]}"))
    return VerifyReport(valid=not violations, kind="unit", t=1,
                        path_count=len(unit.branches),
                        length_histogram=dict(Counter(len(b) - 1 for b in unit.branches)),
                        violations=violations)


def verify_adjuster(g: Graph, adj: "Adjuster") -> VerifyReport:
    """Structural check of an adjuster: disjointness, a budget m >= 1, at
    least one realizer, the center budget, ends of one size within radius m,
    and every realizer path re-walked in the graph."""
    violations: list[tuple[str, str]] = []
    center = set(adj.center)
    end1 = set(adj.end1.vertices)
    end2 = set(adj.end2.vertices)
    if center & end1 or center & end2 or end1 & end2:
        violations.append(("OVERLAP", "center/ends not pairwise disjoint"))
    if adj.m < 1:
        violations.append(("BAD_BUDGET", f"m={adj.m} < 1"))
    if not adj.realizers:
        violations.append(("REALIZER_COUNT", "no realizers"))
    elif len(center) > 10 * adj.m * adj.k:
        violations.append(("CENTER_BUDGET", f"|A|={len(center)} > 10*{adj.m}*{adj.k}"))
    if adj.end2.size != adj.end1.size:
        violations.append(("END_SIZE", f"end2 has {adj.end2.size} != {adj.end1.size}"))
    for label, end in (("end1", adj.end1), ("end2", adj.end2)):
        if not _expansion_radius_ok(g, end.root, set(end.vertices), adj.m):
            violations.append(("END_RADIUS", label))
    for i, path in enumerate(adj.realizers):
        # realizer 0 sets ell, so lengths are checked from realizer 1 on
        want = adj.ell + 2 * i
        if i and len(path) - 1 != want:
            violations.append(("LENGTH_PARITY", f"realizer {i} length {len(path) - 1} != {want}"))
        if not path or path[0] != adj.u1 or path[-1] != adj.u2:
            violations.append(("BAD_ENDPOINT", f"realizer {i}"))
        if len(set(path)) != len(path):
            violations.append(("NOT_SIMPLE", f"realizer {i}"))
        for e in _walk_edges(path):
            if not g.has_edge(*e):
                violations.append(("MISSING_EDGE", f"realizer {i} edge {e}"))
        bad_internal = [v for v in path[1:-1] if v not in center]
        if bad_internal:
            violations.append(("INTERNAL_OUTSIDE_CENTER",
                               f"realizer {i} vertices {bad_internal[:5]}"))
    return VerifyReport(valid=not violations, kind="adjuster", t=2,
                        path_count=len(adj.realizers),
                        length_histogram=dict(Counter(len(p) - 1 for p in adj.realizers)),
                        violations=violations)


def _expansion_radius_ok(g: Graph, root: int, vertices: set[int], m: int) -> bool:
    """Every vertex of the set must sit within distance m of the root inside
    the induced subgraph.  Its own search, not ``expanders.bfs_tree``: the
    verifier must not share the code it checks."""
    if root not in vertices:
        return False
    seen = {root}
    frontier = [root]
    depth = 0
    while frontier and depth < m:
        depth += 1
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w in vertices and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen == vertices
