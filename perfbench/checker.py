"""The benchmark's own output checker, independent of ``imforge.certify``.

It reads a certificate in its JSON form, as a user of the command line gets
it, and the host as a vertex count and an edge set.  It returns violation
codes (empty when the output is correct) and never raises on a malformed
certificate.  It is stricter than the library's verifier on purpose: an
unknown kind, or a vertex id that is a bool or not an int, is a violation.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

KINDS = ("immersion", "subdivision")


def _is_id(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def check_certificate(n: int, edges: frozenset, cert: Any) -> list[str]:
    """Violation codes of a parsed certificate JSON object on the host."""
    if not isinstance(cert, dict) or not {"kind", "branch", "pairs", "ell"} <= set(cert):
        return ["BAD_FORMAT"]
    kind, branch, pairs, ell = cert["kind"], cert["branch"], cert["pairs"], cert["ell"]
    if not isinstance(branch, list) or not isinstance(pairs, list) \
            or not all(isinstance(p, dict) and {"i", "j", "path"} <= set(p)
                       and isinstance(p["path"], list) for p in pairs):
        return ["BAD_FORMAT"]
    out: set[str] = set()
    if kind not in KINDS:
        out.add("UNKNOWN_KIND")
    if ell is not None and not (_is_id(ell) and ell >= 0):
        out.add("BAD_ELL")
    ids = list(branch) + [v for p in pairs for v in p["path"]]
    if not all(_is_id(v) for v in ids) or \
            not all(_is_id(p["i"]) and _is_id(p["j"]) for p in pairs):
        out.add("BAD_ID")
        return sorted(out)
    if any(not 0 <= v < n for v in ids):
        out.add("OUT_OF_RANGE")
        return sorted(out)
    t = len(branch)
    if len(set(branch)) != t:
        out.add("BRANCH_REPEAT")
    keys = [(p["i"], p["j"]) for p in pairs]
    if len(set(keys)) != len(keys) or any(not 0 <= i < j < t for i, j in keys):
        out.add("BAD_PAIR")
    if {(i, j) for i in range(t) for j in range(i + 1, t)} - set(keys):
        out.add("MISSING_PAIR")

    branch_set = set(branch)
    edge_use: Counter = Counter()
    interior_use: Counter = Counter()
    for p in pairs:
        i, j, path = p["i"], p["j"], p["path"]
        if not (0 <= i < j < t) or len(path) < 2 \
                or path[0] != branch[i] or path[-1] != branch[j]:
            out.add("BAD_ENDPOINT")
        if len(set(path)) != len(path):
            out.add("NOT_SIMPLE")
        if ell is not None and len(path) - 1 != ell + 1:
            out.add("LENGTH_MISMATCH")
        steps = [_edge(a, b) for a, b in zip(path, path[1:])]
        if any(e not in edges for e in steps):
            out.add("NOT_EDGE")
        edge_use.update(set(steps))
        interior_use.update(set(path[1:-1]))
        if kind == "subdivision" and branch_set.intersection(path[1:-1]):
            out.add("BRANCH_INTERIOR")
    if kind == "immersion" and any(c > 1 for c in edge_use.values()):
        out.add("EDGE_REUSE")
    if kind == "subdivision" and any(c > 1 for c in interior_use.values()):
        out.add("INTERIOR_REUSE")
    return sorted(out)
