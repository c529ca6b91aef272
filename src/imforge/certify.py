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

``verify`` walks the certificate as flat arrays, not pair by pair: the
pairs sorted once, every path in one int64 vertex array with path offsets,
and every path edge looked up at once with ``Graph.has_edges``.  Each
check is one sort or one vector compare over all paths, and messages are
worded only for the positions a check flags, in the order a walk over
the sorted pairs would meet them.  Ids that do not fit in int64 get codes
that keep their order and equality, so they give the same violations.

``EmbeddingCertificate.from_paths``, the assembler every pipeline ends
with, builds that flat form itself: the pairs (i, j), i < j, in row-major
order, each path oriented from ``branch[i]``, in one int64 vertex array
with offsets.  ``verify`` and ``to_json`` read it directly, so neither
makes a list per path.  The ``pairs`` dict is built from it on first
access, and from then on the dict is the certificate, so a caller's
changes to it are seen.  The flat form holds only what the dict would:
``verify`` still checks the kind, the branch ids and ``ell``, skips only
the walk of the pairs' ids and types (``from_paths`` checked them once),
and words every violation as it would for the dict.  A certificate made
directly or by ``from_json``, or by ``from_paths`` from an id that is not
an integer or does not fit in int64, or from an empty path, has the dict
form alone.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

import numpy as np

from .errors import ParseError
from .graphs import Edge, Graph, normalize_edge

if TYPE_CHECKING:  # pragma: no cover
    from .expanders import Unit
    from .gadgets import Adjuster

IMMERSION = "immersion"
SUBDIVISION = "subdivision"


class _FlatPaths(NamedTuple):
    """The paths of the pairs (i, j), 0 <= i < j < t, in row-major order:
    pair p's path is ``vertices[starts[p]:starts[p + 1]]``."""
    t: int
    starts: np.ndarray
    vertices: np.ndarray


@dataclass
class EmbeddingCertificate:
    """Branch vertices plus one path per unordered pair of branch indices.

    ``pairs`` maps (i, j) with i < j (indices into ``branch``) to a vertex
    sequence from branch[i] to branch[j].  ``ell`` declares a uniform
    interior length: every path must then have length ell + 1.  A
    certificate from ``from_paths`` keeps its paths flat (``_FlatPaths``)
    and builds ``pairs`` when it is first read.
    """

    kind: str
    branch: list[int]
    pairs: dict[tuple[int, int], list[int]]
    ell: Optional[int] = None

    def __getattr__(self, name: str) -> Any:
        # reached only for a name the instance lacks: ``pairs`` of a
        # ``from_paths`` certificate until it is first read or set
        if name != "pairs" or "_flat" not in vars(self):
            raise AttributeError(name)
        self.pairs = pairs = dict(_unpacked(vars(self).pop("_flat")))
        return pairs

    def to_json(self) -> str:
        flat = _held(self)
        payload = {
            "kind": self.kind,
            "branch": list(self.branch),
            "pairs": [{"i": i, "j": j, "path": path}
                      for (i, j), path in (sorted(self.pairs.items()) if flat is None
                                           else _unpacked(flat))],
            "ell": self.ell,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_paths(cls, kind: str, branch_vertices: Iterable[int],
                   paths: Mapping[tuple[int, int], list[int]],
                   ell: Optional[int] = None) -> "EmbeddingCertificate":
        """Certificate over the sorted branch set; the path of each pair
        a < b is ``paths[(a, b)]`` (either orientation), run from a to b.
        The paths are copied into the flat form when ``_flat_paths`` can."""
        branch = sorted(branch_vertices)
        rows = [paths[ends] for ends in combinations(branch, 2)]
        flat = _flat_paths(branch, rows)
        if flat is None:
            pairs = {(i, j): list(path) if path[0] == branch[i] else list(reversed(path))
                     for (i, j), path in zip(combinations(range(len(branch)), 2), rows)}
            return cls(kind=kind, branch=branch, pairs=pairs, ell=ell)
        cert = cls.__new__(cls)
        vars(cert).update(kind=kind, branch=branch, ell=ell, _flat=flat)
        return cert

    @classmethod
    def from_json(cls, text: str) -> "EmbeddingCertificate":
        """Parse a certificate; malformed text, JSON not of the documented
        shape (four keys; lists for ``branch``, ``pairs`` and each path), or
        a second entry for one pair, raises ``ParseError``.  Entries that
        collide only because a non-integer index equals an integer one
        (``true`` and ``1``, ``1.0`` and ``1``) name that index instead."""
        try:
            obj = json.loads(text)
            lists = [obj["branch"], obj["pairs"], *(e["path"] for e in obj["pairs"])]
            if not all(isinstance(x, list) for x in lists):
                raise ParseError(1, "branch, pairs and every path must be JSON lists")
            pairs = {(e["i"], e["j"]): e["path"] for e in obj["pairs"]}
            if len(pairs) < len(obj["pairs"]):
                odd = [x for e in obj["pairs"] for x in (e["i"], e["j"]) if not _is_id(x)]
                if odd:
                    raise ParseError(1, f"pair index {json.dumps(odd[0])} is not an integer")
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


def _is_id_type(kind: type) -> bool:
    """Python and numpy integers are ids; bools, floats and strings are not."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _is_id(x: Any) -> bool:
    return _is_id_type(type(x))


def _bad_list(where: str, ids: Any) -> list[str]:
    """Where a branch list or path is not a list or tuple of integer ids."""
    if not isinstance(ids, (list, tuple)):
        return [f"{where} is a {type(ids).__name__}"]
    return [f"{where}[{k}] = {v!r}" for k, v in enumerate(ids) if not _is_id(v)]


def _bad_ids(cert: EmbeddingCertificate) -> list[str]:
    """Where the certificate holds a branch list, pairs dict, pair index,
    path, path vertex or ``ell`` of the wrong type, walked id by id."""
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


def _all_ids(cert: EmbeddingCertificate) -> Optional[list]:
    """The branch ids, then both indices of each pair, then each path's
    vertices, pairs in dict order; None when ``_bad_ids`` finds anything.
    The id types are read as one set."""
    branch, pairs = cert.branch, cert.pairs
    if not (isinstance(branch, (list, tuple)) and isinstance(pairs, dict)
            and (cert.ell is None or _is_id(cert.ell))
            and all(issubclass(kind, tuple) for kind in set(map(type, pairs)))
            and set(map(len, pairs)) <= {2}
            and all(issubclass(kind, (list, tuple)) for kind in set(map(type, pairs.values())))):
        return None
    ids = [*branch, *chain.from_iterable(pairs), *chain.from_iterable(pairs.values())]
    return ids if all(map(_is_id_type, set(map(type, ids)))) else None


def _id_codes(ids: list, n: int) -> np.ndarray:
    """The ids as int64 codes: ids in 0..n-1 keep their value, and the
    others map to codes outside 0..n-1 that keep their order and equality,
    so ids that do not fit in int64 compare as they are."""
    try:
        return np.fromiter(ids, dtype=np.int64, count=len(ids))
    except OverflowError:
        outside = sorted({int(x) for x in ids if not 0 <= x < n})
        below = sum(x < 0 for x in outside)
        code = {x: k - below + (n if k >= below else 0) for k, x in enumerate(outside)}
        return np.fromiter((code.get(int(x), x) for x in ids), dtype=np.int64, count=len(ids))


def _group_heads(sorted_keys: list[np.ndarray]) -> np.ndarray:
    """Positions where a run of equal rows starts, across parallel sorted
    key arrays, with their common length appended."""
    length = len(sorted_keys[0])
    new = np.ones(length + 1, dtype=bool)
    if length:
        new[1:-1] = np.logical_or.reduce([a[1:] != a[:-1] for a in sorted_keys])
    return np.flatnonzero(new)


def _held(cert: EmbeddingCertificate) -> Optional[_FlatPaths]:
    """The flat paths of a ``from_paths`` certificate whose ``pairs`` was
    never read or set; None otherwise."""
    attrs = vars(cert)
    return None if "pairs" in attrs else attrs.get("_flat")


def _unpacked(flat: _FlatPaths) -> Iterator[tuple[tuple[int, int], list[int]]]:
    """Each pair (i, j) with its path as a list, pairs in row-major order."""
    ids, at = flat.vertices.tolist(), flat.starts.tolist()
    return zip(combinations(range(flat.t), 2), (ids[a:b] for a, b in zip(at, at[1:])))


def _flat_paths(branch: list, rows: list) -> Optional[_FlatPaths]:
    """The paths of the pairs over ``branch`` in row-major order, each
    turned to run from its pair's first branch vertex, in one int64 array;
    None when a path is not a list, tuple or array, or is empty, or when an
    id is not an integer (``_is_id_type``) or does not fit in int64."""
    if not (all(issubclass(kind, (list, tuple, np.ndarray)) for kind in set(map(type, rows)))
            and all(map(_is_id_type, set(map(type, chain(branch, chain.from_iterable(rows))))))):
        return None
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    if not sizes.all():
        return None
    try:
        ids = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(sizes.sum()))
        ends = np.fromiter(branch, dtype=np.int64, count=len(branch))
    except OverflowError:
        return None
    starts = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    first = np.triu_indices(len(branch), 1)[0]
    flip = np.flatnonzero(ids[starts[:-1]] != ends[first])
    owner = np.repeat(flip, sizes[flip])  # each entry of a path that runs backwards
    pos = np.arange(len(owner)) - np.repeat(np.cumsum(sizes[flip]) - sizes[flip], sizes[flip])
    ids[starts[owner + 1] - 1 - pos] = ids[starts[owner] + pos]
    return _FlatPaths(len(branch), starts, ids)


class _Walk(NamedTuple):
    """A certificate's pairs in sorted order, with int64 codes for its ids:
    pair p is (i[p], j[p]), and its path is ``flat[starts[p]:starts[p + 1]]``;
    flat position k is ``pos[k]`` on the path of pair ``owner[k]``.  ``key``,
    ``vertex`` and ``head`` give back, as the certificate holds them, the
    key of pair p, the id at flat position k and the first three ids of the
    path of pair p."""
    branch_ids: np.ndarray
    i: np.ndarray
    j: np.ndarray
    starts: np.ndarray
    owner: np.ndarray
    pos: np.ndarray
    flat: np.ndarray
    key: Callable[[int], Any]
    vertex: Callable[[int], Any]
    head: Callable[[int], Any]


def _offsets(starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The owning path and the position on it of each flat position."""
    sizes = np.diff(starts)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return owner, np.arange(starts[-1]) - starts[owner]


def _held_walk(cert: EmbeddingCertificate) -> Optional[_Walk]:
    """The walk of a certificate read from its flat paths: None when it has
    none (``_held``), or when its branch list is not a list or tuple of
    int64 ids or its ``ell`` is not an id."""
    held, branch = _held(cert), cert.branch
    if (held is None or not isinstance(branch, (list, tuple))
            or not all(map(_is_id_type, set(map(type, branch))))
            or not (cert.ell is None or _is_id(cert.ell))):
        return None
    try:
        branch_ids = np.fromiter(branch, dtype=np.int64, count=len(branch))
    except OverflowError:
        return None
    i, j = np.triu_indices(held.t, 1)
    starts, flat = held.starts, held.vertices
    return _Walk(branch_ids, i, j, starts, *_offsets(starts), flat,
                 key=lambda p: (int(i[p]), int(j[p])),
                 vertex=lambda k: int(flat[k]),
                 head=lambda p: flat[starts[p]:min(starts[p] + 3, starts[p + 1])].tolist())


def _dict_walk(cert: EmbeddingCertificate, n: int) -> Optional[_Walk]:
    """The walk of a certificate read from its ``pairs`` dict; None when
    ``_all_ids`` finds an id or container of the wrong type."""
    ids = _all_ids(cert)
    if ids is None:
        return None
    branch, keys, paths = cert.branch, list(cert.pairs), list(cert.pairs.values())
    t = len(branch)
    codes = _id_codes(ids, max(n, t))
    branch_ids, (i, j) = codes[:t], codes[t:t + 2 * len(keys)].reshape(-1, 2).T
    # pairs in sorted order: pair p is keys[rank[p]], its path a run of flat
    rank = np.lexsort((j, i))
    sizes = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    begins = (np.cumsum(sizes) - sizes)[rank]  # where each path starts in the dict-order ids
    starts = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(sizes[rank], out=starts[1:])
    owner, pos = _offsets(starts)
    return _Walk(branch_ids, i[rank], j[rank], starts, owner, pos,
                 codes[t + 2 * len(keys):][begins[owner] + pos],
                 key=lambda p: keys[rank[p]],
                 vertex=lambda k: paths[rank[owner[k]]][pos[k]],
                 head=lambda p: paths[rank[p]][:3])


def verify(g: Graph, cert: EmbeddingCertificate) -> VerifyReport:
    """Check a certificate from scratch against the graph."""
    violations: list[tuple[str, str]] = []
    if cert.kind not in (IMMERSION, SUBDIVISION):
        violations.append(("UNKNOWN_KIND", f"kind {cert.kind!r}"))
    walk = _held_walk(cert) or _dict_walk(cert, g.n)
    if walk is None:
        violations.extend(("BAD_ID", where) for where in _bad_ids(cert))
        sized = (list, tuple, dict)
        return VerifyReport(valid=False, kind=cert.kind,
                            t=len(cert.branch) if isinstance(cert.branch, sized) else 0,
                            path_count=len(cert.pairs) if isinstance(cert.pairs, sized) else 0,
                            length_histogram={}, violations=violations)
    if cert.ell is not None and cert.ell < 0:
        violations.append(("BAD_ELL", f"ell = {cert.ell}"))
    branch, t, n = cert.branch, len(cert.branch), g.n
    branch_ids, i, j, starts, owner, pos, flat = walk[:7]
    sizes = np.diff(starts)
    if len(np.unique(branch_ids)) != t:
        violations.append(("BRANCH_NOT_INJECTIVE", f"branch list {branch}"))
    violations += [("BRANCH_OUT_OF_RANGE", f"vertex {branch[k]}")
                   for k in np.flatnonzero((branch_ids < 0) | (branch_ids >= n)).tolist()]

    def pair(p: int) -> tuple:
        a, b = walk.key(p)
        return (a, b)

    def edge(k: int) -> Edge:
        return normalize_edge(walk.vertex(k), walk.vertex(k + 1))

    indexed = (0 <= i) & (i < j) & (j < t)
    wanted_i, wanted_j = np.triu_indices(t, 1)
    missing = ~np.isin(wanted_i * t + wanted_j, i[indexed] * t + j[indexed])
    violations += [("MISSING_PAIR", f"pair {(a, b)}")
                   for a, b in zip(wanted_i[missing].tolist(), wanted_j[missing].tolist())]
    violations += [("UNKNOWN_PAIR", f"pair {walk.key(p)}")
                   for p in np.flatnonzero(~indexed).tolist()]
    padded, ends = np.append(flat, 0), np.append(branch_ids, 0)  # an empty path reads the pad
    bad_end = indexed & ((sizes == 0)
                         | (padded[starts[:-1]] != ends[np.where(indexed, i, t)])
                         | (padded[starts[1:] - 1] != ends[np.where(indexed, j, t)]))
    violations += [("BAD_ENDPOINT", f"pair {pair(p)} path {walk.head(p)}...")
                   for p in np.flatnonzero(bad_end).tolist()]

    # per-pair findings as (pair, check, position, sub-check, code, message)
    found: list[tuple] = []
    by_vertex = np.lexsort((flat, owner))
    heads = _group_heads([owner[by_vertex], flat[by_vertex]])
    twice = by_vertex[heads[:-1][np.diff(heads) > 1]]  # a vertex met twice on one path
    found += [(p, 0, 0, 0, "NOT_SIMPLE", f"pair {pair(p)}")
              for p in np.unique(owner[twice]).tolist()]
    # the edge at each flat position followed by one of the same path
    tail = np.flatnonzero(owner[1:] == owner[:-1])
    lo = np.minimum(flat[tail], flat[tail + 1])
    hi = np.maximum(flat[tail], flat[tail + 1])
    found += [(owner[k], 1, pos[k], 0, "MISSING_EDGE", f"pair {pair(owner[k])} edge {edge(k)}")
              for k in tail[~g.has_edges(lo, hi)].tolist()]
    inner = np.flatnonzero((pos > 0) & (pos < sizes[owner] - 1))
    through_branch = np.isin(flat[inner], branch_ids)
    if cert.kind == SUBDIVISION:
        found += [(owner[k], 2, pos[k], 0, "BRANCH_INTERNAL",
                   f"pair {pair(owner[k])} vertex {walk.vertex(k)}")
                  for k in inner[through_branch].tolist()]
        # a stable sort puts the first owner of each interior vertex first
        by_id = inner[np.argsort(flat[inner], kind="stable")]
        heads = _group_heads([flat[by_id]])
        first = by_id[np.repeat(heads[:-1], np.diff(heads))]
        again = first != by_id
        found += [(owner[k], 2, pos[k], 1, "INTERNAL_REUSE",
                   f"vertex {walk.vertex(k)} in {pair(owner[f])} and {pair(owner[k])}")
                  for k, f in zip(by_id[again].tolist(), first[again].tolist())]
    if cert.ell is not None:
        want = cert.ell + 1
        found += [(p, 3, 0, 0, "LENGTH_MISMATCH", f"pair {pair(p)} length {sizes[p] - 1} != {want}")
                  for p in np.flatnonzero(sizes - 1 != want).tolist()]
    violations += [(code, message) for *_, code, message in sorted(found)]

    if cert.kind == IMMERSION:
        by_edge = np.lexsort((hi, lo))
        heads = _group_heads([lo[by_edge], hi[by_edge]])
        counts = np.diff(heads)
        violations += [("EDGE_REUSE", f"edge {edge(tail[by_edge[head]])} used {count} times")
                       for head, count in zip(heads[:-1][counts > 1].tolist(),
                                              counts[counts > 1].tolist())]
    lengths, first_at, counts = np.unique(sizes - 1, return_index=True, return_counts=True)
    order = np.argsort(first_at)
    return VerifyReport(
        valid=not violations,
        kind=cert.kind,
        t=t,
        path_count=len(i),
        length_histogram=dict(zip(lengths[order].tolist(), counts[order].tolist())),
        violations=violations,
        strong_immersion=not through_branch.any() and not violations,
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
