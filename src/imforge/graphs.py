"""Immutable simple graphs, deletion views, and the basic counting queries.

A ``Graph`` is a simple undirected graph on vertices ``0..n-1``; it never
changes after construction, so it is safe to share between pipelines and
threads.  ``build_graph`` makes every graph in one numpy pass: ascending
neighbour tuples for the Python loops (BFS, packers), and the CSR pair
``(indptr, indices)`` for the spectral solver's sparse operator.  No
object is kept per edge: the tuples share one int per vertex, ``has_edge``
bisects a tuple, and ``edge_set()`` is an ``EdgeSet`` view over the
tuples, so a resident host costs a garbage collection O(n), not O(m).

Ids are read by one of two rules: ``vertex_ids`` raises DomainError for a
float, bool or string id and OutOfRangeError outside 0..n-1 (``has_edges``
takes only its type rule); ``_is_vertex``, behind ``has_edge``,
``EdgeSet`` and ``contains_vertex``, counts anything else as no vertex.

Rows are read in bulk only by ``Graph._rows``, from CSR slices when the
CSR is built and from the tuples otherwise, which it packs with
``struct.pack_into`` into one preallocated array.  ``Graph.block`` cuts every
dense 0/1 adjacency block from it, as one flat row-major scatter that is
masked only when some neighbour has no column (a repeated column id
raises); ``has_edges`` reads its rows there, ``neighbor_counts`` counts
the occurrences of each vertex in the counted set's own rows with one
``bincount``, and ``csr()`` builds a missing CSR from it.

A ``GraphView`` answers the same queries as the graph obtained by deleting
a vertex set and an edge set, without copying the graph.  It keeps the
removed edges per vertex, as the partners that vertex lost, so neighbor
filtering is plain set lookups; ``minus`` derives a smaller view and
shares what it does not change.  ``degrees()`` is one int array computed
on first use, and a vertex the deletions do not touch gets its base
neighbor tuple back as is.  Neighbor iteration is always in ascending
vertex order, which keeps every greedy routine downstream deterministic.

The edge-list text format is read by ``parse_edge_list``: in bulk with
numpy when the file is valid and made of digits, spaces and newlines, and
otherwise by a per-line loop that names the first bad line.
``format_edge_list`` writes the same format from the CSR.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from operator import index
from struct import pack_into

import numpy as np

from .errors import (
    DomainError,
    EmptySideError,
    OutOfRangeError,
    OverlapError,
    ParseError,
    SelfLoopError,
)

Edge = tuple[int, int]
_TUPLE_RUN = 1 << 16  # half-edges made into tuples, or edges into lines, at once
_PACK_RUN = 1 << 14  # most neighbour entries ``_rows`` packs from short rows at once
_LONG_ROW = 256  # a row at least this long is packed by itself


def normalize_edge(u: int, v: int) -> Edge:
    """Return the pair ordered as (min, max)."""
    return (u, v) if u < v else (v, u)


def _is_vertex(n: int, v) -> bool:
    """The lenient id rule: whether v is an int, bool or numpy integer in 0..n-1."""
    try:
        return 0 <= index(v) < n
    except TypeError:
        return False


def _adjacent(adj: tuple[tuple[int, ...], ...], u, v) -> bool:
    """Whether v is in u's ascending neighbour tuple (False unless both ``_is_vertex``)."""
    a = adj[u] if _is_vertex(len(adj), u) and _is_vertex(len(adj), v) else ()
    i = bisect_left(a, v)
    return i < len(a) and a[i] == v


class EdgeSet:
    """Read-only set of a graph's edges as pairs (u, v) with u < v, viewed
    through its ascending neighbour tuples.  ``in`` never raises: reversed
    pairs, out-of-range ids and anything that is not a pair of integers are
    not members.  Iteration is lexicographic; the hash is the adjacency's,
    so two builds of one graph hash alike."""

    __slots__ = ("_adj",)

    def __init__(self, adjacency: tuple[tuple[int, ...], ...]):
        self._adj = adjacency

    def __contains__(self, e) -> bool:
        return (isinstance(e, tuple) and len(e) == 2 and _adjacent(self._adj, *e)
                and e[0] < e[1])

    def __len__(self) -> int:
        return sum(map(len, self._adj)) // 2

    def __iter__(self) -> Iterator[Edge]:
        for u, a in enumerate(self._adj):
            for v in a[bisect_right(a, u):]:
                yield (u, v)

    def __hash__(self) -> int:
        return hash(self._adj)


class Graph:
    """Simple undirected graph with fixed vertex set 0..n-1."""

    __slots__ = ("_n", "_adj", "_edges", "_csr")

    def __init__(self, n: int, adjacency: tuple[tuple[int, ...], ...], edges: EdgeSet,
                 csr: tuple[np.ndarray, np.ndarray] | None = None):
        """``edges`` views ``adjacency``; ``csr``, if not given, is built on first use."""
        self._n = n
        self._adj = adjacency
        self._edges = edges
        self._csr = csr

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return _adjacent(self._adj, u, v)

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Per k, whether (us[k], vs[k]) is an edge: ids outside 0..n-1 are
        not, and a non-integer id raises DomainError (``vertex_ids``' type
        rule).  Each pair is looked up in the row of its smaller-degree end
        (``us[k]`` on a tie), and only those rows are read (``_rows``), keyed
        as end rank * n + neighbour in one sorted array; the CSR is never built."""
        n = self._n
        us, vs = _integer_ids(us), _integer_ids(vs)
        out = np.zeros(us.shape, dtype=bool)
        asked = np.flatnonzero((us >= 0) & (us < n) & (vs >= 0) & (vs < n))
        k = len(asked)
        ends, rank = np.unique(np.concatenate([us[asked], vs[asked]]), return_inverse=True)
        deg = np.fromiter((len(self._adj[e]) for e in ends.tolist()), dtype=np.int64,
                          count=len(ends))
        flip = deg[rank[k:]] < deg[rank[:k]]
        row = np.where(flip, rank[k:], rank[:k])
        other = np.where(flip, us[asked], vs[asked])
        ranks = np.unique(row)
        sizes, keys = self._rows(ends[ranks])
        keys += np.repeat(ranks * n, sizes)
        want = row * n + other
        at = np.searchsorted(keys, want)
        found = at < len(keys)
        found[found] = keys[at[found]] == want[found]
        out[asked] = found
        return out

    def _rows(self, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row lengths and flat ascending neighbours (new arrays) of the
        listed vertices, in order: CSR slices when the CSR is built, the
        neighbour tuples otherwise, so the CSR is never built.  The tuples
        are packed into the output with one ``pack_into`` call per run of
        rows: a row of at least _LONG_ROW entries makes a run by itself,
        unpacked as it is, and shorter rows are chained into runs of at
        most _PACK_RUN entries that end before the next long row."""
        if self._csr is not None:
            indptr, indices = self._csr
            starts = indptr[verts]
            sizes = indptr[verts + 1] - starts
            at = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(int(sizes.sum()))
            return sizes, indices[at]
        rows = [self._adj[v] for v in verts.tolist()]
        sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        ends = np.cumsum(sizes).tolist()
        longs = [*np.flatnonzero(sizes >= _LONG_ROW).tolist(), len(rows)]
        out = np.empty(ends[-1] if ends else 0, dtype=np.intp)
        k = done = 0
        while k < len(rows):
            if len(rows[k]) >= _LONG_ROW:
                stop, entries = k + 1, rows[k]
            else:  # the short rows up to the next long one, _PACK_RUN entries at most
                stop = min(bisect_right(ends, done + _PACK_RUN, k),
                           longs[bisect_right(longs, k)])
                entries = chain.from_iterable(rows[k:stop])
            pack_into(f"{ends[stop - 1] - done}n", out, done * out.itemsize, *entries)
            k, done = stop, ends[stop - 1]
        return sizes, out

    def block(self, rows: Iterable[int], cols: Iterable[int], dtype=bool) -> np.ndarray:
        """Dense len(rows) × len(cols) adjacency between two lists of
        vertex ids, C-contiguous: [i, j] is 1 where rows[i] and cols[j] are
        adjacent and 0 elsewhere.  Only the rows are read (``_rows``), so
        the CSR is never built, and they are written as one flat row-major
        scatter, masked only when some neighbour has no column.  Ids outside
        0..n-1 raise OutOfRangeError; a repeated id in ``cols`` raises
        DomainError, while a repeated row is just read again."""
        rows, cols = vertex_ids(self._n, rows), vertex_ids(self._n, cols)
        k = len(cols)
        col = np.full(self._n, -1, dtype=np.intp)
        col[cols] = pos = np.arange(k)
        if (col[cols] != pos).any():
            raise DomainError("repeated vertex id in cols")
        sizes, nbr = self._rows(rows)
        at = col[nbr]
        hit = at >= 0
        at += np.repeat(np.arange(len(rows)) * k, sizes)
        out = np.zeros(len(rows) * k, dtype=dtype)
        out[at if hit.all() else at[hit]] = 1
        return out.reshape(len(rows), k)

    def edge_set(self) -> EdgeSet:
        return self._edges

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return list(self._edges)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR pair (indptr, indices) of the adjacency (cached; intp): the
        neighbors of v are indices[indptr[v]:indptr[v + 1]], ascending."""
        if self._csr is None:
            sizes, indices = self._rows(np.arange(self._n))
            self._csr = (np.insert(np.cumsum(sizes), 0, 0), indices)
        return self._csr

    def neighbor_counts(self, vertices: Iterable[int]) -> np.ndarray:
        """Per vertex, the number of its neighbors in the given vertex set
        (a repeated id counts once; ids outside 0..n-1 raise
        OutOfRangeError).  The adjacency is symmetric, so v's count is how
        often v occurs in the set's own rows: one ``bincount`` over the rows
        ``_rows`` reads, O(|set| d + n), and the CSR is never built."""
        mask = np.zeros(self._n, dtype=bool)
        mask[vertex_ids(self._n, vertices)] = True
        return np.bincount(self._rows(np.flatnonzero(mask))[1], minlength=self._n)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (int8, made on each call)."""
        return self.block(range(self._n), range(self._n), dtype=np.int8)

    def complement(self) -> "Graph":
        return build_graph(self._n, np.argwhere(np.triu(self.adjacency_matrix() == 0, 1)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


def vertex_ids(n: int, vertices: Iterable[int]) -> np.ndarray:
    """The strict id rule: ids as an intp array; DomainError for a float, bool
    or string id (an array's dtype, or an element), OutOfRangeError outside 0..n-1."""
    ids = _integer_ids(vertices)
    if ids.size and not (ids.min() >= 0 and ids.max() < n):
        raise OutOfRangeError(f"vertex id outside 0..{n - 1}")
    return ids


def _integer_ids(vertices: Iterable[int]) -> np.ndarray:
    """``vertex_ids`` without the range check; an int beyond intp reads as
    -1, which is outside every range, as ``build_graph`` maps its overflow."""
    if isinstance(vertices, np.ndarray):
        if vertices.dtype.kind not in "iu":
            raise DomainError(f"vertex ids must be integers, not {vertices.dtype}")
        return vertices.astype(np.intp, copy=False)
    if isinstance(vertices, range):
        return np.arange(vertices.start, vertices.stop, vertices.step, dtype=np.intp)
    if not isinstance(vertices, (list, tuple)):
        vertices = list(vertices)  # a one-shot iterable is read twice below
    # one pass over the element types: ints and numpy ints, never bools
    if any(not issubclass(kind, (int, np.integer)) or issubclass(kind, bool)
           for kind in set(map(type, vertices))):
        raise DomainError("vertex ids must be integers")
    try:
        return np.fromiter(vertices, dtype=np.intp, count=len(vertices))
    except OverflowError:
        big = np.iinfo(np.intp).max
        return np.array([v if 0 <= v <= big else -1 for v in vertices], dtype=np.intp)


def build_graph(n: int, edge_list: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a Graph from an edge list (pairs, or an (m, 2) integer array),
    deduplicating repeated pairs.

    Raises DomainError for an endpoint that is not an integer (a float or
    bool array, a float in a list), OutOfRangeError for an endpoint >= n
    (or < 0) and SelfLoopError for a loop, naming the first offending pair
    in input order; parallel edges are silently collapsed.
    """
    if n < 0:
        raise OutOfRangeError(f"negative vertex count {n}")
    if isinstance(edge_list, np.ndarray):
        if edge_list.dtype.kind not in "iu":
            raise DomainError(f"edge endpoints must be integers, not {edge_list.dtype}")
        if edge_list.shape[1:] != (2,):
            raise DomainError("every edge must be a pair")
        pairs = edge_list.astype(np.int64, copy=False)
    else:
        if not isinstance(edge_list, (list, tuple)):
            edge_list = list(edge_list)  # a one-shot iterable is read twice below
        try:
            lengths = set(map(len, edge_list))
        except TypeError:  # an edge that is not a sequence
            lengths = {None}
        if lengths - {2}:
            raise DomainError("every edge must be a pair")
        try:
            pairs = np.fromiter(map(index, chain.from_iterable(edge_list)), dtype=np.int64,
                                count=2 * len(edge_list)).reshape(-1, 2)
        except TypeError:
            raise DomainError("edge endpoints must be integers") from None
        except OverflowError:
            raise OutOfRangeError(f"edge endpoint outside 0..{n - 1}") from None
    m = len(pairs)
    u, v = pairs[:, 0], pairs[:, 1]
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    bad = np.flatnonzero(outside | (u == v))
    if bad.size:
        a, b = pairs[bad[0]].tolist()
        if outside[bad[0]]:
            raise OutOfRangeError(f"edge ({a}, {b}) outside 0..{n - 1}")
        raise SelfLoopError(f"loop at vertex {a}")
    # one int64 key per half-edge, source-major, built in place: sorting
    # puts every neighbour list in place, and equal neighbours are adjacent
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=keys[:m])
    keys[:m] += v
    np.multiply(v, n, out=keys[m:])
    keys[m:] += u
    del pairs, u, v, outside, bad
    keys.sort()
    fresh = np.empty(2 * m, dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    if not fresh.all():
        keys = keys[fresh]
    del fresh
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    indices = np.remainder(keys, n, out=keys).astype(np.intp, copy=False)
    adjacency = _neighbour_tuples(n, indptr, indices)
    return Graph(n, adjacency, EdgeSet(adjacency), (indptr, indices))


def _neighbour_tuples(n: int, indptr: np.ndarray,
                      indices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The CSR rows as tuples sharing one int object per vertex, made a run
    of rows at a time: each run spans about _TUPLE_RUN half-edges, so no
    object array or list of every half-edge is made."""
    ints = np.arange(n).astype(object)
    cuts = np.searchsorted(indptr, np.arange(_TUPLE_RUN, len(indices), _TUPLE_RUN))
    cuts = [0, *np.unique(cuts).tolist(), n]
    rows: list[tuple[int, ...]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        start = indptr[lo]
        flat = ints[indices[start:indptr[hi]]].tolist()
        bounds = (indptr[lo:hi + 1] - start).tolist()
        rows.extend(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
    return tuple(rows)


class GraphView:
    """Read-only view of a graph minus a vertex set and an edge set.

    Queries agree with the graph that would be obtained by materializing the
    deletions.  Removed vertices report no neighbors.  Removed edges are
    kept per vertex, as the frozenset of partners that vertex lost; ``minus``
    derives every further view, and one that removes no edge shares its
    parent's map.  The degree array is computed on first use.
    """

    __slots__ = ("base", "removed_vertices", "_lost", "_degrees")

    def __init__(self, base: Graph, removed_vertices: frozenset[int] = frozenset(),
                 lost: dict[int, frozenset[int]] | None = None):
        """The whole of ``base``; the other arguments are for ``minus``."""
        self.base = base
        self.removed_vertices = removed_vertices
        self._lost = {} if lost is None else lost
        self._degrees: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.base.n

    def minus(self, vertices: Iterable[int] = (),
              edges: Iterable[tuple[int, int]] = ()) -> "GraphView":
        """This view with more vertices and edges deleted.

        Vertex ids are read by ``vertex_ids`` (DomainError, OutOfRangeError);
        pairs in either orientation are accepted, and pairs that are not
        edges of the base graph are ignored.
        """
        vertices = frozenset(vertex_ids(self.base.n, vertices).tolist())
        new: dict[int, set[int]] = {}
        for a, b in edges:
            if self.base.has_edge(a, b):
                new.setdefault(a, set()).add(b)
                new.setdefault(b, set()).add(a)
        lost = self._lost
        if new:
            lost = {**lost, **{v: lost.get(v, frozenset()) | ws for v, ws in new.items()}}
        return GraphView(self.base, self.removed_vertices | vertices, lost)

    def contains_vertex(self, v: int) -> bool:
        """Whether v is a vertex id (``_is_vertex``) the view keeps."""
        return _is_vertex(self.base.n, v) and v not in self.removed_vertices

    def neighbors(self, v: int) -> Sequence[int]:
        """Ascending neighbors of v in the view; the base tuple itself when
        v has no removed neighbor and no removed incident edge."""
        removed = self.removed_vertices
        if v in removed:
            return []
        adj = self.base.neighbors(v)
        lost = self._lost.get(v)
        if lost is None:
            return adj if removed.isdisjoint(adj) else [w for w in adj if w not in removed]
        return [w for w in adj if w not in removed and w not in lost]

    def degrees(self) -> np.ndarray:
        """Every vertex's degree in the view, zero on removed vertices, as
        one read-only int array computed on first use."""
        if self._degrees is None:
            self._degrees = self._degree_array()
        return self._degrees

    def _degree_array(self) -> np.ndarray:
        """Base degrees minus the counts into the removed vertices, zero on
        those, then minus the lost partners still present."""
        base, removed = self.base, self.removed_vertices
        deg = np.diff(base.csr()[0])
        if removed:
            deg -= base.neighbor_counts(removed)
            deg[np.fromiter(removed, dtype=np.intp)] = 0
        for v, lost in self._lost.items():
            if v not in removed:
                deg[v] -= len(lost - removed)
        deg.flags.writeable = False
        return deg

    def has_edge(self, u: int, v: int) -> bool:
        removed = self.removed_vertices
        try:
            if u in removed or v in removed:
                return False
        except TypeError:  # unhashable, so no vertex by ``_is_vertex``
            return False
        return v not in self._lost.get(u, ()) and self.base.has_edge(u, v)

    def edges(self) -> list[Edge]:
        return [(u, v) for u, v in self.base.edges() if self.has_edge(u, v)]

    def materialize(self) -> Graph:
        """Copy the view into a standalone Graph (same vertex ids)."""
        return build_graph(self.base.n, self.edges())

    def __repr__(self) -> str:
        return f"GraphView(base={self.base!r}, |U|={len(self.removed_vertices)})"


def view_minus(g: Graph, removed_vertices: Iterable[int] = (),
               removed_edges: Iterable[tuple[int, int]] = ()) -> GraphView:
    """``GraphView(g).minus(removed_vertices, removed_edges)``."""
    return GraphView(g).minus(removed_vertices, removed_edges)


def pair_density(g: Graph, a_side: Sequence[int], b_side: Sequence[int]) -> float:
    """Edge density e(A,B) / (|A||B|) between two disjoint nonempty sets."""
    a_set, b_set = set(a_side), set(b_side)
    if not a_set or not b_set:
        raise EmptySideError("density needs two nonempty sides")
    if a_set & b_set:
        raise OverlapError("density sides must be disjoint")
    crossing = int(g.neighbor_counts(b_set)[vertex_ids(g.n, a_set)].sum())
    return crossing / (len(a_set) * len(b_set))


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list text format.

    Line 1 is "n m"; each of the following m lines is "u v" with
    0 <= u < v < n, no pair listed twice in either orientation, and only
    blank lines after them.  Errors carry 1-based line numbers.

    A file made only of ASCII digits, spaces and newlines is read in bulk
    (``_parse_bulk``).  Anything else, and any file the bulk reader finds
    fault with, is read again by the per-line loop (``_parse_lines``),
    which names the first bad line; so both give the same graph and every
    error keeps its message and line number.
    """
    g = _parse_bulk(text)
    return g if g is not None else _parse_lines(text)


_BULK_BYTES = b"0123456789 \n"
_BULK_DIGITS = 18  # every number of at most 18 digits fits in an int64


def _parse_bulk(text: str) -> Graph | None:
    """The graph of a valid file of digits, spaces and newlines, read with
    numpy, or None for any other text.

    The tokens are runs of digits.  Such a file is valid iff its header
    holds two numbers n and m, the body after it holds 2m tokens, the k-th
    body line ends after the first 2k of them, no pair is a loop or has an
    endpoint at least n, and ``build_graph`` keeps all m pairs (it collapses
    a repeat silently).  A number of more than 18 digits hands over too, so
    no int64 can overflow.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if data.translate(None, _BULK_BYTES):
        return None
    head, _, body = data.partition(b"\n")
    head = head.split()
    if len(head) != 2 or max(map(len, head)) > _BULK_DIGITS:
        return None
    n, m = int(head[0]), int(head[1])
    b = np.frombuffer(body, dtype=np.uint8)
    digit = np.empty(len(b) + 2, dtype=bool)
    digit[0] = digit[-1] = False
    np.greater_equal(b, ord("0"), out=digit[1:-1])
    change = np.flatnonzero(digit[1:] != digit[:-1])
    del digit
    starts, ends = change[0::2], change[1::2]
    del change
    if len(starts) != 2 * m:
        return None
    line_ends = np.append(np.flatnonzero(b == ord("\n")), len(b))[:m]
    if len(line_ends) < m or not np.array_equal(np.searchsorted(starts, line_ends),
                                                np.arange(2, 2 * m + 1, 2)):
        return None
    del line_ends
    sizes = ends - starts
    longest = int(sizes.max()) if m else 0
    if longest > _BULK_DIGITS:
        return None
    values = np.zeros(2 * m, dtype=np.int64)
    for k in range(longest):
        longer = np.flatnonzero(sizes > k)
        values[longer] = values[longer] * 10 + (b[starts[longer] + k] - ord("0"))
    del starts, ends, sizes
    pairs = values.reshape(-1, 2)
    if (pairs[:, 0] == pairs[:, 1]).any() or (values >= n).any():
        return None
    g = build_graph(n, pairs)
    return g if g.m == m else None


def _parse_lines(text: str) -> Graph:
    """``parse_edge_list`` one line at a time, raising ParseError at the
    first bad line; the reference the bulk reader is tested against."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing header")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(1, f"expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(1, f"non-integer header {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise ParseError(1, f"negative count in header {lines[0]!r}")
    first_seen: dict[Edge, int] = {}
    for i in range(m):
        lineno = i + 2
        if lineno - 1 >= len(lines) or not lines[lineno - 1].strip():
            raise ParseError(lineno, "missing edge line")
        parts = lines[lineno - 1].split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 'u v', got {lines[lineno - 1]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer endpoints {lines[lineno - 1]!r}") from None
        if u == v:
            raise ParseError(lineno, f"self-loop at {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise ParseError(lineno, f"endpoint outside 0..{n - 1}")
        e = normalize_edge(u, v)
        if e in first_seen:
            raise ParseError(lineno, f"edge {e} already listed on line {first_seen[e]}")
        first_seen[e] = lineno
    for lineno in range(m + 2, len(lines) + 1):
        if lines[lineno - 1].strip():
            raise ParseError(lineno, f"line after the {m} edge lines: {lines[lineno - 1]!r}")
    pairs = np.fromiter(chain.from_iterable(first_seen), dtype=np.int64, count=2 * len(first_seen))
    return build_graph(n, pairs.reshape(-1, 2))


def format_edge_list(g: Graph) -> str:
    """Serialize a Graph to the canonical edge-list text format: the
    u < v half of ``csr()``, lexicographic, written _TUPLE_RUN lines at a
    time, so no int or str object is made for every edge at once."""
    indptr, indices = g.csr()
    us = np.repeat(np.arange(g.n), np.diff(indptr))
    upper = us < indices
    us, vs = us[upper], indices[upper]
    runs = (map("{} {}".format, us[i:i + _TUPLE_RUN].tolist(), vs[i:i + _TUPLE_RUN].tolist())
            for i in range(0, len(us), _TUPLE_RUN))
    return "\n".join([f"{g.n} {g.m}", *map("\n".join, runs)]) + "\n"
