import gc
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from imforge import graphs
from imforge.errors import (
    DomainError,
    EmptySideError,
    ExpansionFailedError,
    NoPathError,
    OutOfRangeError,
    OverlapError,
    ParseError,
    SelfLoopError,
)
from imforge.expanders import short_avoiding_path
from imforge.gadgets import grow_expansion
from imforge.generators import paley, random_regular
from imforge.graphs import (
    Graph,
    build_graph,
    format_edge_list,
    normalize_edge,
    pair_density,
    parse_edge_list,
    vertex_ids,
    view_minus,
)
from imforge.nibble import Hypergraph3, triangle_hypergraph

from helpers import bare_shell, complete, complete_bipartite, cycle, degrees, petersen


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert degrees(g) == [2, 2, 2]
    assert g.m == 3


def test_build_dedup():
    g = build_graph(4, [(0, 1), (0, 1), (1, 0)])
    assert g.m == 1
    assert g.has_edge(1, 0)


def test_build_out_of_range():
    with pytest.raises(OutOfRangeError):
        build_graph(2, [(0, 2)])


def test_build_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(1, 1)])


def reference_build(n, edge_list):
    """The per-pair loop the array builder replaced: the edge frozenset it
    kept, or the error it raised first."""
    edges = set()
    for u, v in edge_list:
        u, v = int(u), int(v)
        if not (0 <= u < n) or not (0 <= v < n):
            return OutOfRangeError, f"edge ({u}, {v}) outside 0..{n - 1}"
        if u == v:
            return SelfLoopError, f"loop at vertex {u}"
        edges.add(normalize_edge(u, v))
    return frozenset(edges)


def wrap_ids(pairs, kind):
    """The same pairs as Python ints, numpy scalars, or a generator."""
    if kind == "numpy":
        return [(np.int64(u), np.int32(v)) for u, v in pairs]
    if kind == "generator":
        return ((u, v) for u, v in pairs)
    return list(pairs)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=7),
       st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 9)), max_size=30),
       st.sampled_from(["int", "numpy", "generator"]))
def test_build_graph_matches_reference_loop(n, pairs, kind):
    expect = reference_build(n, pairs)
    if isinstance(expect, frozenset):
        g = build_graph(n, wrap_ids(pairs, kind))
        assert g.edges() == sorted(expect)
        assert g.m == len(expect)
        for u in range(n):
            assert list(g.neighbors(u)) == sorted({b for a, b in expect if a == u}
                                                  | {a for a, b in expect if b == u})
    else:
        err_type, message = expect
        with pytest.raises(err_type) as err:
            build_graph(n, wrap_ids(pairs, kind))
        assert str(err.value) == message


def test_build_graph_rejects_non_pairs():
    with pytest.raises(DomainError):
        build_graph(4, [(0, 1), (1, 2, 3)])
    with pytest.raises(DomainError):
        build_graph(4, np.array([[0, 1, 2], [1, 2, 3]]))
    with pytest.raises(OutOfRangeError):
        build_graph(4, [(0, 1), (2 ** 70, 1)])


@pytest.mark.parametrize("edges", [[1, 2], [(0, 1), 5]], ids=["ints", "one-int"])
def test_build_graph_rejects_an_edge_that_is_not_a_sequence(edges):
    with pytest.raises(DomainError, match="every edge must be a pair"):
        build_graph(3, edges)


@pytest.mark.parametrize("edges", [
    [(0.7, 1.2)],
    [(0, 1), (1, 2.0)],
    [(np.float64(0), 1)],
    [("0", 1)],
    np.array([[0.7, 1.2]]),
    np.array([[0, 1]], dtype=np.float32),
    np.array([[True, False]]),
    np.empty((0, 2)),
], ids=["floats", "one-float", "numpy-float", "str", "float-array", "float32-array",
        "bool-array", "empty-float-array"])
def test_build_graph_rejects_non_integer_endpoints(edges):
    # truncating 0.7 and 1.2 would build the edge (0, 1)
    with pytest.raises(DomainError):
        build_graph(3, edges)


def test_build_graph_takes_integers_of_any_width():
    expect = [(0, 1), (1, 2)]
    for edges in ([(0, 1), (1, 2)], [(np.int8(0), np.uint64(1)), (np.int32(1), 2)],
                  [(True, 0), (1, 2)], np.array([[0, 1], [2, 1]], dtype=np.uint8),
                  np.array([[1, 0], [1, 2]], dtype=np.int16)):
        assert build_graph(3, edges).edges() == expect


def test_build_graph_reads_a_one_shot_generator_once():
    # lists and tuples are read as given; any other iterable is materialised
    # first, since the pair-length check and the parse each walk the input
    g = paley(37)
    edges = g.edges() + [(v, u) for u, v in g.edges()[::5]]
    built = [build_graph(37, edges), build_graph(37, tuple(edges)),
             build_graph(37, (e for e in edges)), build_graph(37, iter(edges))]
    for other in built:
        assert tuple(map(other.neighbors, range(37))) == tuple(map(g.neighbors, range(37)))
        assert all(np.array_equal(a, b) for a, b in zip(other.csr(), g.csr()))
    with pytest.raises(DomainError, match="every edge must be a pair"):
        build_graph(4, (e for e in [(0, 1), (1, 2, 3)]))


def reference_csr_build(n, edge_list):
    """``build_graph``'s array pass before its keys were built in place
    (commit 59a30b3), for valid input: the adjacency tuples and the CSR pair
    it made."""
    if isinstance(edge_list, np.ndarray):
        pairs = edge_list.astype(np.int64, copy=False)
    else:
        edge_list = list(edge_list)
        pairs = np.fromiter(chain.from_iterable(edge_list), dtype=np.int64,
                            count=2 * len(edge_list)).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    src, dst = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    indices = dst.astype(np.intp)
    flat = np.arange(n).astype(object)[indices].tolist()
    bounds = indptr.tolist()
    adjacency = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
    return adjacency, indptr, indices


def as_input(pairs, kind):
    """The pairs in one of the forms build_graph takes."""
    if kind == "list":
        return list(pairs)
    if kind == "numpy-scalars":
        return tuple((np.int64(u), np.uint16(v)) for u, v in pairs)
    if kind == "generator":
        return ((u, v) for u, v in pairs)
    return np.array(pairs, dtype=kind).reshape(-1, 2)


@st.composite
def valid_edge_lists(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    ids = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]),
                          max_size=25)) if n > 1 else []
    # repeats of drawn pairs, in either orientation
    repeats = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()),
                            max_size=10)) if pairs else []
    pairs += [(v, u) if flip else (u, v) for (u, v), flip in repeats]
    return n, draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None)
@given(valid_edge_lists(),
       st.sampled_from(["list", "numpy-scalars", "generator", "int32", "uint8", "int64"]))
def test_build_graph_output_is_bit_identical_to_the_reference(case, kind):
    n, pairs = case
    g = build_graph(n, as_input(pairs, kind))
    adjacency, indptr, indices = reference_csr_build(n, as_input(pairs, kind))
    assert tuple(map(g.neighbors, range(n))) == adjacency
    got_indptr, got_indices = g.csr()
    assert got_indptr.dtype == indptr.dtype and got_indices.dtype == indices.dtype
    assert np.array_equal(got_indptr, indptr) and np.array_equal(got_indices, indices)


def test_build_graph_traced_peak_per_edge():
    """Traced peak of building a 200k-edge graph from an (m, 2) int64 array,
    in bytes per edge.  The graph it returns holds about 41 B/edge (CSR
    indices and neighbour tuples).  Measured with tracemalloc on CPython 3.11
    and numpy 2.4: 110.7 B/edge for the array pass of commit 59a30b3 (key
    halves, their concatenation, a diff, a divmod, a copy and a full-size
    object array and list), 46.5 B/edge with keys built in place and tuples
    made a bounded run of rows at a time."""
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 20_000, size=(200_000, 2), dtype=np.int64)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    gc.collect()
    tracemalloc.start()
    try:
        g = build_graph(20_000, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 20_000 and g.m > 199_000
    assert peak / len(pairs) < 56


@st.composite
def graphs_and_probes(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    ids = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]),
                          max_size=20)) if n > 1 else []
    near = st.integers(min_value=-3, max_value=n + 3)
    probes = draw(st.lists(st.one_of(
        st.tuples(near, near),
        st.tuples(near, near).map(lambda p: (np.int64(p[0]), np.uint8(abs(p[1])))),
        st.tuples(st.booleans(), near),
        st.tuples(near, near, near),
        st.just(()), st.just(None), st.just("01"), near,
    ), max_size=25))
    return n, pairs, probes


@settings(max_examples=150, deadline=None)
@given(graphs_and_probes())
def test_edge_set_agrees_with_frozenset_of_edges(case):
    n, pairs, probes = case
    g = build_graph(n, pairs)
    old = frozenset(normalize_edge(u, v) for u, v in pairs)
    es = g.edge_set()
    assert len(es) == len(old) == g.m
    assert list(es) == sorted(old) == g.edges()
    for probe in probes + [(v, u) for u, v in old]:
        assert (probe in es) == (probe in old)
        if isinstance(probe, tuple) and len(probe) == 2:
            assert g.has_edge(*probe) == (normalize_edge(*probe) in old)
    assert [0, 1] not in es  # an unhashable probe is not a member
    rebuilt = build_graph(n, reversed(pairs))
    assert hash(rebuilt.edge_set()) == hash(es)



@settings(max_examples=150, deadline=None)
@given(graphs_and_probes(), st.data())
def test_has_edges_agrees_with_has_edge(case, data):
    n, pairs, _ = case
    g = build_graph(n, pairs)
    near = st.integers(min_value=-n - 3, max_value=2 * n + 3)
    probes = data.draw(st.lists(st.tuples(near, near), max_size=40))
    probes += [(v, u) for u, v in pairs]
    us = np.array([u for u, _ in probes], dtype=np.int64)
    vs = np.array([v for _, v in probes], dtype=np.int64)
    got = g.has_edges(us, vs)
    assert got.dtype == bool and got.shape == (len(probes),)
    assert got.tolist() == [g.has_edge(u, v) for u, v in probes]


def test_has_edges_on_empty_input_and_an_empty_graph():
    assert complete(4).has_edges([], []).tolist() == []
    assert build_graph(0, []).has_edges([0, -1], [1, 0]).tolist() == [False, False]
    assert build_graph(3, []).has_edges([0, 1, 2], [1, 2, 0]).tolist() == [False] * 3


def test_has_edges_never_builds_the_csr(monkeypatch):
    # a bare Graph with no CSR, as the benchmark hands its hosts out
    g = petersen()
    shell = Graph(g.n, tuple(map(g.neighbors, range(g.n))), g.edge_set())

    def no_csr(self):
        raise AssertionError("has_edges built the CSR")

    monkeypatch.setattr(Graph, "csr", no_csr)
    us, vs = np.array([0, 0, 5, 9, -1, 10, 3]), np.array([1, 2, 7, 4, 0, 0, 3])
    assert shell.has_edges(us, vs).tolist() == [True, False, True, True, False, False, False]
    assert shell._csr is None


def mixed_rows_host():
    """Rows of every packing case: vertex 0 is longer than a packing run,
    five rows are long but shorter than a run, between short rows of one
    to six entries, and the last four vertices are isolated."""
    leaves = graphs._PACK_RUN + 100
    hubs = range(leaves + 1, leaves + 6)
    edges = [(0, v) for v in range(1, leaves + 1)]
    edges += [(h, v) for h in hubs for v in range(1, graphs._LONG_ROW + 50)]
    return build_graph(leaves + 10, edges)


def dense_bipartite_host():
    """512 x 4096 at density 0.55: the k3 cell's host."""
    mask = np.random.default_rng(21).random((512, 4096)) < 0.55
    return build_graph(4608, np.argwhere(mask) + (0, 512))


@pytest.mark.parametrize("host,verts", [
    (mixed_rows_host, lambda n: np.arange(n)),
    (mixed_rows_host, lambda n: np.random.default_rng(3).permutation(n)),
    (mixed_rows_host, lambda n: np.array([n - 1, 0, n - 2, n - 3, 1, n - 6, 0])),
    (mixed_rows_host, lambda n: np.array([0])),
    (mixed_rows_host, lambda n: np.array([n - 1])),
    (mixed_rows_host, lambda n: np.array([n - 1, n - 2])),
    (mixed_rows_host, lambda n: np.array([], dtype=np.intp)),
    (lambda: random_regular(20000, 16, seed=8), lambda n: np.arange(n)),
    (dense_bipartite_host, lambda n: np.arange(512)),
], ids=["mixed-all", "mixed-shuffled", "mixed-picked", "long-row", "empty-row", "empty-rows",
        "no-rows", "rr20000x16", "bipartite512"])
def test_rows_of_a_shell_equal_the_csr_read(host, verts):
    g = host()
    verts = verts(g.n)
    shell = bare_shell(g)
    sizes, flat = shell._rows(verts)
    indptr, indices = g.csr()
    rows = [indices[indptr[v]:indptr[v + 1]] for v in verts.tolist()]
    assert sizes.dtype == flat.dtype == np.intp
    assert sizes.tolist() == list(map(len, rows))
    assert np.array_equal(flat, np.concatenate([np.empty(0, dtype=np.intp), *rows]))
    assert np.array_equal(flat, g._rows(verts)[1])  # the CSR slices
    assert shell._csr is None


@settings(max_examples=150, deadline=None)
@given(graphs_and_probes(), st.data())
def test_block_agrees_with_has_edge_with_or_without_a_csr(case, data):
    n, pairs, _ = case
    g = build_graph(n, pairs)
    # shuffled, non-contiguous id lists, as the pipelines pass them
    ids = st.lists(st.integers(min_value=0, max_value=n - 1), unique=True) if n else st.just([])
    rows, cols = data.draw(ids), np.array(data.draw(ids), dtype=np.intp)
    dtype = np.dtype(data.draw(st.sampled_from([bool, np.int8, np.float32, np.float64])))
    expect = np.array([[g.has_edge(u, v) for v in cols.tolist()] for u in rows],
                      dtype=dtype).reshape(len(rows), len(cols))
    # a bare Graph with no CSR, as the benchmark hands its hosts out
    shell = Graph(n, tuple(map(g.neighbors, range(n))), g.edge_set())
    for host in (g, shell):
        got = host.block(rows, cols, dtype=dtype)
        assert got.dtype == dtype and np.array_equal(got, expect)
        # spectral hands the transpose to LAPACK with overwrite_a: no copy
        assert got.flags.c_contiguous
    us = np.array(rows, dtype=np.int64)
    assert shell.has_edges(us, us[::-1]).tolist() == [g.has_edge(u, v)
                                                      for u, v in zip(rows, rows[::-1])]
    assert shell._csr is None


def test_block_rejects_ids_outside_the_graph():
    g = petersen()
    for rows, cols in (([0, 10], [1]), ([0], [-1]), ([3], [2, 10]), (np.array([-2]), [])):
        with pytest.raises(OutOfRangeError):
            g.block(rows, cols)


# truncating 0.5 would read vertex 0, a bool mask would read ids 0 and 1,
# and a numeric string would read the number it spells
@pytest.mark.parametrize("ids", [
    [0.5],
    [1, 2.0],
    [np.float64(1)],
    [True, 2],
    [0, "1"],
    np.array([0.5, 2.0]),
    np.array([True, False, True]),
    np.array(["0", "1"]),
], ids=["float", "one-float", "numpy-float", "bool", "string", "float-array", "bool-array",
        "string-array"])
@pytest.mark.parametrize("query", [
    lambda g, ids: g.block(ids, [1, 2, 3]),
    lambda g, ids: g.block([1, 2, 3], ids),
    lambda g, ids: g.neighbor_counts(ids),
    lambda g, ids: pair_density(g, ids, [7, 8]),
    lambda g, ids: g.has_edges(ids, [1] * len(ids)),
    lambda g, ids: g.has_edges([1] * len(ids), ids),
    lambda g, ids: view_minus(g).minus(ids),
    lambda g, ids: triangle_hypergraph(g, (ids, [10], [11])),
    lambda g, ids: Hypergraph3.from_array(g.n, [[v, 10, 11] for v in ids]),
], ids=["block-rows", "block-cols", "neighbor-counts", "pair-density", "has-edges-us",
        "has-edges-vs", "view-minus", "nibble-parts", "hypergraph-triples"])
def test_queries_reject_float_and_bool_ids(query, ids):
    with pytest.raises(DomainError):
        query(paley(13), ids)


def test_array_queries_check_the_dtype_of_an_empty_array():
    g = paley(13)
    with pytest.raises(DomainError):
        g.block(np.empty(0), [1, 2])
    with pytest.raises(DomainError):
        g.neighbor_counts(np.empty(0))
    with pytest.raises(DomainError):
        g.has_edges(np.empty(0), np.empty(0, dtype=np.int64))
    with pytest.raises(DomainError):
        Hypergraph3.from_array(g.n, np.empty((0, 3)))


def test_membership_queries_answer_no_for_a_non_integer_id():
    # the lenient rule: a float, string or list is no vertex, and nothing
    # raises, also in a view with deletions (an unhashable id must not reach
    # its removed-vertex set)
    view = view_minus(paley(13))
    for v in (0.5, 1.0, "0", None, [0]):
        for probe in (view, view_minus(paley(13), [2], [(0, 1)])):
            assert not probe.contains_vertex(v)
            assert not probe.base.has_edge(v, 1)
            assert not probe.has_edge(1, v) and not probe.has_edge(v, 1)
    with pytest.raises(NoPathError):
        short_avoiding_path(view, [0.5], [3], max_len=5)
    with pytest.raises(NoPathError):
        short_avoiding_path(view, [0], [2.5], max_len=5)
    with pytest.raises(ExpansionFailedError):
        grow_expansion(view, 0.5, size=3, radius=2)


def test_block_rejects_a_repeated_column_and_repeats_a_repeated_row():
    g = paley(13)
    assert g.has_edge(0, 1)
    for cols in ([1, 1, 3], np.array([4, 0, 4])):
        with pytest.raises(DomainError):
            g.block([0], cols)
    got = g.block([0, 2, 0], [1, 3, 5, 0])
    assert np.array_equal(got[0], got[2])
    assert got.tolist() == [[g.has_edge(u, v) for v in (1, 3, 5, 0)] for u in (0, 2, 0)]


@pytest.mark.parametrize("dtype", [bool, np.int8, np.float32, np.float64])
def test_block_with_no_rows_or_no_columns(dtype):
    g = petersen()
    for rows, cols in (([], [0, 1, 2]), ([0, 4], []), ([], []), (range(10), [])):
        got = g.block(rows, cols, dtype=dtype)
        assert got.shape == (len(rows), len(cols)) and got.dtype == dtype
        assert got.flags.c_contiguous
    assert build_graph(0, []).block([], []).shape == (0, 0)


def test_block_on_a_bipartite_host_with_all_or_no_neighbours_in_cols():
    # the k3 shape: cols covers every neighbour of rows, so nothing is masked
    g = complete_bipartite(5, 7)
    a, b = [4, 0, 2, 1, 3], [11, 5, 8, 6, 10, 9, 7]
    shell = Graph(g.n, tuple(map(g.neighbors, range(g.n))), g.edge_set())
    for host in (g, shell):
        full = host.block(a, b, dtype=np.float32)
        assert full.flags.c_contiguous and full.tolist() == [[1.0] * 7] * 5
        # no neighbour of a row has a column: every row is masked out
        none = host.block(a, a[::-1], dtype=np.float64)
        assert none.flags.c_contiguous and not none.any() and none.shape == (5, 5)
    sparse = build_graph(12, [(u, v) for u in a for v in b if (u + v) % 3])
    assert sparse.block(a, b).tolist() == [[(u + v) % 3 != 0 for v in b] for u in a]


def spied(g):
    """A shell of g whose neighbour tuples record, in a list, each vertex
    whose tuple is iterated; lengths are read without a record."""
    read = []

    class Row(tuple):
        def __iter__(self):
            read.append(self.vertex)
            return super().__iter__()

    rows = []
    for v in range(g.n):
        rows.append(Row(g.neighbors(v)))
        rows[-1].vertex = v
    rows = tuple(rows)
    return Graph(g.n, rows, g.edge_set()), read


@settings(max_examples=150, deadline=None)
@given(graphs_and_probes(), st.data())
def test_has_edges_reads_only_the_lower_degree_rows(case, data):
    n, pairs, _ = case
    g = build_graph(n, pairs)
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    probes = data.draw(st.lists(st.tuples(vertex, vertex), max_size=30)) if n else []
    probes += pairs + [(v, u) for u, v in pairs]
    us = np.array([u for u, _ in probes], dtype=np.int64)
    vs = np.array([v for _, v in probes], dtype=np.int64)
    for a, b in ((us, vs), (vs, us)):
        shell, read = spied(g)
        assert shell.has_edges(a, b).tolist() == [g.has_edge(u, v) for u, v in zip(a, b)]
        # an empty tuple may go unread, as there is nothing in it
        deg = degrees(g)
        lower = {u if deg[u] <= deg[v] else v for u, v in zip(a.tolist(), b.tolist())}
        assert read == sorted(set(read)) and set(read) <= lower
        assert {u for u in lower if deg[u]} <= set(read)


def test_has_edges_reads_the_small_side_of_a_lopsided_bipartite_host():
    # A = 0..2 with degree 40, B = 3..42 with degree 3; the verifier asks
    # with the smaller id first, which is always the A end
    g = complete_bipartite(3, 40)
    shell, read = spied(g)
    us, vs = np.repeat([0, 1, 2], 40), np.tile(np.arange(3, 43), 3)
    assert shell.has_edges(us, vs).all()
    assert read == list(range(3, 43))


def collector_visits(root) -> int:
    """Referents the collector visits in the tracked containers reachable
    from root, classes excluded."""
    seen, stack, total = {id(root)}, [root], 0
    while stack:
        obj = stack.pop()
        if not gc.is_tracked(obj) or isinstance(obj, type):
            continue
        refs = gc.get_referents(obj)
        total += len(refs)
        for r in refs:
            if id(r) not in seen:
                seen.add(id(r))
                stack.append(r)
    return total


def test_graph_costs_the_collector_order_n():
    g = random_regular(2000, 40, seed=1)
    gc.collect()  # untracks the tuples that hold only ints
    assert g.m == 40_000
    assert collector_visits(g) < 2 * g.n


def test_view_k4_minus_vertex_is_k3():
    g = complete(4)
    view = view_minus(g, {3})
    assert view.edges() == [(0, 1), (0, 2), (1, 2)]
    assert view.degrees().tolist() == [2, 2, 2, 0]
    assert view.neighbors(3) == []
    mat = view.materialize()
    assert degrees(mat) == [2, 2, 2, 0]


def test_view_k3_minus_edge():
    g = complete(3)
    view = view_minus(g, set(), {(0, 1)})
    assert view.edges() == [(0, 2), (1, 2)]
    assert view.degrees().tolist() == [1, 1, 2]


def test_view_c5_minus_vertex_and_edge():
    # oracle: enumerate C5 edges and delete by hand
    g = cycle(5)
    full = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    expect = sorted(e for e in full if 0 not in e and e != (1, 2))
    view = view_minus(g, {0}, {(1, 2)})
    assert view.edges() == expect == [(2, 3), (3, 4)]
    assert view.degrees().tolist() == [0, 0, 1, 2, 1]


def test_view_ignores_unknown_pairs():
    g = cycle(4)
    view = view_minus(g, set(), {(0, 2)})
    assert all(view.neighbors(v) is g.neighbors(v) for v in range(g.n))
    assert view.edges() == g.edges()


def test_view_rejects_bad_vertex():
    with pytest.raises(OutOfRangeError):
        view_minus(cycle(4), {7})


@pytest.mark.parametrize("big", [2 ** 70, -2 ** 70, 2 ** 63], ids=["2^70", "-2^70", "2^63"])
def test_ids_beyond_int64_are_out_of_range(big):
    # as in build_graph: an id numpy cannot hold is outside the graph, not
    # an OverflowError
    g = paley(13)
    with pytest.raises(OutOfRangeError):
        vertex_ids(g.n, [0, big])
    with pytest.raises(OutOfRangeError):
        view_minus(g, [big])
    with pytest.raises(OutOfRangeError):
        view_minus(g).minus([1, big])
    assert g.has_edges([big, 0, 1], [1, big, 0]).tolist() == [False, False, g.has_edge(0, 1)]


def test_empty_view_equals_graph():
    g = petersen()
    view = view_minus(g)
    assert view.degrees().tolist() == degrees(g)
    for v in range(g.n):
        assert tuple(view.neighbors(v)) == g.neighbors(v)
    assert view.edges() == g.edges()


def test_pair_density_complete_bipartite():
    g = complete_bipartite(3, 4)
    assert pair_density(g, range(3), range(3, 7)) == 1.0


def test_pair_density_independent_pair():
    g = complete_bipartite(3, 4)
    assert pair_density(g, [0, 1], [2]) == 0.0


def test_pair_density_k4_split():
    assert pair_density(complete(4), [0, 1], [2, 3]) == 1.0


def test_pair_density_symmetric():
    g = petersen()
    a, b = [0, 1, 2], [5, 6, 7, 8]
    assert pair_density(g, a, b) == pair_density(g, b, a)


def test_pair_density_errors():
    g = complete(4)
    with pytest.raises(EmptySideError):
        pair_density(g, [], [1])
    with pytest.raises(OverlapError):
        pair_density(g, [0, 1], [1, 2])


@pytest.mark.parametrize("query", [
    lambda g: g.neighbor_counts([-1]),
    lambda g: g.neighbor_counts([4]),
    lambda g: pair_density(g, [-1], [0]),
    lambda g: pair_density(g, [4], [0]),
    lambda g: pair_density(g, [0], [-1]),
    lambda g: pair_density(g, [0], [4]),
], ids=["counts-neg", "counts-n", "density-a-neg", "density-a-n", "density-b-neg",
        "density-b-n"])
def test_counting_queries_reject_ids_outside_the_graph(query):
    # a negative id must not stand in for vertex n-1 (here vertex 3)
    with pytest.raises(OutOfRangeError):
        query(build_graph(4, [(0, 3)]))


def test_neighbor_counts_matches_a_loop():
    g = random_regular(60, 5, 3)
    for inside in (set(range(0, 60, 7)), set(range(60)) - set(range(0, 60, 7))):
        for host in (g, bare_shell(g)):
            assert host.neighbor_counts(inside).tolist() == [
                sum(w in inside for w in g.neighbors(v)) for v in range(60)]
    assert g.neighbor_counts([]).tolist() == [0] * 60


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    else:
        chosen = []
    return build_graph(n, chosen)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=10 ** 6))
def test_view_handshake(g, salt):
    # deterministic pseudo-random deletions from the salt
    verts = [v for v in range(g.n) if (v * 2654435761 + salt) % 3 == 0]
    edges = [e for i, e in enumerate(g.edges()) if (i + salt) % 4 == 0]
    view = view_minus(g, verts, edges)
    assert view.degrees().sum() == 2 * len(view.edges())
    assert view.degrees().tolist() == degrees(view.materialize())


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.data())
def test_neighbor_counts_matches_a_brute_force_count(g, data):
    # every set size from empty to full, so on both sides of n/2, with
    # repeated ids that must count once
    n = g.n
    size = data.draw(st.integers(min_value=0, max_value=n))
    chosen = data.draw(st.permutations(range(n)))[:size]
    repeats = data.draw(st.lists(st.sampled_from(chosen), max_size=4)) if chosen else []
    ids = chosen + repeats
    inside = set(ids)
    want = [sum(w in inside for w in g.neighbors(v)) for v in range(n)]
    shell = bare_shell(g)
    for host in (g, shell):
        for given_ids in (ids, np.array(ids, dtype=np.int64), inside):
            assert host.neighbor_counts(given_ids).tolist() == want
        assert host.neighbor_counts([]).tolist() == [0] * n
        assert host.neighbor_counts(range(n)).tolist() == degrees(g)
    assert shell._csr is None  # counted from the tuples
    for bad in ([n], [-1], ids + [n + 3], np.array([-2], dtype=np.int64)):
        for host in (g, shell):
            with pytest.raises(OutOfRangeError):
                host.neighbor_counts(bad)


def test_edge_list_round_trip():
    g = petersen()
    assert parse_edge_list(format_edge_list(g)) == g


@pytest.mark.parametrize("n, edges", [(3, []), (0, []), (20000, None)],
                         ids=["no-edges", "no-vertices", "rr20000x16"])
def test_edge_list_writes_one_line_per_edge_in_order(n, edges):
    # rr20000x16's 160,000 lines are written in three runs
    g = random_regular(n, 16, seed=8) if edges is None else build_graph(n, edges)
    text = format_edge_list(g)
    assert text == "".join([f"{g.n} {g.m}\n", *(f"{u} {v}\n" for u, v in g.edges())])
    assert parse_edge_list(text) == g


def test_edge_list_parse_k3():
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2\n")
    assert g == complete(3)


def test_edge_list_parse_error_line():
    with pytest.raises(ParseError) as err:
        parse_edge_list("2 1\n0 5\n")
    assert err.value.line == 2


@pytest.mark.parametrize("text,line", [
    ("3 1\n0 1\ngarbage here\n", 3),  # a line after the declared edges
    ("3 2\n0 1\n1 0\n", 3),  # one pair in both orientations
    ("3 3\n0 1\n1 2\n0 1\n", 4),
    ("3 -1\n", 1),
])
def test_edge_list_rejects_what_the_format_forbids(text, line):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert err.value.line == line


@pytest.mark.parametrize("text,line,message", [
    ("", 1, "missing header"),
    ("3 x\n", 1, "non-integer header '3 x'"),
    ("3 2\n0 1\n", 3, "missing edge line"),
    ("3 1\n0\n", 2, "expected 'u v', got '0'"),
    ("3 1\n0 1 2\n", 2, "expected 'u v', got '0 1 2'"),
    ("3 1\n0 1.0\n", 2, "non-integer endpoints '0 1.0'"),
    ("3 1\n2 2\n", 2, "self-loop at 2"),
], ids=["empty", "non-integer-header", "truncated", "one-token", "three-tokens",
        "non-integer-endpoint", "self-loop"])
def test_edge_list_parse_errors_name_the_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


BEYOND_INT64 = ["9223372036854775808", "99999999999999999999", "0" * 19 + "1"]


@st.composite
def edge_list_texts(draw):
    """An edge-list file with random spacing, and at most one fault: a
    random simple graph, each pair in a random orientation, then one edit."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [[str(u), str(v)] if draw(st.booleans()) else [str(v), str(u)] for u, v in edges]
    header = [str(n), str(len(lines))]
    fault = draw(st.sampled_from(["none", "split", "beyond-int64", "repeat", "loop", "outside",
                                  "token", "drop", "extra", "blank", "count", "zeros"]))
    at = draw(st.integers(0, max(0, len(lines) - 1)))
    if fault == "split" and len(lines) >= 2:
        # a 3-token line next to a 1-token line keeps the token count even
        at = min(at, len(lines) - 2)
        three, one = lines[at] + lines[at + 1][:1], lines[at + 1][1:]
        lines[at:at + 2] = draw(st.sampled_from([[three, one], [one, three]]))
    elif fault == "beyond-int64" and lines:
        lines[at][draw(st.integers(0, 1))] = draw(st.sampled_from(BEYOND_INT64))
    elif fault == "repeat" and lines:
        again = lines[at][::draw(st.sampled_from([1, -1]))]
        lines.insert(draw(st.integers(at + 1, len(lines))), again)
        header[1] = str(len(lines))
    elif fault == "loop" and n:
        lines.insert(at, [str(draw(st.integers(0, n - 1)))] * 2)
        header[1] = str(len(lines))
    elif fault == "outside" and lines:
        lines[at][draw(st.integers(0, 1))] = str(n + draw(st.integers(0, 3)))
    elif fault == "token" and lines:
        lines[at][draw(st.integers(0, 1))] = draw(st.sampled_from(
            ["x", "1.0", "-1", "+1", "1_0", "\u0661", "0x1", ""]))
    elif fault == "drop" and lines:
        del lines[at]
    elif fault == "extra":
        lines.append(["0", "1"])
    elif fault == "blank" and lines:
        lines.insert(at, [])
    elif fault == "count":
        header[1] = draw(st.sampled_from([str(len(lines) + 1), str(max(0, len(lines) - 1)), "x"]))
    elif fault == "zeros" and lines:
        lines[at][0] = "00" + lines[at][0]
    sep = draw(st.sampled_from([" ", "  ", " \t", "\t"]) if draw(st.integers(0, 3)) == 0
               else st.just(" "))
    pad = draw(st.sampled_from(["", " ", "\r"]) if draw(st.integers(0, 3)) == 0 else st.just(""))
    tail = draw(st.sampled_from(["", "\n", "\n\n", "\n  \n"]))
    return "\n".join(pad + sep.join(parts) + pad for parts in [header, *lines]) + tail


def parsed(parse, text):
    """The graph, or the line and message of the ParseError."""
    try:
        return parse(text)
    except ParseError as err:
        return err.line, str(err)


@settings(max_examples=400, deadline=None)
@given(text=edge_list_texts())
@example(text="3 2\n0 1 2\n1\n")  # a 3-token line, then a 1-token line
@example(text="3 2\n0\n1 2 0\n")
@example(text="3 1\n0 99999999999999999999\n")  # beyond int64: outside 0..n-1
@example(text="3 3\n0 1\n1 2\n1 0\n")  # a repeat names the earlier line
def test_bulk_reader_agrees_with_the_line_loop(text):
    got = parsed(parse_edge_list, text)
    assert got == parsed(graphs._parse_lines, text)
    bulk = graphs._parse_bulk(text) is not None
    event("read in bulk" if bulk else "handed over")
    # a valid file of digits, spaces and newlines, no number longer than
    # 18 digits, never takes the loop
    assert bulk == (isinstance(got, Graph) and not set(text) - set("0123456789 \n")
                    and max(map(len, text.split())) <= 18)


def test_edge_list_allows_trailing_blank_lines():
    assert parse_edge_list("3 1\n0 1\n\n  \n") == build_graph(3, [(0, 1)])


def test_edge_list_parse_bad_header():
    with pytest.raises(ParseError) as err:
        parse_edge_list("nope\n")
    assert err.value.line == 1
