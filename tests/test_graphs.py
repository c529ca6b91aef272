import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imforge.errors import (
    EmptySideError,
    OutOfRangeError,
    OverlapError,
    ParseError,
    SelfLoopError,
)
from imforge.graphs import (
    build_graph,
    format_edge_list,
    pair_density,
    parse_edge_list,
    view_minus,
)

from helpers import complete, complete_bipartite, cycle, petersen


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.degrees() == [2, 2, 2]
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


def test_view_k4_minus_vertex_is_k3():
    g = complete(4)
    view = view_minus(g, {3})
    assert view.edges() == [(0, 1), (0, 2), (1, 2)]
    assert view.degree(3) == 0
    assert view.neighbors(3) == []
    assert view.materialize().degrees()[:3] == [2, 2, 2]


def test_view_k3_minus_edge():
    g = complete(3)
    view = view_minus(g, set(), {(0, 1)})
    assert view.edges() == [(0, 2), (1, 2)]
    assert [view.degree(v) for v in range(3)] == [1, 1, 2]


def test_view_c5_minus_vertex_and_edge():
    # oracle: enumerate C5 edges and delete by hand
    g = cycle(5)
    full = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    expect = sorted(e for e in full if 0 not in e and e != (1, 2))
    view = view_minus(g, {0}, {(1, 2)})
    assert view.edges() == expect == [(2, 3), (3, 4)]
    assert view.degree(1) == 0


def test_view_ignores_unknown_pairs():
    g = cycle(4)
    view = view_minus(g, set(), {(0, 2)})
    assert view.removed_edges == frozenset()
    assert view.edges() == g.edges()


def test_view_rejects_bad_vertex():
    with pytest.raises(OutOfRangeError):
        view_minus(cycle(4), {7})


def test_empty_view_equals_graph():
    g = petersen()
    view = view_minus(g)
    for v in range(g.n):
        assert view.degree(v) == g.degree(v)
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
    assert sum(view.degree(v) for v in range(g.n)) == 2 * len(view.edges())
    mat = view.materialize()
    assert mat.degrees() == [view.degree(v) for v in range(g.n)]


def test_edge_list_round_trip():
    g = petersen()
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_parse_k3():
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2\n")
    assert g == complete(3)


def test_edge_list_parse_error_line():
    with pytest.raises(ParseError) as err:
        parse_edge_list("2 1\n0 5\n")
    assert err.value.line == 2


def test_edge_list_parse_bad_header():
    with pytest.raises(ParseError) as err:
        parse_edge_list("nope\n")
    assert err.value.line == 1
