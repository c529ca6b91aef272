"""The level-set kernel ``expanders.bfs_tree`` with its parent rule, and the
bidirectional ``short_avoiding_path``, against the searches they replaced:
the per-vertex breadth-first generator, the forward ``short_avoiding_path``
loop, the fixed-length router with its own leveled trees and blocked/taken
sets, and the expansion grower.  The references below are those loops as
they were."""

import random
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from imforge.errors import ExpansionFailedError, NoPathError
from imforge.expanders import bfs_parent, bfs_tree, path_to, short_avoiding_path
from imforge.generators import random_regular
from imforge.gadgets import Expansion, grow_expansion
from imforge.graphs import GraphView, view_minus
from imforge.subdivision import _route_all

from helpers import cycle, path, views


def reference_bfs_tree(view, sources, depth, reverse=False):
    """The per-vertex generator: ``(level, parent, vertex)`` in discovery
    order, each level and each neighbour list scanned in ascending id order
    (descending with ``reverse``)."""
    frontier = sorted(set(sources), reverse=reverse)
    seen = set(frontier)
    for v in frontier:
        yield 0, None, v
    for level in range(1, depth + 1):
        nxt = []
        for u in frontier:
            nbrs = view.neighbors(u)
            for w in (reversed(nbrs) if reverse else nbrs):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    yield level, u, w
        if not nxt:
            return
        frontier = sorted(nxt, reverse=reverse)


def reference_short_avoiding_path(view, x1, x2, max_len):
    x1_set = {v for v in x1 if view.contains_vertex(v)}
    x2_set = {v for v in x2 if view.contains_vertex(v)}
    if not x1_set or not x2_set:
        raise NoPathError(max_len, "empty endpoint set in the view")
    common = x1_set & x2_set
    if common:
        return [min(common)]
    parent = {}
    frontier = sorted(x1_set)
    visited = set(x1_set)
    depth = 0
    while frontier and depth < max_len:
        depth += 1
        nxt = []
        for u in frontier:
            for w in view.neighbors(u):
                if w in visited:
                    continue
                if w in x2_set:
                    found = [w, u]
                    while found[-1] not in x1_set:
                        found.append(parent[found[-1]])
                    found.reverse()
                    return found
                visited.add(w)
                parent[w] = u
                nxt.append(w)
        frontier = sorted(nxt)
    raise NoPathError(max_len)


def _grow_level_tree(g, root, depth, blocked, taken, flip):
    levels = [[root]]
    parent = {}
    seen = {root}
    for _ in range(depth):
        nxt = []
        for u in sorted(levels[-1], reverse=flip):
            for w in sorted(g.neighbors(u), reverse=flip):
                if w in seen or w in blocked or w in taken:
                    continue
                seen.add(w)
                parent[w] = u
                nxt.append(w)
        levels.append(nxt)
    return levels, parent


def _extract(parent, root, leaf):
    found = [leaf]
    while found[-1] != root:
        found.append(parent[found[-1]])
    return found[::-1]


def reference_route_all(g, pairs, s_prime, length, rollbacks=None):
    """The router as it was; appends to ``rollbacks`` each time it rolls
    back."""
    half_depth = (length - 3) // 2 + 1
    used, routed, failed = set(), [], []

    def route(pair, flip):
        a, b = pair
        blocked = s_prime - {a, b}
        levels_a, parent_a = _grow_level_tree(g, a, half_depth, blocked, used | {b}, flip)
        taken_a = {v for lvl in levels_a for v in lvl}
        levels_b, parent_b = _grow_level_tree(g, b, half_depth, blocked, used | taken_a, flip)
        top_b = set(levels_b[half_depth])
        for x in sorted(levels_a[half_depth]):
            for y in sorted(g.neighbors(x)):
                if y in top_b:
                    return _extract(parent_a, a, x) + _extract(parent_b, b, y)[::-1]
        return None

    def commit(pair, p):
        routed.append((pair, p))
        used.update(p)

    for pair in pairs:
        p = route(pair, flip=False)
        if p is None and routed:
            if rollbacks is not None:
                rollbacks.append(pair)
            prev_pair, prev_path = routed.pop()
            used.difference_update(prev_path)
            p = route(pair, flip=False)
            if p is not None:
                commit(pair, p)
            else:
                failed.append(pair)
            redo = route(prev_pair, flip=True)
            if redo is not None:
                commit(prev_pair, redo)
            else:
                failed.append(prev_pair)
            continue
        if p is None:
            failed.append(pair)
            continue
        commit(pair, p)
    return dict(routed), failed


def reference_grow_expansion(view, root, size, radius, forbidden=()):
    banned = set(forbidden)
    if not view.contains_vertex(root) or root in banned:
        raise ExpansionFailedError(f"root {root} unavailable")
    order = [root]
    seen = {root}
    frontier = [root]
    depth = 0
    while len(order) < size and frontier and depth < radius:
        depth += 1
        nxt = []
        for u in frontier:
            for w in view.neighbors(u):
                if w in seen or w in banned:
                    continue
                seen.add(w)
                order.append(w)
                nxt.append(w)
                if len(order) == size:
                    break
            if len(order) == size:
                break
        frontier = nxt
    if len(order) < size:
        raise ExpansionFailedError(f"only {len(order)} of {size} vertices within radius {radius}")
    return Expansion(root, tuple(order))


def outcome(fn, *args, **kwargs):
    """The result, or the error's type and message."""
    try:
        return fn(*args, **kwargs)
    except (NoPathError, ExpansionFailedError) as err:
        return type(err), str(err)


def test_bfs_tree_levels_parents_and_scan_order():
    g = cycle(6)
    levels = list(bfs_tree(g, [0], 3))
    assert levels == [{0}, {1, 5}, {2, 4}, {3}]
    assert path_to(g, levels, 3) == [0, 1, 2, 3]
    assert path_to(g, levels, 3, reverse=True) == [0, 5, 4, 3]
    assert list(bfs_tree(g, [3, 0, 3], 1)) == [{0, 3}, {1, 2, 4, 5}]
    assert list(bfs_tree(g, [0], 0)) == [{0}]
    assert list(bfs_tree(path(3), [0], 5)) == [{0}, {1}, {2}]


class ScanLog:
    """A view that records which neighbour lists were read."""

    def __init__(self, view):
        self.view, self.scanned = view, []

    def neighbors(self, v):
        self.scanned.append(v)
        return self.view.neighbors(v)


def test_bfs_tree_stops_when_the_caller_does():
    log = ScanLog(view_minus(path(50)))
    assert list(islice(bfs_tree(log, [0], 49), 3)) == [{0}, {1}, {2}]
    assert log.scanned == [0, 1]


def test_path_to_walks_back_to_the_source():
    g = cycle(8)
    levels = list(bfs_tree(g, [0, 4], 2))
    assert levels == [{0, 4}, {1, 3, 5, 7}, {2, 6}]
    assert path_to(g, levels[:1], 0) == [0]
    assert path_to(g, levels, 6) == [4, 5, 6]
    assert path_to(g, levels, 2) == [0, 1, 2]
    assert path_to(g, levels, 6, reverse=True) == [0, 7, 6]
    assert path_to(g, levels, 2, reverse=True) == [4, 3, 2]


@settings(max_examples=200, deadline=None)
@given(views(), st.data())
def test_every_parent_is_the_least_neighbour_in_the_level_before(case, data):
    """The rule the kernel rests on: in the per-vertex search, a vertex's
    parent is its least neighbour in the previous level, its greatest with
    ``reverse``, and the levels are the kernel's."""
    view, _, _ = case
    ids = st.integers(min_value=0, max_value=view.n - 1)
    sources = data.draw(st.sets(ids, min_size=1, max_size=3))
    depth = data.draw(st.integers(min_value=0, max_value=view.n))
    reverse = data.draw(st.booleans())
    levels = list(bfs_tree(view, sources, depth))
    found = list(reference_bfs_tree(view, sources, depth, reverse))
    assert [{v for lvl, _, v in found if lvl == k} for k in range(len(levels))] == levels
    assert max(lvl for lvl, _, _ in found) == len(levels) - 1
    for lvl, parent, v in found:
        if lvl:
            assert parent == bfs_parent(view, v, levels[lvl - 1], reverse)
            assert path_to(view, levels[:lvl + 1], v, reverse)[-2:] == [parent, v]


@settings(max_examples=200, deadline=None)
@given(views(), st.data())
def test_short_avoiding_path_matches_the_former_search(case, data):
    view, _, _ = case
    ids = st.integers(min_value=0, max_value=view.n - 1)
    x1, x2 = data.draw(st.sets(ids, max_size=4)), data.draw(st.sets(ids, max_size=4))
    max_len = data.draw(st.integers(min_value=0, max_value=view.n + 1))
    assert outcome(short_avoiding_path, view, x1, x2, max_len) == \
        outcome(reference_short_avoiding_path, view, x1, x2, max_len)


@st.composite
def regular_host_cases(draw):
    """A random regular host on 50 to 400 vertices minus some vertices and
    edges, maybe with the ball of radius 1 around X1 cut off from the rest,
    and endpoint sets of up to six vertices that may overlap."""
    n = draw(st.integers(min_value=50, max_value=400))
    d = draw(st.sampled_from([d for d in (3, 4, 5, 6, 8) if n * d % 2 == 0]))
    g = random_regular(n, d, seed=draw(st.integers(min_value=0, max_value=10**6)))
    ids = st.integers(min_value=0, max_value=n - 1)
    edges = g.edges()
    gone_edges = [edges[i] for i in draw(st.sets(
        st.integers(min_value=0, max_value=len(edges) - 1), max_size=len(edges) // 5))]
    x1 = draw(st.sets(ids, min_size=1, max_size=6))
    x2 = draw(st.sets(ids, min_size=1, max_size=6))
    if draw(st.booleans()):
        ball = {v for u in x1 for v in (u, *g.neighbors(u))}
        gone_edges += [(u, w) for u in ball for w in g.neighbors(u) if w not in ball]
    if draw(st.booleans()):
        x2.add(draw(st.sampled_from(sorted(x1))))
    view = GraphView(g).minus(draw(st.sets(ids, max_size=n // 5)), gone_edges)
    return view, x1, x2


@settings(max_examples=150, deadline=None)
@given(regular_host_cases(), st.integers(min_value=0, max_value=3))
def test_short_avoiding_path_matches_the_former_search_on_regular_hosts(case, slack):
    """At the true distance and one below it (the NoPathError boundary), and
    with slack above it; disconnected views fail for every max_len."""
    view, x1, x2 = case
    try:
        dist = len(reference_short_avoiding_path(view, x1, x2, view.n)) - 1
    except NoPathError:
        dist = slack
    for max_len in (dist - 1, dist, dist + slack):
        assert outcome(short_avoiding_path, view, x1, x2, max_len) == \
            outcome(reference_short_avoiding_path, view, x1, x2, max_len)


@st.composite
def routing_cases(draw):
    """A small random regular host, disjoint endpoint pairs, an S' that
    holds every endpoint and maybe more, and an odd length."""
    n = draw(st.integers(min_value=8, max_value=40))
    d = draw(st.sampled_from([d for d in (3, 4, 5, 6) if n * d % 2 == 0]))
    g = random_regular(n, d, seed=draw(st.integers(min_value=0, max_value=10**6)))
    k = draw(st.integers(min_value=1, max_value=min(6, n // 2)))
    ends = draw(st.permutations(range(n)))[:2 * k]
    pairs = list(zip(ends[::2], ends[1::2]))
    extra = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n // 4))
    return g, pairs, set(ends) | extra, draw(st.sampled_from([3, 5, 7]))


@settings(max_examples=150, deadline=None)
@given(routing_cases())
def test_route_all_matches_the_former_router(case):
    g, pairs, s_prime, length = case
    assert _route_all(g, pairs, s_prime, length) == \
        reference_route_all(g, pairs, s_prime, length)


def test_route_all_matches_the_former_router_through_rollbacks():
    # seeded draws of the same shape, kept while the reference rolls back
    rng = random.Random(5)
    rolled = 0
    for _ in range(400):
        n = rng.randrange(10, 31, 2)
        g = random_regular(n, rng.choice([3, 4]), seed=rng.randrange(10**6))
        ends = rng.sample(range(n), 2 * rng.randint(2, n // 3))
        pairs = list(zip(ends[::2], ends[1::2]))
        s_prime, length = set(ends), rng.choice([3, 5, 7])
        rollbacks = []
        expected = reference_route_all(g, pairs, s_prime, length, rollbacks)
        if rollbacks:
            rolled += 1
            assert _route_all(g, pairs, s_prime, length) == expected
    assert rolled >= 20


@settings(max_examples=200, deadline=None)
@given(views(), st.data())
def test_grow_expansion_matches_the_former_grower_within_two_levels(case, data):
    view, _, _ = case
    ids = st.integers(min_value=0, max_value=view.n - 1)
    root = data.draw(ids)
    forbidden = data.draw(st.sets(ids, max_size=3))
    size = data.draw(st.integers(min_value=1, max_value=view.n + 1))
    radius = data.draw(st.integers(min_value=0, max_value=2))
    assert outcome(grow_expansion, view, root, size, radius, forbidden) == \
        outcome(reference_grow_expansion, view, root, size, radius, forbidden)


@settings(max_examples=200, deadline=None)
@given(views(), st.data())
def test_grow_expansion_past_two_levels_keeps_each_level(case, data):
    """Past the second level the kernel scans a level in id order where
    the former grower scanned it in discovery order, so only the order
    inside a level, and which vertices of the last level a cut keeps, may
    differ."""
    view, _, _ = case
    root = data.draw(st.integers(min_value=0, max_value=view.n - 1))
    radius = data.draw(st.integers(min_value=3, max_value=6))
    size = view.n + 1  # never cut: both report every vertex in the radius
    got = outcome(grow_expansion, view, root, size, radius)
    assert got == outcome(reference_grow_expansion, view, root, size, radius)
    if view.contains_vertex(root):
        level = {v: lvl for lvl, vs in enumerate(bfs_tree(view, [root], radius)) for v in vs}
        full = reference_grow_expansion(view, root, len(level), radius)
        kernel = grow_expansion(view, root, len(level), radius)
        assert [level[v] for v in kernel.vertices] == sorted(level.values())
        assert [level[v] for v in full.vertices] == sorted(level.values())
        assert set(kernel.vertices) == set(full.vertices)
        within_two = sum(1 for lvl in level.values() if lvl <= 2)
        assert kernel.vertices[:within_two] == full.vertices[:within_two]


@settings(max_examples=200, deadline=None)
@given(views(), st.data())
def test_grow_expansion_takes_the_former_generators_discovery_order(case, data):
    """(level, parent, vertex) order is the order in which the per-vertex
    generator discovered the vertices, at every radius."""
    view, _, _ = case
    ids = st.integers(min_value=0, max_value=view.n - 1)
    root, forbidden = data.draw(ids), data.draw(st.sets(ids, max_size=3))
    radius = data.draw(st.integers(min_value=0, max_value=6))
    size = data.draw(st.integers(min_value=1, max_value=view.n + 1))
    if view.contains_vertex(root) and root not in forbidden:
        found = reference_bfs_tree(view.minus(forbidden), [root], radius)
        order = tuple(v for _, _, v in islice(found, size))
        assert outcome(grow_expansion, view, root, size, radius, forbidden) == \
            (Expansion(root, order) if len(order) == size else outcome(
                reference_grow_expansion, view, root, size, radius, forbidden))
