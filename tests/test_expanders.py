import math
import random

import pytest

from imforge import expanders
from imforge.errors import DomainError, NoPathError, UnitFailedError
from imforge.expanders import (
    Unit,
    build_unit,
    collect_units,
    mix_length_m,
    pack_stars,
    short_avoiding_path,
)
from imforge.generators import random_regular
from imforge.graphs import GraphView, build_graph, normalize_edge, view_minus
from imforge.util import derive_seed

from helpers import complete, cycle, path, star


def test_mix_length_value():
    # (2/EPS1) ln^3(15n/(EPS2 d)) at EPS1 = 0.125, EPS2 = 0.2
    m = mix_length_m(10 ** 6, 10 ** 3)
    assert abs(m - 16 * math.log(75000) ** 3) < 1e-9
    assert abs(m - 22632) < 5


def test_mix_length_monotone_in_n():
    ms = [mix_length_m(n, 50) for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
    assert all(a < b for a, b in zip(ms, ms[1:]))


def test_mix_length_domain():
    with pytest.raises(DomainError):
        mix_length_m(0, 10)
    with pytest.raises(DomainError):
        mix_length_m(1, 10 ** 9)


def test_short_path_zero_length():
    view = view_minus(cycle(6))
    assert short_avoiding_path(view, [2, 3], [3, 4], 5) == [3]


def test_short_path_path_graph_budget():
    g = path(6)
    view = view_minus(g)
    assert short_avoiding_path(view, [0], [5], 5) == [0, 1, 2, 3, 4, 5]
    with pytest.raises(NoPathError):
        short_avoiding_path(view, [0], [5], 4)


def test_short_path_k5_avoiding_edges():
    g = complete(5)
    w = [(0, 2), (0, 3), (0, 4)]
    view = view_minus(g, set(), w)
    assert short_avoiding_path(view, [0], [4], 3) == [0, 1, 4]


def test_short_path_respects_removed_vertices():
    g = cycle(6)
    view = view_minus(g, {1})
    assert short_avoiding_path(view, [0], [2], 6) == [0, 5, 4, 3, 2]


def test_short_path_endpoints_only_in_terminals():
    g = complete(6)
    view = view_minus(g)
    x1, x2 = {0, 1}, {4, 5}
    p = short_avoiding_path(view, x1, x2, 4)
    assert p[0] in x1 and p[-1] in x2
    assert not (set(p[1:-1]) & (x1 | x2))
    assert len(set(p)) == len(p)


def test_pack_stars_single_star_graph():
    g = star(5)
    order = sorted(range(g.n), key=lambda v: (len(g.neighbors(v)), v))
    packed = pack_stars(view_minus(g), order, count=1, min_leaves=5, max_leaves=5)
    assert packed[0].center == 0 and packed[0].leaves == (1, 2, 3, 4, 5)


def test_pack_stars_k9_three_disjoint():
    g = complete(9)
    packed = pack_stars(view_minus(g), range(9), count=3, min_leaves=2, max_leaves=2)
    assert len(packed) == 3
    seen = set()
    for s in packed:
        block = {s.center, *s.leaves}
        assert not (block & seen)
        seen |= block
    assert len(seen) == 9


def test_pack_stars_c4_insufficient():
    # every center has only 2 free neighbors: the shortfall is an empty list
    assert pack_stars(view_minus(cycle(4)), range(4), count=1,
                      min_leaves=3, max_leaves=3) == []


def test_pack_stars_leaf_window():
    # centers take up to max_leaves, and only with at least min_leaves free
    packed = pack_stars(view_minus(complete(9)), range(9), count=5,
                        min_leaves=2, max_leaves=4)
    assert [(s.center, s.leaves) for s in packed] == [(0, (1, 2, 3, 4)),
                                                      (5, (6, 7, 8))]


def test_pack_stars_slack_keeps_the_centers_last_edge():
    # leaves past min_leaves never take the last edge; the required ones may
    g = star(5)
    packed = pack_stars(view_minus(g), [0], count=1, min_leaves=2, max_leaves=5)
    assert packed[0].leaves == (1, 2, 3, 4)
    packed = pack_stars(view_minus(g), [0], count=1, min_leaves=5, max_leaves=6)
    assert packed[0].leaves == (1, 2, 3, 4, 5)


def check_unit_structure(g, unit: Unit, h1, h2, h3):
    assert len(unit.stars) == h1
    assert len(unit.branches) == h1
    seen_edges = set()
    for branch, s in zip(unit.branches, unit.stars):
        assert branch[0] == unit.center and branch[-1] == s.center
        assert len(branch) - 1 <= h3
        for a, b in zip(branch, branch[1:]):
            e = normalize_edge(a, b)
            assert g.has_edge(a, b)
            assert e not in seen_edges  # branches pairwise edge-disjoint
            seen_edges.add(e)
    star_vertices = set()
    for s in unit.stars:
        assert len(s.leaves) >= h2
        block = {s.center, *s.leaves}
        assert not (block & star_vertices)
        star_vertices |= block
        for leaf in s.leaves:
            assert g.has_edge(s.center, leaf)
    assert not (unit.interior_vertices() & unit.exterior())


def test_build_unit_recovers_spider():
    # a graph that is exactly a (2,2,1)-unit: center 0, stars at 1 and 2
    g = build_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    unit = build_unit(view_minus(g, (), ()), h1=2, h2=2, h3=1)
    assert unit.center == 0
    assert sorted(s.center for s in unit.stars) == [1, 2]
    check_unit_structure(g, unit, 2, 2, 1)


def test_build_unit_k20():
    g = complete(20)
    unit = build_unit(view_minus(g, (), ()), h1=3, h2=2, h3=1)
    check_unit_structure(g, unit, 3, 2, 1)
    verts = {unit.center} | unit.exterior() | {s.center for s in unit.stars}
    for b in unit.branches:
        verts.update(b)
    assert len(verts) == 10  # 1 center + 3 star centers + 6 leaves
    assert all(len(b) == 2 for b in unit.branches)  # single-edge branches


def test_build_unit_c6_fails_at_stars():
    with pytest.raises(UnitFailedError) as err:
        build_unit(view_minus(cycle(6), (), ()), h1=3, h2=2, h3=1)
    assert err.value.stage == "stars"


def test_build_unit_respects_forbidden_sets():
    g = complete(20)
    forbidden_v = {0, 1}
    forbidden_e = {(2, 3), (2, 4)}
    unit = build_unit(view_minus(g, forbidden_v, forbidden_e), h1=3, h2=2, h3=2)
    check_unit_structure(g, unit, 3, 2, 2)
    touched = {unit.center} | unit.branch_vertices() | unit.exterior()
    assert not (touched & forbidden_v)
    assert not (unit.all_edges() & {normalize_edge(*e) for e in forbidden_e})


def test_collect_units_k30():
    g = complete(30)
    units = collect_units(g, count=2, h1=2, h2=2, h3=1)
    assert len(units) == 2
    assert units[0].center != units[1].center
    all_edges = sorted(e for u in units for e in u.all_edges())
    assert len(all_edges) == len(set(all_edges))  # pairwise edge-disjoint
    for u in units:
        check_unit_structure(g, u, 2, 2, 1)


def reference_collect_units(g, count, h1, h2, h3):
    """The collection loop with a fresh view of the host minus every earlier
    center and unit edge for each unit."""
    units, centers, edges = [], set(), set()
    for _ in range(count):
        try:
            unit = build_unit(view_minus(g, centers, edges), h1, h2, h3)
        except UnitFailedError:
            break
        units.append(unit)
        centers.add(unit.center)
        edges |= unit.all_edges()
    return units


@pytest.mark.parametrize("host,h_params", [
    (lambda: complete(30), (2, 2, 1)),
    (lambda: random_regular(300, 24, seed=16), (6, 2, 4)),
])
def test_collect_units_matches_a_fresh_view_per_unit(host, h_params):
    g = host()
    # both hosts run out of room before 40 units
    got = collect_units(g, 40, *h_params)
    want = reference_collect_units(g, 40, *h_params)
    assert 2 <= len(got) < 40
    assert got == want


def test_collect_units_builds_one_degree_array_per_unit(monkeypatch):
    # build_unit ranks its view by degree, and every candidate center orders
    # its star centers from that same array, never from a view of its own
    calls = {"build_unit": 0, "degree_array": 0}
    build_unit_, degree_array = expanders.build_unit, GraphView._degree_array

    def counted_build_unit(*args, **kwargs):
        calls["build_unit"] += 1
        return build_unit_(*args, **kwargs)

    def counted_degree_array(self):
        calls["degree_array"] += 1
        return degree_array(self)

    monkeypatch.setattr(expanders, "build_unit", counted_build_unit)
    monkeypatch.setattr(GraphView, "_degree_array", counted_degree_array)
    units = collect_units(random_regular(300, 24, seed=16), 40, 6, 2, 4)
    assert len(units) >= 2
    assert calls["degree_array"] == calls["build_unit"] == len(units) + 1


def test_collect_units_zero():
    assert collect_units(complete(10), count=0, h1=2, h2=2, h3=1) == []


def test_collect_units_impossible():
    assert collect_units(cycle(6), count=1, h1=3, h2=2, h3=1) == []


def test_pack_stars_seeded_order_is_deterministic():
    g = complete(12)

    def seeded_order():
        order = list(range(g.n))
        random.Random(derive_seed(5, "pack-stars-order")).shuffle(order)
        return order

    order = seeded_order()
    a = pack_stars(view_minus(g), order, count=2, min_leaves=3, max_leaves=3)
    b = pack_stars(view_minus(g), seeded_order(), count=2, min_leaves=3, max_leaves=3)
    assert [(s.center, s.leaves) for s in a] == [(s.center, s.leaves) for s in b]
    assert a[0].center == order[0]  # centers follow the given order
    # still a valid disjoint packing
    seen = set()
    for s in a:
        block = {s.center, *s.leaves}
        assert not (block & seen)
        seen |= block

