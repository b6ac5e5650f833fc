"""Closed-set representations: distance, nets, closure, clipping."""

import random
from fractions import Fraction as Fr

import pytest

from baire_lab.closed_sets import (
    ClosedIntervalUnion,
    Empty,
    FiniteBaireSet,
    FiniteRealSet,
    OpenIntervalUnion,
    TreeBody,
    clip_to_interval,
    clips_properly,
    closed_intervals,
    closure,
    common_heads,
    common_neighbourhood,
    dist_to_net,
    dist_to_set,
    enumerate_points,
    eps_net,
    finite_real,
    meets_open_ball,
    net_with_radius,
    open_intervals,
    set_contains,
    set_from_json,
    set_separation,
    set_to_json,
    tree_body_points,
)
from baire_lab.spaces import BAIRE_SPACE, REAL_LINE, eventually_zero, parse_baire_point
from baire_lab.trees import generated_by, make_tree


def test_dist_spec_examples():
    assert dist_to_set(Fr(3), finite_real(1, 2)) == 1
    assert dist_to_set(Fr(17, 5), Empty()) == 1  # the empty-set convention
    body = TreeBody(make_tree([(0,)]))
    assert dist_to_set(parse_baire_point("1;0"), body) == 0


def test_dist_interval_cases():
    s = closed_intervals((0, 1), (3, 3))
    assert dist_to_set(Fr(1, 2), s) == 0
    assert dist_to_set(Fr(2), s) == 1
    assert dist_to_set(Fr(7, 2), s) == Fr(1, 2)
    assert dist_to_set(Fr(-1), open_intervals((0, 1))) == 1


def test_membership_iff_zero_distance_on_closed_variants():
    rng = random.Random(61)
    sets = [
        finite_real(0, Fr(1, 2), 3),
        closed_intervals((Fr(-1), Fr(0)), (Fr(1, 2), Fr(3, 4))),
        FiniteBaireSet(frozenset({eventually_zero((1,)), parse_baire_point(";2")})),
        TreeBody(make_tree([(0, 1), (2,)])),
        TreeBody(make_tree(branches=[parse_baire_point(";1")])),
    ]
    probes_real = [Fr(rng.randrange(-8, 8), rng.randrange(1, 8)) for _ in range(40)]
    probes_baire = [eventually_zero((1,)), parse_baire_point(";2"), eventually_zero(()),
                    parse_baire_point("1;0"), parse_baire_point("3,1;0"), parse_baire_point(";1")]
    for s in sets:
        probes = probes_real if isinstance(s, (FiniteRealSet, ClosedIntervalUnion)) else probes_baire
        for y in probes:
            assert (dist_to_set(y, s) == 0) == set_contains(y, s)


def test_open_variant_membership_is_strict():
    s = open_intervals((0, 1))
    assert not set_contains(Fr(0), s)
    assert dist_to_set(Fr(0), s) == 0  # boundary: distance 0 without membership
    assert set_contains(Fr(1, 2), s)


def test_closure_examples_and_idempotence():
    assert closure(open_intervals((0, 1))) == closed_intervals((0, 1))
    for s in [finite_real(2), TreeBody(make_tree()), closed_intervals((0, 1)), Empty()]:
        assert closure(s) == s
        assert closure(closure(s)) == closure(s)


def test_eps_net_examples():
    assert eps_net(finite_real(0, 1), Fr(1, 10)) == [0, 1]
    grid = eps_net(closed_intervals((0, 1)), Fr(1, 2))
    assert grid == [Fr(0), Fr(1, 4), Fr(1, 2), Fr(3, 4), Fr(1)]
    assert eps_net(TreeBody(make_tree()), Fr(1, 10)) == [eventually_zero(())]
    assert eps_net(Empty(), Fr(1, 2)) == []


def test_eps_net_soundness():
    rng = random.Random(67)
    candidates = [
        finite_real(*[Fr(rng.randrange(-4, 5), rng.randrange(1, 5)) for _ in range(3)])
        for _ in range(10)
    ] + [
        closed_intervals((Fr(0), Fr(1)), (Fr(2), Fr(5, 2))),
        open_intervals((Fr(0), Fr(1, 3))),
        TreeBody(generated_by([(0, 1), (2,)])),
        TreeBody(make_tree(branches=[parse_baire_point("0;1")])),
    ]
    for s in candidates:
        for eps in (Fr(1), Fr(1, 3), Fr(1, 16)):
            net, radius = net_with_radius(s, eps)
            for member in net:
                assert dist_to_set(member, s) == 0
                if not isinstance(s, OpenIntervalUnion):
                    assert set_contains(member, s)
            # probes of the denotation are covered within eps
            probes = enumerate_points(s)
            if probes is None:
                probes = [a for a, _ in s.intervals] + [b for _, b in s.intervals] + [
                    (a + b) / 2 for a, b in s.intervals
                ]
            for y in probes:
                assert min(abs(y - m) if isinstance(y, Fr) else dist_to_set(y, FiniteBaireSet(frozenset([m])))
                           for m in net) <= eps
            assert radius == (eps if isinstance(s, (ClosedIntervalUnion, OpenIntervalUnion)) else 0)


def test_dist_to_net_matches_the_net_scan():
    """The closed form against the scan it replaces, on random interval
    unions: degenerate intervals, open intervals no longer than eps/2, and
    y inside, outside, on grid points and on end points."""
    rng = random.Random(83)

    def interval():
        a = Fr(rng.randrange(-12, 12), rng.choice((1, 2, 3, 4, 8)))
        width = rng.choice((Fr(0), Fr(rng.randrange(1, 4), 64), Fr(rng.randrange(1, 30), rng.choice((3, 8, 16)))))
        return a, a + width

    for _ in range(200):
        intervals = [interval() for _ in range(rng.randrange(1, 4))]
        opened = [(a, b) for a, b in intervals if a < b]
        sets = [closed_intervals(*intervals)] + ([open_intervals(*opened)] if opened else [])
        for s in sets:
            for eps in (Fr(2), Fr(1, 2), Fr(1, 3), Fr(1, 16), Fr(2, 7)):
                net = eps_net(s, eps)
                ys = [rng.choice(net), rng.choice([a for a, _ in intervals] + [b for _, b in intervals]),
                      Fr(rng.randrange(-400, 400), rng.choice((7, 16, 24, 60))), (net[0] + net[-1]) / 2]
                for y in ys:
                    scan = min(REAL_LINE.dist(y, p) for p in net)
                    assert dist_to_net(y, s, eps, REAL_LINE.dist) == scan, (s, eps, y)
    # enumerated variants are their own nets, and Empty has none
    for s in (finite_real(0, Fr(5, 2)), TreeBody(make_tree([(0, 1), (2,)])), Empty()):
        y = Fr(1) if isinstance(s, FiniteRealSet) else parse_baire_point(";1")
        dist = REAL_LINE.dist if isinstance(s, FiniteRealSet) else BAIRE_SPACE.dist
        assert dist_to_net(y, s, Fr(1, 16), dist) == min((dist(y, p) for p in eps_net(s, Fr(1, 16))), default=None)
    assert dist_to_net(Fr(0), Empty(), Fr(1), REAL_LINE.dist) is None
    with pytest.raises(ValueError):
        dist_to_net(Fr(0), closed_intervals((0, 1)), Fr(0), REAL_LINE.dist)


def test_meets_open_ball_examples():
    assert meets_open_ball(finite_real(0), Fr(1, 2), Fr(1))
    assert not meets_open_ball(Empty(), Fr(0), Fr(100))
    assert not meets_open_ball(closed_intervals((2, 3)), Fr(0), Fr(2))


def test_tree_body_denotation_and_nonemptiness():
    assert tree_body_points(make_tree()) == {eventually_zero(())}
    assert tree_body_points(make_tree([(0,)])) == {parse_baire_point("1;0")}
    assert tree_body_points(make_tree(branches=[eventually_zero(())])) == {parse_baire_point(";1")}
    rng = random.Random(71)
    for _ in range(200):
        seeds = [tuple(rng.randrange(3) for _ in range(rng.randrange(1, 4)))
                 for _ in range(rng.randrange(1, 4))]
        branches = [parse_baire_point(";1")] if rng.random() < 0.3 else []
        assert tree_body_points(make_tree(seeds, branches))


def test_clipping():
    assert clip_to_interval(finite_real(0, 5), Fr(-1), Fr(1)) == finite_real(0)
    assert isinstance(clip_to_interval(finite_real(5), Fr(-1), Fr(1)), Empty)
    assert clip_to_interval(closed_intervals((0, 3)), Fr(1), Fr(2)) == closed_intervals((1, 2))
    assert clip_to_interval(open_intervals((0, 1)), Fr(-1), Fr(2)) == closed_intervals((0, 1))
    assert isinstance(clip_to_interval(open_intervals((0, 1)), Fr(2), Fr(3)), Empty)
    assert clips_properly(finite_real(0, 5), Fr(-1), Fr(1))
    assert not clips_properly(finite_real(0), Fr(-1), Fr(1))


def test_set_separation():
    assert set_separation(finite_real(0), finite_real(1)) == 1
    assert set_separation(finite_real(0, 5), closed_intervals((2, 3))) == 2
    assert set_separation(closed_intervals((0, 1)), closed_intervals((Fr(3, 2), 2))) == Fr(1, 2)
    assert set_separation(closed_intervals((0, 1)), closed_intervals((1, 2))) == 0
    assert set_separation(finite_real(0), Empty()) is None
    a = TreeBody(make_tree())
    b = TreeBody(generated_by([(3,)]))
    assert set_separation(a, b) == 1


def test_json_roundtrip():
    for s in [
        finite_real(Fr(1, 2), 3),
        closed_intervals((0, 1)),
        open_intervals((0, Fr(1, 3))),
        FiniteBaireSet(frozenset({parse_baire_point("1;0")})),
        TreeBody(make_tree([(2,)])),
        Empty(),
    ]:
        assert set_from_json(set_to_json(s)) == s


def test_nonempty_variant_validation():
    with pytest.raises(ValueError):
        FiniteRealSet(frozenset())
    with pytest.raises(ValueError):
        closed_intervals((1, 0))
    with pytest.raises(ValueError):
        open_intervals((1, 1))


def test_common_neighbourhood_is_the_points_near_every_value():
    rng = random.Random(67)
    pool = [Fr(k, 4) for k in range(-4, 9)]

    def value():
        a, b = sorted(rng.sample(pool, 2))
        return rng.choice([
            finite_real(*rng.sample(pool, rng.randrange(1, 4))),
            closed_intervals((a, b)),
            open_intervals((a, b)),
            closed_intervals((a, a), (b, b + 1)),
            Empty(),
        ])

    grid = [Fr(k, 72) for k in range(-5 * 72, 7 * 72)]
    for _ in range(150):
        values = [value() for _ in range(rng.randrange(1, 4))]
        r = rng.choice([Fr(1), Fr(1, 2), Fr(1, 3), Fr(1, 9)])
        region = common_neighbourhood(values, r)
        assert all(a < b for a, b in region)
        assert all(b <= a for (_, b), (a, _) in zip(region, region[1:]))  # sorted and disjoint
        for y in grid:
            assert any(a < y < b for a, b in region) == all(dist_to_set(y, v) < r for v in values)
    with pytest.raises(ValueError):
        common_neighbourhood([finite_real(0)], Fr(2))


def test_common_heads_are_the_heads_near_every_value():
    rng = random.Random(71)
    sets = [
        FiniteBaireSet(frozenset({eventually_zero((1,)), parse_baire_point(";2"), parse_baire_point("0,1;0")})),
        FiniteBaireSet(frozenset({eventually_zero(()), parse_baire_point("1;1,0")})),
        TreeBody(make_tree([(0, 1), (2,)])),
        TreeBody(make_tree([(0,)], branches=[parse_baire_point(";1")])),
        TreeBody(make_tree([(0, 0), (1,)])),
        Empty(),
    ]
    ys = [BAIRE_SPACE.dense_point(s) for s in range(200)] + [parse_baire_point(";1"), parse_baire_point("1;2")]
    for _ in range(60):
        values = rng.sample(sets, rng.randrange(1, 4))
        for length in (1, 2, 3, 5):
            heads = common_heads(values, length)
            for y in ys:
                near = all(dist_to_set(y, v) < Fr(1, length) for v in values)
                assert (y.head(length) in heads) == near
