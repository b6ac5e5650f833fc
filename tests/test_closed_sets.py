"""Closed-set representations: distance, nets, closure, clipping."""

import random
from fractions import Fraction as Fr
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baire_lab.checkers import default_config
from baire_lab.closed_sets import (
    Empty,
    _distance_level,
    FiniteBaireSet,
    FiniteRealSet,
    IntervalUnion,
    clip_to_interval,
    closed_intervals,
    closure,
    common_region,
    dist_to_net,
    dist_to_set,
    distance_key,
    enumerate_points,
    eps_key,
    eps_net,
    finite_real,
    key_level,
    meets_open_ball,
    net_key,
    net_with_radius,
    open_intervals,
    region_frame,
    set_contains,
    set_separation,
    tree_body_points,
)
from baire_lab.gallery import F2_DEEP_DEPTH
from baire_lab.instances import parse_baire_point, set_from_json
from baire_lab.spaces import BAIRE_SPACE, REAL_LINE, BairePoint, baire_dist, eventually_zero
from baire_lab.trees import generated_by, make_tree

from corpus_helpers import branch_bearing_trees, depth3_tree_sample, enumerate_prefix_closed_trees
from scan_oracle import (
    baire_dist_to_points,
    line_region_by_fractions,
    neighbourhood,
    separation_by_pairs,
    shifted_tree_body_points,
)


def f2_value(t):
    """The value of the tree-indexed gallery map at t."""
    return FiniteBaireSet(tree_body_points(t))


def test_dist_spec_examples():
    assert dist_to_set(Fr(3), finite_real(1, 2)) == 1
    assert dist_to_set(Fr(17, 5), Empty()) == 1  # the empty-set convention
    body = f2_value(make_tree([(0,)]))
    assert dist_to_set(parse_baire_point("1;0"), body) == 0


def _short_points():
    """Every point with a 0/1 prefix of length <= 2 and a 0/1 period of
    length 1 to 3: many agree up to the max-prefix-plus-lcm bound, and
    many are equally far from a third."""
    out = set()
    for pre_len in range(3):
        for per_len in range(1, 4):
            for bits in range(2 ** (pre_len + per_len)):
                entries = tuple((bits >> i) & 1 for i in range(pre_len + per_len))
                out.add(BairePoint(entries[:pre_len], entries[pre_len:]))
    return sorted(out)


def _deep_points():
    """Points sharing at least F2_DEEP_DEPTH entries, as the padded deep
    heads of an ill-founded f2 probe do with the shifted branch."""
    beta = parse_baire_point(";1,2")
    trunk = beta.head(F2_DEEP_DEPTH)
    return [beta, eventually_zero(trunk), eventually_zero(trunk + (3,)), eventually_zero(trunk + (1, 2, 1)),
            eventually_zero(beta.head(F2_DEEP_DEPTH + 9)), BairePoint(trunk, (1, 2, 2)), BairePoint(trunk + (1,), (2, 1))]


def test_baire_dist_to_a_finite_set_is_the_least_pairwise_distance():
    """dist_to_set, dist_to_net and set_separation on finite sequence-space
    sets against the pairwise scans, with every case the walk can meet
    drawn at least once."""
    rng = random.Random(67)
    mixed = [eventually_zero(u) for u in ((), (0, 1), (0, 2), (1,), (0, 1, 1), (2, 0, 0, 3))]
    mixed += [parse_baire_point(";0,1"), parse_baire_point("0;1"), parse_baire_point("0,1;1,0")]
    pools = (_short_points(), _deep_points(), mixed + _deep_points())
    seen = set()
    for _ in range(1500):
        pool = rng.choice(pools)
        s1 = FiniteBaireSet(frozenset(rng.sample(pool, rng.randrange(1, 6))))
        y = rng.choice(sorted(s1.points)) if rng.random() < 0.25 else rng.choice(pool)
        s2 = frozenset(rng.sample(pool, rng.randrange(1, 6)))
        if rng.random() < 0.25:
            s2 |= {rng.choice(sorted(s1.points))}
        s2 = FiniteBaireSet(s2)
        expected = baire_dist_to_points(y, s1)
        assert dist_to_set(y, s1) == expected, (y, s1)
        for eps in (Fr(1), Fr(1, 16)):
            assert dist_to_net(y, s1, eps, BAIRE_SPACE.dist) == expected, (y, s1)
        assert set_separation(s1, s2) == separation_by_pairs(s1, s2), (s1, s2)
        assert set_separation(s2, s1) == separation_by_pairs(s1, s2), (s1, s2)
        seen.add("y inside" if expected == 0 else "y outside")
        if sum(baire_dist(y, p) == expected for p in s1.points) > 1:
            seen.add("tie")
        if expected and expected <= Fr(1, F2_DEEP_DEPTH + 1):
            seen.add("deep")
        if max(len(p.period) for p in s1.points) == 3:
            seen.add("period 3")
        if s1.points & s2.points:
            seen.add("intersecting")
    assert seen == {"y inside", "y outside", "tie", "deep", "period 3", "intersecting"}


_POINTS = st.builds(
    lambda trunk, prefix, period: BairePoint(trunk + tuple(prefix), tuple(period)),
    st.sampled_from([(), parse_baire_point(";1,2").head(F2_DEEP_DEPTH)]),
    st.lists(st.integers(0, 2), max_size=3),
    st.lists(st.integers(0, 2), min_size=1, max_size=3),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(data=st.data())
def test_sequence_space_kernels_match_the_pairwise_oracles_on_drawn_sets(data):
    """The same comparison on drawn points: prefixes of up to three entries
    and periods of one to three, after no trunk or a trunk of F2_DEEP_DEPTH
    entries; y is sometimes a point of s1, and s2 sometimes meets s1."""
    s1 = FiniteBaireSet(data.draw(st.frozensets(_POINTS, min_size=1, max_size=5)))
    own = st.sampled_from(sorted(s1.points))
    y = data.draw(st.one_of(_POINTS, own))
    s2 = FiniteBaireSet(data.draw(st.frozensets(_POINTS, min_size=1, max_size=4))
                        | data.draw(st.frozensets(own, max_size=1)))
    expected = baire_dist_to_points(y, s1)
    assert dist_to_set(y, s1) == expected
    assert dist_to_net(y, s1, Fr(1, 8), BAIRE_SPACE.dist) == expected
    assert set_separation(s1, s2) == separation_by_pairs(s1, s2)


_SCHEDULE = default_config().eps_schedule


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(data=st.data())
def test_distance_levels_match_the_fraction_distances(data):
    """`_distance_level` against `dist_to_set`, the pairwise oracles and the
    empty-set convention, on drawn sets (Empty, one point or more, points
    that share a deep trunk) and on y drawn from the set or outside it.
    The integer tests the probe layer makes on a level agree with the
    Fraction comparisons they replace: L > eps.denominator // eps.numerator
    with 1/L < eps, over the default schedule and drawn eps, and
    n + 1 >= 2L with 1/L >= 2/(n + 1).

    The keys the checkers compare go through the same levels:
    `distance_key` is ordered as `dist_to_set`, against a second drawn
    point and set; `net_key` falls below `eps_key` exactly when
    `dist_to_net` is a distance below eps, for eps above 1 and for Empty,
    whose net is empty; and `key_level` of a separation's key is
    ceil(2/sep) - 1, None at 0."""
    points = data.draw(st.frozensets(_POINTS, max_size=5))
    s = FiniteBaireSet(points) if points else Empty()
    y = data.draw(st.one_of(_POINTS, st.sampled_from(sorted(points))) if points else _POINTS)
    level = _distance_level(y, s)
    expected = baire_dist_to_points(y, s) if points else Fr(1)
    assert (Fr(0) if level is None else Fr(1, level)) == dist_to_set(y, s) == expected
    assert (level is None) == set_contains(y, s)
    y2 = data.draw(st.one_of(_POINTS, st.sampled_from(sorted(points))) if points else _POINTS)
    s2 = data.draw(st.sampled_from([s, Empty(), FiniteBaireSet(frozenset([y2]))]))
    for ordered in ("__lt__", "__eq__", "__gt__"):
        assert getattr(distance_key(y, s), ordered)(distance_key(y2, s2)) \
            == getattr(dist_to_set(y, s), ordered)(dist_to_set(y2, s2)), (y, s, y2, s2)
    if points:
        other = FiniteBaireSet(data.draw(st.frozensets(_POINTS, min_size=1, max_size=4)))
        separation = _distance_level(other, s)
        sep = separation_by_pairs(other, s)
        assert (Fr(0) if separation is None else Fr(1, separation)) == sep
        assert key_level(distance_key(other, s)) == (ceil(2 / sep) - 1 if sep else None)
    drawn = data.draw(st.lists(st.fractions(min_value=Fr(1, 10 ** 6), max_value=3, max_denominator=10 ** 6),
                               max_size=5))
    for eps in (Fr(2), *_SCHEDULE, *drawn):
        near = dist_to_net(y, s, Fr(1, 16), BAIRE_SPACE.dist)
        key = net_key(y, s, Fr(1, 16), BAIRE_SPACE.dist)
        assert (key is not None and key < eps_key(y, eps)) == (near is not None and near < eps), (y, s, eps)
        if level is not None:
            assert (level > eps.denominator // eps.numerator) == (Fr(1, level) < eps), (level, eps)
    if level is None:
        return
    for n in range(2 * level + 2):
        assert (n + 1 >= 2 * level) == (Fr(1, level) >= Fr(2, n + 1)), (level, n)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_REAL_SETS = st.one_of(
    st.just(Empty()),
    st.lists(_RATIONALS, min_size=1, max_size=4).map(lambda ps: finite_real(*ps)),
    st.lists(st.tuples(_RATIONALS, _RATIONALS).map(sorted), min_size=1, max_size=3).map(
        lambda ivs: closed_intervals(*ivs)),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(data=st.data())
def test_real_distance_keys_are_the_fraction_distances(data):
    """Off sequence space a key is the distance itself: `distance_key` is
    `dist_to_set` from a point and `set_separation` from a set, `net_key` is
    `dist_to_net` (None for Empty), `eps_key` is eps, and `key_level` of a
    separation is ceil(2/sep) - 1, None at 0."""
    y, s, other = data.draw(_RATIONALS), data.draw(_REAL_SETS), data.draw(_REAL_SETS)
    eps = data.draw(st.fractions(min_value=Fr(1, 100), max_value=3, max_denominator=100))
    assert distance_key(y, s) == dist_to_set(y, s)
    assert net_key(y, s, Fr(1, 4), REAL_LINE.dist) == dist_to_net(y, s, Fr(1, 4), REAL_LINE.dist)
    assert eps_key(y, eps) == eps
    if not isinstance(other, Empty) and not isinstance(s, Empty):
        sep = set_separation(other, s)
        assert distance_key(other, s) == sep
        assert key_level(distance_key(other, s)) == (ceil(2 / sep) - 1 if sep else None)


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
        f2_value(make_tree([(0, 1), (2,)])),
        f2_value(make_tree(branches=[parse_baire_point(";1")])),
    ]
    probes_real = [Fr(rng.randrange(-8, 8), rng.randrange(1, 8)) for _ in range(40)]
    probes_baire = [eventually_zero((1,)), parse_baire_point(";2"), eventually_zero(()),
                    parse_baire_point("1;0"), parse_baire_point("3,1;0"), parse_baire_point(";1")]
    for s in sets:
        probes = probes_real if isinstance(s, (FiniteRealSet, IntervalUnion)) else probes_baire
        for y in probes:
            assert (dist_to_set(y, s) == 0) == set_contains(y, s)


def test_open_variant_membership_is_strict():
    s = open_intervals((0, 1))
    assert not set_contains(Fr(0), s)
    assert dist_to_set(Fr(0), s) == 0  # boundary: distance 0 without membership
    assert set_contains(Fr(1, 2), s)


def test_closure_examples_and_idempotence():
    assert closure(open_intervals((0, 1))) == closed_intervals((0, 1))
    assert closed_intervals((0, 1)) != open_intervals((0, 1))  # the ends tell them apart
    for s in [finite_real(2), f2_value(make_tree()), closed_intervals((0, 1)), Empty()]:
        assert closure(s) == s
        assert closure(closure(s)) == closure(s)


def test_eps_net_examples():
    assert eps_net(finite_real(0, 1), Fr(1, 10)) == [0, 1]
    grid = eps_net(closed_intervals((0, 1)), Fr(1, 2))
    assert grid == [Fr(0), Fr(1, 4), Fr(1, 2), Fr(3, 4), Fr(1)]
    assert eps_net(f2_value(make_tree()), Fr(1, 10)) == [eventually_zero(())]
    assert eps_net(Empty(), Fr(1, 2)) == []


def test_eps_net_soundness():
    rng = random.Random(67)
    candidates = [
        finite_real(*[Fr(rng.randrange(-4, 5), rng.randrange(1, 5)) for _ in range(3)])
        for _ in range(10)
    ] + [
        closed_intervals((Fr(0), Fr(1)), (Fr(2), Fr(5, 2))),
        open_intervals((Fr(0), Fr(1, 3))),
        f2_value(generated_by([(0, 1), (2,)])),
        f2_value(make_tree(branches=[parse_baire_point("0;1")])),
    ]
    for s in candidates:
        for eps in (Fr(1), Fr(1, 3), Fr(1, 16)):
            net, radius = net_with_radius(s, eps)
            for member in net:
                assert dist_to_set(member, s) == 0
                assert set_contains(member, s)  # open intervals too: their grid lies inside
            # probes of the denotation are covered within eps
            probes = enumerate_points(s)
            if probes is None:
                probes = [a for a, _ in s.intervals] + [b for _, b in s.intervals] + [
                    (a + b) / 2 for a, b in s.intervals
                ]
            for y in probes:
                assert min(abs(y - m) if isinstance(y, Fr) else dist_to_set(y, FiniteBaireSet(frozenset([m])))
                           for m in net) <= eps
            assert radius == (eps if isinstance(s, IntervalUnion) else 0)


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
    for s in (finite_real(0, Fr(5, 2)), f2_value(make_tree([(0, 1), (2,)])), Empty()):
        y = Fr(1) if isinstance(s, FiniteRealSet) else parse_baire_point(";1")
        dist = REAL_LINE.dist if isinstance(s, FiniteRealSet) else BAIRE_SPACE.dist
        assert dist_to_net(y, s, Fr(1, 16), dist) == min((dist(y, p) for p in eps_net(s, Fr(1, 16))), default=None)
    assert dist_to_net(Fr(0), Empty(), Fr(1), REAL_LINE.dist) is None
    # a degenerate closed interval is its own net, an open interval no
    # longer than eps/2 has its midpoint, and y lies beyond both ends
    cases = [(closed_intervals((1, 1)), [Fr(1)]), (open_intervals((0, Fr(1, 4))), [Fr(1, 8)]),
             (closed_intervals((0, 1)), [Fr(k, 4) for k in range(5)]), (open_intervals((0, 1)), [Fr(k, 4) for k in (1, 2, 3)])]
    for s, net in cases:
        assert eps_net(s, Fr(1, 2)) == net
        for y in (Fr(-3), Fr(-1, 7), Fr(9, 8), Fr(5)):
            assert dist_to_net(y, s, Fr(1, 2), REAL_LINE.dist) == min(abs(y - p) for p in net), (s, y)
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
    # t's own terminals, shifted, are the terminals of the shifted tree (acceptance 04's trees)
    corpus = [make_tree(nodes) for nodes in enumerate_prefix_closed_trees(3, 2)]
    for t in corpus + depth3_tree_sample(2000) + branch_bearing_trees():
        assert tree_body_points(t) == shifted_tree_body_points(t), t


def test_clipping():
    assert clip_to_interval(finite_real(0, 5), Fr(-1), Fr(1)) == finite_real(0)
    assert isinstance(clip_to_interval(finite_real(5), Fr(-1), Fr(1)), Empty)
    assert clip_to_interval(closed_intervals((0, 3)), Fr(1), Fr(2)) == closed_intervals((1, 2))
    assert clip_to_interval(open_intervals((0, 1)), Fr(-1), Fr(2)) == closed_intervals((0, 1))
    assert isinstance(clip_to_interval(open_intervals((0, 1)), Fr(2), Fr(3)), Empty)
    # clipping to a single point keeps it only where it belongs to the set
    assert clip_to_interval(closed_intervals((0, 1)), Fr(1), Fr(2)) == closed_intervals((1, 1))
    assert isinstance(clip_to_interval(open_intervals((0, 1)), Fr(1), Fr(2)), Empty)
    assert clip_to_interval(open_intervals((0, 1)), Fr(1, 2), Fr(1, 2)) == closed_intervals((Fr(1, 2), Fr(1, 2)))
    # clipping lost part of a value exactly when the result differs from its closure
    for s, lo, hi, lost in [(finite_real(0, 5), -1, 1, True), (finite_real(0), -1, 1, False),
                            (open_intervals((0, 1)), 0, 1, False), (open_intervals((0, 2)), 0, 1, True),
                            (closed_intervals((0, 1), (2, 3)), 0, 3, False), (Empty(), 0, 1, False)]:
        assert (clip_to_interval(s, Fr(lo), Fr(hi)) != closure(s)) is lost, (s, lo, hi)


def test_set_separation():
    assert set_separation(finite_real(0), finite_real(1)) == 1
    assert set_separation(finite_real(0, 5), closed_intervals((2, 3))) == 2
    assert set_separation(closed_intervals((0, 1)), closed_intervals((Fr(3, 2), 2))) == Fr(1, 2)
    assert set_separation(closed_intervals((0, 1)), closed_intervals((1, 2))) == 0
    assert set_separation(finite_real(0), Empty()) is None
    a = f2_value(make_tree())
    b = f2_value(generated_by([(3,)]))
    assert set_separation(a, b) == 1


def test_set_from_json_decodes_every_kind():
    cases = [
        ({"kind": "finite_real", "points": ["1/2", "3"]}, finite_real(Fr(1, 2), 3)),
        ({"kind": "closed_intervals", "intervals": [["0", "1"]]}, closed_intervals((0, 1))),
        ({"kind": "open_intervals", "intervals": [["0", "1/3"]]}, open_intervals((0, Fr(1, 3)))),
        ({"kind": "finite_baire", "points": ["1;0"]}, FiniteBaireSet(frozenset({parse_baire_point("1;0")}))),
        ({"kind": "tree_body", "tree": "tree{nodes:[(),(2)]}"}, f2_value(make_tree([(2,)]))),
        ({"kind": "empty"}, Empty()),
    ]
    for obj, expected in cases:
        assert set_from_json(obj, "value") == expected


def test_nonempty_variant_validation():
    for empty in (frozenset(), (p for p in ()), []):
        with pytest.raises(ValueError, match="^finite set variant must be nonempty; use Empty$"):
            FiniteRealSet(empty)
    with pytest.raises(ValueError, match="^finite set variant must be nonempty; use Empty$"):
        finite_real()
    # the points are converted to Fractions once, whatever iterable brings them
    assert FiniteRealSet(p for p in (1, Fr(1, 2), 1)) == finite_real(Fr(1, 2), 1)
    assert all(type(p) is Fr for p in FiniteRealSet([0, 2]).points)
    with pytest.raises(ValueError, match="^closed interval needs a <= b$"):
        closed_intervals((1, 0))
    with pytest.raises(ValueError, match="^open interval needs a < b$"):
        open_intervals((1, 1))
    with pytest.raises(ValueError, match="^interval union must be nonempty; use Empty$"):
        open_intervals()


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
        n = rng.choice([0, 1, 2, 8])  # r = 1, 1/2, 1/3, 1/9
        r = Fr(1, n + 1)
        region = common_region(values, n)
        assert all(a < b for a, b in region)
        assert all(b <= a for (_, b), (a, _) in zip(region, region[1:]))  # sorted and disjoint
        for y in grid:
            assert any(a < y < b for a, b in region) == all(dist_to_set(y, v) < r for v in values)


def test_common_region_on_the_integer_frame_is_the_fraction_region():
    """`common_region` measures the line on one integer frame; the oracle
    measures each value's neighbourhood with Fraction ends.  Every list
    mixes the four denominators, so its frame's D is their lcm; each list
    is also measured on the frame of a wider list, sharing `known` at one
    n as a scan does, and the separation of two finite sets is checked
    against every pair."""
    rng = random.Random(83)
    denominators = (1, 4, 1024, 10**18 + 1)

    def value(d: int, center: int, spread: int, n: int):
        def near():  # within spread/(n + 1) of the center
            reach = spread * d // (n + 1)
            return Fr(center * d + rng.randrange(-reach, reach + 1), d)

        a, b = sorted((near(), near()))
        p = near()
        return rng.choice([
            finite_real(*(near() for _ in range(rng.randrange(1, 5)))),
            finite_real(p, p + Fr(2, n + 1)),  # neighbourhoods that touch and stay apart
            closed_intervals((a, b), (p, p)),  # a degenerate interval [p, p]
            open_intervals((a, b)) if a < b else closed_intervals((a, a)),
            closed_intervals(*(sorted((near(), near())) for _ in range(3)), (a, b)),  # overlapping pieces
            Empty(),
        ])

    nonempty = separated = 0
    for _ in range(200):
        n = rng.choice([0, 1, 2, 8, 63, 255])
        center, spread = rng.randrange(-3, 4), rng.choice([1, 3, 3 * (n + 1)])
        values = [value(d, center, spread, n) for d in rng.sample(denominators, 4)]
        values += [value(rng.choice(denominators), center, spread, n) for _ in range(rng.randrange(3))]
        rng.shuffle(values)
        expected = line_region_by_fractions(values, n)
        assert common_region(values, n) == expected
        wider = values + [value(d, -center, spread, n) for d in denominators]
        frame, known = region_frame(wider), {}
        assert common_region(values, n, frame, known) == expected
        assert common_region(values[::-1], n, frame, known) == line_region_by_fractions(values[::-1], n)
        nonempty += bool(expected)
        finite = [v for v in values if isinstance(v, FiniteRealSet)]
        for a, b in zip(finite, finite[1:]):
            assert set_separation(a, b) == min(abs(p - q) for p in a.points for q in b.points)
            separated += 1
    assert nonempty >= 40 and separated >= 100
    with pytest.raises(ValueError):
        neighbourhood(finite_real(0), Fr(2))


def test_common_heads_are_the_heads_near_every_value():
    rng = random.Random(71)
    sets = [
        FiniteBaireSet(frozenset({eventually_zero((1,)), parse_baire_point(";2"), parse_baire_point("0,1;0")})),
        FiniteBaireSet(frozenset({eventually_zero(()), parse_baire_point("1;1,0")})),
        f2_value(make_tree([(0, 1), (2,)])),
        f2_value(make_tree([(0,)], branches=[parse_baire_point(";1")])),
        f2_value(make_tree([(0, 0), (1,)])),
        Empty(),
    ]
    ys = [BAIRE_SPACE.dense_point(s) for s in range(200)] + [parse_baire_point(";1"), parse_baire_point("1;2")]
    for _ in range(60):
        values = rng.sample(sets, rng.randrange(1, 4))
        for length in (1, 2, 3, 5):
            heads = common_region(values, length - 1)
            for y in ys:
                near = all(dist_to_set(y, v) < Fr(1, length) for v in values)
                assert (y.head(length) in heads) == near
