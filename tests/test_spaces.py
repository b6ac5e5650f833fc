"""Point types, metrics, enumerations."""

import json
import random
from fractions import Fraction as Fr

import pytest

from baire_lab.instances import encode_value, point_from_json
from baire_lab.rationals import floor_reciprocal, format_rational, parse_rational
from baire_lab.spaces import (
    BAIRE_SPACE,
    CANTOR_GRID,
    REAL_LINE,
    UNIT_INTERVAL,
    BairePoint,
    baire_dist,
    canonical_seq,
    eventually_zero,
    first_disagreement,
    format_baire_point,
    grid_dist,
    grid_point,
    pair_index,
    parse_baire_point,
    rational_points_space,
    sb_positive,
    unpair_index,
)

from corpus_helpers import finite_points_space
from scan_oracle import (
    baire_point_by_steps,
    canonical_seq_by_steps,
    first_disagreement_by_entries,
    grid_dist_by_row_scans,
    outcome,
)


def random_baire_point(rng, max_entry=4, max_len=4):
    prefix = tuple(rng.randrange(max_entry) for _ in range(rng.randrange(max_len + 1)))
    period = tuple(rng.randrange(max_entry) for _ in range(1, rng.randrange(1, max_len + 1) + 1))
    return BairePoint(prefix, period[: rng.randrange(1, len(period) + 1)] or (0,))


# --- rationals ---------------------------------------------------------------


def test_rational_text_roundtrip():
    for text, value in [("3", Fr(3)), ("-1/2", Fr(-1, 2)), ("7/12", Fr(7, 12)), ("0", Fr(0))]:
        assert parse_rational(text) == value
        assert format_rational(value) == text
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_floor_reciprocal():
    assert floor_reciprocal(Fr(1, 4)) == 4
    assert floor_reciprocal(Fr(2, 7)) == 3
    assert floor_reciprocal(Fr(3)) == 0
    assert floor_reciprocal(Fr(1)) == 1


# --- canonical sequences -----------------------------------------------------


def test_canonical_form_shortest_period_and_prefix():
    assert BairePoint((), (0, 1, 0, 1)).period == (0, 1)
    p = BairePoint((1, 0), (0,))
    assert (p.prefix, p.period) == ((1,), (0,))
    # value equality coincides with representation equality
    a = BairePoint((0, 1, 0), (1, 0))
    b = BairePoint((), (0, 1))
    assert a == b


def test_canonical_form_is_value_faithful():
    rng = random.Random(7)
    for _ in range(300):
        pre = tuple(rng.randrange(3) for _ in range(rng.randrange(4)))
        per = tuple(rng.randrange(3) for _ in range(1, rng.randrange(1, 4) + 1))
        raw_entries = [(pre + per * 30)[i] for i in range(24)]
        p = BairePoint(pre, per)
        assert [p.entry(i) for i in range(24)] == raw_entries


def baire_point_fields(prefix, period):
    point = BairePoint(prefix, period)
    return point.prefix, point.period


def drawn_sequence_pair(rng):
    """A (prefix, period) pair whose period is often a power of a block and
    whose prefix often ends in a run of the period read backwards, longer
    than the period about half the time; sometimes with an empty prefix, a
    negative entry or an empty period."""
    block = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 4)))
    period = block * rng.randrange(1, 4)
    run = rng.randrange(3 * len(period) + 1)
    repeated = period * (run // len(period) + 1)
    tail = repeated[len(repeated) - run:]
    head = tuple(rng.randrange(3) for _ in range(rng.choice([0, 0, 1, 2, 5])))
    prefix = head + tail
    roll = rng.random()
    if roll < 0.05 and prefix:
        i = rng.randrange(len(prefix))
        prefix = prefix[:i] + (-1,) + prefix[i + 1:]
    elif roll < 0.1:
        i = rng.randrange(len(period))
        period = period[:i] + (-1,) + period[i + 1:]
    elif roll < 0.12:
        period = ()
    return prefix, period


def test_canonical_seq_and_baire_point_match_the_step_by_step_oracle():
    rng = random.Random(19)
    pairs = [drawn_sequence_pair(rng) for _ in range(5000)]
    pairs += [((), (0, 1) * 4), ((1,) * 40, (1,)), ((0, 1) * 7 + (0,), (1, 0)), ((2, 1, 0, 1), (0, 1)),
              (["1", "0"], ["0"]), ((True,), (1,)), (("a",), (0,)), ((0,), ()), ((), (-1,)), ((-1, 1), (1,))]
    cuts = [(len(pre) - len(cut[0]), len(cut[1])) for pre, per in pairs
            for cut in [outcome(canonical_seq_by_steps, pre, per)] if not isinstance(cut, str)]
    assert any(k > p > 1 and k % p for k, p in cuts)  # runs longer than the period, rotated
    assert any(k >= p > 1 and not k % p for k, p in cuts)  # whole periods cut, not rotated
    for prefix, period in pairs:
        assert outcome(canonical_seq, prefix, period) == outcome(canonical_seq_by_steps, prefix, period)
        point = outcome(baire_point_fields, prefix, period)
        assert point == outcome(baire_point_by_steps, prefix, period), (prefix, period)
        if not isinstance(point, str):  # string and bool entries are stored as ints
            assert all(type(field) is tuple and all(type(x) is int for x in field) for field in point), point


def test_entry_total_and_literals():
    a = parse_baire_point("0,1;0")
    assert [a.entry(i) for i in range(5)] == [0, 1, 0, 0, 0]
    assert format_baire_point(a) == "0,1;0"
    assert parse_baire_point(format_baire_point(a)) == a
    with pytest.raises(ValueError):
        parse_baire_point("1,2")


# --- sequence metric ---------------------------------------------------------


def test_baire_dist_spec_examples():
    zero = eventually_zero(())
    assert baire_dist(zero, zero) == 0
    assert baire_dist(zero, parse_baire_point("0,1;0")) == Fr(1, 2)
    assert baire_dist(eventually_zero((5,)), eventually_zero((7,))) == 1


def test_baire_dist_agrees_with_naive_scan():
    rng = random.Random(11)
    for _ in range(200):
        a, b = random_baire_point(rng), random_baire_point(rng)
        d = baire_dist(a, b)
        got = next((n for n in range(64) if a.entry(n) != b.entry(n)), None)
        if got is None:
            assert d == 0 or d < Fr(1, 64)
        else:
            assert d == Fr(1, got + 1)


def drawn_point_pair(rng, kind):
    """Two points of one kind: `equal` (one of them written out of canonical
    form), `same_prefix` (different periods), `coprime` (period lengths 2
    and 3, 3 and 5, or 4 and 7), `trunk` (heads of 200 to 260 entries, as
    on f2's deep trunks, that part late or only in their periods) or
    `random`."""
    def seq(n):
        return tuple(rng.randrange(3) for _ in range(n))

    if kind == "equal":
        a = random_baire_point(rng)
        return a, BairePoint(a.prefix + a.period * rng.randrange(3), a.period * rng.randrange(1, 4))
    if kind == "same_prefix":
        prefix = seq(rng.randrange(6))
        return BairePoint(prefix, seq(rng.randrange(1, 5))), BairePoint(prefix, seq(rng.randrange(1, 5)))
    if kind == "coprime":
        p, q = rng.choice([(2, 3), (3, 5), (4, 7)])
        return BairePoint(seq(rng.randrange(4)), seq(p)), BairePoint(seq(rng.randrange(4)), seq(q))
    if kind == "trunk":
        head = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(200, 261)))
        cut = rng.randrange(len(head) - 20, len(head) + 1)
        other = head[:cut] + tuple(rng.randrange(1, 4) for _ in range(len(head) - cut))
        return BairePoint(head, rng.choice([(0,), (0, 1), (2,)])), BairePoint(other, rng.choice([(0,), (1, 0)]))
    return random_baire_point(rng), random_baire_point(rng)


def test_first_disagreement_matches_the_entry_by_entry_oracle():
    rng = random.Random(29)
    kinds = ["equal", "same_prefix", "coprime", "trunk", "random"]
    seen = {kind: [0, 0] for kind in kinds}  # pairs drawn, pairs that disagree past entry 200
    for i in range(6000):
        kind = kinds[i % len(kinds)]
        a, b = drawn_point_pair(rng, kind)
        got = first_disagreement(a, b)
        assert got == first_disagreement_by_entries(a, b) == first_disagreement(b, a), (a, b)
        assert (got is None) == (a == b)
        assert a == b or kind != "equal"
        seen[kind][0] += 1
        seen[kind][1] += got is not None and got >= 200
    assert all(drawn == 1200 for drawn, _ in seen.values())
    assert seen["trunk"][1] >= 600  # most trunk pairs share their first 200 entries


def test_starts_with_agrees_with_entries():
    rng = random.Random(17)
    for _ in range(2000):
        a = random_baire_point(rng, max_entry=3)
        u = a.head(rng.randrange(13))
        if u and rng.random() < 0.5:
            i = rng.randrange(len(u))
            u = u[:i] + (rng.randrange(3),) + u[i + 1:]
        assert a.starts_with(u) == all(a.entry(i) == e for i, e in enumerate(u))
        assert a.starts_with(list(u)) == a.starts_with(u)


def test_baire_dist_is_ultrametric_and_quantized():
    rng = random.Random(13)
    for _ in range(500):
        a, b, c = (random_baire_point(rng) for _ in range(3))
        ab, bc, ac = baire_dist(a, b), baire_dist(b, c), baire_dist(a, c)
        assert ac <= max(ab, bc)
        for d in (ab, bc, ac):
            assert d == 0 or d.numerator == 1


# --- grid points -------------------------------------------------------------


def test_pairing_is_the_diagonal_enumeration():
    # anti-diagonals in increasing order, row index increasing within one
    expected = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3)]
    assert [unpair_index(k) for k in range(7)] == expected
    for k in range(200):
        m, s = unpair_index(k)
        assert pair_index(m, s) == k


def test_grid_dist_spec_examples():
    a = grid_point()
    assert grid_dist(a, a) == 0
    assert grid_dist(a, grid_point({0: ((1,), (0,))})) == 1
    # single 1 at the cell of flattened index 3, which is (row 0, column 2)
    assert grid_dist(a, grid_point({0: ((0, 0, 1), (0,))})) == Fr(1, 4)


def test_grid_dist_agrees_with_flat_scan():
    rng = random.Random(17)

    def random_grid(rng):
        rows = {}
        for m in rng.sample(range(5), rng.randrange(3)):
            pre = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
            per = tuple(rng.randrange(2) for _ in range(1, rng.randrange(1, 3) + 1))
            rows[m] = (pre, per)
        default = ((), (rng.randrange(2),))
        return grid_point(rows, default)

    for _ in range(200):
        a, b = random_grid(rng), random_grid(rng)
        d = grid_dist(a, b)
        got = next((k for k in range(600) if a.entry(*unpair_index(k)) != b.entry(*unpair_index(k))), None)
        if got is None:
            assert d == 0 or d < Fr(1, 600)
        else:
            assert d == Fr(1, got + 1)


def test_grid_dist_matches_the_row_scan_oracle():
    rng = random.Random(29)

    def random_row(rng):
        pre = tuple(rng.randrange(2) for _ in range(rng.randrange(5)))
        return pre, tuple(rng.randrange(2) for _ in range(rng.randrange(1, 3)))

    for _ in range(300):
        shared = {m: random_row(rng) for m in rng.sample(range(40), rng.randrange(20))}
        points = []
        for _ in range(2):
            rows = {m: row for m, row in shared.items() if rng.random() < 0.8}
            rows.update({m: random_row(rng) for m in rng.sample(range(40), rng.randrange(4))})
            points.append(grid_point(rows, ((), (rng.randrange(2),))))
        a, b = points
        assert grid_dist(a, b) == grid_dist_by_row_scans(a, b) == grid_dist(b, a), (a, b)


def test_grid_rows_are_zero_one_sequences():
    assert grid_point({0: ((1, 0), (0, 1))}).row(0) == parse_baire_point("1,0;0,1")
    assert grid_point({0: ((1, 0), (0, 1))}).entry(0, 4) == 0
    for rows, default in (({0: ((2,), (0,))}, ((), (0,))), ({}, ((), (0, 2))), ({1: ((), (-1,))}, ((), (1,)))):
        with pytest.raises(ValueError):
            grid_point(rows, default)


def test_grid_json_roundtrip():
    g = grid_point({0: ((1, 0), (0,)), 3: ((), (0, 1))}, default=((), (1,)))
    assert point_from_json(CANTOR_GRID, encode_value(g)) == g
    assert point_from_json(CANTOR_GRID, json.dumps(encode_value(g))) == g  # the object's text


# --- Stern-Brocot enumeration ------------------------------------------------


def _sb_bfs_oracle(count):
    """Independent breadth-first mediant expansion."""
    out = []
    level = [((0, 1), (1, 0))]
    while len(out) < count:
        nxt = []
        for lo, hi in level:
            med = (lo[0] + hi[0], lo[1] + hi[1])
            out.append(Fr(med[0], med[1]))
            nxt.append((lo, med))
            nxt.append((med, hi))
        level = nxt
    return out[:count]


def test_sb_enumeration_matches_bfs_oracle():
    oracle = _sb_bfs_oracle(127)
    assert [sb_positive(i) for i in range(127)] == oracle


def test_dense_sequences_start_as_specified():
    assert REAL_LINE.dense_point(0) == 0
    assert UNIT_INTERVAL.dense_point(0) == 0
    assert BAIRE_SPACE.dense_point(0) == eventually_zero(())
    assert CANTOR_GRID.dense_point(0) == grid_point()


def test_real_line_enumeration_hits_every_rational_once():
    seen = {REAL_LINE.dense_point(s) for s in range(201)}
    assert len(seen) == 201
    assert Fr(1, 2) in seen and Fr(-1, 2) in seen


def _heads_of_weight(w: int):
    """Zero-stripped heads u with len(u) + sum(u) == w: the oracle order of
    the eventually-zero enumeration, grade by grade."""
    if w == 0:
        yield ()
        return
    for length in range(1, w):
        for head in _compositions(w - length, length):
            if head[-1] != 0:
                yield head


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_baire_dense_points_follow_the_generated_order():
    order = []
    w = 0
    while len(order) < 200:
        order.extend(sorted(_heads_of_weight(w), key=lambda u: (len(u), u)))
        w += 1
    for s, head in enumerate(order[:200]):
        assert BAIRE_SPACE.dense_point(s) == eventually_zero(head)
        assert BAIRE_SPACE.least_dense_index([head], 10 ** 6) == s


def test_every_ball_holds_a_dense_point():
    finite = rational_points_space([Fr(3, 2), Fr(0), Fr(-1, 3), Fr(2, 7)])
    real_points = [
        (REAL_LINE, [Fr(0), Fr(5, 3), Fr(-7, 2), Fr(22, 7)]),
        (UNIT_INTERVAL, [Fr(0), Fr(1), Fr(2, 5), Fr(17, 19)]),
        (finite, finite.points()),
    ]
    for k in (0, 3, 7):
        r = Fr(1, k + 1)
        for space, points in real_points:
            for x in points:
                s = space.least_dense_index([(x - r, x + r)], 10 ** 9)
                assert s is not None and space.dist(space.dense_point(s), x) < r, (space.name, x, k)
        for x in (eventually_zero(()), parse_baire_point("2,1;0"), parse_baire_point(";1")):
            s = BAIRE_SPACE.least_dense_index([x.head(k + 1)], 10 ** 9)
            assert s is not None and baire_dist(BAIRE_SPACE.dense_point(s), x) < r, (x, k)
        for x in (grid_point(), grid_point({1: ((0, 1), (0,))})):
            # the grid's dense point s carries the binary digits of s as its
            # first flattened entries
            s = sum(x.entry(*unpair_index(j)) << j for j in range(k + 1))
            assert grid_dist(CANTOR_GRID.dense_point(s), x) < r, (x, k)


def _random_region(rng, lo, hi):
    """Sorted disjoint open intervals with endpoints on a mixed grid, some
    of them narrow enough to need a deep Stern-Brocot walk."""
    ends = sorted({Fr(rng.randrange(lo * 60, hi * 60), 60) for _ in range(2 * rng.randrange(0, 4))})
    region = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b]
    if rng.random() < 0.3:
        a = Fr(rng.randrange(lo * 7, hi * 7), 7)
        region = sorted(region + [(a, a + Fr(1, rng.choice([50, 400, 3000])))])
        region = [iv for i, iv in enumerate(region) if i == 0 or iv[0] >= region[i - 1][1]]
    return region


def test_least_dense_index_matches_the_enumeration():
    rng = random.Random(29)
    finite = rational_points_space([Fr(3, 2), Fr(0), Fr(-1, 3), Fr(2, 7)])
    for space, lo, hi in ((REAL_LINE, -3, 3), (UNIT_INTERVAL, -1, 2), (finite, -1, 2)):
        for _ in range(300):
            region = _random_region(rng, lo, hi)
            bound = rng.choice([0, 1, 2, 7, 40, 300])
            expected = next((s for s in range(bound + 1)
                             if any(a < space.dense_point(s) < b for a, b in region)), None)
            assert space.least_dense_index(region, bound) == expected, (space.name, region, bound)
    for _ in range(300):
        length = rng.randrange(1, 4)
        heads = {tuple(rng.randrange(3) for _ in range(length)) for _ in range(rng.randrange(0, 4))}
        bound = rng.choice([0, 3, 40, 300])
        expected = next((s for s in range(bound + 1) if BAIRE_SPACE.dense_point(s).head(length) in heads), None)
        assert BAIRE_SPACE.least_dense_index(heads, bound) == expected, (heads, bound)


# --- metric axioms, all spaces -----------------------------------------------


def _axiom_check(space, points):
    for a in points:
        assert space.dist(a, a) == 0
        for b in points:
            assert space.dist(a, b) == space.dist(b, a)
            if a != b:
                assert space.dist(a, b) > 0
            for c in points:
                assert space.dist(a, c) <= space.dist(a, b) + space.dist(b, c)


def test_metric_axioms_exact():
    _axiom_check(REAL_LINE, [Fr(0), Fr(1, 2), Fr(-3), Fr(7, 5)])
    _axiom_check(UNIT_INTERVAL, [Fr(0), Fr(1), Fr(1, 3), Fr(2, 3)])
    _axiom_check(BAIRE_SPACE, [eventually_zero(()), parse_baire_point("1;0"),
                               parse_baire_point(";1"), parse_baire_point("0,2;1")])
    _axiom_check(CANTOR_GRID, [grid_point(), grid_point({0: ((1,), (0,))}),
                               grid_point(default=((), (1,)))])
    space = finite_points_space(
        ["a", "b", "c"],
        [[Fr(0), Fr(1), Fr(2)], [Fr(1), Fr(0), Fr(1)], [Fr(2), Fr(1), Fr(0)]],
    )
    _axiom_check(space, ["a", "b", "c"])


def test_finite_points_validation():
    with pytest.raises(ValueError):
        finite_points_space(["a", "b"], [[Fr(0), Fr(1)], [Fr(2), Fr(0)]])  # asymmetric
    with pytest.raises(ValueError):
        finite_points_space(["a", "b"], [[Fr(0), Fr(0)], [Fr(0), Fr(0)]])  # indiscernible
    with pytest.raises(ValueError):
        finite_points_space(
            ["a", "b", "c"],
            [[Fr(0), Fr(1), Fr(5)], [Fr(1), Fr(0), Fr(1)], [Fr(5), Fr(1), Fr(0)]],
        )  # triangle fails
    with pytest.raises(ValueError):
        finite_points_space([Fr(0), "a"], [[Fr(0), Fr(1)], [Fr(1), Fr(0)]])  # mixed labels
    with pytest.raises(ValueError):
        finite_points_space([Fr(0), Fr(1)], [[Fr(0), Fr(1, 1000)], [Fr(1, 1000), Fr(0)]])  # not |x - y|


def test_rational_points_space():
    space = rational_points_space([Fr(0), Fr(1, 2), Fr(1)])
    assert space.contains(Fr(1, 2))
    assert not space.contains("1/2")
    assert space.dist(Fr(0), Fr(1)) == 1
    assert space.points() == [Fr(0), Fr(1, 2), Fr(1)]
    assert space.rational_labels and not finite_points_space(["0"], [[Fr(0)]]).rational_labels
    assert space.parse_point("2/4") == Fr(1, 2)


def test_canonical_form_unique_exhaustively():
    # every (prefix, period) pair over a small parameter space: equal
    # sequence values if and only if equal canonical representations
    import itertools

    reps = []
    for plen in range(3):
        for qlen in range(1, 3):
            for prefix in itertools.product(range(3), repeat=plen):
                for period in itertools.product(range(3), repeat=qlen):
                    reps.append(BairePoint(prefix, period))
    by_value = {}
    for p in reps:
        by_value.setdefault(p.head(24), []).append(p)
    for group in by_value.values():
        assert len({(p.prefix, p.period) for p in group}) == 1
