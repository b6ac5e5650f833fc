"""Checker semantics against an independent brute-force evaluator."""

import random
from fractions import Fraction as Fr

import pytest

from baire_lab.checkers import (
    ContinuityWitness,
    DiscontinuityWitness,
    DomainError,
    MultiMap,
    check_continuity,
    check_strong_continuity,
    continuity_points,
    default_config,
    eval_dagger,
    eval_lower_fell,
    eval_star,
    eval_strong_star,
    full_domain_probes,
    tabular_multimap,
    verify_witness,
)
from baire_lab.closed_sets import (
    Empty,
    closed_intervals,
    dist_to_set,
    finite_real,
    open_intervals,
)
from baire_lab.spaces import REAL_LINE, UNIT_INTERVAL, rational_points_space

# ---------------------------------------------------------------------------
# the exhaustive oracle: the definitions' quantifiers over the whole finite
# domain and the full finite value sets, truncated to the schedules
# ---------------------------------------------------------------------------


def _ball(space, x, delta):
    return [p for p in space.points() if space.dist(x, p) < delta]


def _oracle_validated(mm, x, y, cfg):
    for eps in cfg.eps_schedule:
        good_delta = False
        for delta in cfg.delta_schedule:
            if all(
                any(abs(y - yp) < eps for yp in mm.value(xp).points)
                for xp in _ball(mm.domain, x, delta)
            ):
                good_delta = True
                break
        if not good_delta:
            return False
    return True


def _oracle_refuted(mm, x, y, cfg):
    for eps in cfg.eps_schedule:
        if all(
            any(
                min(abs(y - yp) for yp in mm.value(xp).points) >= eps
                for xp in _ball(mm.domain, x, delta)
            )
            for delta in cfg.delta_schedule
        ):
            return True
    return False


def brute_force_verdict(mm, x, cfg, mode):
    ys = sorted(mm.value(x).points)
    if mode == "plain":
        if any(_oracle_validated(mm, x, y, cfg) for y in ys):
            return "continuous"
        if all(_oracle_refuted(mm, x, y, cfg) for y in ys):
            return "discontinuous"
        return "inconclusive"
    if all(_oracle_validated(mm, x, y, cfg) for y in ys):
        return "continuous"
    if any(_oracle_refuted(mm, x, y, cfg) for y in ys):
        return "discontinuous"
    return "inconclusive"


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------

_VALUE_POOL = [Fr(0), Fr(1, 4), Fr(1, 2), Fr(1), Fr(3, 2), Fr(2), Fr(-1, 2)]


def random_tabular(rng, max_points=5):
    """Mixed spacing: some gaps below the finest schedule delta, so that
    schedule-relative discontinuity genuinely occurs, and some above."""
    count = rng.randrange(2, max_points + 1)
    wide = [Fr(k, 4) for k in range(-6, 10)]
    tight = [Fr(k, 1024) for k in range(-8, 9)]
    pool = wide if rng.random() < 0.4 else tight if rng.random() < 0.7 else wide + tight
    coords = rng.sample(pool, count)
    space = rational_points_space(coords)
    values = {}
    for p in space.points():
        size = rng.randrange(1, 4)
        values[p] = finite_real(*rng.sample(_VALUE_POOL, size))
    return tabular_multimap(space, values, REAL_LINE)


def test_tabular_checkers_match_brute_force_oracle():
    rng = random.Random(101)
    cfg = default_config()
    for _ in range(120):
        mm = random_tabular(rng)
        probes = full_domain_probes(mm.domain)
        for x in mm.domain.points():
            for mode, checker in (("plain", check_continuity), ("strong", check_strong_continuity)):
                got = checker(mm, x, cfg, probes)
                assert got.kind == brute_force_verdict(mm, x, cfg, mode), (mm.name, x, mode)
                if got.witness is not None:
                    assert verify_witness(mm, x, got.witness, probes)


def test_constant_map_is_continuous_everywhere():
    space = rational_points_space([Fr(0), Fr(1), Fr(2)])
    mm = tabular_multimap(space, {p: finite_real(0) for p in space.points()}, REAL_LINE)
    cfg = default_config()
    probes = full_domain_probes(space)
    for x in space.points():
        assert check_continuity(mm, x, cfg, probes).kind == "continuous"
        assert check_strong_continuity(mm, x, cfg, probes).kind == "continuous"
        assert eval_star(mm, x, cfg, probes).kind == "continuous"
        assert eval_strong_star(mm, x, cfg, probes).kind == "continuous"
    verdicts = continuity_points(mm, space.points(), "plain", cfg, probes)
    assert all(v.kind == "continuous" for v in verdicts.values())


def test_single_point_space_is_continuous():
    space = rational_points_space([Fr(5)])
    mm = tabular_multimap(space, {Fr(5): finite_real(1, 2)}, REAL_LINE)
    out = check_continuity(mm, Fr(5), default_config(), full_domain_probes(space))
    assert out.kind == "continuous"


def test_strong_continuity_implies_plain():
    rng = random.Random(103)
    cfg = default_config()
    for _ in range(60):
        mm = random_tabular(rng)
        probes = full_domain_probes(mm.domain)
        for x in mm.domain.points():
            strong = check_strong_continuity(mm, x, cfg, probes)
            if strong.kind == "continuous":
                assert check_continuity(mm, x, cfg, probes).kind == "continuous"


def test_budget_monotonicity_on_full_probe_instances():
    """Enlarging schedules only resolves, never flips, provided the
    enlargement does not re-quantize distances the instance realizes:
    point spacings and value gaps must stay clear of the window between
    the two schedules' finest entries (here (1/512, 1/16)), else finer
    deltas change which neighbors a ball sees at all."""
    rng = random.Random(107)
    small = default_config(
        eps_schedule=tuple(Fr(1, 2 ** i) for i in range(5)),
        delta_schedule=tuple(Fr(1, 2 ** i) for i in range(5)),
        n_bound=4, dense_bound=64,
    )
    big = default_config()

    # value gaps >= 1/2, so realized distances and half-gaps clear the
    # threshold windows of both schedule pairs as well
    coarse_values = [Fr(-1, 2), Fr(0), Fr(1, 2), Fr(1), Fr(3, 2), Fr(2)]

    def stable_tabular(rng):
        wide = [Fr(k, 4) for k in range(-6, 10)]       # spacings >= 1/4
        tight = [Fr(k, 8192) for k in range(-8, 9)]    # spacings <= 1/512
        pool = wide if rng.random() < 0.5 else tight
        coords = rng.sample(pool, rng.randrange(2, 6))
        space = rational_points_space(coords)
        values = {
            p: finite_real(*rng.sample(coarse_values, rng.randrange(1, 4)))
            for p in space.points()
        }
        return tabular_multimap(space, values, REAL_LINE)

    for _ in range(60):
        mm = stable_tabular(rng)
        probes = full_domain_probes(mm.domain)
        for x in mm.domain.points():
            for checker in (check_continuity, check_strong_continuity, eval_star):
                lo, hi = checker(mm, x, small, probes), checker(mm, x, big, probes)
                if lo.kind != "inconclusive" and hi.kind != "inconclusive":
                    assert lo.kind == hi.kind, (mm.name, x, checker.__name__)


def test_criterion_equivalence_on_tabular_instances():
    rng = random.Random(109)
    cfg = default_config()
    checked = 0
    for _ in range(40):
        mm = random_tabular(rng)
        probes = full_domain_probes(mm.domain)
        for x in mm.domain.points():
            plain = check_continuity(mm, x, cfg, probes)
            star = eval_star(mm, x, cfg, probes)
            if plain.kind != "inconclusive" and star.kind != "inconclusive":
                assert plain.kind == star.kind, (mm.name, x)
                checked += 1
    assert checked > 50


def test_domain_errors():
    space = rational_points_space([Fr(0), Fr(1)])
    mm = tabular_multimap(space, {p: finite_real(0) for p in space.points()}, REAL_LINE)
    with pytest.raises(DomainError):
        check_continuity(mm, Fr(7), default_config(), full_domain_probes(space))
    with pytest.raises(ValueError):
        continuity_points(mm, space.points(), "sideways", default_config(), full_domain_probes(space))


def test_verify_rejects_corrupted_witnesses():
    # 1/512 sits inside every schedule ball around 0, carrying a far value
    space = rational_points_space([Fr(0), Fr(1, 512), Fr(1)])
    values = {Fr(0): finite_real(0), Fr(1, 512): finite_real(1), Fr(1): finite_real(0)}
    mm = tabular_multimap(space, values, REAL_LINE)
    cfg = default_config()
    probes = full_domain_probes(space)
    verdict = check_continuity(mm, Fr(0), cfg, probes)
    assert verdict.kind == "discontinuous"
    w = verdict.witness
    assert verify_witness(mm, Fr(0), w, probes)
    # enlarge a refutation level beyond validity
    bad_entry = w.entries[0].__class__(w.entries[0].y, Fr(3), w.entries[0].counterexamples)
    bad = DiscontinuityWitness((bad_entry, *w.entries[1:]), w.net_resolution, w.net_radius, w.margin)
    assert not verify_witness(mm, Fr(0), bad, probes)
    # continuity witness with an inflated delta: a far probe sneaks into the ball
    cont = check_continuity(mm, Fr(1), cfg, probes)
    assert cont.kind == "continuous"
    cw = cont.witness
    widened = ContinuityWitness(Fr(1), tuple((eps, Fr(4)) for eps, _ in cw.table), cw.net_resolution)
    assert not verify_witness(mm, Fr(1), widened, probes)
    # a witness point outside the value set
    stray = ContinuityWitness(Fr(7), cw.table, cw.net_resolution)
    assert not verify_witness(mm, Fr(1), stray, probes)


def test_eval_dagger_constant_map_and_empty_convention():
    space = rational_points_space([Fr(0), Fr(1)])
    cfg = default_config()
    probes = full_domain_probes(space)
    mm0 = tabular_multimap(space, {p: finite_real(0) for p in space.points()}, REAL_LINE)
    out = eval_dagger(mm0, Fr(0), cfg, probes)
    assert out.kind == "continuous"
    assert out.report["stage"] <= 1

    # constant {5} with a short exhaustion: every window clips it away;
    # the empty intersections contribute distance 1, which never passes,
    # and the proper clipping at the last stage keeps the verdict honest
    mm5 = tabular_multimap(space, {p: finite_real(5) for p in space.points()}, REAL_LINE)
    small = default_config(m_bound=4)
    out = eval_dagger(mm5, Fr(0), small, probes)
    assert out.kind == "inconclusive"
    assert all(stage["failing_n"] == 0 for stage in out.report["stages"])
    # distance-1 convention is what blocks every pass already at n = 0
    assert dist_to_set(Fr(0), Empty()) == 1
    # with a wide enough exhaustion the verdict resolves
    assert eval_dagger(mm5, Fr(0), default_config(m_bound=6), probes).kind == "continuous"


def test_eval_dagger_respects_exhaustion_argument():
    space = rational_points_space([Fr(0), Fr(1)])
    probes = full_domain_probes(space)
    mm = tabular_multimap(space, {p: finite_real(0) for p in space.points()}, REAL_LINE)
    out = eval_dagger(mm, Fr(0), default_config(), probes, exhaustion=[(Fr(-1), Fr(1))])
    assert out.kind == "continuous"


def test_eval_lower_fell_on_open_valued_map():
    # unit-interval domain: open-interval values shrinking on the dyadics
    from baire_lab.gallery import is_dyadic, split_probes

    def rule(x):
        return open_intervals((0, Fr(1, 4))) if is_dyadic(x) else open_intervals((0, 1))

    mm = MultiMap(UNIT_INTERVAL, UNIT_INTERVAL, rule, name="open_split")
    cfg = default_config()
    probes = split_probes()
    balls = [(Fr(7, 8), Fr(1, 16)), (Fr(1, 8), Fr(1, 16))]
    # off the dyadics: the value's closure meets the 7/8 ball, but dyadic
    # perturbations in every delta ball miss it
    out = eval_lower_fell(mm, Fr(1, 3), cfg, probes, balls)
    assert out.kind == "discontinuous"
    # on a dyadic: only the 1/8 ball is tested, and every value meets it
    out = eval_lower_fell(mm, Fr(1, 2), cfg, probes, balls)
    assert out.kind == "continuous"
    with pytest.raises(ValueError):
        eval_lower_fell(mm, Fr(1, 3), cfg, probes, [])


def test_interval_valued_maps_use_net_margins():
    space = rational_points_space([Fr(0), Fr(1)])
    values = {Fr(0): closed_intervals((0, 1)), Fr(1): closed_intervals((0, 1))}
    mm = tabular_multimap(space, values, UNIT_INTERVAL)
    out = check_strong_continuity(mm, Fr(0), default_config(), full_domain_probes(space))
    assert out.kind == "continuous"


def test_probe_generator_contract_is_enforced():
    space = rational_points_space([Fr(0), Fr(1)])
    mm = tabular_multimap(space, {p: finite_real(0) for p in space.points()}, REAL_LINE)

    def bad_probes(center, radius):
        return [p for p in space.points()]  # ignores the radius

    with pytest.raises(ValueError):
        check_continuity(mm, Fr(0), default_config(), bad_probes)


def test_empty_value_at_x_follows_the_definitions():
    # plain continuity asks for some y in F(x), so an empty value fails it;
    # strong continuity asks something of every y in F(x), so it holds
    # vacuously.  Neither verdict carries a certificate.
    space = rational_points_space([Fr(0), Fr(1, 1024)])
    mm = tabular_multimap(space, {Fr(0): Empty(), Fr(1, 1024): finite_real(0)}, REAL_LINE)
    cfg = default_config()
    probes = full_domain_probes(space)
    plain = check_continuity(mm, Fr(0), cfg, probes)
    strong = check_strong_continuity(mm, Fr(0), cfg, probes)
    assert (plain.kind, strong.kind) == ("discontinuous", "continuous")
    for verdict in (plain, strong):
        assert verdict.witness is None
        assert "empty" in verdict.report["reason"]
    # the empty value is a probe value next door: distance 1 refutes there
    beside = check_continuity(mm, Fr(1, 1024), cfg, probes)
    assert beside.kind == "discontinuous"
    assert verify_witness(mm, Fr(1, 1024), beside.witness, probes)


def test_each_probe_and_each_net_is_computed_once_per_check(monkeypatch):
    from collections import Counter

    from baire_lab import checkers, closed_sets
    from baire_lab.gallery import is_dyadic, split_probes

    values, nets = Counter(), Counter()
    original_value, original_net = MultiMap.value, closed_sets.eps_net

    def counted_value(self, x):
        values[x] += 1
        return original_value(self, x)

    def counted_net(s, eps):
        nets[s, eps] += 1
        return original_net(s, eps)

    monkeypatch.setattr(MultiMap, "value", counted_value)
    monkeypatch.setattr(closed_sets, "eps_net", counted_net)
    monkeypatch.setattr(checkers, "eps_net", counted_net)

    def rule(x):
        return open_intervals((0, Fr(1, 4))) if is_dyadic(x) else open_intervals((0, 1))

    mm = MultiMap(UNIT_INTERVAL, UNIT_INTERVAL, rule, name="open_split")
    cfg = default_config()
    probes = split_probes()
    balls = [(Fr(7, 8), Fr(1, 16)), (Fr(1, 8), Fr(1, 16))]
    runs = 0
    for x in (Fr(1, 3), Fr(1, 2)):
        for check in (
            lambda: check_continuity(mm, x, cfg, probes),
            lambda: check_strong_continuity(mm, x, cfg, probes),
            lambda: eval_lower_fell(mm, x, cfg, probes, balls),
        ):
            values.clear()
            nets.clear()
            check()
            assert values and max(values.values()) == 1
            assert not nets or max(nets.values()) == 1
            runs += 1
    assert runs == 6


def test_the_table_loop_measures_interval_nets_in_closed_form(monkeypatch):
    """The table loop measures each distinct value's net once per net
    point, in closed form: the value at x is the only net built, and the
    distance calls stay far below one per (net point, probe, net point)."""
    from baire_lab import checkers, closed_sets
    from baire_lab.gallery import is_dyadic, split_probes

    calls = {"eps_net": 0, "dist": 0}
    original_net, original_dist = closed_sets.eps_net, REAL_LINE.dist.__func__

    def counted_net(s, eps):
        calls["eps_net"] += 1
        return original_net(s, eps)

    def counted_dist(self, x, y):
        calls["dist"] += 1
        return original_dist(self, x, y)

    monkeypatch.setattr(closed_sets, "eps_net", counted_net)
    monkeypatch.setattr(checkers, "eps_net", counted_net)
    monkeypatch.setattr(type(REAL_LINE), "dist", counted_dist)

    def closed_split_wide(x):  # the closure of an open map with two value shapes
        if is_dyadic(x):
            return closed_intervals((0, 1))
        return closed_intervals((0, 1), (Fr(5, 4), Fr(3, 2)))

    mm = MultiMap(UNIT_INTERVAL, REAL_LINE, closed_split_wide, name="closed_split_wide")
    verdict = check_strong_continuity(mm, Fr(1, 3), default_config(), split_probes())
    assert verdict.kind == "discontinuous"
    assert calls["eps_net"] == 1
    assert calls["dist"] <= 1000


# ---------------------------------------------------------------------------
# the closed-form least dense index against the index-by-index scan, which
# passing the codomain's own dense sequence as `dense_fn` forces
# ---------------------------------------------------------------------------


def _scan_oracle_agrees(evaluate, mm, x, cfg, probes) -> str:
    from baire_lab.instances import verdict_to_json

    closed = verdict_to_json(evaluate(mm, x, cfg, probes))
    scanned = verdict_to_json(evaluate(mm, x, cfg, probes, dense_fn=mm.codomain.dense_point))
    assert closed == scanned, (mm.name, x, cfg.dense_bound)
    return closed["verdict"]


def _random_real_value(rng, pool):
    a, b = sorted(rng.sample(pool, 2))
    c, d = sorted(rng.sample(pool, 2))
    return rng.choice([
        finite_real(*rng.sample(pool, rng.randrange(1, 4))),
        closed_intervals((a, b)),
        closed_intervals((a, b), (c, d)),
        open_intervals((a, b)),
        Empty(),
    ])


def test_closed_form_dense_index_matches_the_scan_on_tabular_maps():
    rng = random.Random(131)
    pools = {
        REAL_LINE: [Fr(0), Fr(1, 4), Fr(1, 2), Fr(1), Fr(3, 2), Fr(-1, 2), Fr(1, 3), Fr(-2, 7)],
        UNIT_INTERVAL: [Fr(0), Fr(1), Fr(1, 2), Fr(1, 3), Fr(2, 3), Fr(1, 4), Fr(5, 7), Fr(1, 9)],
    }
    coords = [Fr(k, 4) for k in range(-4, 6)] + [Fr(k, 1024) for k in range(-4, 5)]
    verdicts = set()
    for codomain, pool in pools.items():
        for dense_bound in (0, 3, 64, 256):
            cfg = default_config(dense_bound=dense_bound)
            for _ in range(6):
                space = rational_points_space(rng.sample(coords, rng.randrange(2, 5)))
                mm = tabular_multimap(space, {p: _random_real_value(rng, pool) for p in space.points()}, codomain)
                probes = full_domain_probes(space)
                for x in space.points():
                    verdicts.add(_scan_oracle_agrees(eval_star, mm, x, cfg, probes))
    assert verdicts == {"continuous", "discontinuous", "inconclusive"}


def test_closed_form_dense_index_matches_the_scan_on_the_gallery():
    from baire_lab.gallery import dense_split, f1_multimap, f2_multimap
    from baire_lab.spaces import grid_point, parse_baire_point
    from baire_lab.trees import make_tree

    f2 = f2_multimap()
    trees = [
        make_tree([(0,)]),
        make_tree([(0, 1), (2,)]),
        make_tree([(1, 0), (1, 2), (0,)]),
        make_tree([(0,)], branches=[parse_baire_point(";1")]),
        make_tree([(2, 2)], branches=[parse_baire_point("0;1,2")]),
    ]
    for dense_bound in (3, 256):
        cfg = default_config(dense_bound=dense_bound)
        for t in trees:
            _scan_oracle_agrees(eval_star, f2, t, cfg, f2.default_probes)
    f1 = f1_multimap()
    for gamma in (grid_point(), grid_point(default=((), (1,))), grid_point({2: ((), (0, 1))}, ((1,), (0,)))):
        _scan_oracle_agrees(eval_star, f1, gamma, default_config(), f1.default_probes)
    split = dense_split("dyadic")
    for x in (Fr(1, 2), Fr(1, 3), Fr(3, 8), Fr(0), Fr(1)):
        _scan_oracle_agrees(eval_dagger, split, x, default_config(), split.default_probes)


def test_star_scan_enumerates_no_dense_point_and_separates_each_pair_once(monkeypatch):
    from collections import Counter

    from baire_lab import checkers, spaces
    from baire_lab.gallery import f1_multimap, f2_multimap
    from baire_lab.spaces import grid_point, parse_baire_point
    from baire_lab.trees import make_tree

    dense_calls, pairs = Counter(), Counter()
    for cls in (spaces.BaireSpace, spaces.RealLine):
        def counted_dense(self, s, original=cls.dense_point):
            dense_calls[type(self).__name__] += 1
            return original(self, s)

        monkeypatch.setattr(cls, "dense_point", counted_dense)
    original_separation = checkers.set_separation

    def counted_separation(a, b):
        pairs[frozenset((a, b))] += 1
        return original_separation(a, b)

    monkeypatch.setattr(checkers, "set_separation", counted_separation)
    f1, f2 = f1_multimap(), f2_multimap()
    measured = 0
    for mm, x in (
        (f2, make_tree([(0, 1), (2,)])),
        (f2, make_tree([(0,)], branches=[parse_baire_point(";1")])),
        (f1, grid_point()),
        (f1, grid_point(default=((), (1,)))),
    ):
        pairs.clear()
        eval_star(mm, x, default_config(), mm.default_probes)
        assert all(len(pair) == 2 for pair in pairs)  # equal values are never measured
        assert not pairs or max(pairs.values()) == 1
        measured += len(pairs)
    assert measured and not dense_calls
