"""Checker semantics against an independent brute-force evaluator."""

import json
import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from baire_lab.checkers import (
    MODES,
    ContinuityWitness,
    DiscontinuityWitness,
    DomainError,
    MultiMap,
    ProbeContext,
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
    FiniteBaireSet,
    closed_intervals,
    dist_to_set,
    enumerate_points,
    finite_real,
    open_intervals,
)
from baire_lab.instances import parse_baire_point, verdict_to_json
from baire_lab.spaces import BAIRE_SPACE, REAL_LINE, UNIT_INTERVAL, rational_points_space
from baire_lab.trees import TREE_SPACE

from corpus_helpers import (
    DENSE_SPLIT_POINTS,
    SPIKE_POINTS,
    branch_bearing_trees,
    closure_map,
    depth3_tree_sample,
    enumerate_prefix_closed_trees,
    fell_instances,
    grid_corpus,
    open_split_maps,
)
from scan_oracle import EagerProbeContext, counterexamples_by_probes, dagger_by_every_window, scan_search

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
                any(mm.codomain.dist(y, yp) < eps for yp in enumerate_points(mm.value(xp)))
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
                min((mm.codomain.dist(y, yp) for yp in enumerate_points(mm.value(xp))), default=1) >= eps
                for xp in _ball(mm.domain, x, delta)
            )
            for delta in cfg.delta_schedule
        ):
            return True
    return False


def brute_force_verdict(mm, x, cfg, mode):
    """The definitions over the whole finite domain, each distance measured
    by the codomain's metric point by point; an empty value has no point to
    be near and is 1 from every point."""
    ys = sorted(enumerate_points(mm.value(x)))
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


_SEQUENCE_POOL = [parse_baire_point(text) for text in (";0", "0,1;0", "0,1,1;0", "0,1,1,1;0", "1;0", ";1", "2;0")]


def test_sequence_space_tabular_checkers_match_brute_force_oracle():
    """The level tests of the table loop and the refutation against
    `baire_dist` point by point: eps values equal to realized distances
    (1/2, 1/3, 1/4) and one above 1, and empty values among the others."""
    rng = random.Random(109)
    cfg = default_config(eps_schedule=(Fr(2), Fr(1), Fr(1, 2), Fr(1, 3), Fr(1, 4), Fr(1, 8)))
    for _ in range(80):
        coords = rng.sample([Fr(k, 1024) for k in range(-4, 5)] + [Fr(k, 4) for k in range(1, 5)], rng.randrange(2, 6))
        space = rational_points_space(coords)
        values = {p: FiniteBaireSet(frozenset(rng.sample(_SEQUENCE_POOL, rng.randrange(1, 4))))
                  if rng.random() < 0.85 else Empty() for p in space.points()}
        mm = tabular_multimap(space, values, BAIRE_SPACE)
        probes = full_domain_probes(space)
        for x in space.points():
            for mode, checker in (("plain", check_continuity), ("strong", check_strong_continuity)):
                got = checker(mm, x, cfg, probes)
                assert got.kind == brute_force_verdict(mm, x, cfg, mode), (values, x, mode)
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


def test_verify_rejects_a_witness_point_only_in_the_closure_of_the_value():
    # 0 is no point of the open value (0, 1), though at distance 0 from it,
    # and the value's net comes within eps of 0
    space = rational_points_space([Fr(0), Fr(1)])
    mm = tabular_multimap(space, {p: open_intervals((0, 1)) for p in space.points()}, REAL_LINE)
    probes = full_domain_probes(space)
    table = ((Fr(1, 2), Fr(1)),)
    assert not verify_witness(mm, Fr(0), ContinuityWitness(Fr(0), table, Fr(1, 16)), probes)
    assert verify_witness(mm, Fr(0), ContinuityWitness(Fr(1, 32), table, Fr(1, 16)), probes)


def test_continuity_points_runs_each_mode_through_its_evaluator():
    # 1/512 and 1/256 lie inside every schedule ball around 0; 1/2 and 1 do not
    space = rational_points_space([Fr(0), Fr(1, 512), Fr(1, 256), Fr(1, 2), Fr(1)])
    values = {Fr(0): closed_intervals((0, Fr(1, 2))), Fr(1, 512): finite_real(1),
              Fr(1, 256): open_intervals((Fr(1, 4), Fr(3, 4))), Fr(1, 2): finite_real(Fr(1, 2)), Fr(1): Empty()}
    mm = tabular_multimap(space, values, UNIT_INTERVAL)
    cfg = default_config()
    probes = full_domain_probes(space)
    balls = [(Fr(1), Fr(1, 8)), (Fr(1, 4), Fr(1, 16))]
    evaluators = {
        "plain": check_continuity,
        "strong": check_strong_continuity,
        "star": eval_star,
        "dagger": eval_dagger,
        "fell": lambda mm, x, cfg, probes: eval_lower_fell(mm, x, cfg, probes, balls),
    }
    assert list(evaluators) == list(MODES)
    sample = [Fr(1), Fr(0), Fr(1, 512), Fr(0), Fr(1, 256), Fr(1, 2)]
    kinds = set()
    for mode, evaluate in evaluators.items():
        verdicts = continuity_points(mm, sample, mode, cfg, probes, balls)
        assert list(verdicts) == [Fr(1), Fr(0), Fr(1, 512), Fr(1, 256), Fr(1, 2)]  # a repeated point once
        for x, verdict in verdicts.items():
            assert verdict_to_json(verdict) == verdict_to_json(evaluate(mm, x, cfg, probes)), (mode, x)
            kinds.add((mode, verdict.kind))
    assert {mode for mode, kind in kinds if kind == "continuous"} == set(MODES)
    assert {mode for mode, kind in kinds if kind == "discontinuous"} == set(MODES)
    for mode in ("sideways", "", "Plain", [], None):
        with pytest.raises(ValueError):
            continuity_points(mm, sample, mode, cfg, probes)


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
    assert out.report["reason"] == "exhaustion bound clipped some value; larger stages could differ"
    assert all(stage["failing_n"] == 0 for stage in out.report["stages"])
    # distance-1 convention is what blocks every pass already at n = 0
    assert dist_to_set(Fr(0), Empty()) == 1
    # with a wide enough exhaustion the verdict resolves
    assert eval_dagger(mm5, Fr(0), default_config(m_bound=6), probes).kind == "continuous"


def test_eval_strong_star_on_an_empty_value_needs_no_dense_sequence():
    # an empty value at x is at distance 1 from every point, so no dense
    # index is near enough to test: continuous, also on the tree space,
    # which has no dense sequence
    space = rational_points_space([Fr(0), Fr(1)])
    probes = full_domain_probes(space)
    for codomain, other in ((TREE_SPACE, Empty()), (REAL_LINE, finite_real(0))):
        mm = tabular_multimap(space, {Fr(0): Empty(), Fr(1): other}, codomain)
        out = eval_strong_star(mm, Fr(0), default_config(), probes)
        assert (out.kind, out.witness, out.report) == ("continuous", None, {"criterion": "strong_star"})


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
    # a closed and an open interval with the same ends are two distinct values
    space = rational_points_space([Fr(0), Fr(1, 1024)])
    values = {Fr(0): closed_intervals((0, 1)), Fr(1, 1024): open_intervals((0, 1))}
    ctx = ProbeContext(tabular_multimap(space, values, UNIT_INTERVAL), Fr(0), default_config(), full_domain_probes(space))
    assert ctx.value_lists()[Fr(1)] == [closed_intervals((0, 1)), open_intervals((0, 1))]


def test_probe_generator_contract_is_enforced():
    space = rational_points_space([Fr(0), Fr(1)])
    mm = tabular_multimap(space, {p: finite_real(0) for p in space.points()}, REAL_LINE)

    def bad_probes(center, radius):
        return [p for p in space.points()]  # ignores the radius: 1 is not inside the first ball

    for mode, evaluate in MODES.items():
        args = ([(Fr(0), Fr(1, 2))],) if mode == "fell" else ()
        with pytest.raises(ValueError, match="outside the open ball"):
            evaluate(mm, Fr(0), default_config(), bad_probes, *args)
    with pytest.raises(ValueError, match="outside the open ball"):
        eval_strong_star(mm, Fr(0), default_config(), bad_probes)


def test_a_ball_is_gathered_only_when_a_quantifier_reaches_it():
    from baire_lab.gallery import f2_multimap
    from baire_lab.trees import make_tree

    f2 = f2_multimap()
    radii = []

    def counted_probes(center, radius):
        radii.append(radius)
        return f2.default_probes(center, radius)

    cfg = default_config()
    t = make_tree(branches=[parse_baire_point(";0")])  # ill-founded: the first ball holds every table
    assert check_continuity(f2, t, cfg, counted_probes).kind == "continuous"
    assert radii == [Fr(1)]
    radii.clear()
    eval_star(f2, t, cfg, counted_probes)  # the criterion reads every ball
    assert radii == list(cfg.delta_schedule)

    # a generator fault at a ball that no quantifier reaches raises nothing;
    # a certificate holds only probes of the balls that were gathered
    space = rational_points_space([Fr(0), Fr(1, 1024)])
    mm = tabular_multimap(space, {p: finite_real(0) for p in space.points()}, REAL_LINE)

    def faulty_below_a_half(center, radius):
        return [Fr(5)] if radius < Fr(1, 2) else full_domain_probes(space)(center, radius)

    verdict = check_continuity(mm, Fr(0), cfg, faulty_below_a_half)
    assert verdict.kind == "continuous"
    assert {delta for _, delta in verdict.witness.table} == {Fr(1)}
    with pytest.raises(DomainError, match="outside the domain"):
        eval_star(mm, Fr(0), cfg, faulty_below_a_half)


def _eager_context_agrees(monkeypatch, evaluate, mm, x, cfg, probes, *args) -> str:
    from baire_lab import checkers

    lazy = verdict_to_json(evaluate(mm, x, cfg, probes, *args))
    with monkeypatch.context() as patched:
        patched.setattr(checkers, "ProbeContext", EagerProbeContext)
        eager = verdict_to_json(evaluate(mm, x, cfg, probes, *args))
    assert lazy == eager, (mm.name, x, evaluate.__name__)
    return lazy["verdict"]


def _probe_battery():
    """A seeded battery of maps and points, each with its probe generator
    and lower-Fell test balls: tabular maps with finite, interval and
    empty values, criterion 10's open-split maps and their closures, dense
    split, the spike map, f1 grid points, f2 trees of depth <= 2, depth 3
    and with branches."""
    from baire_lab.closed_sets import closure, eps_net
    from baire_lab.gallery import dense_split, f1_multimap, f2_multimap, harmonic_spike_set, spike_function
    from baire_lab.trees import make_tree

    rng = random.Random(211)
    pools = {
        REAL_LINE: [Fr(0), Fr(1, 4), Fr(1, 2), Fr(1), Fr(3, 2), Fr(-1, 2), Fr(1, 3)],
        UNIT_INTERVAL: [Fr(0), Fr(1), Fr(1, 2), Fr(1, 3), Fr(2, 3), Fr(1, 4), Fr(5, 7)],
    }
    coords = [Fr(k, 4) for k in range(-4, 6)] + [Fr(k, 1024) for k in range(-4, 5)]
    instances = []
    for _ in range(4):
        mm = random_tabular(rng)
        instances += [(mm, x, full_domain_probes(mm.domain)) for x in mm.domain.points()]
    for codomain, pool in pools.items():
        for _ in range(4):
            space = rational_points_space(rng.sample(coords, rng.randrange(2, 5)))
            mm = tabular_multimap(space, {p: _random_real_value(rng, pool) for p in space.points()}, codomain)
            instances += [(mm, x, full_domain_probes(space)) for x in space.points()]
    splits = open_split_maps()
    splits += [closure_map(mm) for mm in splits]
    splits += [dense_split("dyadic"), dense_split("thirds")]
    instances += [(mm, x, mm.default_probes) for mm in splits for x in (Fr(1, 2), Fr(1, 3), Fr(3, 8), Fr(0))]
    spike = spike_function(harmonic_spike_set())
    instances += [(spike, x, spike.default_probes) for x in (Fr(1, 2), Fr(1, 3), Fr(2, 5), Fr(0), Fr(2))]
    f1 = f1_multimap(8)
    instances += [(f1, gamma, f1.default_probes) for gamma in grid_corpus()[:6]]
    f2 = f2_multimap()
    trees = [make_tree(nodes) for nodes in enumerate_prefix_closed_trees(2, 2)][:3]
    trees += depth3_tree_sample(2, seed=919) + branch_bearing_trees()[:4]
    instances += [(f2, t, f2.default_probes) for t in trees]
    battery = []
    for mm, x, probes in instances:
        value = closure(mm.value(x))
        balls = [(y, Fr(1, 8)) for y in eps_net(value, Fr(1, 4))[:3]] or [(mm.codomain.dense_point(0), Fr(1, 2))]
        battery.append((mm, x, probes, balls))
    return battery


_BATTERY_CFG = default_config(dense_bound=16, n_bound=4, m_bound=2)


def test_gathering_balls_on_first_use_changes_no_verdict(monkeypatch):
    cfg = _BATTERY_CFG
    seen: dict = {}
    for mm, x, probes, balls in _probe_battery():
        for evaluate in (check_continuity, check_strong_continuity, eval_star, eval_dagger):
            if evaluate is eval_dagger and mm.name == "f2":
                continue  # clipping is for real values
            seen.setdefault(evaluate.__name__, set()).add(
                _eager_context_agrees(monkeypatch, evaluate, mm, x, cfg, probes))
        seen.setdefault("eval_lower_fell", set()).add(
            _eager_context_agrees(monkeypatch, eval_lower_fell, mm, x, cfg, probes, balls))
        seen.setdefault("eval_strong_star", set()).add(
            _eager_context_agrees(monkeypatch, eval_strong_star, mm, x, cfg, probes))
    assert len(seen) == 6
    for name, verdicts in seen.items():
        assert {"continuous", "discontinuous"} <= verdicts, (name, verdicts)


def test_counterexamples_match_the_probe_by_probe_oracle():
    """Every refutation's counterexamples, read from the probe context,
    equal those of `scan_oracle.counterexamples_by_probes`, which measures
    each probe's value with no context: plain and strong refutations (by
    level on sequence space, by `dist_to_set` here), lower Fell and the
    strong criterion, over the battery."""
    from baire_lab.closed_sets import closure, meets_open_ball

    cfg = _BATTERY_CFG
    checked: dict = {}
    for mm, x, probes, balls in _probe_battery():
        def oracle(miss):
            return counterexamples_by_probes(mm, x, cfg, probes, miss)

        for evaluate in (check_continuity, check_strong_continuity):
            witness = evaluate(mm, x, cfg, probes).witness
            if isinstance(witness, DiscontinuityWitness):
                for entry in witness.entries:
                    counterexamples, least = oracle(lambda value: dist_to_set(entry.y, value))
                    assert entry.counterexamples == counterexamples, (mm.name, x, evaluate.__name__)
                    assert entry.eps_star <= least
                    checked[evaluate.__name__, mm.codomain is BAIRE_SPACE] = True
        fell = eval_lower_fell(mm, x, cfg, probes, balls)
        if fell.kind == "discontinuous":
            center, radius = fell.report["ball"]
            counterexamples, _ = oracle(lambda value: not meets_open_ball(closure(value), center, radius))
            assert fell.report["counterexamples"] == counterexamples, (mm.name, x, "fell")
            checked["eval_lower_fell", mm.codomain is BAIRE_SPACE] = True
        strong_star = eval_strong_star(mm, x, cfg, probes)
        if strong_star.kind == "discontinuous":
            y = strong_star.report["y"]
            counterexamples, _ = oracle(lambda value: dist_to_set(y, value))
            assert strong_star.report["counterexamples"] == counterexamples, (mm.name, x, "strong_star")
            checked["eval_strong_star", mm.codomain is BAIRE_SPACE] = True
    assert {name for name, _ in checked} == {"check_continuity", "check_strong_continuity",
                                             "eval_lower_fell", "eval_strong_star"}
    assert ("check_strong_continuity", True) in checked  # a sequence-space strong refutation


def test_the_first_probe_wins_a_tie_for_the_largest_miss():
    """Two probes of every ball have different values at the same largest
    distance from the value at x, on the line and in sequence space; the
    earlier probe is the counterexample."""
    space = rational_points_space([Fr(0), Fr(1, 1024), Fr(2, 1024)])
    probes = full_domain_probes(space)
    cfg = default_config()
    assert probes(Fr(0), Fr(1)) == [Fr(0), Fr(1, 1024), Fr(2, 1024)]
    real = [finite_real(0), finite_real(1), finite_real(-1)]
    sequence = [FiniteBaireSet(frozenset({parse_baire_point(text)})) for text in (";0", "1;0", "2;0")]
    for codomain, values in ((REAL_LINE, real), (BAIRE_SPACE, sequence)):
        mm = tabular_multimap(space, dict(zip(space.points(), values)), codomain)
        for evaluate in (check_continuity, check_strong_continuity):
            (entry,) = evaluate(mm, Fr(0), cfg, probes).witness.entries
            assert entry.counterexamples == tuple((delta, Fr(1, 1024)) for delta in cfg.delta_schedule)
            assert (entry.counterexamples, entry.eps_star) == (
                counterexamples_by_probes(mm, Fr(0), cfg, probes, lambda value: dist_to_set(entry.y, value))[0],
                Fr(1))


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


def test_sequence_space_distances_walk_to_the_least_disagreement(monkeypatch):
    """On f2 trees the checkers measure sequence-space values by their
    integer levels, without measuring pairs of points: every distance and
    separation goes through `_distance_level`, with no `baire_dist` call,
    no Fraction distance kernel, and at most one `first_disagreement` in
    `closed_sets` per point-to-set query (one per point of a set)."""
    from collections import Counter

    from baire_lab import closed_sets, spaces
    from baire_lab.closed_sets import FiniteBaireSet
    from baire_lab.gallery import f2_multimap
    from baire_lab.trees import generated_by

    calls = Counter()

    def counted(name, original, queries=lambda *args: 0):
        def wrapper(*args):
            calls[name] += 1
            calls["queries"] += queries(*args)
            return original(*args)
        return wrapper

    monkeypatch.setattr(spaces, "baire_dist", counted("baire_dist", spaces.baire_dist))
    monkeypatch.setattr(closed_sets, "first_disagreement",
                        counted("first_disagreement", closed_sets.first_disagreement))
    for name in ("dist_to_set", "dist_to_net", "set_separation"):
        monkeypatch.setattr(closed_sets, name, counted(name, getattr(closed_sets, name)))
    monkeypatch.setattr(closed_sets, "_distance_level", counted(
        "_distance_level", closed_sets._distance_level,
        lambda y, s: len(y.points) if isinstance(y, FiniteBaireSet) else 1))
    f2 = f2_multimap()
    trees = [generated_by([(0, 1), (1, 0)]), generated_by([(0, 0), (0, 2), (2, 1)]), generated_by([(1, 1)])]
    trees += branch_bearing_trees()[5:8]
    for tree in trees:
        check_continuity(f2, tree, default_config(), f2.default_probes)
        eval_star(f2, tree, default_config(), f2.default_probes)
    assert calls["baire_dist"] == 0
    assert calls["dist_to_set"] == calls["dist_to_net"] == calls["set_separation"] == 0
    assert calls["_distance_level"]
    assert 0 < calls["first_disagreement"] <= calls["queries"]


GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_f2_instances(golden=GOLDEN):
    """The golden f2 instances that `load_instance` accepts, in file order,
    each as (name, multimap, points, mode, cfg, probes); refusal pins are
    skipped, whatever their points hold."""
    from baire_lab.instances import SchemaError, load_instance

    out = []
    for case in sorted(golden.glob("f2_*.json")):
        try:
            out.append((case.stem, *load_instance(json.loads(case.read_text()))))
        except SchemaError:
            pass
    return out


def golden_f2_trees(golden=GOLDEN):
    """The f2 trees of the accepted golden instances, each once, in file order."""
    return list(dict.fromkeys(point for _, _, points, *_ in golden_f2_instances(golden) for point in points))


def test_golden_f2_trees_skip_a_refusal_pin_with_a_malformed_tree(tmp_path):
    for case in GOLDEN.glob("f2_*.json"):
        (tmp_path / case.name).write_text(case.read_text())
    (tmp_path / "f2_tree_literal_refused.json").write_text(json.dumps(
        {"multimap": {"kind": "f2"}, "mode": "plain", "points": ["tree{nodes:[(0],branches:[]}"]}))
    assert golden_f2_trees(tmp_path) == golden_f2_trees()
    assert len(golden_f2_trees()) == 10


def test_fraction_comparisons_on_the_golden_f2_trees(monkeypatch):
    """A deterministic work count for the probe layer on sequence-space
    values: the `Fraction` rich comparisons that `check_continuity` and
    `eval_star` make on the f2 trees of the golden instances."""
    from baire_lab.gallery import f2_multimap

    trees = golden_f2_trees()
    f2, cfg = f2_multimap(), default_config()
    compared = []
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        def counted(a, b, original=getattr(Fr, name)):
            compared.append(None)
            return original(a, b)
        monkeypatch.setattr(Fr, name, counted)
    for tree in trees:
        check_continuity(f2, tree, cfg, f2.default_probes)
        eval_star(f2, tree, cfg, f2.default_probes)
    monkeypatch.undo()
    assert len(trees) == 10
    # 794 before the probe layer compared levels, 329 before tree space's
    # ball test compared ranks (that test compares no Fraction per probe),
    # and 249 before a refutation compared the keys of its distances
    assert len(compared) == 244


def test_comb_calls_on_the_golden_starved_f2_star_instance(monkeypatch):
    """A deterministic work count for the tree kernels: the `math.comb`
    calls that ranking makes while the golden `f2_star_starved` instance is
    checked from cleared caches.  The tree ball tests rank no node at the
    schedule's power-of-two radii; the calls left rank a dense index."""
    import math

    from baire_lab import closed_sets, spaces

    [(_, f2, points, mode, cfg, probes)] = [case for case in golden_f2_instances() if case[0] == "f2_star_starved"]
    calls = []

    def counted(n, k, original=math.comb):
        calls.append(None)
        return original(n, k)

    spaces.node_rank.cache_clear()
    closed_sets.tree_body_points.cache_clear()
    monkeypatch.setattr(math, "comb", counted)
    verdicts = continuity_points(f2, points, mode, cfg, probes)
    monkeypatch.undo()
    assert [v.kind for v in verdicts.values()] == ["inconclusive"]
    assert len(calls) == 3  # 1,584 when tree_dist ranked the 261-entry node where a trunk leaves the center


def test_primitive_period_calls_on_the_golden_f2_trees(monkeypatch):
    """A deterministic work count for the point constructor: the
    `_primitive_period` calls that `f2_witness` and `verify_witness` make
    on the f2 trees of the golden instances.  Only a period of more than
    one entry is reduced, so the padded terminals of f2's values, points
    `head·0^ω`, need none."""
    from baire_lab import closed_sets, spaces
    from baire_lab.gallery import f2_multimap, f2_witness

    trees, f2, cfg = golden_f2_trees(), f2_multimap(), default_config()
    calls = []

    def counted(period, original=spaces._primitive_period):
        calls.append(len(period))
        return original(period)

    closed_sets.tree_body_points.cache_clear()  # a cached value builds no points
    monkeypatch.setattr(spaces, "_primitive_period", counted)
    for tree in trees:
        assert verify_witness(f2, tree, f2_witness(tree, cfg), f2.default_probes)
    monkeypatch.undo()
    assert min(calls) > 1
    assert len(calls) == 2  # 153 when every point's period was reduced


def test_fraction_hashes_and_value_lookups_on_criteria_06_and_10(monkeypatch):
    """A deterministic work count for the probe layer on real values: the
    `Fraction` hashes and `ProbeContext.at` calls of criteria 06 and 10's
    evaluator calls (dense split strong, spike plain, and per criterion-10
    instance lower Fell and strong continuity on the map and its closure)."""
    from baire_lab import checkers
    from baire_lab.closed_sets import closure, eps_net
    from baire_lab.gallery import dense_split, harmonic_spike_set, spike_function

    split, spike = dense_split("dyadic"), spike_function(harmonic_spike_set())
    calls = [(check_strong_continuity, split, x, ()) for x in DENSE_SPLIT_POINTS]
    calls += [(check_continuity, spike, x, ()) for x in SPIKE_POINTS]
    for mm, x in fell_instances():
        balls = [(y, Fr(1, 8)) for y in eps_net(closure(mm.value(x)), Fr(1, 4))]
        calls += [(eval_lower_fell, mm, x, (balls,)), (check_strong_continuity, closure_map(mm), x, ()),
                  (check_strong_continuity, mm, x, ())]
    cfg = default_config()
    hashed, looked_up = [], []

    def counted_hash(self, original=Fr.__hash__):
        hashed.append(None)
        return original(self)

    def counted_at(self, xp, original=checkers.ProbeContext.at):
        looked_up.append(None)
        return original(self, xp)

    monkeypatch.setattr(Fr, "__hash__", counted_hash)
    monkeypatch.setattr(checkers.ProbeContext, "at", counted_at)
    for evaluate, mm, x, extra in calls:
        evaluate(mm, x, cfg, mm.default_probes, *extra)
    monkeypatch.undo()
    assert len(calls) == 100
    # 66,985 and 16,516 when `_counterexamples` looked each probe's value up
    # again and `finite_real` hashed its points twice; 33,227 hashes when
    # `gather_probes` hashed each probe twice
    assert (len(hashed), len(looked_up)) == (26427, 7462)


# ---------------------------------------------------------------------------
# the closed-form least dense index against the index-by-index scan of the
# codomain's dense sequence, swapped in for the search
# ---------------------------------------------------------------------------


def _scan_oracle_agrees(monkeypatch, evaluate, mm, x, cfg, probes) -> str:
    from baire_lab import checkers
    from baire_lab.instances import verdict_to_json

    closed = verdict_to_json(evaluate(mm, x, cfg, probes))
    with monkeypatch.context() as patched:
        patched.setattr(checkers, "_dense_search", lambda codomain, cfg: scan_search(codomain.dense_point, cfg))
        scanned = verdict_to_json(evaluate(mm, x, cfg, probes))
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


def test_closed_form_dense_index_matches_the_scan_on_tabular_maps(monkeypatch):
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
                    verdicts.add(_scan_oracle_agrees(monkeypatch, eval_star, mm, x, cfg, probes))
    assert verdicts == {"continuous", "discontinuous", "inconclusive"}


def test_closed_form_dense_index_matches_the_scan_on_the_gallery(monkeypatch):
    from baire_lab.gallery import dense_split, f1_multimap, f2_multimap
    from baire_lab.spaces import grid_point
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
            _scan_oracle_agrees(monkeypatch, eval_star, f2, t, cfg, f2.default_probes)
    f1 = f1_multimap()
    for gamma in (grid_point(), grid_point(default=((), (1,))), grid_point({2: ((), (0, 1))}, ((1,), (0,)))):
        _scan_oracle_agrees(monkeypatch, eval_star, f1, gamma, default_config(), f1.default_probes)
    split = dense_split("dyadic")
    for x in (Fr(1, 2), Fr(1, 3), Fr(3, 8), Fr(0), Fr(1)):
        _scan_oracle_agrees(monkeypatch, eval_dagger, split, x, default_config(), split.default_probes)


def test_star_scan_enumerates_no_dense_point_and_separates_each_pair_once(monkeypatch):
    from collections import Counter

    from baire_lab import closed_sets, spaces
    from baire_lab.gallery import f1_multimap, f2_multimap
    from baire_lab.spaces import grid_point
    from baire_lab.trees import make_tree

    dense_calls, pairs = Counter(), Counter()
    for cls in (spaces.BaireSpace, spaces.RealLine):
        def counted_dense(self, s, original=cls.dense_point):
            dense_calls[type(self).__name__] += 1
            return original(self, s)

        monkeypatch.setattr(cls, "dense_point", counted_dense)
    for name in ("set_separation", "_distance_level"):  # real pairs, and sequence-space pairs by level
        def counted_separation(a, b, original=getattr(closed_sets, name)):
            pairs[frozenset((a, b))] += 1
            return original(a, b)

        monkeypatch.setattr(closed_sets, name, counted_separation)
    f1, f2 = f1_multimap(), f2_multimap()
    measured = sequence_pairs = 0
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
        sequence_pairs += mm is f2 and len(pairs)
    assert measured > sequence_pairs > 0 and not dense_calls


# ---------------------------------------------------------------------------
# dagger's windows stop at the first one that clips no probe value, against
# the scan of every window up to m_bound
# ---------------------------------------------------------------------------


def _dagger_agrees_with_every_window(mm, x, cfg, probes) -> tuple:
    got = eval_dagger(mm, x, cfg, probes)
    want = dagger_by_every_window(mm, x, cfg, probes)
    assert got.kind == want.kind, (mm.name, x)
    if got.kind == "continuous":
        assert got.report == want.report, (mm.name, x)
        return got.kind, None
    assert got.report.get("reason") == want.report.get("reason"), (mm.name, x)
    kept, every = got.report["stages"], want.report["stages"]
    assert every[:len(kept)] == kept, (mm.name, x)
    last = dict(kept[-1], stage=None)
    assert all(dict(stage, stage=None) == last for stage in every[len(kept):]), (mm.name, x)
    return got.kind, got.report.get("reason")


def golden_dagger_instances(golden=GOLDEN):
    """The golden `dagger` instances that `baire-lab check` accepts, each as
    (multimap, points, cfg, probes)."""
    from baire_lab.instances import load_instance
    from baire_lab.spaces import real_flavored

    out = []
    for case in sorted(golden.glob("*.json")):
        raw = json.loads(case.read_text())
        if raw.get("mode") == "dagger":
            mm, points, _, cfg, probes = load_instance(raw)
            if real_flavored(mm.codomain):
                out.append((mm, points, cfg, probes))
    return out


def test_dagger_windows_agree_with_the_scan_of_every_window():
    from baire_lab.gallery import dense_split, f1_multimap

    instances = [(mm, x, cfg, probes) for mm, points, cfg, probes in golden_dagger_instances() for x in points]
    assert len({id(mm) for mm, *_ in instances}) >= 8
    for variant in ("dyadic", "thirds"):
        split = dense_split(variant)
        instances += [(split, x, default_config(), split.default_probes) for x in DENSE_SPLIT_POINTS]
    f1 = f1_multimap(8)
    instances += [(f1, gamma, default_config(), f1.default_probes) for gamma in grid_corpus()]
    rng = random.Random(283)
    for m_bound in (0, 1, 2, 8):
        cfg = default_config(m_bound=m_bound)
        for _ in range(6):
            mm = random_tabular(rng)
            instances += [(mm, x, cfg, full_domain_probes(mm.domain)) for x in mm.domain.points()]
    outcomes = {_dagger_agrees_with_every_window(*instance) for instance in instances}
    assert outcomes == {
        ("continuous", None), ("discontinuous", None),
        ("inconclusive", "exhaustion bound clipped some value; larger stages could differ"),
        ("inconclusive", "refutation lacked a separation certificate at some stage"),
    }


def test_a_huge_m_bound_costs_a_dagger_check_no_more_windows():
    from baire_lab.gallery import dense_split

    cfg = default_config(m_bound=10 ** 18)
    for variant in ("dyadic", "thirds"):
        split = dense_split(variant)
        for x in DENSE_SPLIT_POINTS:
            report = eval_dagger(split, x, cfg, split.default_probes).report
            assert report.get("stage", 0) <= 1 and len(report.get("stages", ())) <= 2, (variant, x)
    # a refutation stops at K_1, the first window that clips neither value
    space = rational_points_space([Fr(0), Fr(1, 1024)])
    mm = tabular_multimap(space, {Fr(0): finite_real(1), Fr(1, 1024): finite_real(-1)}, REAL_LINE)
    out = eval_dagger(mm, Fr(0), cfg, full_domain_probes(space))
    assert out.kind == "discontinuous" and [stage["stage"] for stage in out.report["stages"]] == [0, 1]
