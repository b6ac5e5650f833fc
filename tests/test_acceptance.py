"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance is exact (zero disagreements); stated wall-time
bounds are asserted.  The depth-3 corpus of criterion 4 is sampled by
default (the literal enumeration has 389,017,000 members — see the
notes in the repository history); set BAIRE_LAB_FULL_TREE_CORPUS=1 to
sweep the full enumeration.
"""

import os
import random
import time
from fractions import Fraction as Fr

from baire_lab.checkers import (
    ContinuityWitness,
    check_continuity,
    check_strong_continuity,
    continuity_points,
    default_config,
    eval_dagger,
    eval_lower_fell,
    eval_star,
    full_domain_probes,
    tabular_multimap,
    verify_witness,
)
from baire_lab.closed_sets import (
    Empty,
    closure,
    dist_to_set,
    finite_real,
)
from baire_lab.gallery import (
    AffineMap,
    BaireEmbedding,
    IdentityEmbedding,
    compose,
    dense_split,
    extend,
    f1_graph_member,
    f1_multimap,
    f1_value,
    f1_witness,
    f2_multimap,
    f2_witness,
    harmonic_spike_set,
    interval_of,
    is_dyadic,
    r_membership,
    spike_function,
)
from baire_lab.instances import parse_baire_point
from baire_lab.pointclass import classify, parse_expr, replay_trace
from baire_lab.spaces import (
    REAL_LINE,
    UNIT_INTERVAL,
    BairePoint,
    baire_dist,
    eventually_zero,
    rational_points_space,
)
from baire_lab.trees import is_ill_founded, make_tree, tree_shift

from corpus_helpers import (
    DENSE_SPLIT_POINTS,
    SPIKE_POINTS,
    branch_bearing_trees,
    closure_map,
    depth3_tree_sample,
    enumerate_prefix_closed_trees,
    fell_instances,
    grid_corpus,
)

CFG = default_config()


def report(capsys, num, ok, desc, elapsed, limit=None):
    """One visible line per criterion, unconditionally (capture disabled)."""
    bound = " < %ss" % limit if limit is not None else ""
    line = "ACCEPTANCE %02d %s %s [%.2fs%s]" % (num, "PASS" if ok else "FAIL", desc, elapsed, bound)
    with capsys.disabled():
        print("\n" + line)


def counted_gathers(monkeypatch) -> list:
    """The radius of every `gather_probes` call from here on: a delta ball
    is gathered only when a quantifier reaches it, so the count is a
    deterministic measure of the probing work."""
    from baire_lab import checkers

    radii = []
    original = checkers.gather_probes

    def counted(multimap, probes, x, radius, budget):
        radii.append(radius)
        return original(multimap, probes, x, radius, budget)

    monkeypatch.setattr(checkers, "gather_probes", counted)
    return radii


# -- 1 ------------------------------------------------------------------------


def test_criterion_01_hierarchy_skeletons(capsys):
    started = time.monotonic()
    expected = {
        "Ic(Uc(open))": "Pi0(2)",
        "Uc(Ic(Uc(open)))": "Sigma0(3)",
        "proj(inter(analytic, Ic(open)))": "Sigma1(1)",
        "compl(proj(inter(analytic, Uc(closed))))": "Pi1(1)",
    }
    failures = []
    for text, want in expected.items():
        trace = []
        got = str(classify(parse_expr(text), trace))
        if got != want or not replay_trace(trace):
            failures.append((text, got, want))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 1.0
    report(capsys, 1, ok, "hierarchy skeletons classify exactly", elapsed, 1)
    assert not failures, failures
    assert elapsed < 1.0


# -- 2 ------------------------------------------------------------------------


def test_criterion_02_f1_classification(capsys):
    started = time.monotonic()
    corpus = grid_corpus()
    assert len(corpus) >= 50
    mm = f1_multimap(8)
    disagreements = []
    for gamma in corpus:
        witness = f1_witness(gamma, 8, CFG)
        expected_continuous = any(r_membership(gamma, m) for m in range(9))
        kind_matches = isinstance(witness, ContinuityWitness) == expected_continuous
        accepted = verify_witness(mm, gamma, witness, mm.default_probes)
        if not (kind_matches and accepted):
            disagreements.append(gamma)
    elapsed = time.monotonic() - started
    ok = not disagreements and elapsed < 10.0
    report(capsys, 2, ok, "f1 witness kind = grid-row membership, all witnesses verified (%d points)" % len(corpus), elapsed, 10)
    assert not disagreements, disagreements
    assert elapsed < 10.0


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_f1_graph_formula(capsys):
    started = time.monotonic()
    corpus = grid_corpus()
    # window-M agreement holds below M + 1; the grid's endpoint 9 = M + 1
    # is the one point where the unwindowed graph predicate can see row 9
    grid_ys = [Fr(k, 12) for k in range(108)]
    disagreements = []
    for gamma in corpus:
        member = f1_value(gamma, 8).points
        for y in grid_ys:
            if f1_graph_member(gamma, y) != (y in member):
                disagreements.append((gamma, y))
        if f1_graph_member(gamma, Fr(9)) != r_membership(gamma, 9) or Fr(9) in member:
            disagreements.append((gamma, Fr(9)))
    elapsed = time.monotonic() - started
    ok = not disagreements
    report(capsys, 3, ok, "f1 graph predicate = value enumeration on the k/12 grid", elapsed)
    assert not disagreements, disagreements[:5]


# -- 4 ------------------------------------------------------------------------


def _criterion4_corpus():
    """Streamed so the opt-in full depth-3 enumeration never materializes."""
    if os.environ.get("BAIRE_LAB_FULL_TREE_CORPUS") == "1":
        for nodes in enumerate_prefix_closed_trees(3, 3):
            yield make_tree(nodes)
    else:
        for nodes in enumerate_prefix_closed_trees(3, 2):
            yield make_tree(nodes)
        yield from depth3_tree_sample(2000)
    yield from branch_bearing_trees()


def test_criterion_04_f2_classification(capsys):
    started = time.monotonic()
    mm = f2_multimap()
    disagreements = []
    count = 0
    for tree in _criterion4_corpus():
        count += 1
        witness = f2_witness(tree, CFG)
        kind_matches = isinstance(witness, ContinuityWitness) == is_ill_founded(tree)
        accepted = verify_witness(mm, tree, witness, mm.default_probes)
        if not (kind_matches and accepted):
            disagreements.append(tree)
    elapsed = time.monotonic() - started
    full_mode = os.environ.get("BAIRE_LAB_FULL_TREE_CORPUS") == "1"
    ok = not disagreements and (full_mode or elapsed < 60.0)
    report(capsys, 4, ok, "f2 witness kind = ill-foundedness, all witnesses verified (%d trees)" % count, elapsed, None if full_mode else 60)
    assert not disagreements, disagreements[:3]
    if not full_mode:
        assert elapsed < 60.0


# -- 5 ------------------------------------------------------------------------


_VALUE_POOL = [Fr(0), Fr(1, 4), Fr(1, 2), Fr(1), Fr(3, 2), Fr(2), Fr(-1, 2)]


def _random_tabular(rng):
    wide = [Fr(k, 4) for k in range(-6, 10)]
    tight = [Fr(k, 1024) for k in range(-8, 9)]
    pool = wide if rng.random() < 0.5 else tight
    coords = rng.sample(pool, rng.randrange(2, 6))
    space = rational_points_space(coords)
    values = {p: finite_real(*rng.sample(_VALUE_POOL, rng.randrange(1, 4)))
              for p in space.points()}
    return tabular_multimap(space, values, REAL_LINE)


def test_criterion_05_criterion_equivalence(capsys, monkeypatch):
    started = time.monotonic()
    gathered = counted_gathers(monkeypatch)
    mmf1 = f1_multimap(8)
    mmf2 = f2_multimap()
    instances = [(mmf1, gamma, mmf1.default_probes) for gamma in grid_corpus()]
    trees = [make_tree(nodes) for nodes in enumerate_prefix_closed_trees(3, 2)]
    trees += depth3_tree_sample(200, seed=515)
    trees += branch_bearing_trees()
    instances += [(mmf2, t, mmf2.default_probes) for t in trees]
    rng = random.Random(505)
    for _ in range(20):
        mm = _random_tabular(rng)
        for x in mm.domain.points():
            instances.append((mm, x, full_domain_probes(mm.domain)))
    disagreements = []
    compared = 0
    for mm, x, probes in instances:
        a = check_continuity(mm, x, CFG, probes)
        b = eval_star(mm, x, CFG, probes)
        if a.kind != "inconclusive" and b.kind != "inconclusive":
            compared += 1
            if a.kind != b.kind:
                disagreements.append((mm.name, x, a.kind, b.kind))
    elapsed = time.monotonic() - started
    skipped = len(instances) - compared
    ok = not disagreements and (compared, skipped) == (1054, 17)
    report(capsys, 5, ok, "plain checker = inf-sup criterion on %d conclusive pairs, %d of %d skipped"
           % (compared, skipped, len(instances)), elapsed)
    assert not disagreements, disagreements[:5]
    # star is Inconclusive at 9 f1 points and 8 ill-founded f2 trees; a pair
    # moving into or out of Inconclusive changes these counts
    assert (compared, skipped) == (1054, 17)
    assert len(gathered) == 18671  # 19,278 when every ball was gathered up front


# -- 6 ------------------------------------------------------------------------


def test_criterion_06_strong_continuity_splits(capsys, monkeypatch):
    started = time.monotonic()
    gathered = counted_gathers(monkeypatch)
    ds = dense_split("dyadic")
    disagreements = []
    for x in DENSE_SPLIT_POINTS:
        got = check_strong_continuity(ds, x, CFG, ds.default_probes).kind
        want = "continuous" if is_dyadic(x) else "discontinuous"
        if got != want:
            disagreements.append(("dense_split", x, got, want))

    spikes = harmonic_spike_set()
    sp = spike_function(spikes)
    for x in SPIKE_POINTS:
        got = check_continuity(sp, x, CFG, sp.default_probes).kind
        want = "discontinuous" if spikes.index_of(x) is not None else "continuous"
        if got != want:
            disagreements.append(("spike", x, got, want))
    elapsed = time.monotonic() - started
    ok = not disagreements
    report(capsys, 6, ok, "dense-split strong verdicts = membership, spike plain verdicts = complement (40 points)", elapsed)
    assert not disagreements, disagreements
    assert len(gathered) == 238  # 360 when every ball was gathered up front


# -- 7 ------------------------------------------------------------------------


def _extend_instances():
    rng = random.Random(707)
    out = []
    for index in range(10):
        coords = sorted(rng.sample([Fr(k, 4) for k in range(8)], 3)) + [Fr(9, 4) + Fr(index)]
        tight = coords[0] + Fr(1, 1024)
        sub_coords = coords[:3] + [tight]
        sup_coords = sub_coords + [coords[3]]
        sub = rational_points_space(sub_coords)
        sup = rational_points_space(sup_coords)
        if index % 2 == 0:
            codomain = UNIT_INTERVAL
            pool = [Fr(0), Fr(1, 2), Fr(1)]
        else:
            codomain = rational_points_space([Fr(0), Fr(1, 2), Fr(1)])
            pool = [Fr(0), Fr(1, 2), Fr(1)]
        values = {p: finite_real(*rng.sample(pool, rng.randrange(1, 3))) for p in sub.points()}
        f0 = tabular_multimap(sub, values, codomain)
        out.append((f0, IdentityEmbedding(sub, sup), sup))
    return out


def test_criterion_07_combinator_transfer(capsys):
    started = time.monotonic()
    disagreements = []
    for f0, emb, sup in _extend_instances():
        f1 = extend(f0, emb, sup)
        base = continuity_points(f0, f0.domain.points(), "plain", CFG, full_domain_probes(f0.domain))
        lifted = continuity_points(f1, sup.points(), "plain", CFG, full_domain_probes(sup))
        for x, verdict in base.items():
            if lifted[x].kind != verdict.kind:
                disagreements.append(("extend-image", f0.name, x))
        for x in sup.points():
            if not emb.in_image(x) and lifted[x].kind != "continuous":
                disagreements.append(("extend-off-image", f0.name, x))

    rng = random.Random(708)
    compose_instances = []
    for scale, shift in [(Fr(1, 2), Fr(0)), (Fr(-1, 3), Fr(1)), (Fr(1, 4), Fr(-2)),
                         (Fr(-1, 2), Fr(0)), (Fr(1), Fr(5)), (Fr(-1), Fr(0))]:
        mm = _random_tabular(rng)
        compose_instances.append((mm, AffineMap(scale, shift), mm.domain.points(), full_domain_probes(mm.domain)))
    mmf2 = f2_multimap()
    f2_points = [make_tree(), make_tree([(0,)]),
                 make_tree(branches=[eventually_zero(())]),
                 make_tree(branches=[parse_baire_point(";1")])]
    for t in f2_points:
        compose_instances.append((mmf2, BaireEmbedding(), [t], mmf2.default_probes))
    for mm, pi, points, probes in compose_instances:
        lifted = compose(pi, mm)
        for x in points:
            before = check_continuity(mm, x, CFG, probes).kind
            after = check_continuity(lifted, x, CFG, probes).kind
            if before != after:
                disagreements.append(("compose", mm.name, x, before, after))
    elapsed = time.monotonic() - started
    ok = not disagreements
    report(capsys, 7, ok, "extension and composition transfer verdicts exactly (10 + 10 instances)", elapsed)
    assert not disagreements, disagreements[:5]


# -- 8 ------------------------------------------------------------------------


def test_criterion_08_embedding_family(capsys):
    started = time.monotonic()
    nodes = [()]
    frontier = [()]
    for _ in range(4):
        frontier = [u + (c,) for u in frontier for c in range(4)]
        nodes.extend(frontier)
    intervals = {u: interval_of(u) for u in nodes}
    failures = []
    if intervals[()] != (Fr(0), Fr(1)):
        failures.append("root")
    for u, (a, b) in intervals.items():
        if not (a < b and b - a <= Fr(1, 2 ** len(u))):
            failures.append(("length", u))
        if u:
            pa, pb = intervals[u[:-1]]
            if not (pa <= a and b <= pb):
                failures.append(("nesting", u))
    for i, u in enumerate(nodes):
        for w in nodes[i + 1:]:
            if u[: len(w)] == w or w[: len(u)] == u:
                continue
            (a, b), (c, d) = intervals[u], intervals[w]
            if not (b < c or d < a):
                failures.append(("overlap", u, w))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 5.0
    report(capsys, 8, ok, "interval family: root, nesting, lengths, disjointness (%d nodes)" % len(nodes), elapsed, 5)
    assert not failures, failures[:5]
    assert elapsed < 5.0


# -- 9 ------------------------------------------------------------------------


def _oracle_plain(mm, x, cfg):
    """Definition-shaped quantifier sweep over the whole finite instance."""
    points = mm.domain.points()

    def ball(delta):
        return [p for p in points if mm.domain.dist(x, p) < delta]

    def validated(y):
        return all(
            any(
                all(any(abs(y - yp) < eps for yp in mm.value(xp).points) for xp in ball(delta))
                for delta in cfg.delta_schedule
            )
            for eps in cfg.eps_schedule
        )

    def refuted(y):
        return any(
            all(
                any(min(abs(y - yp) for yp in mm.value(xp).points) >= eps for xp in ball(delta))
                for delta in cfg.delta_schedule
            )
            for eps in cfg.eps_schedule
        )

    ys = sorted(mm.value(x).points)
    return validated, refuted, ys


def _oracle_verdict(mm, x, cfg, mode):
    validated, refuted, ys = _oracle_plain(mm, x, cfg)
    if mode == "plain":
        if any(validated(y) for y in ys):
            return "continuous"
        if all(refuted(y) for y in ys):
            return "discontinuous"
        return "inconclusive"
    if all(validated(y) for y in ys):
        return "continuous"
    if any(refuted(y) for y in ys):
        return "discontinuous"
    return "inconclusive"


def test_criterion_09_oracle_equivalence_on_finite_spaces(capsys):
    started = time.monotonic()
    rng = random.Random(909)
    disagreements = []
    kinds_seen = set()
    for _ in range(100):
        mm = _random_tabular(rng)
        probes = full_domain_probes(mm.domain)
        for x in mm.domain.points():
            for mode, checker in (("plain", check_continuity), ("strong", check_strong_continuity)):
                got = checker(mm, x, CFG, probes).kind
                want = _oracle_verdict(mm, x, CFG, mode)
                kinds_seen.add(got)
                if got != want:
                    disagreements.append((mm.name, x, mode, got, want))
    elapsed = time.monotonic() - started
    ok = not disagreements and {"continuous", "discontinuous"} <= kinds_seen
    report(capsys, 9, ok, "checkers = brute-force definition sweep on 100 finite instances", elapsed)
    assert not disagreements, disagreements[:5]
    assert {"continuous", "discontinuous"} <= kinds_seen


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_lower_fell_equivalence(capsys, monkeypatch):
    started = time.monotonic()
    gathered = counted_gathers(monkeypatch)
    instances = fell_instances()
    assert len(instances) == 20
    disagreements = []
    compared = direct_compared = 0
    for mm, x in instances:
        closed_map = closure_map(mm)
        balls = []
        from baire_lab.closed_sets import eps_net

        for y in eps_net(closure(mm.value(x)), Fr(1, 4)):
            balls.append((y, Fr(1, 8)))
        fell = eval_lower_fell(mm, x, CFG, mm.default_probes, balls)
        strong = check_strong_continuity(closed_map, x, CFG, mm.default_probes)
        if fell.kind != "inconclusive" and strong.kind != "inconclusive":
            compared += 1
            if fell.kind != strong.kind:
                disagreements.append((mm.name, x, fell.kind, strong.kind))
        direct = check_strong_continuity(mm, x, CFG, mm.default_probes)
        if direct.kind != "inconclusive" and strong.kind != "inconclusive":
            direct_compared += 1
            if direct.kind != strong.kind:
                disagreements.append((mm.name, x, "direct", direct.kind, strong.kind))
    elapsed = time.monotonic() - started
    skipped = 2 * len(instances) - compared - direct_compared
    ok = not disagreements and (compared, direct_compared, skipped) == (20, 20, 0)
    report(capsys, 10, ok, "lower-Fell = strong continuity of the closure map (%d conclusive pairs, %d direct, "
           "%d skipped)" % (compared, direct_compared, skipped), elapsed)
    assert not disagreements, disagreements
    # every pair is conclusive; a pair moving into Inconclusive changes these counts
    assert (compared, direct_compared, skipped) == (20, 20, 0)
    assert len(gathered) == 324  # 540 when every ball was gathered up front


# -- 11 -----------------------------------------------------------------------


def test_criterion_11_metric_and_tree_kernels(capsys):
    started = time.monotonic()
    rng = random.Random(1111)
    failures = []

    def random_point():
        prefix = tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
        period = tuple(rng.randrange(4) for _ in range(1, rng.randrange(1, 4) + 1))
        return BairePoint(prefix, period)

    for _ in range(1000):
        a, b, c = random_point(), random_point(), random_point()
        if baire_dist(a, c) > max(baire_dist(a, b), baire_dist(b, c)):
            failures.append(("ultrametric", a, b, c))

    for _ in range(1000):
        seeds = [tuple(rng.randrange(3) for _ in range(rng.randrange(4)))
                 for _ in range(rng.randrange(1, 4))]
        tree = make_tree(seeds)
        nodes = tree.finite_part
        if any(u[:-1] not in nodes for u in nodes if u):
            failures.append(("closure", seeds))
        shifted = tree_shift(tree)
        if any(v[:-1] not in shifted.finite_part for v in shifted.finite_part if v):
            failures.append(("shift-closure", seeds))

    # the empty-set convention feeds the exhaustion-relative criterion:
    # a far constant map fails every level because clipped values are
    # empty and contribute distance one
    if dist_to_set(Fr(0), Empty()) != 1:
        failures.append("convention")
    space = rational_points_space([Fr(0), Fr(1)])
    mm5 = tabular_multimap(space, {p: finite_real(5) for p in space.points()}, REAL_LINE)
    out = eval_dagger(mm5, Fr(0), default_config(m_bound=4), full_domain_probes(space))
    if out.kind != "inconclusive" or any(stage["failing_n"] != 0 for stage in out.report["stages"]):
        failures.append(("dagger-empty-path", out.kind, out.report))
    mm0 = tabular_multimap(space, {p: finite_real(0) for p in space.points()}, REAL_LINE)
    star = eval_star(mm0, Fr(0), CFG, full_domain_probes(space))
    if star.kind != "continuous":
        failures.append(("star-sanity", star.kind))
    elapsed = time.monotonic() - started
    ok = not failures
    report(capsys, 11, ok, "ultrametric (1000 triples), prefix closure (1000 trees), empty-set convention", elapsed)
    assert not failures, failures[:5]
