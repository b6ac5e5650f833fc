"""Seeded inputs, operations and reference checks for the four workloads.

Every workload is a stream of rounds.  A round has a fixed composition
(so many points of each kind), and the seed only chooses which points of
each kind appear and in what order.  That keeps the cost mix of a run the
same across seeds while the inputs themselves change.

An operation is a call into the library, timed on its own.  Its outcome is
judged afterwards, outside the timing, against a reference that does not
use the search: the structure the benchmark built the input with
(ill-foundedness of a tree it made, the row of a grid it made, dyadic
membership of a rational it picked), an exhaustive brute-force sweep of the
definition on finite instances, or an independent recomputation.

The library is reached through module attributes at call time
(`checkers.eval_star(...)`, not a name bound at import), so the traced run
sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction as Fr
from typing import Any, Callable

from baire_lab import checkers, cli, closed_sets, gallery, instances, pointclass, spaces, trees

CFG = checkers.default_config()

CONTINUOUS, DISCONTINUOUS, INCONCLUSIVE = "continuous", "discontinuous", "inconclusive"


@dataclass
class Op:
    """One timed call into the library and the judgement of its outcome.

    `run` does the library work and returns the outcome.  `judge` turns the
    outcome into (problems, verdict kinds, canonical payloads); it runs
    after the timing.  `tags` describe the input for the composition report.
    """

    kind: str
    run: Callable[[], Any]
    judge: Callable[[Any], tuple[list[str], list[str], list[Any]]]
    tags: dict = field(default_factory=dict)


def fmt(q: Fr) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def clear_module_caches() -> None:
    """Cold start: every `baire-lab` invocation pays these caches."""
    trees.node_rank.cache_clear()
    closed_sets.tree_body_points.cache_clear()


# ---------------------------------------------------------------------------
# input generators (seeded, independent of tests/)
# ---------------------------------------------------------------------------


def all_depth2_ternary_node_sets() -> list[frozenset]:
    """Every prefix-closed subset of {0,1,2}^{<=2}: 9^3 = 729 node sets."""
    grand_subsets = [frozenset(c) for k in range(4) for c in itertools.combinations(range(3), k)]
    states = [None] + grand_subsets  # child absent, or present with these children
    out = []
    for choice in itertools.product(states, repeat=3):
        nodes = {()}
        for a, kids in enumerate(choice):
            if kids is None:
                continue
            nodes.add((a,))
            nodes.update((a, b) for b in kids)
        out.append(frozenset(nodes))
    return out


def terminal_count(nodes) -> int:
    return sum(1 for u in nodes if not any(len(v) == len(u) + 1 and v[:-1] == u for v in nodes))


class Depth2Sample:
    """Stratified sample of the 729 depth-<=2 ternary trees.

    The trees are ordered by terminal count and size, which is what their
    cost follows, and cut into `per_round` strata of consecutive trees.
    Round r takes from each stratum its r-th tree in a seeded order, so
    each round spans the whole range of tree shapes once, rounds cost about
    the same for every seed, and no tree repeats before its whole stratum
    was taken.  Taking the trees at one seeded offset in every stratum
    instead made how many of the costliest trees a run took, and with it
    the tail percentile, follow the seed.
    """

    def __init__(self, seed: int, per_round: int):
        node_sets = sorted(all_depth2_ternary_node_sets(), key=lambda n: (terminal_count(n), len(n), sorted(n)))
        ordered = [trees.make_tree(n) for n in node_sets]
        rng = random.Random("%d/depth2" % seed)
        n = len(ordered)
        self.strata = [rng.sample(stratum, len(stratum)) for stratum in
                       (ordered[j * n // per_round:(j + 1) * n // per_round] for j in range(per_round))]

    def round(self, r: int) -> list:
        return [stratum[r % len(stratum)] for stratum in self.strata]


DEPTH3_UNIVERSE = [u for n in (1, 2, 3) for u in itertools.product(range(3), repeat=n)]


def prefix_closure(nodes) -> frozenset:
    out = {()}
    for u in nodes:
        for i in range(1, len(u) + 1):
            out.add(tuple(u[:i]))
    return frozenset(out)


def depth3_node_set(rng: random.Random, size: int | None = None) -> frozenset:
    """The prefix closure of `size` (by default 1 to 8, drawn) nodes of
    depth <= 3; the cost of checking the tree grows with `size`."""
    return prefix_closure(rng.sample(DEPTH3_UNIVERSE, rng.randrange(1, 9) if size is None else size))


def ill_founded_tree(rng: random.Random) -> trees.Tree:
    """One designated branch (prefix of length <= 1, period of length 1 or
    2, entries 0..2) plus up to two off-branch nodes.  Trees with two
    branches cost about three times as much and would make the cost of a
    run depend on how many a seed happens to draw."""
    branch = spaces.BairePoint(tuple(rng.randrange(3) for _ in range(rng.randrange(0, 2))),
                               tuple(rng.randrange(3) for _ in range(rng.randrange(1, 3))))
    extra = [tuple(rng.randrange(4) for _ in range(rng.randrange(1, 3))) for _ in range(rng.randrange(0, 3))]
    return trees.make_tree(extra, [branch])


ROW_POOL = {
    "zero": ((), (0,)),
    "one": ((), (1,)),
    "single": ((1,), (0,)),
    "late_single": ((0, 0, 0, 1), (0,)),
    "period01": ((), (0, 1)),
    "period100": ((), (1, 0, 0)),
    "pre_period": ((1, 1, 0), (0, 1)),
    "finite_burst": ((1, 0, 1, 1), (0,)),
}
DEFAULT_ROWS = ["zero", "single", "finite_burst", "one", "period01"]


@dataclass(frozen=True)
class GridSpec:
    """A grid point as the benchmark built it: explicit rows over a default."""

    rows: tuple[tuple[int, str], ...]
    default: str

    def row_has_infinitely_many_ones(self, m: int) -> bool:
        name = dict(self.rows).get(m, self.default)
        return 1 in ROW_POOL[name][1]

    def continuous(self, window: int = 8) -> bool:
        return any(self.row_has_infinitely_many_ones(m) for m in range(window + 1))

    def point(self) -> spaces.CantorGridPoint:
        return spaces.grid_point({m: ROW_POOL[n] for m, n in self.rows}, ROW_POOL[self.default])

    def to_json(self) -> dict:
        def row(name):
            pre, per = ROW_POOL[name]
            return {"prefix": "".join(map(str, pre)), "period": "".join(map(str, per))}

        return {"explicit_rows": {str(m): row(n) for m, n in self.rows}, "default_row": row(self.default)}


def grid_spec(rng: random.Random, default: str | None = None) -> GridSpec:
    """Up to three explicit rows over a default row (drawn unless given);
    the default row sets most of the cost of checking the point."""
    rows = tuple(sorted((m, rng.choice(sorted(ROW_POOL))) for m in rng.sample(range(9), rng.randrange(0, 4))))
    return GridSpec(rows, rng.choice(DEFAULT_ROWS) if default is None else default)


VALUE_POOL = [Fr(0), Fr(1, 4), Fr(1, 2), Fr(1), Fr(3, 2), Fr(2), Fr(-1, 2)]
WIDE_COORDS = [Fr(k, 4) for k in range(-6, 10)]
TIGHT_COORDS = [Fr(k, 1024) for k in range(-8, 9)]


def random_table(rng: random.Random, size: int) -> dict:
    """Point -> finite value set, over `size` rational domain points."""
    pool = WIDE_COORDS if rng.random() < 0.5 else TIGHT_COORDS
    coords = sorted(rng.sample(pool, size))
    return {x: frozenset(rng.sample(VALUE_POOL, rng.randrange(1, 4))) for x in coords}


def tabular_map(table: dict) -> checkers.MultiMap:
    space = spaces.rational_points_space(list(table))
    return checkers.tabular_multimap(space, {x: closed_sets.FiniteRealSet(v) for x, v in table.items()},
                                     spaces.REAL_LINE)


def oracle_verdicts(table: dict, mode: str, cfg=CFG) -> dict:
    """Brute-force sweep of the truncated definition over a finite table.

    Ranges over the whole domain and every value point, with the same eps
    and delta schedules as the checkers; no search, no nets, no probes.
    """
    points = sorted(table)

    def ball(x, delta):
        return [p for p in points if abs(x - p) < delta]

    def validated(x, y):
        return all(
            any(all(any(abs(y - yp) < eps for yp in table[xp]) for xp in ball(x, delta))
                for delta in cfg.delta_schedule)
            for eps in cfg.eps_schedule)

    def refuted(x, y):
        return any(
            all(any(min(abs(y - yp) for yp in table[xp]) >= eps for xp in ball(x, delta))
                for delta in cfg.delta_schedule)
            for eps in cfg.eps_schedule)

    out = {}
    for x in points:
        ys = sorted(table[x])
        if mode == "plain":
            if any(validated(x, y) for y in ys):
                out[x] = CONTINUOUS
            elif all(refuted(x, y) for y in ys):
                out[x] = DISCONTINUOUS
            else:
                out[x] = INCONCLUSIVE
        else:
            if all(validated(x, y) for y in ys):
                out[x] = CONTINUOUS
            elif any(refuted(x, y) for y in ys):
                out[x] = DISCONTINUOUS
            else:
                out[x] = INCONCLUSIVE
    return out


DYADIC_DENOMS = (2, 4, 8, 16, 32)
OTHER_DENOMS = (3, 5, 6, 7, 9, 10, 11, 12)


def unit_rational(rng: random.Random, dyadic: bool) -> Fr:
    while True:
        q = rng.choice(DYADIC_DENOMS if dyadic else OTHER_DENOMS)
        x = Fr(rng.randrange(1, q), q)
        if is_dyadic(x) == dyadic:
            return x


def is_dyadic(x: Fr) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def is_non_third(x: Fr) -> bool:
    return (3 * x).denominator != 1


def on_harmonic_list(x: Fr) -> bool:
    return x > 0 and (1 / x).denominator == 1


def off_list_point(rng: random.Random) -> Fr:
    while True:
        x = Fr(rng.randrange(-7, 15), rng.randrange(2, 12))
        if not on_harmonic_list(x):
            return x


def expect_verdicts(verdicts, expected: str | None) -> list[str]:
    """Problems: a conclusive verdict that disagrees with the reference."""
    problems = []
    for name, v in verdicts:
        if v.kind not in (CONTINUOUS, DISCONTINUOUS, INCONCLUSIVE):
            problems.append("%s: unknown verdict kind %r" % (name, v.kind))
        elif expected is not None and v.kind != INCONCLUSIVE and v.kind != expected:
            problems.append("%s: %s, reference says %s" % (name, v.kind, expected))
    return problems


def verdict_payloads(verdicts) -> list:
    return [instances.verdict_to_json(v) for _, v in verdicts]


# ---------------------------------------------------------------------------
# criterion_scan: plain checker and inf-sup criterion on the same points
# ---------------------------------------------------------------------------


def scan_op(kind: str, mm, x, probes, expected: str | None, tags: dict) -> Op:
    def run():
        plain = checkers.check_continuity(mm, x, CFG, probes)
        star = checkers.eval_star(mm, x, CFG, probes)
        return [("plain", plain), ("star", star)]

    def judge(verdicts):
        problems = expect_verdicts(verdicts, expected)
        (_, plain), (_, star) = verdicts
        if INCONCLUSIVE not in (plain.kind, star.kind) and plain.kind != star.kind:
            problems.append("plain %s != star %s" % (plain.kind, star.kind))
        return problems, [v.kind for _, v in verdicts], verdict_payloads(verdicts)

    return Op(kind, run, judge, tags)


class CriterionScan:
    """Criterion 05 shape.  Per round: 36 depth-<=2 trees, 4 depth-3 trees,
    2 grid points, 1 branch-bearing tree and the 4 points of one tabular
    map, about the proportions of criterion 05 (939 trees of which 10 bear
    branches, 56 grid points, about 70 tabular points).  The slow kinds
    stay below a tenth of the operations, so the tail percentile falls
    among the depth-<=2 trees, where costs are dense.

    The tail percentile sits where few operations cost more, so it moved
    with how many costly depth-3 trees and grid points a seed drew.  Their
    main cost factors therefore take turns instead of being drawn: the
    depth-3 trees' node sample size runs through 1..8 over two rounds, the
    grid points' default row through DEFAULT_ROWS, from a seeded offset;
    the rest of each is drawn."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.f1 = gallery.f1_multimap(8)
        self.f2 = gallery.f2_multimap()
        self.depth2 = Depth2Sample(seed, 36)
        self.offset = random.Random("%d/criterion_scan" % seed).randrange(8 * len(DEFAULT_ROWS))

    def round(self, r: int) -> list[Op]:
        rng = random.Random("%d/criterion_scan/%d" % (self.seed, r))
        i = self.offset + r
        ops = [self.f2_op("f2:depth2", t, False) for t in self.depth2.round(r)]
        for j in range(4):
            nodes = depth3_node_set(rng, 1 + (4 * i + j) % 8)
            ops.append(self.f2_op("f2:depth3", trees.make_tree(nodes), False))
        ops.append(self.f2_op("f2:branches", ill_founded_tree(rng), True))
        for j in range(2):
            spec = grid_spec(rng, DEFAULT_ROWS[(2 * i + j) % len(DEFAULT_ROWS)])
            ops.append(scan_op("f1:grid", self.f1, spec.point(), self.f1.default_probes,
                               CONTINUOUS if spec.continuous() else DISCONTINUOUS, {}))
        table = random_table(rng, 4)
        mm = tabular_map(table)
        probes = checkers.full_domain_probes(mm.domain)
        for x in table:
            ops.append(scan_op("tabular", mm, x, probes, None, {}))
        rng.shuffle(ops)
        return ops

    def f2_op(self, kind, t, ill_founded: bool) -> Op:
        return scan_op(kind, self.f2, t, self.f2.default_probes,
                       CONTINUOUS if ill_founded else DISCONTINUOUS,
                       {"tree": True, "ill_founded": ill_founded})


# ---------------------------------------------------------------------------
# interval_nets: strong checks of interval-valued maps and their closures
# ---------------------------------------------------------------------------


def open_split(x: Fr):
    return closed_sets.open_intervals((0, Fr(1, 4))) if is_dyadic(x) else closed_sets.open_intervals((0, 1))


def open_split_wide(x: Fr):
    if is_dyadic(x):
        return closed_sets.open_intervals((0, 1))
    return closed_sets.open_intervals((0, 1), (Fr(5, 4), Fr(3, 2)))


# criterion 10's five points and five more, alternately dyadic
INTERVAL_POINTS = (Fr(1, 2), Fr(1, 3), Fr(3, 8), Fr(2, 3), Fr(1, 4), Fr(5, 6), Fr(5, 8), Fr(2, 5), Fr(7, 8), Fr(3, 7))
# criterion 06's points: ten dyadic and ten other points of the dense split
# (alternately), ten listed and ten unlisted points of the harmonic spike map
SPLIT_POINTS = tuple(x for pair in zip(
    (Fr(0), Fr(1), Fr(1, 2), Fr(1, 4), Fr(3, 4), Fr(1, 8), Fr(5, 8), Fr(3, 16), Fr(7, 32), Fr(1, 64)),
    (Fr(1, 3), Fr(2, 3), Fr(1, 5), Fr(2, 5), Fr(5, 6), Fr(1, 7), Fr(3, 7), Fr(1, 9), Fr(4, 11), Fr(9, 13)))
    for x in pair)
SPIKE_LISTED = tuple(Fr(1, n) for n in range(1, 11))
SPIKE_UNLISTED = (Fr(0), Fr(2), Fr(2, 5), Fr(3, 7), Fr(2, 7), Fr(5, 11), Fr(-1, 3), Fr(7, 9), Fr(3, 5), Fr(5, 7))


class IntervalNets:
    """Criterion 10 shape, in the proportions of criteria 10 and 06: a
    round checks one open map at one point and one dense split variant at
    one point (criterion 10 checks both open maps and both variants at each
    of its points) and one point of the harmonic spike map (criterion 06
    checks as many spike points as dense split points, half of them
    listed).

    The points are those of criteria 10 and 06 above, in a rotation of
    twenty rounds from a seeded offset: the open maps take turns at each
    interval point, the split variants take turns in pairs of rounds, and
    listed and unlisted spike points alternate.  Twenty rounds thus check
    both open maps at every interval point, each split variant at ten of
    the split points (dyadic and not) and every spike point, whatever the
    seed; a run times at least twenty rounds (`min_ops`) however slow the
    machine is, because which points a shorter run missed moved the
    median, as random points made it follow the seed.  The interval
    operations are a third of the operations, open_split_wide (the
    costlier map) a sixth: the tail percentile falls among the latter, the
    median among the cheap operations."""

    rotation = 2 * len(INTERVAL_POINTS)
    min_ops = 3 * rotation

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        split = gallery.split_probes()
        self.open_maps = [
            checkers.MultiMap(spaces.UNIT_INTERVAL, spaces.UNIT_INTERVAL, open_split,
                              name="open_split", default_probes=split),
            checkers.MultiMap(spaces.UNIT_INTERVAL, spaces.REAL_LINE, open_split_wide,
                              name="open_split_wide", default_probes=split),
        ]
        self.closure_maps = [
            checkers.MultiMap(mm.domain, mm.codomain, lambda p, mm=mm: closed_sets.closure(mm.rule(p)),
                              name="closure(%s)" % mm.name, default_probes=mm.default_probes)
            for mm in self.open_maps
        ]
        self.splits = {"dyadic": (gallery.dense_split("dyadic"), is_dyadic),
                       "thirds": (gallery.dense_split("thirds"), is_non_third)}
        self.spike = gallery.spike_function(gallery.harmonic_spike_set())
        self.offset = random.Random("%d/interval_nets" % seed).randrange(self.rotation)

    def round(self, r: int) -> list[Op]:
        rng = random.Random("%d/interval_nets/%d" % (self.seed, r))
        i = self.offset + r
        spike_points = SPIKE_UNLISTED if i % 2 else SPIKE_LISTED
        ops = [self.open_op(self.open_maps[i % 2], self.closure_maps[i % 2],
                            INTERVAL_POINTS[i // 2 % len(INTERVAL_POINTS)]),
               self.split_op(("dyadic", "thirds")[i // 2 % 2], SPLIT_POINTS[i % len(SPLIT_POINTS)]),
               self.spike_op(spike_points[i // 2 % len(spike_points)])]
        rng.shuffle(ops)
        return ops

    def open_op(self, mm, closed_map, x: Fr) -> Op:
        balls = [(y, Fr(1, 8)) for y in closed_sets.eps_net(closed_sets.closure(mm.value(x)), Fr(1, 4))]

        def run():
            probes = mm.default_probes
            return [("fell", checkers.eval_lower_fell(mm, x, CFG, probes, balls)),
                    ("strong closure", checkers.check_strong_continuity(closed_map, x, CFG, probes)),
                    ("plain", checkers.check_continuity(mm, x, CFG, probes))]

        def judge(verdicts):
            (_, fell), (_, strong), plain = verdicts
            problems = []
            if INCONCLUSIVE not in (fell.kind, strong.kind) and fell.kind != strong.kind:
                problems.append("lower-Fell %s != strong continuity of the closure %s" % (fell.kind, strong.kind))
            # every value contains (0, 1/4), so some value point is a common
            # limit and the plain notion holds everywhere
            problems += expect_verdicts([plain], CONTINUOUS)
            return problems, [v.kind for _, v in verdicts], verdict_payloads(verdicts)

        return Op(mm.name, run, judge, {"interval_valued": True})

    def split_op(self, variant: str, x: Fr) -> Op:
        mm, member = self.splits[variant]

        def run():
            return [("strong", checkers.check_strong_continuity(mm, x, CFG, mm.default_probes))]

        def judge(verdicts):
            problems = expect_verdicts(verdicts, CONTINUOUS if member(x) else DISCONTINUOUS)
            return problems, [v.kind for _, v in verdicts], verdict_payloads(verdicts)

        return Op("dense_split:" + variant, run, judge, {"interval_valued": False})

    def spike_op(self, x: Fr) -> Op:
        mm = self.spike

        def run():
            return [("plain", checkers.check_continuity(mm, x, CFG, mm.default_probes))]

        def judge(verdicts):
            problems = expect_verdicts(verdicts, DISCONTINUOUS if on_harmonic_list(x) else CONTINUOUS)
            return problems, [v.kind for _, v in verdicts], verdict_payloads(verdicts)

        return Op("spike", run, judge, {"interval_valued": False})


# ---------------------------------------------------------------------------
# gallery_certify: proof-derived witnesses and their verification
# ---------------------------------------------------------------------------


@dataclass
class Certified:
    witness: Any
    accepted: bool


class GalleryCertify:
    """Criteria 02/04 shape, in their proportions.  Criterion 04 certifies
    729 depth-<=2 trees, 2000 depth-3 trees and 10 branch-bearing trees,
    criterion 02 56 grid points: 2795 operations, of which a tenth is a
    round of 280 here, 73 depth-<=2 trees, 200 depth-3 trees, one
    ill-founded tree and six grid points.  A run of ten rounds certifies
    about as much as the two criteria.

    `tamper`, when set, is applied to every witness before it is verified;
    the self-test uses it to show that a forged certificate is counted as
    a failure.
    """

    tamper: Callable[[Any], Any] | None = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.f1 = gallery.f1_multimap(8)
        self.f2 = gallery.f2_multimap()
        self.depth2 = Depth2Sample(seed, 73)

    def round(self, r: int) -> list[Op]:
        rng = random.Random("%d/gallery_certify/%d" % (self.seed, r))
        ops = [self.f2_op(ill_founded_tree(rng), True)]
        for _ in range(6):
            ops.append(self.f1_op(grid_spec(rng)))
        for t in self.depth2.round(r):
            ops.append(self.f2_op(t, False))
        for _ in range(200):
            ops.append(self.f2_op(trees.make_tree(depth3_node_set(rng)), False))
        rng.shuffle(ops)
        return ops

    def certify(self, mm, x, make_witness) -> Certified:
        witness = make_witness()
        if self.tamper is not None:
            witness = self.tamper(witness)
        return Certified(witness, checkers.verify_witness(mm, x, witness, mm.default_probes))

    def judged(self, expected_continuous: bool):
        def judge(out: Certified):
            problems = []
            if not out.accepted:
                problems.append("verify_witness rejected the certificate")
            got = isinstance(out.witness, checkers.ContinuityWitness)
            if got != expected_continuous:
                problems.append("certificate kind disagrees with the structural classification")
            kind = CONTINUOUS if got else DISCONTINUOUS
            return problems, [kind], [instances.witness_to_json(out.witness)]

        return judge

    def f1_op(self, spec: GridSpec) -> Op:
        gamma = spec.point()
        return Op("f1:grid", lambda: self.certify(self.f1, gamma, lambda: gallery.f1_witness(gamma, 8, CFG)),
                  self.judged(spec.continuous()), {})

    def f2_op(self, t, ill_founded: bool) -> Op:
        return Op("f2:ill_founded" if ill_founded else "f2:well_founded",
                  lambda: self.certify(self.f2, t, lambda: gallery.f2_witness(t, CFG)),
                  self.judged(ill_founded), {"tree": True, "ill_founded": ill_founded})


# ---------------------------------------------------------------------------
# cli_requests: baire-lab invoked in-process on a seeded request mix
# ---------------------------------------------------------------------------

SMALL_BUDGET = {"n_bound": 4, "dense_bound": 64, "m_bound": 4, "probe_budget": 32}
STARVED_BUDGET = {"n_bound": 8, "dense_bound": 4}
FELL_BALLS = [["1", "1/2"], ["0", "1/2"]]


@dataclass
class Request:
    argv: list[str]
    subcommand: str
    check: Callable[[dict], list[str]]  # semantic reference on the decoded stdout
    expected_exit: int | None  # None: only consistency with the report is checked


def finite_points_json(coords) -> dict:
    labels = [fmt(x) for x in coords]
    return {"kind": "finite_points", "labels": labels,
            "table": [[fmt(abs(a - b)) for b in coords] for a in coords], "rational_labels": True}


def tabular_json(table: dict, codomain: str = "real_line") -> dict:
    return {"kind": "tabular", "space": finite_points_json(sorted(table)), "codomain": {"kind": codomain},
            "values": {fmt(x): {"kind": "finite_real", "points": [fmt(y) for y in sorted(v)]}
                       for x, v in table.items()}}


def tree_literal(nodes, branches=()) -> str:
    def node(u):
        return "(%s)" % ",".join(map(str, u))

    body = "nodes:[%s]" % ",".join(node(u) for u in sorted(nodes))
    if branches:
        body += ",branches:[%s]" % ",".join('"%s;%s"' % (",".join(map(str, b.prefix)), ",".join(map(str, b.period)))
                                             for b in branches)
    return "tree{%s}" % body


NODE_RE = re.compile(r"\(([^()]*)\)")


def parse_nodes(literal: str) -> set:
    nodes_part = literal.split("branches:")[0]
    return {tuple(int(e) for e in body.split(",")) if body else () for body in NODE_RE.findall(nodes_part)}


class CliRequests:
    """`baire-lab` shape.  ROADMAP.md defines the end-to-end run as
    `baire-lab check` on four instance kinds: f1 plain, f2 star, tabular
    plain and dense_split fell.  Each round has one check request of each
    of these four, two check requests on the other templates in turn (so
    every multimap kind and all five modes appear), and one `gallery`, one
    `classify` and one `tree` request, the least that measures those
    layers in every round.  Check requests are two thirds of the requests,
    so the median falls among them.  The instance files are written for
    the round; module caches are cleared before every request, as a fresh
    process would have them.

    A run of the benchmark's length times 750 to 1250 requests, as the
    machine's speed drifts, around the 1000 that p99 needs; `min_ops` keeps
    a slow run going until it has them, so the tail stays p99 and does not
    turn into p90 when the machine is slow.  p99 falls among the starved f2 star requests, which
    are 2% of the requests and all on one tree."""

    cold_each_op = True
    min_ops = 1000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.depth2 = sorted(all_depth2_ternary_node_sets(), key=sorted)
        self.roadmap_makers = [self.f1_plain, self.f2_star, self.tabular_plain, self.split_fell]
        self.other_makers = [self.split_strong, self.split_plain, self.split_dagger, self.spike_plain,
                             self.f2_plain, self.f2_star_starved, self.tabular_strong, self.tabular_star,
                             self.tabular_dagger, self.extend_plain, self.compose_affine, self.compose_embed]

    def check_request(self, rng, maker, name: str) -> Request:
        instance, expect, expected_exit = maker(rng)
        path = os.path.join(self.workdir, "instance-%s.json" % name)
        with open(path, "w") as fh:
            json.dump(instance, fh, sort_keys=True)
        return Request(["check", path], "check", self.check_reference(instance, expect), expected_exit)

    # -- instance files: (instance, expected kind or None per point, expected exit)

    def split_points(self, rng):
        return [unit_rational(rng, True), unit_rational(rng, False)]

    def split_strong(self, rng):
        variant = rng.choice(["dyadic", "thirds"])
        member = is_dyadic if variant == "dyadic" else is_non_third
        pts = self.split_points(rng)
        return ({"multimap": {"kind": "dense_split", "variant": variant}, "points": [fmt(x) for x in pts],
                 "mode": "strong"},
                [CONTINUOUS if member(x) else DISCONTINUOUS for x in pts], 0)

    def split_fell(self, rng):
        variant = rng.choice(["dyadic", "thirds"])
        member = is_dyadic if variant == "dyadic" else is_non_third
        pts = self.split_points(rng)
        return ({"multimap": {"kind": "dense_split", "variant": variant}, "points": [fmt(x) for x in pts],
                 "mode": "fell", "test_balls": FELL_BALLS},
                [CONTINUOUS if member(x) else DISCONTINUOUS for x in pts], 0)

    def split_plain(self, rng):
        pts = self.split_points(rng)
        # 0 lies in every value, so the plain notion holds everywhere
        return ({"multimap": {"kind": "dense_split", "variant": rng.choice(["dyadic", "thirds"])},
                 "points": [fmt(x) for x in pts], "mode": "plain", "config": SMALL_BUDGET},
                [CONTINUOUS] * len(pts), 0)

    def split_dagger(self, rng):
        pts = self.split_points(rng)
        # y = 0 is dense point 0 and lies in every clipped value
        return ({"multimap": {"kind": "dense_split", "variant": rng.choice(["dyadic", "thirds"])},
                 "points": [fmt(x) for x in pts], "mode": "dagger", "config": SMALL_BUDGET},
                [CONTINUOUS] * len(pts), 0)

    def spike_plain(self, rng):
        head = sorted({Fr(rng.randrange(1, 30), rng.randrange(31, 60)) for _ in range(3)})
        off = off_list_point(rng)
        while off in head:
            off = off_list_point(rng)
        pts = [rng.choice(head), off]
        # an unlisted point is continuous at this truncation when the
        # smallest delta-ball around it holds no listed point
        isolated = min(abs(off - q) for q in head) >= CFG.delta_schedule[-1]
        return ({"multimap": {"kind": "spike", "head": [fmt(q) for q in head]}, "points": [fmt(x) for x in pts],
                 "mode": "plain"}, [DISCONTINUOUS, CONTINUOUS if isolated else None], 0 if isolated else None)

    def f1_plain(self, rng):
        specs = [grid_spec(rng) for _ in range(2)]
        return ({"multimap": {"kind": "f1"}, "points": [s.to_json() for s in specs], "mode": "plain",
                 "config": SMALL_BUDGET},
                [CONTINUOUS if s.continuous() else DISCONTINUOUS for s in specs], 0)

    def f2_plain(self, rng):
        node_sets = [depth3_node_set(rng) for _ in range(2)]
        return ({"multimap": {"kind": "f2"}, "points": [tree_literal(n) for n in node_sets], "mode": "plain"},
                [DISCONTINUOUS] * len(node_sets), 0)

    def f2_star(self, rng):
        # a well-founded tree of depth <= 2; star mode with the default
        # budgets, as criterion 05 runs it
        return ({"multimap": {"kind": "f2"}, "points": [tree_literal(rng.choice(self.depth2))], "mode": "star"},
                [DISCONTINUOUS], None)

    def f2_star_starved(self, rng):
        # the slowest request of the mix, so one fixed tree: with a seeded
        # branch its cost, and the tail percentile with it, would follow the
        # seed.  A dense bound of 4 cannot reach the branch value:
        # inconclusive, and never a refutation of an ill-founded tree.
        lit = tree_literal({()}, [spaces.BairePoint((), (1,))])
        return ({"multimap": {"kind": "f2"}, "points": [lit], "mode": "star", "config": STARVED_BUDGET},
                [CONTINUOUS], 3)

    def tabular_instance(self, rng, mode):
        table = random_table(rng, rng.randrange(2, 5))
        return table, {"multimap": tabular_json(table), "points": [fmt(x) for x in table], "mode": mode,
                       "probe_spec": {"kind": "full_domain"}}

    def oracle_expect(self, table, mode):
        verdicts = oracle_verdicts(table, mode)
        expected_exit = 3 if INCONCLUSIVE in verdicts.values() else 0
        return [verdicts[x] for x in sorted(table)], expected_exit

    def tabular_plain(self, rng):
        table, instance = self.tabular_instance(rng, "plain")
        return (instance, *self.oracle_expect(table, "plain"))

    def tabular_strong(self, rng):
        table, instance = self.tabular_instance(rng, "strong")
        return (instance, *self.oracle_expect(table, "strong"))

    def tabular_star(self, rng):
        table, instance = self.tabular_instance(rng, "star")
        expect, _ = self.oracle_expect(table, "plain")
        # with the default budgets (criterion 05) the inf-sup criterion
        # agrees with the plain definition where both are conclusive; a
        # smaller n_bound stops above the 1/4 gap between values
        return instance, [v if v != INCONCLUSIVE else None for v in expect], None

    def tabular_dagger(self, rng):
        table, instance = self.tabular_instance(rng, "dagger")
        instance["config"] = SMALL_BUDGET
        return instance, [None] * len(table), None

    def extend_plain(self, rng):
        table = {x: frozenset(rng.sample([Fr(0), Fr(1, 2), Fr(1)], rng.randrange(1, 3)))
                 for x in sorted(rng.sample([Fr(k, 4) for k in range(8)], 3))}
        far = Fr(9, 4) + rng.randrange(10)
        base = tabular_json(table, "unit_interval")
        instance = {"multimap": {"kind": "extend", "base": base,
                                 "super_space": finite_points_json(sorted(table) + [far])},
                    "points": [fmt(x) for x in sorted(table) + [far]], "mode": "plain",
                    "probe_spec": {"kind": "full_domain"}}
        # off the embedded image the value is the whole codomain
        return instance, [None] * len(table) + [CONTINUOUS], None

    def compose_affine(self, rng):
        table = random_table(rng, rng.randrange(2, 5))
        scale = rng.choice([Fr(1, 2), Fr(-1, 3), Fr(1, 4), Fr(-1), Fr(1)])
        shift = rng.choice([Fr(0), Fr(1), Fr(-2), Fr(5)])
        instance = {"multimap": {"kind": "compose", "pi": {"kind": "affine", "scale": fmt(scale), "shift": fmt(shift)},
                                 "base": tabular_json(table)},
                    "points": [fmt(x) for x in table], "mode": "plain", "probe_spec": {"kind": "full_domain"}}
        mapped = {x: frozenset(scale * y + shift for y in v) for x, v in table.items()}
        return (instance, *self.oracle_expect(mapped, "plain"))

    def compose_embed(self, rng):
        node_sets = [frozenset({()}), depth3_node_set(rng)]
        # no verdict reference: the nested-interval embedding shrinks value
        # separations below the eps schedule, so a refutation of f2 need not
        # survive composition at this truncation
        return ({"multimap": {"kind": "compose", "pi": {"kind": "baire_embed"}, "base": {"kind": "f2"}},
                 "points": [tree_literal(n) for n in node_sets], "mode": "plain"},
                [None] * len(node_sets), None)

    @staticmethod
    def check_reference(instance: dict, expect: list):
        digest = hashlib.sha256(canonical(instance).encode()).hexdigest()
        points = instance["points"]

        def check(report: dict) -> list[str]:
            problems = []
            if report.get("command") != "check":
                problems.append("report is not a check report")
            if report.get("digest") != digest:
                problems.append("instance digest differs from sha256 of the canonical instance")
            results = report.get("results", [])
            if len(results) != len(points) or any(
                    isinstance(p, str) and r.get("point") != p for p, r in zip(points, results)):
                problems.append("reported points differ from the instance points")
            for key, want, r in zip(points, expect, results):
                got = r.get("verdict")
                if got not in (CONTINUOUS, DISCONTINUOUS, INCONCLUSIVE):
                    problems.append("%s: unknown verdict %r" % (key, got))
                elif want is not None and got != INCONCLUSIVE and got != want:
                    problems.append("%s: %s, reference says %s" % (key, got, want))
                elif want == INCONCLUSIVE and got != INCONCLUSIVE:
                    problems.append("%s: %s where the definition sweep is inconclusive" % (key, got))
            return problems

        return check

    # -- other subcommands

    def gallery_request(self, rng) -> Request:
        which = rng.choice(["f1", "f1", "f2", "f2", "embed"])
        if which == "f1":
            spec = grid_spec(rng)
            named = rng.random() < 0.25
            if named:
                gamma, want = rng.choice([("all_ones", CONTINUOUS), ("all_zero", DISCONTINUOUS)])
            else:
                gamma, want = canonical(spec.to_json()), CONTINUOUS if spec.continuous() else DISCONTINUOUS
            return Request(["gallery", "f1", "--gamma", gamma], "gallery", self.gallery_check(want, None), 0)
        if which == "f2":
            nodes = depth3_node_set(rng)
            return Request(["gallery", "f2", "--tree", tree_literal(nodes)], "gallery",
                           self.gallery_check(DISCONTINUOUS, False), 0)
        alpha = "%s;%s" % (",".join(str(rng.randrange(4)) for _ in range(rng.randrange(0, 3))),
                           ",".join(str(rng.randrange(4)) for _ in range(rng.randrange(1, 3))))
        depth = rng.randrange(2, 7)

        def check(report):
            chain = [(Fr(a), Fr(b)) for a, b in report.get("intervals", [])]
            problems = []
            if len(chain) != depth + 1 or chain[:1] != [(Fr(0), Fr(1))]:
                problems.append("interval chain does not start at [0, 1] with depth + 1 entries")
            for (a, b), (c, d) in zip(chain, chain[1:]):
                if not (a <= c < d <= b):
                    problems.append("interval chain is not nested")
            return problems

        return Request(["gallery", "embed", "--alpha", alpha, "--depth", str(depth)], "gallery", check, 0)

    @staticmethod
    def gallery_check(want: str, ill_founded: bool | None):
        def check(report):
            problems = []
            if report.get("witness_verified") is not True:
                problems.append("gallery witness not verified")
            if report.get("verdict") != want:
                problems.append("gallery verdict %r, reference says %s" % (report.get("verdict"), want))
            if ill_founded is not None and report.get("ill_founded") is not ill_founded:
                problems.append("ill_founded flag disagrees with the tree")
            return problems

        return check

    ATOMS = ("open", "closed", "analytic", "coanalytic", "borel")
    UNARY = ("compl", "Uc", "Ic", "preimg", "proj")
    BINARY = ("union", "inter")

    def random_expr(self, rng, depth: int) -> str:
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(self.ATOMS)
        if rng.random() < 0.75:
            return "%s(%s)" % (rng.choice(self.UNARY), self.random_expr(rng, depth - 1))
        return "%s(%s, %s)" % (rng.choice(self.BINARY), self.random_expr(rng, depth - 1),
                               self.random_expr(rng, depth - 1))

    def classify_request(self, rng) -> Request:
        expr = self.random_expr(rng, 5)

        def check(report):
            steps = report.get("derivation", [])
            trace = [pointclass.TraceStep(s["expr"], s["rule"], tuple(s["inputs"]), s["result"]) for s in steps]
            problems = []
            if not trace or not pointclass.replay_trace(trace):
                problems.append("derivation does not replay")
            elif trace[-1].result != report.get("pointclass"):
                problems.append("pointclass differs from the last derivation step")
            return problems

        return Request(["classify", expr], "classify", check, 0)

    def tree_request(self, rng) -> Request:
        op = rng.choice(["shift", "trm", "illfounded", "generate"])
        nodes = depth3_node_set(rng)
        if op == "generate":
            seeds = sorted(rng.sample(sorted(nodes - {()}), min(3, len(nodes) - 1))) or [()]
            argv = ["tree", "generate", "--nodes", " ".join("(%s)" % ",".join(map(str, u)) for u in seeds)]
            want = prefix_closure(seeds)
            return Request(argv, "tree", lambda rep: [] if parse_nodes(rep.get("tree", "")) == want
                           else ["generated tree differs from the prefix closure"], 0)
        argv = ["tree", op, "--tree", tree_literal(nodes)]
        if op == "shift":
            want = {tuple(e + 1 for e in u) for u in nodes}
            return Request(argv, "tree", lambda rep: [] if parse_nodes(rep.get("tree", "")) == want
                           else ["shifted tree differs"], 0)
        if op == "trm":
            want = sorted(u for u in nodes if not any(len(v) == len(u) + 1 and v[:-1] == u for v in nodes))
            return Request(argv, "tree", lambda rep: [] if sorted(parse_nodes("".join(rep.get("terminals", []))))
                           == want else ["terminals differ"], 0)
        return Request(argv, "tree", lambda rep: [] if rep.get("ill_founded") is False and rep.get("body_depth_3") == []
                       else ["finite tree reported ill-founded"], 0)

    def round(self, r: int) -> list[Op]:
        rng = random.Random("%d/cli_requests/%d" % (self.seed, r))
        makers = self.roadmap_makers + [self.other_makers[(2 * r + i) % len(self.other_makers)] for i in range(2)]
        requests = [self.check_request(rng, maker, "r%d-%d" % (r, i)) for i, maker in enumerate(makers)]
        requests += [self.gallery_request(rng), self.classify_request(rng), self.tree_request(rng)]
        rng.shuffle(requests)
        return [self.cli_op(req) for req in requests]

    def cli_op(self, req: Request) -> Op:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(req.argv))
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        def judge(outcome):
            code, stdout, stderr = outcome
            problems = []
            if code not in (0, 3):
                problems.append("exit code %r" % (code,))
            elif req.expected_exit is not None and code != req.expected_exit:
                problems.append("exit code %r, expected %r" % (code, req.expected_exit))
            if stderr:
                problems.append("stderr not empty: %s" % stderr.strip()[:200])
            try:
                report = json.loads(stdout)
            except ValueError:
                return problems + ["stdout is not valid JSON"], [], [stdout]
            kinds = [r.get("verdict") for r in report.get("results", [])]
            if req.subcommand == "gallery" and "verdict" in report:
                kinds = [report["verdict"]]
            if req.subcommand == "check" and (code == 3) != (INCONCLUSIVE in kinds):
                problems.append("exit code %r does not match the verdicts in the report" % (code,))
            problems += req.check(report)
            return problems, kinds, [stdout]

        return Op(req.subcommand, run, judge, {"subcommand": req.subcommand})


WORKLOADS = {
    "criterion_scan": CriterionScan,
    "interval_nets": IntervalNets,
    "gallery_certify": GalleryCertify,
    "cli_requests": CliRequests,
}
