"""Oracles that walk an enumeration step by step, for the closed forms.

`checkers._dense_search` finds the least dense index passing a level from a
region the codomain can index.  `scan_search` finds it by walking a dense
sequence index by index; swapped in for `_dense_search` with monkeypatch,
it must give the same reports.  It measures sequence-space values pair by
pair, so that it does not share the walk of `closed_sets` with the code it
checks.

`closed_sets` measures a finite sequence-space set by walking to the
least disagreement; `baire_dist_to_points` and `separation_by_pairs`
measure every pair of points with `baire_dist`.  It also takes the f2 value
from t's own terminals; `shifted_tree_body_points` builds the shifted tree
and reads the terminals of that.

The rank layer and the grid completions compute in closed form what the
functions below count one value, one candidate or one cell at a time.

The point and tree constructors check and canonicalize their input with
whole-tuple and set operations.  `canonical_seq_by_steps` drops one
trailing prefix entry per step and rotates the period by one each time;
`baire_point_by_steps` and `tree_finite_part_by_generators` check entry
by entry and node by node, with the messages of the constructors, and the
latter closes the off-branch nodes itself;
`terminals_by_scan` tests every node against the branches, and
`maximal_by_scan` every node for a child.
`spaces.first_disagreement` compares whole heads at C speed;
`first_disagreement_by_entries` reads one entry of each point per step.

`spaces.grid_dist` reads each explicit row of both points from a dict;
`grid_dist_by_row_scans` finds each one with `CantorGridPoint.row`, a scan
of the point's explicit rows.

`checkers.ProbeContext` gathers a delta ball's probes when a quantifier
first reaches that ball.  `EagerProbeContext` gathers every ball in its
constructor; swapped in for `ProbeContext` with monkeypatch, it must give
the same verdicts.

`closed_sets.common_region` finds the points near every value on the
line in integers, on one frame per scan.  `line_region_by_fractions`
finds them with Fraction ends: each value's `neighbourhood`, sorted and
merged, then intersected list by list.

`checkers._counterexamples` reads each ball's probes and their value
indices from the probe context; `counterexamples_by_probes` gathers each
ball with `gather_probes` and evaluates the map at every probe, with no
context, and measures each miss on the value itself.

`checkers.eval_dagger` stops its windows K_m = [-m, m] at the first one
that clips no probe value.  `dagger_by_every_window` scans every window
from 0 to `m_bound` and decides after the last one, from whether that
window still clips some value.
"""

import math
from fractions import Fraction

from baire_lab.checkers import (
    CONTINUOUS,
    DISCONTINUOUS,
    INCONCLUSIVE,
    ProbeContext,
    Verdict,
    _dense_search,
    _star_scan,
    gather_probes,
)
from baire_lab.closed_sets import (
    Empty,
    FiniteBaireSet,
    FiniteRealSet,
    IntervalUnion,
    clip_to_interval,
    closure,
    dist_to_set,
)
from baire_lab.spaces import (
    BairePoint,
    CantorGridPoint,
    baire_dist,
    eventually_zero,
    first_disagreement,
    node_rank,
    pair_index,
)
from baire_lab.trees import EMPTY_NODE, _branch_cover_bound, terminals, tree_shift


def baire_dist_to_points(y, s):
    """`closed_sets.dist_to_set`, with a finite sequence-space set measured
    as the least `baire_dist` from y to one of its points."""
    if isinstance(s, FiniteBaireSet):
        return min(baire_dist(y, p) for p in s.points)
    return dist_to_set(y, s)


def separation_by_pairs(s1, s2):
    """`closed_sets.set_separation` of two finite sequence-space sets, as
    the least `baire_dist` over every pair of points."""
    return min(baire_dist(p, q) for p in s1.points for q in s2.points)


def shifted_tree_body_points(t):
    """`closed_sets.tree_body_points`, from the validated +1-shifted tree:
    t's shifted branches and the shifted tree's terminals padded with zeros."""
    points = {b.shift_entries() for b in t.branches}
    points.update(eventually_zero(u) for u in terminals(tree_shift(t)))
    return frozenset(points)


def scan_search(dense, cfg):
    """A search with the signature `_dense_search` returns: given the
    distinct values per delta and a level n, the (n, s, delta) with the
    least s <= dense_bound whose point dense(s) lies within 1/(n+1) of every
    value of some delta's ball, then the first such delta, or None.  It
    reads no region, so it ignores the scan's frame."""

    def search(values: dict, n: int, frame):
        threshold = Fraction(1, n + 1)
        for s in range(cfg.dense_bound + 1):
            y = dense(s)
            for delta in cfg.delta_schedule:
                if all(baire_dist_to_points(y, v) < threshold for v in values[delta]):
                    return n, s, delta
        return None

    return search


def neighbourhood(s, r: Fraction) -> list:
    """The points y with dist_to_set(y, s) < r, for a real-flavored set and
    0 < r <= 1, as sorted disjoint open intervals.

    A point p contributes (p - r, p + r) and an interval [a, b] (closed or
    open: distances agree) contributes (a - r, b + r).  Empty contributes
    nothing: every point is at distance 1 >= r from it.
    """
    if not 0 < r <= 1:
        raise ValueError("radius must lie in (0, 1]")
    if isinstance(s, Empty):
        return []
    if isinstance(s, FiniteRealSet):
        spans = sorted((p - r, p + r) for p in s.points)
    elif isinstance(s, IntervalUnion):
        spans = sorted((a - r, b + r) for a, b in s.intervals)
    else:
        raise TypeError("neighbourhoods are for real-flavored variants: %r" % (s,))
    merged = [spans[0]]
    for a, b in spans[1:]:
        last_a, last_b = merged[-1]
        if a < last_b:  # open intervals that merely touch stay apart
            merged[-1] = (last_a, max(last_b, b))
        else:
            merged.append((a, b))
    return merged


def _intersect_intervals(xs: list, ys: list) -> list:
    """Intersection of two sorted disjoint lists of open intervals."""
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        a, b = max(xs[i][0], ys[j][0]), min(xs[i][1], ys[j][1])
        if a < b:
            out.append((a, b))
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def line_region_by_fractions(values, n: int) -> list:
    """`closed_sets.common_region` of a nonempty list of real values, with
    Fraction ends: the meet of the values' neighbourhoods of radius
    1/(n + 1), empty from the first value whose meet is empty."""
    region = None
    for v in values:
        own = neighbourhood(v, Fraction(1, n + 1))
        region = own if region is None or not own else _intersect_intervals(region, own)
        if not region:
            break
    return region


def lex_rank_by_values(u, total):
    """`spaces._lex_rank` by counting, for each entry, the sequences that
    put each smaller value there."""
    rank = 0
    remaining = total
    length = len(u)
    for i, value in enumerate(u):
        parts_left = length - i - 1
        for c in range(value):
            if parts_left == 0:
                rank += 1 if remaining - c == 0 else 0
            else:
                rank += math.comb(remaining - c + parts_left - 1, parts_left - 1)
        remaining -= value
    return rank


def tree_dist_ranking_every_candidate(a, b):
    """`trees.tree_dist` with every differing candidate node ranked: the
    finite-part nodes where membership differs, and per uncovered branch
    its least prefix missing from the other tree."""
    if a == b:
        return Fraction(0)
    ranks = [node_rank(u) for u in a.finite_part | b.finite_part if a.contains(u) != b.contains(u)]
    for src, dst in ((a, b), (b, a)):
        for beta in src.branches - dst.branches:
            j = next(j for j in range(_branch_cover_bound(beta, dst) + 1) if not dst.contains(beta.head(j)))
            ranks.append(node_rank(beta.head(j)))
    return Fraction(1, min(ranks) + 1)


def row_constraint_length_by_steps(m, flat_bound):
    """`gallery._row_constraint_length` by stepping s up from 0."""
    s = 0
    while pair_index(m, s) < flat_bound:
        s += 1
    return s


def ones_completion_by_cells(gamma, flat_bound):
    """`gallery.ones_completion` read cell by cell from gamma."""
    rows = []
    m = 0
    while pair_index(m, 0) < flat_bound:
        s_max = row_constraint_length_by_steps(m, flat_bound)
        rows.append((m, BairePoint(tuple(gamma.entry(m, s) for s in range(s_max)), (1,))))
        m += 1
    return CantorGridPoint(tuple(rows), BairePoint((), (1,)))


def outcome(f, *args):
    """f(*args), or the message of the ValueError it raises: what an oracle
    and the code it checks must agree on."""
    try:
        return f(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


def canonical_seq_by_steps(prefix, period):
    """`spaces.canonical_seq`, dropping one trailing prefix entry at a time:
    while the prefix ends with the period's last entry, drop that entry and
    rotate the period right by one.  The primitive period is found by
    comparing entry i with entry i mod d for each divisor d."""
    if not period:
        raise ValueError("period must be nonempty")
    pre = tuple(int(x) for x in prefix)
    per = tuple(int(x) for x in period)
    n = len(per)
    per = next(per[:d] for d in range(1, n + 1) if n % d == 0 and all(per[i] == per[i % d] for i in range(n)))
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1:] + per[:-1]
    return pre, per


def baire_point_by_steps(prefix, period):
    """The canonical fields of `BairePoint(prefix, period)`, with its
    entry check made entry by entry."""
    pre, per = canonical_seq_by_steps(prefix, period)
    if any(x < 0 for x in pre) or any(x < 0 for x in per):
        raise ValueError("entries must be naturals")
    return pre, per


def first_disagreement_by_entries(a, b):
    """`spaces.first_disagreement`, walking the entries of both points one
    index at a time up to max prefix length + lcm of period lengths: two
    eventually periodic sequences that agree below that bound agree
    everywhere."""
    bound = max(len(a.prefix), len(b.prefix)) + math.lcm(len(a.period), len(b.period))
    for n in range(bound):
        if a.entry(n) != b.entry(n):
            return n
    return None


def tree_finite_part_by_generators(finite_part, branches):
    """The canonical finite part of `Tree(finite_part, branches)`, with its
    two checks made node by node.  The off-branch nodes are closed by keeping
    the parent of each kept node, longest nodes first (not with
    `trees.prefix_closure`, which the constructor uses)."""
    fp = frozenset(finite_part)
    if any(u and min(u) < 0 for u in fp):
        raise ValueError("node entries must be naturals")
    if EMPTY_NODE not in fp or any(u[:-1] not in fp for u in fp if u):
        raise ValueError("finite part must be closed under initial segments")
    if branches:
        keep = {u for u in fp if not any(b.starts_with(u) for b in branches)} | {EMPTY_NODE}
        for u in sorted(fp, key=len, reverse=True):  # a node's children come before it
            if u and u in keep:
                keep.add(u[:-1])
        fp = frozenset(keep)
    return fp


def terminals_by_scan(t):
    """`trees.terminals`, testing every finite-part node for children and
    for lying on a branch."""
    parents = {u[:-1] for u in t.finite_part if u}
    return frozenset(u for u in t.finite_part
                     if u not in parents and not any(b.starts_with(u) for b in t.branches))


def maximal_by_scan(finite_part):
    """`Tree.maximal`: the nodes of a prefix-closed set that parent none of
    it, sorted, found by testing every node for a child."""
    parents = {u[:-1] for u in finite_part if u}
    return tuple(sorted(u for u in finite_part if u not in parents))


def grid_dist_by_row_scans(a, b):
    """`spaces.grid_dist`, looking up each explicit row of either point
    with `CantorGridPoint.row`, and the least row index that neither point
    lists by testing a sorted list."""
    explicit = sorted({m for m, _ in a.explicit_rows} | {m for m, _ in b.explicit_rows})
    candidates = []
    for m in explicit:
        s = first_disagreement(a.row(m), b.row(m))
        if s is not None:
            candidates.append(pair_index(m, s))
    s_default = first_disagreement(a.default_row, b.default_row)
    if s_default is not None:
        m0 = 0
        while m0 in explicit:
            m0 += 1
        candidates.append(pair_index(m0, s_default))
    if not candidates:
        return Fraction(0)
    return Fraction(1, min(candidates) + 1)


def counterexamples_by_probes(multimap, x, cfg, probes, miss):
    """`checkers._counterexamples` with no probe context: per delta of the
    schedule, the first probe of its ball whose value misses most, by
    `miss` of the value, found in a plain loop; also the least of those
    largest misses."""
    out, most = [], []
    for delta in cfg.delta_schedule:
        worst = None
        for xp in gather_probes(multimap, probes, x, delta, cfg.probe_budget):
            m = miss(multimap.value(xp))
            if worst is None or m > worst:
                worst, far = m, xp
        out.append((delta, far))
        most.append(worst)
    return tuple(out), min(most)


class EagerProbeContext(ProbeContext):
    """`checkers.ProbeContext` with the probes of every delta ball gathered
    in the constructor, in schedule order, whether or not a quantifier
    reaches the ball.  The context's own `balls` then reads the gathered
    probes, so that it keeps the same per-ball lists."""

    def __init__(self, multimap, x, cfg, probes):
        super().__init__(multimap, x, cfg, probes)
        self._gather = {delta: self._gather(delta) for delta in cfg.delta_schedule}.__getitem__


def dagger_by_every_window(multimap, x, cfg, probes):
    """`checkers.eval_dagger` over every window K_m = [-m, m], m = 0 ..
    m_bound: a refutation needs a certificate at every window and a last
    window that clips no probe value."""
    search = _dense_search(multimap.codomain, cfg)
    raw = ProbeContext(multimap, x, cfg, probes).value_lists()
    refuted = []
    for m in range(cfg.m_bound + 1):
        lo, hi = Fraction(-m), Fraction(m)
        clipped = {delta: [clip_to_interval(v, lo, hi) for v in raw[delta]] for delta in cfg.delta_schedule}
        passes, failing, certified = _star_scan(clipped, cfg, search)
        if failing is None:
            return Verdict(CONTINUOUS, report={
                "criterion": "dagger", "stage": m, "window": (lo, hi), "passes": tuple(passes),
            })
        refuted.append({"stage": m, "failing_n": failing, "certified": certified is not None})
    if all(r["certified"] for r in refuted):
        lo, hi = Fraction(-cfg.m_bound), Fraction(cfg.m_bound)
        if all(clip_to_interval(v, lo, hi) == closure(v) for delta in cfg.delta_schedule for v in raw[delta]):
            return Verdict(DISCONTINUOUS, report={"criterion": "dagger", "stages": refuted})
        return Verdict(INCONCLUSIVE, report={
            "criterion": "dagger", "stages": refuted,
            "reason": "exhaustion bound clipped some value; larger stages could differ",
        })
    return Verdict(INCONCLUSIVE, report={
        "criterion": "dagger", "stages": refuted,
        "reason": "refutation lacked a separation certificate at some stage",
    })
