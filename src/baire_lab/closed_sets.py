"""Finitely representable closed (and open) subsets of the target spaces.

Variants denote subsets of the real line / unit interval (finite point
sets, interval unions), of the sequence space (finite point sets), or the
empty set.  Point-to-set distance is exact; the empty set is at distance 1
from everything, following the convention the truncated criteria rely on.

`IntervalUnion` is one variant whose `closed` flag says whether the ends
belong to the set; its wire `kind` is "closed_intervals" or
"open_intervals".  Only membership, `closure`, clipping and the net grid
read the flag: distances, separations and neighbourhoods of an interval
equal those of its closure.  The eps-net of an interval is one eps/2 grid,
written once (`_interval_grid`): `eps_net` lists it, and `dist_to_net`
finds the nearest net point without building the net, from the two grid
points on either side of y.

The value of the tree-indexed gallery map at a tree, the body of the
+1-shifted tree together with every terminal of the shifted tree padded
with zeros, is a finite set of eventually periodic points for the
representable trees here (`tree_body_points`), so it is a
`FiniteBaireSet`.

The checkers compare distances by exact keys, so that each quantifier
step is written once: `distance_key` (an integer level pair on sequence
space, the Fraction elsewhere), `net_key`, `eps_key` and `key_level`.
`common_region` gives the points within 1/(n + 1) of every one of a list
of values: a set of heads in sequence space, open intervals on the line.
The line's region is measured in integers.  `region_frame` takes, once
per scan, the lcm D of every point and interval-end denominator of the
scan's values, and holds each value's ends as sorted integers over D.  At
level n a point p contributes the span (pD(n+1) - D, pD(n+1) + D) over
D(n+1), and an interval [a, b] the span (aD(n+1) - D, bD(n+1) + D); the
spans come out sorted, and merging and intersecting them compare plain
integers, with touching open spans kept apart.  Only the final region
becomes Fractions, so every endpoint stays an exact rational.  The
separation of two finite sets of reals is one merge of their points on
such a frame.

Sequence-space distances are found without measuring every pair of
points.  The metric is an ultrametric fixed by the least disagreement, so
the distance from y to a finite set is 1/(d + 1) for the longest
agreement d of y with a point of the set: walking y's entries and keeping
the points that still agree with y finds d once at most one point is
left, and only that point is compared with y as a whole
(`_longest_agreement`).  `_distance_level` returns the integer level
d + 1 (None at distance 0, 1 for Empty), which the keys compare with
integer arithmetic instead of building a Fraction; the level of the
separation of two finite sets is the largest over the points of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, lcm

from .spaces import BairePoint, BaireSpace, RealLine, eventually_zero, first_disagreement, real_flavored, shift_node
from .trees import Tree, terminals


@dataclass(frozen=True)
class FiniteRealSet:
    points: frozenset[Fraction]  # built from any iterable of rationals, each converted and hashed once

    kind = "finite_real"

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", frozenset(Fraction(p) for p in self.points))
        if not self.points:
            raise ValueError("finite set variant must be nonempty; use Empty")


@dataclass(frozen=True)
class IntervalUnion:
    """A union of intervals, all closed or all open.  The values of the
    paper's maps are closed; open unions exist to exercise the closure map."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    closed: bool

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("interval union must be nonempty; use Empty")
        for a, b in self.intervals:
            if a > b or (a == b and not self.closed):
                raise ValueError("closed interval needs a <= b" if self.closed else "open interval needs a < b")

    @property
    def kind(self) -> str:
        return "closed_intervals" if self.closed else "open_intervals"


@dataclass(frozen=True)
class FiniteBaireSet:
    points: frozenset[BairePoint]

    kind = "finite_baire"

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("finite set variant must be nonempty; use Empty")


@dataclass(frozen=True)
class Empty:
    kind = "empty"


ClosedSetRepr = FiniteRealSet | IntervalUnion | FiniteBaireSet | Empty


def finite_real(*points) -> FiniteRealSet:
    return FiniteRealSet(points)


def closed_intervals(*intervals) -> IntervalUnion:
    return IntervalUnion(tuple((Fraction(a), Fraction(b)) for a, b in intervals), True)


def open_intervals(*intervals) -> IntervalUnion:
    return IntervalUnion(tuple((Fraction(a), Fraction(b)) for a, b in intervals), False)


@lru_cache(maxsize=4096)
def tree_body_points(t: Tree) -> frozenset[BairePoint]:
    """The f2 value at t: shifted branches and padded terminals.  The shift
    keeps prefixes, so the terminals of the shifted tree are the shifted
    terminals of t."""
    points = {b.shift_entries() for b in t.branches}
    points.update(map(eventually_zero, map(shift_node, terminals(t))))
    return frozenset(points)


def enumerate_points(s: ClosedSetRepr):
    """The denotation of a point-enumerable variant, unordered, else None."""
    if isinstance(s, (FiniteRealSet, FiniteBaireSet)):
        return s.points
    if isinstance(s, Empty):
        return frozenset()
    return None


def _interval_dist(y: Fraction, a: Fraction, b: Fraction) -> Fraction:
    if y < a:
        return a - y
    if y > b:
        return y - b
    return Fraction(0)


def _longest_agreement(y: BairePoint, points) -> int | None:
    """max(first_disagreement(y, p) for p in points), None when y is one of
    the points: the length of y's longest agreement with a point.

    At depth n the walk keeps the points that agree with y below n + 1.
    Distinct points disagree somewhere, and y agrees with at most one of
    two points where they disagree, so the walk ends.  When no point is
    left, every point kept at depth n disagrees with y there, and n is the
    answer; when one is left, it agrees with y longer than every point
    dropped, and `first_disagreement` measures it.
    """
    n = 0
    while len(points) > 1:
        entry = y.entry(n)
        points = [p for p in points if p.entry(n) == entry]
        n += 1
    if points:
        (last,) = points
        return first_disagreement(y, last)
    return n - 1


def _distance_level(y, s: ClosedSetRepr) -> int | None:
    """The integer level L of the distance 1/L from y to a sequence-space
    value s, or None when the distance is 0: 1 for Empty, by the
    convention, and d + 1 for the longest agreement d of y with a point of
    a finite set (`_longest_agreement`).  For a finite set y, the level of
    the separation: one more than the longest agreement of a point of y,
    None as soon as one lies in s."""
    if isinstance(s, Empty):
        return 1
    if not isinstance(y, FiniteBaireSet):
        d = _longest_agreement(y, s.points)
        return None if d is None else d + 1
    top = 0
    for p in y.points:
        d = _longest_agreement(p, s.points)
        if d is None:
            return None
        top = max(top, d + 1)
    return top


def dist_to_set(y, s: ClosedSetRepr) -> Fraction:
    """Exact infimum distance; 1 for the empty set by convention, and
    1/L for the level L of `_distance_level` from a finite sequence-space
    set (0 exactly when y is a point of the set)."""
    if isinstance(s, (Empty, FiniteBaireSet)):
        level = _distance_level(y, s)
        return Fraction(0) if level is None else Fraction(1, level)
    if isinstance(s, FiniteRealSet):
        return min(abs(y - p) for p in s.points)
    if isinstance(s, IntervalUnion):
        # inf distance to an interval equals distance to its closure
        return min(_interval_dist(y, a, b) for a, b in s.intervals)
    raise TypeError("unknown set representation: %r" % (s,))


def distance_key(y, s: ClosedSetRepr):
    """An exact key ordered as the distance from y to s, or for a set y as
    the separation of y from a nonempty s: on sequence space the level
    pair, (0, 0) at distance 0 and (1, -L) at 1/L (`_distance_level`),
    elsewhere the Fraction itself."""
    if isinstance(y, (BairePoint, FiniteBaireSet)):
        level = _distance_level(y, s)
        return (0, 0) if level is None else (1, -level)
    if isinstance(y, (FiniteRealSet, IntervalUnion)):
        return set_separation(y, s)
    return dist_to_set(y, s)


def eps_key(y, eps: Fraction):
    """The key that exactly the distances from y below eps fall below: on
    sequence space 1/L < eps is L > eps.denominator // eps.numerator, exact
    for an integer L."""
    if isinstance(y, (BairePoint, FiniteBaireSet)):
        return 1, -(eps.denominator // eps.numerator)
    return eps


def key_level(key) -> int | None:
    """The least n with 2/(n + 1) at most the distance of a key, None at
    distance 0: 2L - 1 at 1/L, ceil(2/d) - 1 at a Fraction d."""
    if isinstance(key, tuple):
        far, minus = key
        return -2 * minus - 1 if far else None
    return -(-2 * key.denominator // key.numerator) - 1 if key else None


def _in_interval(y, a: Fraction, b: Fraction, closed: bool) -> bool:
    return a <= y <= b if closed else a < y < b


def set_contains(y, s: ClosedSetRepr) -> bool:
    """Exact membership in the denotation."""
    if isinstance(s, IntervalUnion):
        return any(_in_interval(y, a, b, s.closed) for a, b in s.intervals)
    return y in enumerate_points(s)


def fits_space(s: ClosedSetRepr, space) -> bool:
    """Is the denotation a subset of the space, in a variant measured there?
    Sequence space takes sequence-space variants, the line and the unit
    interval real variants inside them, a rational finite space finite sets
    of its labels, and every other space only Empty."""
    if isinstance(space, BaireSpace):
        return isinstance(s, (Empty, FiniteBaireSet))
    if isinstance(s, FiniteRealSet):
        return real_flavored(space) and all(map(space.contains, s.points))
    if isinstance(s, IntervalUnion):
        return isinstance(space, RealLine) and all(space.contains(end) for iv in s.intervals for end in iv)
    return isinstance(s, Empty)


def closure(s: ClosedSetRepr) -> ClosedSetRepr:
    """Topological closure; open interval unions close, the rest are closed."""
    if isinstance(s, IntervalUnion) and not s.closed:
        return IntervalUnion(s.intervals, True)
    return s


def _interval_grid(a: Fraction, b: Fraction, step: Fraction, closed: bool) -> tuple[int, int, tuple]:
    """One interval's share of an eps_net, as (first, last, extra): the
    grid points a + k*step for first <= k <= last, which lie in [a, b),
    plus the extra points: b for a closed interval, the midpoint for an
    open one no longer than the step."""
    last = ceil((b - a) / step) - 1  # the last k with a + k*step < b
    if closed:
        return 0, last, (b,)
    return 1, last, () if last else ((a + b) / 2,)


def eps_net(s: ClosedSetRepr, eps: Fraction) -> list:
    """Finite subset of the denotation with every point within eps of it.

    Finite variants are their own nets (covering radius 0).  Interval
    unions get an eps/2-spaced grid (`_interval_grid`), so the covering
    property holds with a strict margin.  Empty yields the empty list;
    callers fall back on the distance-1 convention.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not isinstance(s, IntervalUnion):
        return sorted(enumerate_points(s))
    step = eps / 2
    out = set()
    for a, b in s.intervals:
        first, last, extra = _interval_grid(a, b, step, s.closed)
        out.update(a + k * step for k in range(first, last + 1))
        out.update(extra)
    return sorted(out)


def dist_to_net(y, s: ClosedSetRepr, eps: Fraction, dist) -> Fraction | None:
    """min(dist(y, p) for p in eps_net(s, eps)), None when the net is
    empty, without building the net of an interval union.

    An interval union is a set of reals, so its nearest net point is found
    under |x - y|: in each interval's grid it is one of the two grid points
    on either side of y, with k clamped to the grid's range, or an extra
    point.  `dist` then measures it.  Enumerated variants are their own
    nets.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not isinstance(s, IntervalUnion):
        return min((dist(y, p) for p in enumerate_points(s)), default=None)
    step = eps / 2
    near = []
    for a, b in s.intervals:
        first, last, extra = _interval_grid(a, b, step, s.closed)
        near += extra
        if first <= last:
            k = min(max((y - a) // step, first), last)
            near += (a + k * step, a + min(k + 1, last) * step)
    return dist(y, min(near, key=lambda p: abs(y - p)))


def net_key(y, s: ClosedSetRepr, resolution: Fraction, dist):
    """The `distance_key` of y's distance to eps_net(s, resolution), None
    for the empty net of Empty: `dist_to_net`, but by level for a finite
    sequence-space set, its own net."""
    if isinstance(s, FiniteBaireSet):
        return distance_key(y, s)
    return dist_to_net(y, s, resolution, dist)


def net_with_radius(s: ClosedSetRepr, eps: Fraction) -> tuple[list, Fraction]:
    """eps_net plus its exact covering radius (0 for enumerated variants)."""
    return eps_net(s, eps), eps if isinstance(s, IntervalUnion) else Fraction(0)


def meets_open_ball(s: ClosedSetRepr, center, radius: Fraction) -> bool:
    """Does the denotation meet the open ball?  Exact: dist < radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if isinstance(s, Empty):
        return False
    return dist_to_set(center, s) < radius


def clip_to_interval(s: ClosedSetRepr, lo: Fraction, hi: Fraction) -> ClosedSetRepr:
    """Representation of the intersection with [lo, hi], for real variants.

    For open interval unions the closure of the intersection is returned;
    its point-to-set distances and emptiness agree exactly with the true
    intersection, which is all the truncated criteria consume.
    """
    if isinstance(s, Empty):
        return Empty()
    if isinstance(s, FiniteRealSet):
        kept = frozenset(p for p in s.points if lo <= p <= hi)
        return FiniteRealSet(kept) if kept else Empty()
    if isinstance(s, IntervalUnion):
        kept_iv = []
        for a, b in s.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            # a single point is left when it lies in the interval
            if a2 < b2 or (a2 == b2 and _in_interval(a2, a, b, s.closed)):
                kept_iv.append((a2, b2))
        return IntervalUnion(tuple(kept_iv), True) if kept_iv else Empty()
    raise TypeError("interval clipping is for real-flavored variants: %r" % (s,))


def region_frame(values) -> tuple[int, dict]:
    """One integer frame for the line's values of a scan, as (D, ends): D
    is the lcm of every point and interval-end denominator, and `ends` maps
    each real value to its pieces as sorted integer pairs over D, a point p
    as (pD, pD) and an interval [a, b], closed or open, as (aD, bD).  Empty
    has no pieces; sequence-space values are left out."""
    pieces = {}
    for v in values:
        if isinstance(v, FiniteBaireSet):
            continue
        if isinstance(v, FiniteRealSet):
            pieces[v] = [(p, p) for p in v.points]
        elif isinstance(v, IntervalUnion):
            pieces[v] = v.intervals
        elif isinstance(v, Empty):
            pieces[v] = ()
    scale = lcm(*(end.denominator for ends in pieces.values() for piece in ends for end in piece))

    def over(end: Fraction) -> int:
        return end.numerator * (scale // end.denominator)

    return scale, {v: sorted((over(a), over(b)) for a, b in ends) for v, ends in pieces.items()}


def _line_region(ends: list, m: int, scale: int) -> list:
    """The points within 1/m of a real value with these `ends` over D =
    `scale`, as sorted disjoint open intervals over mD: a piece (A, B)
    contributes (mA - D, mB + D).  The pieces are sorted, so the spans
    are too; a span that starts before the last one ends joins it, and
    spans that merely touch stay apart."""
    merged = []
    for a, b in ends:
        lo, hi = m * a - scale, m * b + scale
        if merged and lo < merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
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


def common_region(values, n: int, frame: tuple[int, dict] | None = None, known: dict | None = None):
    """The points within 1/(n + 1) of every one of a nonempty list of
    values: a set of heads of length n + 1 in sequence space (a sequence is
    within 1/(n + 1) of a point exactly when both start with the same n + 1
    entries), sorted disjoint open intervals elsewhere, and empty as soon
    as one value is Empty.  Stops once the meet is empty.

    On the line the search runs in integers on a `region_frame` that
    covers the values, built here when none is given: a value's region and
    the meet are lists of integer pairs over D(n + 1), and only the final
    region becomes Fractions.  `known` may hold the values' own regions at
    this n, in the frame's integers; those computed here are added."""
    scale, ends = region_frame(values) if frame is None else frame
    known = {} if known is None else known
    region = None
    for v in values:
        if v not in known:
            known[v] = (frozenset(p.head(n + 1) for p in v.points) if isinstance(v, FiniteBaireSet)
                        else _line_region(ends[v], n + 1, scale))
        own = known[v]
        if region is None or not own:
            region = own
        else:
            region = region & own if isinstance(own, frozenset) else _intersect_intervals(region, own)
        if not region:
            break
    if region is None:
        raise ValueError("values must be nonempty")
    if isinstance(region, frozenset):
        return region
    denominator = scale * (n + 1)
    return [(Fraction(a, denominator), Fraction(b, denominator)) for a, b in region]


def set_separation(s1: ClosedSetRepr, s2: ClosedSetRepr) -> Fraction | None:
    """Exact infimum distance between two nonempty denotations.

    None when either side is Empty (callers treat an empty value as an
    automatic refuter through the distance-1 convention).
    """
    if isinstance(s1, Empty) or isinstance(s2, Empty):
        return None
    if isinstance(s1, FiniteRealSet) and isinstance(s2, FiniteRealSet):
        # on one integer frame the two sorted point lists merge in one pass;
        # the closest pair from the two sets is adjacent on the merged line
        scale, ends = region_frame((s1, s2))
        line = sorted([(p, 0) for p, _ in ends[s1]] + [(q, 1) for q, _ in ends[s2]])
        return Fraction(min(b - a for (a, s), (b, t) in zip(line, line[1:]) if s != t), scale)
    p1, p2 = enumerate_points(s1), enumerate_points(s2)
    if p1 is not None:
        return min(dist_to_set(p, s2) for p in p1)
    if p2 is not None:
        return min(dist_to_set(p, s1) for p in p2)
    return min(max(Fraction(0), a2 - b1, a1 - b2) for a1, b1 in s1.intervals for a2, b2 in s2.intervals)
