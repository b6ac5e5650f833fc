"""Finitely representable closed (and open) subsets of the target spaces.

Variants denote subsets of the real line / unit interval (finite point
sets, closed or open interval unions), of the sequence space (finite point
sets, tree bodies), or the empty set.  Point-to-set distance is exact; the
empty set is at distance 1 from everything, following the convention the
truncated criteria rely on.

A TreeBody denotes the value of the tree-indexed gallery map: the body of
the +1-shifted tree together with every terminal of the shifted tree padded
with zeros.  For the representable trees here that denotation is a finite
set of eventually periodic points, so distances, nets, and membership are
all exact enumerations.

`common_heads` and `common_neighbourhood` describe the points within a
radius of every one of a list of values: a set of heads in sequence space,
a union of open intervals on the line.  `dist_to_net` gives the distance to
the nearest point of an eps_net without building an interval's grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil

from .spaces import BairePoint, baire_dist, eventually_zero
from .trees import Tree, terminals, tree_shift


@dataclass(frozen=True)
class FiniteRealSet:
    points: frozenset[Fraction]

    kind = "finite_real"

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("finite set variant must be nonempty; use Empty")
        object.__setattr__(self, "points", frozenset(Fraction(p) for p in self.points))


@dataclass(frozen=True)
class ClosedIntervalUnion:
    intervals: tuple[tuple[Fraction, Fraction], ...]

    kind = "closed_intervals"

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("interval union must be nonempty; use Empty")
        for a, b in self.intervals:
            if a > b:
                raise ValueError("closed interval needs a <= b")


@dataclass(frozen=True)
class OpenIntervalUnion:
    """Not closed; exists to exercise the closure map."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    kind = "open_intervals"

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("interval union must be nonempty; use Empty")
        for a, b in self.intervals:
            if a >= b:
                raise ValueError("open interval needs a < b")


@dataclass(frozen=True)
class FiniteBaireSet:
    points: frozenset[BairePoint]

    kind = "finite_baire"

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("finite set variant must be nonempty; use Empty")


@dataclass(frozen=True)
class TreeBody:
    tree: Tree

    kind = "tree_body"


@dataclass(frozen=True)
class Empty:
    kind = "empty"


ClosedSetRepr = FiniteRealSet | ClosedIntervalUnion | OpenIntervalUnion | FiniteBaireSet | TreeBody | Empty


def finite_real(*points) -> FiniteRealSet:
    return FiniteRealSet(frozenset(Fraction(p) for p in points))


def closed_intervals(*intervals) -> ClosedIntervalUnion:
    return ClosedIntervalUnion(tuple((Fraction(a), Fraction(b)) for a, b in intervals))


def open_intervals(*intervals) -> OpenIntervalUnion:
    return OpenIntervalUnion(tuple((Fraction(a), Fraction(b)) for a, b in intervals))


@lru_cache(maxsize=4096)
def tree_body_points(t: Tree) -> frozenset[BairePoint]:
    """Exact denotation of TreeBody(t): shifted branches and padded terminals."""
    shifted = tree_shift(t)
    points = {b.shift_entries(1) for b in t.branches}
    for u in terminals(shifted):
        points.add(eventually_zero(u))
    return frozenset(points)


def _points(s: ClosedSetRepr):
    """The denotation of a point-enumerable variant, unordered, else None."""
    if isinstance(s, (FiniteRealSet, FiniteBaireSet)):
        return s.points
    if isinstance(s, TreeBody):
        return tree_body_points(s.tree)
    if isinstance(s, Empty):
        return frozenset()
    return None


def enumerate_points(s: ClosedSetRepr):
    """Finite sorted list of the denotation for point-enumerable variants, else None."""
    points = _points(s)
    if points is None:
        return None
    return sorted(points, key=None if isinstance(s, FiniteRealSet) else BairePoint.sort_key)


def _interval_dist(y: Fraction, a: Fraction, b: Fraction) -> Fraction:
    if y < a:
        return a - y
    if y > b:
        return y - b
    return Fraction(0)


def dist_to_set(y, s: ClosedSetRepr) -> Fraction:
    """Exact infimum distance; 1 for the empty set by convention."""
    if isinstance(s, Empty):
        return Fraction(1)
    if isinstance(s, FiniteRealSet):
        return min(abs(y - p) for p in s.points)
    if isinstance(s, (ClosedIntervalUnion, OpenIntervalUnion)):
        # inf distance to an interval equals distance to its closure
        return min(_interval_dist(y, a, b) for a, b in s.intervals)
    if isinstance(s, FiniteBaireSet):
        return min(baire_dist(y, p) for p in s.points)
    if isinstance(s, TreeBody):
        return min(baire_dist(y, p) for p in tree_body_points(s.tree))
    raise TypeError("unknown set representation: %r" % (s,))


def set_contains(y, s: ClosedSetRepr) -> bool:
    """Exact membership in the denotation."""
    if isinstance(s, Empty):
        return False
    if isinstance(s, OpenIntervalUnion):
        return any(a < y < b for a, b in s.intervals)
    if isinstance(s, ClosedIntervalUnion):
        return any(a <= y <= b for a, b in s.intervals)
    points = enumerate_points(s)
    return y in points


def closure(s: ClosedSetRepr) -> ClosedSetRepr:
    """Topological closure; open interval unions close, the rest are closed."""
    if isinstance(s, OpenIntervalUnion):
        return ClosedIntervalUnion(s.intervals)
    return s


def _grid_points(a: Fraction, b: Fraction, eps: Fraction) -> list[Fraction]:
    step = eps / 2
    out = [a]
    k = 1
    while a + k * step < b:
        out.append(a + k * step)
        k += 1
    if b != a:
        out.append(b)
    return out


def eps_net(s: ClosedSetRepr, eps: Fraction) -> list:
    """Finite subset of the denotation with every point within eps of it.

    Finite variants are their own nets (covering radius 0).  Interval
    unions get an eps/2-spaced grid, so the covering property holds with a
    strict margin.  Empty yields the empty list; callers fall back on the
    distance-1 convention.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(s, Empty):
        return []
    if isinstance(s, ClosedIntervalUnion):
        out: list[Fraction] = []
        for a, b in s.intervals:
            out.extend(_grid_points(a, b, eps))
        return sorted(set(out))
    if isinstance(s, OpenIntervalUnion):
        out = []
        for a, b in s.intervals:
            step = eps / 2
            if b - a <= step:
                out.append((a + b) / 2)
            else:
                k = 1
                while a + k * step < b:
                    out.append(a + k * step)
                    k += 1
        return sorted(set(out))
    return enumerate_points(s)


def _near_grid_points(y: Fraction, a: Fraction, b: Fraction, step: Fraction, closed: bool) -> tuple:
    """The points of one interval's share of an eps_net that can be
    nearest to y: the grid points a + k*step on either side of y, with k
    clamped to the grid's index range, and b for a closed interval."""
    if closed and a == b:
        return (a,)
    if not closed and b - a <= step:
        return ((a + b) / 2,)
    last = ceil((b - a) / step) - 1  # the last k with a + k*step < b
    k = min(max((y - a) // step, 0 if closed else 1), last)
    near = (a + k * step, a + min(k + 1, last) * step)
    return near + (b,) if closed else near


def dist_to_net(y, s: ClosedSetRepr, eps: Fraction, dist) -> Fraction | None:
    """min(dist(y, p) for p in eps_net(s, eps)), None when the net is
    empty, without building the net of an interval union.

    An interval union is a set of reals, so its nearest net point is found
    under |x - y|: the nearest point of an eps/2 grid is one of the two on
    either side of y, an end point of a closed interval, or the midpoint of
    an open interval too short for the grid.  `dist` then measures it.
    Enumerated variants are their own nets.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    points = _points(s)
    if points is not None:
        return min((dist(y, p) for p in points), default=None)
    closed = isinstance(s, ClosedIntervalUnion)
    nearest = min((p for a, b in s.intervals for p in _near_grid_points(y, a, b, eps / 2, closed)),
                  key=lambda p: abs(y - p))
    return dist(y, nearest)


def net_with_radius(s: ClosedSetRepr, eps: Fraction) -> tuple[list, Fraction]:
    """eps_net plus its exact covering radius (0 for enumerated variants)."""
    net = eps_net(s, eps)
    if isinstance(s, (ClosedIntervalUnion, OpenIntervalUnion)):
        return net, eps
    return net, Fraction(0)


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
    if isinstance(s, ClosedIntervalUnion):
        kept_iv = []
        for a, b in s.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 <= b2:
                kept_iv.append((a2, b2))
        return ClosedIntervalUnion(tuple(kept_iv)) if kept_iv else Empty()
    if isinstance(s, OpenIntervalUnion):
        kept_iv = []
        for a, b in s.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 < b2 or (a2 == b2 and a < a2 < b):
                kept_iv.append((a2, b2))
        return ClosedIntervalUnion(tuple(kept_iv)) if kept_iv else Empty()
    raise TypeError("interval clipping is for real-flavored variants: %r" % (s,))


def clips_properly(s: ClosedSetRepr, lo: Fraction, hi: Fraction) -> bool:
    """Did intersecting with [lo, hi] lose part of the denotation?"""
    if isinstance(s, Empty):
        return False
    if isinstance(s, FiniteRealSet):
        return any(not lo <= p <= hi for p in s.points)
    if isinstance(s, (ClosedIntervalUnion, OpenIntervalUnion)):
        return any(a < lo or b > hi for a, b in s.intervals)
    raise TypeError("interval clipping is for real-flavored variants: %r" % (s,))


def neighbourhood(s: ClosedSetRepr, r: Fraction) -> list[tuple[Fraction, Fraction]]:
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
    elif isinstance(s, (ClosedIntervalUnion, OpenIntervalUnion)):
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


def _common(values, own, meet, known: dict | None):
    """Meet of the values' own regions, each taken from `known` or computed
    and added there; stops early once the meet is empty."""
    known = {} if known is None else known
    region = None
    for v in values:
        if v not in known:
            known[v] = own(v)
        region = known[v] if region is None else meet(region, known[v])
        if not region:
            break
    if region is None:
        raise ValueError("values must be nonempty")
    return region


def common_neighbourhood(values, r: Fraction, known: dict | None = None) -> list[tuple[Fraction, Fraction]]:
    """The points within r of every one of a nonempty list of real-flavored
    values, as sorted disjoint open intervals.  `known` may hold the
    values' neighbourhoods at this r; those computed here are added."""
    return _common(values, lambda v: neighbourhood(v, r), _intersect_intervals, known)


def _heads(s: ClosedSetRepr, length: int) -> frozenset[tuple[int, ...]]:
    if isinstance(s, Empty):
        return frozenset()
    if isinstance(s, FiniteBaireSet):
        points = s.points
    elif isinstance(s, TreeBody):
        points = tree_body_points(s.tree)
    else:
        raise TypeError("heads are for sequence-space variants: %r" % (s,))
    return frozenset(p.head(length) for p in points)


def common_heads(values, length: int, known: dict | None = None) -> frozenset[tuple[int, ...]]:
    """Heads of the given length that every one of a nonempty list of
    sequence-space values has a point starting with.  `known` may hold the
    values' own heads of this length; those computed here are added.

    A sequence lies within 1/length of a point exactly when both start with
    the same `length` entries, so the points within 1/length of every value
    are the sequences starting with one of these heads.  Empty has none.
    """
    return _common(values, lambda v: _heads(v, length), frozenset.__and__, known)


def set_separation(s1: ClosedSetRepr, s2: ClosedSetRepr) -> Fraction | None:
    """Exact infimum distance between two nonempty denotations.

    None when either side is Empty (callers treat an empty value as an
    automatic refuter through the distance-1 convention).
    """
    if isinstance(s1, Empty) or isinstance(s2, Empty):
        return None
    p1, p2 = enumerate_points(s1), enumerate_points(s2)
    if p1 is not None:
        return min(dist_to_set(p, s2) for p in p1)
    if p2 is not None:
        return min(dist_to_set(p, s1) for p in p2)
    best = None
    for a1, b1 in s1.intervals:
        for a2, b2 in s2.intervals:
            gap = max(Fraction(0), a2 - b1, a1 - b2)
            best = gap if best is None else min(best, gap)
    return best


# --- JSON wire form ---------------------------------------------------------


def set_to_json(s: ClosedSetRepr) -> dict:
    from .rationals import format_rational
    from .spaces import format_baire_point
    from .trees import format_tree_literal

    if isinstance(s, FiniteRealSet):
        return {"kind": s.kind, "points": [format_rational(p) for p in sorted(s.points)]}
    if isinstance(s, (ClosedIntervalUnion, OpenIntervalUnion)):
        return {"kind": s.kind,
                "intervals": [[format_rational(a), format_rational(b)] for a, b in s.intervals]}
    if isinstance(s, FiniteBaireSet):
        return {"kind": s.kind,
                "points": [format_baire_point(p) for p in sorted(s.points, key=BairePoint.sort_key)]}
    if isinstance(s, TreeBody):
        return {"kind": s.kind, "tree": format_tree_literal(s.tree)}
    if isinstance(s, Empty):
        return {"kind": s.kind}
    raise TypeError("unknown set representation: %r" % (s,))


def set_from_json(obj: dict) -> ClosedSetRepr:
    from .rationals import parse_rational
    from .spaces import parse_baire_point
    from .trees import parse_tree_literal

    kind = obj.get("kind")
    if kind == "finite_real":
        return FiniteRealSet(frozenset(parse_rational(p) for p in obj["points"]))
    if kind == "closed_intervals":
        return ClosedIntervalUnion(tuple((parse_rational(a), parse_rational(b)) for a, b in obj["intervals"]))
    if kind == "open_intervals":
        return OpenIntervalUnion(tuple((parse_rational(a), parse_rational(b)) for a, b in obj["intervals"]))
    if kind == "finite_baire":
        return FiniteBaireSet(frozenset(parse_baire_point(p) for p in obj["points"]))
    if kind == "tree_body":
        return TreeBody(parse_tree_literal(obj["tree"]))
    if kind == "empty":
        return Empty()
    raise ValueError("unknown set kind: %r" % (kind,))
