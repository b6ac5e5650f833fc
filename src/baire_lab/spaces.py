"""Point types and exact metrics for the ambient spaces.

Three kinds of points live here:

* `BairePoint` — an eventually periodic sequence of naturals, the
  representable fragment of the space of all infinite sequences.  The
  metric is 1/(least disagreement index + 1), an ultrametric, and is
  exactly decidable for eventually periodic sequences.
* `CantorGridPoint` — a finitely described element of the 0/1 grid
  indexed by pairs (row, column), with finitely many explicit rows and a
  default row, each row a `BairePoint` whose entries are 0 or 1.  Its
  metric flattens the grid through the fixed Cantor diagonal enumeration
  of pairs and applies the sequence metric.
* rationals — points of the real line and the unit interval.
* labels — the points of a finite space: all strings, or all rationals,
  which are measured by |x - y| as on the line.

Each space object knows its exact metric, its open balls as a membership
test (`MetricSpace.ball`), point membership and a canonical countable
dense sequence.  Sequence space, the line, the unit interval and rational
finite spaces also name, through `least_dense_index`, the least index of
their dense sequence inside a region (a set of heads, or a union of open
intervals), which witnesses density ball by ball.  The windows
K_m = [-m, m] that the `dagger` criterion clips values to are not a space
operation: `checkers.eval_dagger` builds them, the same for every codomain.
The graded enumeration of all finite sequences lives here too: it indexes
the dense sequence of sequence space and the tree metric.  Its grade w
(length + entry sum) holds 2^(w-1) sequences for w >= 1, and they take
exactly the ranks [2^(w-1), 2^w), so a rank is compared with a bound by
weight alone unless the weight is the bound's bit length
(`trees.rank_below`).  All values are immutable; all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from operator import ne
from typing import Iterable, Sequence

# ---------------------------------------------------------------------------
# canonical eventually-periodic sequences
# ---------------------------------------------------------------------------


def _primitive_period(period: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest block whose repetition gives the same tail."""
    n = len(period)
    return next(period[:d] for d in range(1, n + 1) if n % d == 0 and period[:d] * (n // d) == period)


def canonical_seq(prefix: Sequence[int], period: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical (prefix, period) pair: primitive period, shortest prefix.

    Dropping a trailing prefix entry equal to the period's last entry and
    rotating the period right by one preserves the denoted sequence, so
    value equality coincides with representation equality afterwards.
    The k trailing entries that match the period read backwards are
    dropped in one cut, with one rotation by k mod the period's length.
    A prefix that is empty or ends off the period's last entry is shortest.
    """
    if not period:
        raise ValueError("period must be nonempty")
    pre = tuple(map(int, prefix))
    per = tuple(map(int, period))
    per = _primitive_period(per) if len(per) > 1 else per
    if not pre or pre[-1] != per[-1]:
        return pre, per
    n, p, k = len(pre), len(per), 1
    while k < n and pre[n - 1 - k] == per[-1 - k % p]:
        k += 1
    r = p - k % p
    return pre[:n - k], per[r:] + per[:r]


@dataclass(frozen=True, order=True, init=False)
class BairePoint:
    """Eventually periodic sequence of naturals, in canonical form, ordered
    by (prefix, period).  Each field is written once, canonical."""

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __init__(self, prefix: Sequence[int], period: Sequence[int]) -> None:
        pre, per = canonical_seq(prefix, period)
        if min(pre + per) < 0:
            raise ValueError("entries must be naturals")
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "period", per)

    def entry(self, n: int) -> int:
        if n < 0:
            raise ValueError("index must be a natural")
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    def head(self, n: int) -> tuple[int, ...]:
        lp = len(self.prefix)
        if n <= lp:
            return self.prefix[:n]
        per = self.period
        reps = -(-(n - lp) // len(per))
        return (self.prefix + per * reps)[:n]

    def starts_with(self, u: Sequence[int]) -> bool:
        u = tuple(u)
        return self.head(len(u)) == u

    def shift_entries(self) -> "BairePoint":
        """Entrywise +1; used for the tree shift."""
        return BairePoint(shift_node(self.prefix), shift_node(self.period))


def shift_node(u: tuple[int, ...]) -> tuple[int, ...]:
    """Entrywise +1."""
    return tuple(map((1).__add__, u))


def eventually_zero(head: Iterable[int]) -> BairePoint:
    """The sequence `head` followed by zeros."""
    return BairePoint(tuple(head), (0,))


def first_disagreement(a: BairePoint, b: BairePoint) -> int | None:
    """Least index where two sequences differ; None when equal.

    Two eventually periodic sequences that agree below
    max prefix length + lcm of period lengths agree everywhere.
    """
    if a.prefix == b.prefix and a.period == b.period:
        return None
    bound = max(len(a.prefix), len(b.prefix)) + math.lcm(len(a.period), len(b.period))
    return next(compress(count(), map(ne, a.head(bound), b.head(bound))), None)


def baire_dist(a: BairePoint, b: BairePoint) -> Fraction:
    """1/(least disagreement index + 1); 0 on equality."""
    n = first_disagreement(a, b)
    if n is None:
        return Fraction(0)
    return Fraction(1, n + 1)


def floor_reciprocal(value: Fraction) -> int:
    """floor(1/value) for positive value; 0 when value > 1.

    Used to turn a metric radius into the number of leading coordinates an
    open ball constrains: in a 1/(n+1)-quantized metric, dist(a, b) < r
    holds exactly when a and b agree below index floor(1/r).
    """
    if value <= 0:
        raise ValueError("radius must be positive")
    return value.denominator // value.numerator


# ---------------------------------------------------------------------------
# Cantor grid points
# ---------------------------------------------------------------------------


def pair_index(m: int, s: int) -> int:
    """Fixed Cantor diagonal enumeration of (row, column) pairs.

    Anti-diagonals d = m + s in increasing order; within one, increasing
    row index m.  pair_index(0, 0) = 0, (0, 1) = 1, (1, 0) = 2, (0, 2) = 3.
    """
    d = m + s
    return d * (d + 1) // 2 + m


def unpair_index(k: int) -> tuple[int, int]:
    d = (math.isqrt(8 * k + 1) - 1) // 2
    m = k - d * (d + 1) // 2
    return m, d - m


@dataclass(frozen=True)
class CantorGridPoint:
    """Finitely described point of the 0/1 grid.

    Stored as explicit rows over a default row; explicit rows equal to the
    default are dropped so equality of descriptions is equality of points.
    """

    explicit_rows: tuple[tuple[int, BairePoint], ...]
    default_row: BairePoint = BairePoint((), (0,))

    def __post_init__(self) -> None:
        rows = {}
        for m, spec in self.explicit_rows:
            if m < 0:
                raise ValueError("row index must be a natural")
            if m in rows:
                raise ValueError("duplicate explicit row %d" % m)
            rows[m] = spec
        if any(max(spec.prefix + spec.period) > 1 for spec in (*rows.values(), self.default_row)):
            raise ValueError("row bits must be 0 or 1")  # BairePoint refuses negative entries
        canon = tuple(sorted((m, spec) for m, spec in rows.items() if spec != self.default_row))
        object.__setattr__(self, "explicit_rows", canon)

    def row(self, m: int) -> BairePoint:
        for mm, spec in self.explicit_rows:
            if mm == m:
                return spec
        return self.default_row

    def entry(self, m: int, s: int) -> int:
        return self.row(m).entry(s)


def grid_point(rows: dict[int, tuple[Sequence[int], Sequence[int]]] | None = None,
               default: tuple[Sequence[int], Sequence[int]] = ((), (0,))) -> CantorGridPoint:
    """Convenience constructor from (prefix, period) bit pairs."""
    rows = rows or {}
    return CantorGridPoint(
        tuple((m, BairePoint(tuple(p), tuple(q))) for m, (p, q) in rows.items()),
        BairePoint(tuple(default[0]), tuple(default[1])),
    )


def grid_dist(a: CantorGridPoint, b: CantorGridPoint) -> Fraction:
    """Sequence metric on the flattened grids; 0 exactly on equality.

    The least differing flattened index is located row by row: only rows
    where the specs differ can contribute, and rows where both points use
    their defaults contribute at the least non-explicit row index.
    """
    rows_a, rows_b = dict(a.explicit_rows), dict(b.explicit_rows)
    explicit = rows_a.keys() | rows_b.keys()
    candidates: list[int] = []
    for m in explicit:
        s = first_disagreement(rows_a.get(m, a.default_row), rows_b.get(m, b.default_row))
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


# ---------------------------------------------------------------------------
# Stern-Brocot enumeration of the rationals
# ---------------------------------------------------------------------------


def _sb_walk(bits: str, lo: tuple[int, int], hi: tuple[int, int]) -> Fraction:
    cur = (lo[0] + hi[0], lo[1] + hi[1])
    for b in bits:
        if b == "0":
            hi = cur
        else:
            lo = cur
        cur = (lo[0] + hi[0], lo[1] + hi[1])
    return Fraction(cur[0], cur[1])


def _sb_first_inside(a: Fraction, b: Fraction, lo: tuple[int, int], hi: tuple[int, int],
                     max_depth: int) -> int | None:
    """Breadth-first index of the shallowest node strictly inside (a, b)
    of the Stern-Brocot tree of mediants between lo and hi; None when that
    node lies at depth max_depth or deeper.

    The shallowest node in an open interval is unique, the interval's
    simplest rational: two nodes of one depth have a shallower node between
    them.  The walk descends toward the interval until it lands inside.
    """
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    path = 1  # the bits walked so far, behind a leading 1
    for _ in range(max_depth):
        p, q = lo[0] + hi[0], lo[1] + hi[1]
        if p * ad <= an * q:
            lo, path = (p, q), 2 * path + 1
        elif p * bd >= bn * q:
            hi, path = (p, q), 2 * path
        else:
            return path - 1
    return None


def sb_positive(i: int) -> Fraction:
    """i-th positive rational in breadth-first Stern-Brocot order."""
    bits = bin(i + 1)[3:]
    return _sb_walk(bits, (0, 1), (1, 0))


def sb_unit(i: int) -> Fraction:
    """i-th rational strictly inside (0, 1), Stern-Brocot order."""
    bits = bin(i + 1)[3:]
    return _sb_walk(bits, (0, 1), (1, 1))


# ---------------------------------------------------------------------------
# the graded enumeration of all finite sequences
# ---------------------------------------------------------------------------
#
# Finite sequences are ordered by (length + entry sum, length, lexicographic).
# Every grade is finite, so this is a total enumeration, and the rank of a
# sequence is computable in closed form.  It orders the nodes of the tree
# metric and indexes the dense sequence of sequence space.


def node_weight(u: tuple[int, ...]) -> int:
    return len(u) + sum(u)


def _lex_rank(u: tuple[int, ...], total: int) -> int:
    """Rank of u among length-len(u) sequences of naturals summing to total.

    Entry i with value v passes the sequences that put c < v there, and
    with p entries left, sum over c < v of comb(r - c + p - 1, p - 1) is
    comb(r + p, p) - comb(r - v + p, p) by the hockey-stick identity.  The
    last entry equals what remains, so it passes nothing.
    """
    rank = 0
    remaining = total
    parts_left = len(u)
    for value in u[:-1]:
        parts_left -= 1
        rank += math.comb(remaining + parts_left, parts_left) - math.comb(remaining - value + parts_left, parts_left)
        remaining -= value
    return rank


@lru_cache(maxsize=1 << 16)
def node_rank(u: tuple[int, ...]) -> int:
    """Index of u in the graded enumeration; rank(()) = 0."""
    w = node_weight(u)
    if w == 0:
        return 0
    rank = 2 ** (w - 1)  # all nodes of smaller weight, incl. the empty node
    for length in range(1, len(u)):
        rank += math.comb(w - 1, length - 1)
    rank += _lex_rank(u, w - len(u))
    return rank


def node_unrank(k: int) -> tuple[int, ...]:
    if k == 0:
        return ()
    w = k.bit_length()  # 2^(w-1) <= k < 2^w
    rem = k - 2 ** (w - 1)
    length = 1
    while rem >= math.comb(w - 1, length - 1):
        rem -= math.comb(w - 1, length - 1)
        length += 1
    out: list[int] = []
    total = w - length
    for i in range(length):
        parts_left = length - i - 1
        c = 0
        while True:
            if parts_left == 0:
                block = 1 if total - c == 0 else 0
            else:
                block = math.comb(total - c + parts_left - 1, parts_left - 1)
            if rem < block:
                break
            rem -= block
            c += 1
        out.append(c)
        total -= c
    return tuple(out)


def _zero_stripped(head: Sequence[int]) -> tuple[int, ...]:
    head = list(head)
    while head and head[-1] == 0:
        head.pop()
    return tuple(head)


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------


class MetricSpace:
    """What every space shares: exact membership in an open ball."""

    def ball(self, center, radius: Fraction):
        """The test p -> dist(center, p) < radius, built once per ball."""
        return lambda p: self.dist(center, p) < radius


class RealLine(MetricSpace):
    """The rational points of the real line with |x - y|."""

    name = "real_line"

    def contains(self, x) -> bool:
        return isinstance(x, Fraction)

    def dist(self, x: Fraction, y: Fraction) -> Fraction:
        return abs(x - y)

    def dense_point(self, s: int) -> Fraction:
        if s == 0:
            return Fraction(0)
        i, odd = divmod(s - 1, 2)
        value = sb_positive(i)
        return value if odd == 0 else -value

    def least_dense_index(self, region: Sequence[tuple[Fraction, Fraction]], bound: int) -> int | None:
        """Least s <= bound with dense_point(s) inside the union of the
        disjoint open intervals `region`; None when there is none.

        Past 0, the rational of breadth-first index i sits at 2i + 1 or
        2i + 2 by sign, and a node of depth d has i >= 2**d - 1, so no
        node at depth bound.bit_length() or deeper is within the bound.
        """
        depth = bound.bit_length()
        best = None
        for a, b in region:
            if a < 0 < b:
                return 0
            if b <= 0:
                i, s0 = _sb_first_inside(-b, -a, (0, 1), (1, 0), depth), 2
            else:
                i, s0 = _sb_first_inside(a, b, (0, 1), (1, 0), depth), 1
            if i is not None and (best is None or 2 * i + s0 < best):
                best = 2 * i + s0
        return best if best is not None and best <= bound else None


class UnitInterval(RealLine):
    """Rational points of [0, 1]."""

    name = "unit_interval"

    def contains(self, x) -> bool:
        return isinstance(x, Fraction) and 0 <= x <= 1

    def dense_point(self, s: int) -> Fraction:
        if s == 0:
            return Fraction(0)
        if s == 1:
            return Fraction(1)
        return sb_unit(s - 2)

    def least_dense_index(self, region: Sequence[tuple[Fraction, Fraction]], bound: int) -> int | None:
        """As on the line: 0 and 1 come first, then the rationals inside
        (0, 1) in breadth-first order from index 2."""
        for s, y in enumerate((Fraction(0), Fraction(1))):
            if s <= bound and any(a < y < b for a, b in region):
                return s
        best = None
        for a, b in region:
            a, b = max(a, Fraction(0)), min(b, Fraction(1))
            i = _sb_first_inside(a, b, (0, 1), (1, 1), bound.bit_length()) if a < b else None
            if i is not None and (best is None or i + 2 < best):
                best = i + 2
        return best if best is not None and best <= bound else None


class BaireSpace(MetricSpace):
    """Eventually periodic sequences with the 1/(n+1) ultrametric."""

    name = "baire_space"

    def contains(self, x) -> bool:
        return isinstance(x, BairePoint)

    def dist(self, x: BairePoint, y: BairePoint) -> Fraction:
        return baire_dist(x, y)

    def dense_point(self, s: int) -> BairePoint:
        """The s-th finite sequence with its last entry raised by one, then
        zeros: every eventually-zero sequence once, keyed by its
        zero-stripped head."""
        u = node_unrank(s)
        return eventually_zero(u[:-1] + (u[-1] + 1,) if u else u)

    def least_dense_index(self, heads: Iterable[tuple[int, ...]], bound: int) -> int | None:
        """Least s <= bound whose dense point starts with one of `heads`;
        None when there is none.

        The least eventually-zero sequence with a given head is the head
        followed by zeros, whose index is the rank of its zero-stripped
        head with the last entry lowered by one again.
        """
        ranks = [node_rank(u[:-1] + (u[-1] - 1,) if u else u) for u in map(_zero_stripped, heads)]
        s = min(ranks, default=None)
        return s if s is not None and s <= bound else None


class CantorGrid(MetricSpace):
    """Finitely described 0/1 grids, metric via the diagonal flattening."""

    name = "cantor_grid"

    def contains(self, x) -> bool:
        return isinstance(x, CantorGridPoint)

    def dist(self, x: CantorGridPoint, y: CantorGridPoint) -> Fraction:
        return grid_dist(x, y)

    def dense_point(self, s: int) -> CantorGridPoint:
        rows: dict[int, list[int]] = {}
        k = 0
        while s:
            if s & 1:
                m, col = unpair_index(k)
                row = rows.setdefault(m, [])
                while len(row) <= col:
                    row.append(0)
                row[col] = 1
            s >>= 1
            k += 1
        return grid_point({m: (bits, (0,)) for m, bits in rows.items()})


@dataclass(frozen=True)
class FinitePoints(MetricSpace):
    """Finite metric space whose labels, all strings or all rationals, are
    its points, given by an explicit distance table.

    The table is validated at construction: symmetric, zero exactly on the
    diagonal, and triangle inequality, all with exact arithmetic.  Between
    rational points it must be |x - y|, the metric that every computation
    on real-flavored values uses.
    """

    labels: tuple
    table: tuple[tuple[Fraction, ...], ...]

    name = "finite_points"

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(set(self.labels)) != n or n == 0:
            raise ValueError("labels must be nonempty and distinct")
        if {type(a) for a in self.labels} not in ({str}, {Fraction}):
            raise ValueError("labels must be all strings or all rationals")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table shape must match labels")
        if self.rational_labels and self.table != tuple(tuple(abs(a - b) for b in self.labels) for a in self.labels):
            raise ValueError("the distance between rational points must be |x - y|")
        for i in range(n):
            if self.table[i][i] != 0:
                raise ValueError("diagonal must be zero")
            for j in range(n):
                if self.table[i][j] != self.table[j][i]:
                    raise ValueError("table must be symmetric")
                if i != j and self.table[i][j] <= 0:
                    raise ValueError("off-diagonal distances must be positive")
                for k in range(n):
                    if self.table[i][k] > self.table[i][j] + self.table[j][k]:
                        raise ValueError("triangle inequality violated")

    @property
    def rational_labels(self) -> bool:
        """Are the points rationals, measured by |x - y|?"""
        return isinstance(self.labels[0], Fraction)

    def index_of(self, x) -> int:
        try:
            return self.labels.index(x)
        except ValueError:
            raise ValueError("point %r not in space" % (x,)) from None

    def contains(self, x) -> bool:
        return isinstance(x, type(self.labels[0])) and x in self.labels

    def dist(self, x, y) -> Fraction:
        return self.table[self.index_of(x)][self.index_of(y)]

    def points(self) -> list:
        return list(self.labels)

    def dense_point(self, s: int):
        return self.labels[s % len(self.labels)]

    def least_dense_index(self, region: Sequence[tuple[Fraction, Fraction]], bound: int) -> int | None:
        """Least label index s <= bound whose rational label lies inside
        the union of open intervals `region`; for rational labels only."""
        for s, y in enumerate(self.labels[:bound + 1]):
            if any(a < y < b for a, b in region):
                return s
        return None


def rational_points_space(values: Sequence[Fraction]) -> FinitePoints:
    """Finite space of rational points under the |x - y| metric."""
    vals = tuple(sorted(set(values)))
    return FinitePoints(vals, tuple(tuple(abs(a - b) for b in vals) for a in vals))


def real_flavored(space) -> bool:
    """Are the space's points rationals under |x - y|: the line, the unit
    interval, or a finite space with rational labels?"""
    return isinstance(space, RealLine) or (isinstance(space, FinitePoints) and space.rational_labels)


REAL_LINE = RealLine()
UNIT_INTERVAL = UnitInterval()
BAIRE_SPACE = BaireSpace()
CANTOR_GRID = CantorGrid()
