"""Ready-made multi-valued maps with proof-derived witnesses.

Each construction ships three things: the map itself (domain, codomain,
exact value rule), a probe generator emitting the perturbation points its
correctness argument needs (plus benign variations), and — for the two
counterexample maps — a witness generator that produces a continuity or
discontinuity certificate directly from the structure of the input point,
no search involved.  `verify_witness` re-validates those certificates
against the probe generator, so a wrong constant here would not survive
the test suite.

The probe generators are deliberately one-sided: they include every point
the refutation arguments need, and nothing that would spuriously refute a
genuinely continuous instance at finite schedule depth.  Verdict
soundness is relative to the probe set; these generators are what make
the search verdicts land on the true classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .checkers import (
    CheckConfig,
    ContinuityWitness,
    DiscontinuityWitness,
    MultiMap,
    RefutationEntry,
    full_domain_probes,
)
from .closed_sets import (
    ClosedSetRepr,
    Empty,
    FiniteBaireSet,
    FiniteRealSet,
    IntervalUnion,
    finite_real,
    tree_body_points,
)
from .spaces import (
    BAIRE_SPACE,
    CANTOR_GRID,
    REAL_LINE,
    UNIT_INTERVAL,
    BairePoint,
    CantorGridPoint,
    FinitePoints,
    UnitInterval,
    floor_reciprocal,
    pair_index,
    unpair_index,
)
from .trees import (
    TREE_SPACE,
    Tree,
    ball_rank_bound,
    constrained_members,
    generated_by,
    is_ill_founded,
    max_entry_below_rank,
    node_rank,
    rank_below,
    terminals,
)

# ---------------------------------------------------------------------------
# the grid-indexed counterexample (window-truncated)
# ---------------------------------------------------------------------------

F1_DEFAULT_WINDOW = 8


def has_infinitely_many_ones(row: BairePoint) -> bool:
    return 1 in row.period


def last_one_index(row: BairePoint) -> int | None:
    """Index of the last 1, for rows with finitely many 1s: in canonical
    form such a row has period (0,) and a prefix that is empty or ends in 1."""
    if has_infinitely_many_ones(row):
        raise ValueError("row has infinitely many ones")
    return len(row.prefix) - 1 if row.prefix else None


def first_one_at_or_after(row: BairePoint, n: int) -> int | None:
    """Least s >= n with bit 1; None when the tail is all zero.  A 1 past
    the prefix recurs within one period."""
    stop = max(n, len(row.prefix)) + len(row.period)
    return next((s for s in range(n, stop) if row.entry(s) == 1), None)


def r_membership(gamma: CantorGridPoint, m: int) -> bool:
    """Does row m carry infinitely many 1s?  Decidable from the row."""
    return has_infinitely_many_ones(gamma.row(m))


def n_of(gamma: CantorGridPoint, m: int) -> int:
    """least n with the row all zero from n on, plus one: the length of
    the row's canonical prefix, plus one."""
    row = gamma.row(m)
    if has_infinitely_many_ones(row):
        raise ValueError("value undefined: row %d has infinitely many 1s" % m)
    return len(row.prefix) + 1


def f1_value(gamma: CantorGridPoint, window: int = F1_DEFAULT_WINDOW) -> FiniteRealSet:
    """Defining points for rows 0..window.

    Rows with infinitely many 1s contribute their integer; the rest
    contribute m + 1/(n+1) with n the row's tail-zero index.  Points with
    larger m sit in [m, m + 1/2] and cannot influence questions asked at
    tolerances above 1/(window + 1).
    """
    points = set()
    for m in range(window + 1):
        if r_membership(gamma, m):
            points.add(Fraction(m))
        else:
            points.add(m + Fraction(1, n_of(gamma, m) + 1))
    return FiniteRealSet(points)


def f1_graph_member(gamma: CantorGridPoint, y: Fraction) -> bool:
    """The explicit graph predicate, evaluated exactly.

    Either y is an integer m whose row has infinitely many 1s, or
    1/(y-m) - 2 is a natural N with the row all zero from N on and a 1
    witnessing every smaller index (equivalently, at N-1 when N > 0).
    """
    if y < 0:
        return False
    for m in range(int(y) + 1):
        row = gamma.row(m)
        if y == m:
            if has_infinitely_many_ones(row):
                return True
            continue
        q = y - m
        inv = 1 / q
        if inv.denominator != 1:
            continue
        n_val = inv.numerator - 2
        if n_val < 0:
            continue
        if has_infinitely_many_ones(row):
            continue
        last = last_one_index(row)
        if last is not None and last >= n_val:
            continue
        if n_val == 0 or row.entry(n_val - 1) == 1:
            return True
    return False


def _row_constraint_length(m: int, flat_bound: int) -> int:
    """Least s with pair_index(m, s) >= flat_bound.

    That is the least anti-diagonal d >= m with d(d+1)/2 >= flat_bound - m,
    less m: isqrt gives the greatest d with d(d+1)/2 at most that target,
    and one step up corrects it when the target is not triangular.
    """
    target = max(flat_bound - m, 0)
    d = (math.isqrt(8 * target + 1) - 1) // 2
    if d * (d + 1) // 2 < target:
        d += 1
    return max(d - m, 0)


def ones_completion(gamma: CantorGridPoint, flat_bound: int) -> CantorGridPoint:
    """Agree with gamma on flattened cells below the bound, 1 elsewhere."""
    rows = []
    m = 0
    while pair_index(m, 0) < flat_bound:
        prefix = gamma.row(m).head(_row_constraint_length(m, flat_bound))
        rows.append((m, BairePoint(prefix, (1,))))
        m += 1
    return CantorGridPoint(tuple(rows), BairePoint((), (1,)))


def flip_completion(gamma: CantorGridPoint, flat_index: int) -> CantorGridPoint:
    """gamma with the single flattened cell `flat_index` flipped."""
    m, s = unpair_index(flat_index)
    row = gamma.row(m)
    length = max(s + 1, len(row.prefix))
    bits = list(row.head(length))
    bits[s] ^= 1
    offset = (length - len(row.prefix)) % len(row.period)
    period = row.period[offset:] + row.period[:offset]
    new_row = BairePoint(tuple(bits), period)
    rows = dict(gamma.explicit_rows)
    rows[m] = new_row
    return CantorGridPoint(tuple(rows.items()), gamma.default_row)


def f1_probes() -> Callable:
    """Grid perturbations: the all-ones completion of the proof, plus a few
    single flips just past the constrained cells."""

    def gen(center: CantorGridPoint, radius: Fraction):
        bound = floor_reciprocal(radius)
        out = [ones_completion(center, bound)]
        for k in (bound, bound + 1, bound + 7):
            out.append(flip_completion(center, k))
        return out

    return gen


def f1_multimap(window: int = F1_DEFAULT_WINDOW) -> MultiMap:
    mm = MultiMap(
        CANTOR_GRID, REAL_LINE,
        lambda gamma: f1_value(gamma, window),
        name="f1[window=%d]" % window,
        default_probes=f1_probes(),
    )
    return mm


def f1_witness(gamma: CantorGridPoint, window: int, cfg: CheckConfig) -> ContinuityWitness | DiscontinuityWitness:
    """Certificate from the row structure, mirroring the proof.

    With a witnessing row m: the integer m, and for each eps the radius
    that pins the grid cell (m, s_n) whose 1 forces every perturbation's
    value within eps of m.  Without one: for each value point, half its
    offset as the refutation level, refuted by the all-ones completions,
    built once per delta and shared by every value point.
    """
    witness_m = next((m for m in range(window + 1) if r_membership(gamma, m)), None)
    if witness_m is not None:
        row = gamma.row(witness_m)
        table = []
        for eps in cfg.eps_schedule:
            n_eps = floor_reciprocal(eps)
            s_n = first_one_at_or_after(row, n_eps)
            delta = Fraction(1, pair_index(witness_m, s_n) + 2)
            table.append((eps, delta))
        return ContinuityWitness(Fraction(witness_m), tuple(table), cfg.net_resolution)
    counterexamples = tuple(
        (delta, ones_completion(gamma, floor_reciprocal(delta)))
        for delta in cfg.delta_schedule
    )
    entries = []
    for m in range(window + 1):
        offset = Fraction(1, n_of(gamma, m) + 1)
        entries.append(RefutationEntry(Fraction(m) + offset, offset / 2, counterexamples))
    margin = min(e.eps_star for e in entries)
    return DiscontinuityWitness(tuple(entries), cfg.net_resolution, Fraction(0), margin)


# ---------------------------------------------------------------------------
# the tree-indexed counterexample
# ---------------------------------------------------------------------------

F2_DEEP_DEPTH = 260  # past every schedule eps: 1/(261+1) < 2^-8


def _deep_heads(center: Tree, rank_bound: int, depth: int) -> list[tuple[int, ...]]:
    heads = []
    for beta in sorted(center.branches):
        j = 0
        while rank_below(beta.head(j), rank_bound):
            j += 1
        heads.append(beta.head(max(depth, j + 1)))
    return heads


def _sprouting(t: Tree, ends: list, radius: Fraction) -> tuple[set, int]:
    """The generated-by perturbation of a well-founded t inside the ball of
    the radius: the constrained members it keeps, and the fresh entry that
    extends a terminal, larger than every entry of the terminals `ends`."""
    bound = ball_rank_bound(radius)
    top_entry = 1 + max((max(u, default=0) for u in ends), default=0)
    return constrained_members(t, bound), max(max_entry_below_rank(bound), top_entry)


def f2_probes() -> Callable:
    """Tree perturbations following the proof's two sides.

    Ill-founded center: finite approximants that keep every branch to a
    depth past the whole eps schedule, so the branch value stays realized.
    Well-founded center: the kept constrained nodes with every terminal
    extended by a fresh entry — the generated-by perturbation — whose
    value set is uniformly separated from the center's.
    """

    def gen(center: Tree, radius: Fraction):
        if is_ill_founded(center):
            bound = ball_rank_bound(radius)
            kept = constrained_members(center, bound)
            heads = _deep_heads(center, bound, F2_DEEP_DEPTH)
            trunk = generated_by(set(heads) | kept)
            sprout = generated_by(set(heads) | kept | {heads[0] + (max_entry_below_rank(bound),)})
            return [trunk, sprout]
        ends = sorted(terminals(center))
        kept, fresh = _sprouting(center, ends, radius)
        return [generated_by({u + (fresh,) for u in ends} | kept),
                *(generated_by({u + (fresh,)} | kept) for u in ends)]

    return gen


def f2_multimap() -> MultiMap:
    return MultiMap(
        TREE_SPACE, BAIRE_SPACE,
        lambda t: FiniteBaireSet(tree_body_points(t)),
        name="f2",
        default_probes=f2_probes(),
    )


def f2_witness(t: Tree, cfg: CheckConfig) -> ContinuityWitness | DiscontinuityWitness:
    """Certificate from ill-foundedness, mirroring the proof.

    Ill-founded: the shifted first branch, with per-eps radii pinning the
    branch prefix node whose membership forces a nearby value.
    Well-founded: every padded terminal refuted at 1/(len+2) by the
    generated-by perturbation with a fresh child entry.
    """
    if is_ill_founded(t):
        beta = min(t.branches)
        y = beta.shift_entries()
        table = []
        for eps in cfg.eps_schedule:
            depth = max(0, floor_reciprocal(eps) - 1) + 1
            pin = beta.head(depth)
            delta = Fraction(1, node_rank(pin) + 2)
            table.append((eps, delta))
        return ContinuityWitness(y, tuple(table), cfg.net_resolution)
    ends = sorted(terminals(t))
    per_delta = [(delta, *_sprouting(t, ends, delta)) for delta in cfg.delta_schedule]
    entries = []
    for u in ends:
        shifted = tuple(e + 1 for e in u)
        y = BairePoint(shifted, (0,))
        eps_star = Fraction(1, len(u) + 2)
        counterexamples = tuple(
            (delta, generated_by({u + (fresh,)} | kept))
            for delta, kept, fresh in per_delta
        )
        entries.append(RefutationEntry(y, eps_star, counterexamples))
    margin = min(e.eps_star for e in entries)
    return DiscontinuityWitness(tuple(entries), cfg.net_resolution, Fraction(0), margin)


# ---------------------------------------------------------------------------
# dense-split and spike maps
# ---------------------------------------------------------------------------


def is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def is_non_third(q: Fraction) -> bool:
    """All rationals except the integers-over-3 grid k/3."""
    return (3 * q).denominator != 1


SPLIT_SPECS: dict[str, Callable[[Fraction], bool]] = {
    "dyadic": is_dyadic,
    "thirds": is_non_third,
}


def split_probes() -> Callable:
    """Unit-interval perturbations: nearby dyadics (dense in-A points for
    both shipped specs), nearby thirds grid points (out-of-A points), and
    plain fractional offsets."""

    def gen(center: Fraction, radius: Fraction):
        out = []
        j = 1
        while Fraction(2, 2 ** j) >= radius:
            j += 1
        scaled = center * 2 ** j
        k0 = scaled.numerator // scaled.denominator
        for k in (k0 - 1, k0, k0 + 1, k0 + 2):
            out.append(Fraction(k, 2 ** j))
        thirds = center * 3
        t0 = thirds.numerator // thirds.denominator
        for k in (t0 - 1, t0, t0 + 1):
            out.append(Fraction(k, 3))
        for d in (2, 3, 4, 8):
            out.append(center + radius / d)
            out.append(center - radius / d)
        return [
            q for q in out
            if 0 <= q <= 1 and abs(q - center) < radius
        ]

    return gen


def dense_split(a_spec: str) -> MultiMap:
    """Value {0} on the dense set named by `a_spec`, {0, 1} off it."""
    member = SPLIT_SPECS[a_spec]

    def rule(x: Fraction) -> FiniteRealSet:
        return finite_real(0) if member(x) else finite_real(0, 1)

    return MultiMap(UNIT_INTERVAL, UNIT_INTERVAL, rule, name="dense_split:%s" % a_spec,
                    default_probes=split_probes())


@dataclass(frozen=True)
class SpikeSet:
    """Explicit list head plus an optional harmonic tail 1/(j+1), j >= start."""

    head: tuple[Fraction, ...]
    harmonic_tail_start: int | None = None

    def __post_init__(self) -> None:
        if len(set(self.head)) != len(self.head):
            raise ValueError("listed points must be pairwise distinct")
        if self.harmonic_tail_start is not None:
            for q in self.head:
                if self._tail_index(q) is not None:
                    raise ValueError("listed point %s collides with the tail rule" % q)

    def _tail_index(self, q: Fraction) -> int | None:
        if self.harmonic_tail_start is None or q <= 0:
            return None
        inv = 1 / q
        if inv.denominator != 1:
            return None
        j = inv.numerator - 1
        if j < self.harmonic_tail_start:
            return None
        return len(self.head) + (j - self.harmonic_tail_start)

    def index_of(self, q: Fraction) -> int | None:
        if q in self.head:
            return self.head.index(q)
        return self._tail_index(q)

    def members_near(self, center: Fraction, radius: Fraction) -> list[Fraction]:
        """The first 16 members strictly inside the ball, head first."""
        cap = 16
        lo, hi = center - radius, center + radius
        out = [q for q in self.head if lo < q < hi]
        if self.harmonic_tail_start is not None and hi > 0:
            j = self.harmonic_tail_start
            while len(out) < cap:
                q = Fraction(1, j + 1)
                if q <= lo:
                    break
                if q < hi:
                    out.append(q)
                j += 1
        return out[:cap]


def harmonic_spike_set() -> SpikeSet:
    """The shipped list 1, 1/2, 1/3, ..."""
    return SpikeSet((), harmonic_tail_start=0)


def spike_probes(spikes: SpikeSet) -> Callable:
    """Offsets filtered against the decidable point list, plus listed
    points inside the ball — the proof needs off-list points arbitrarily
    close to every listed point."""

    def gen(center: Fraction, radius: Fraction):
        out = list(spikes.members_near(center, radius))
        added = 0
        j = 0
        while added < 8 and j < 64:
            for cand in (center + radius / (2 + j), center - radius / (2 + j)):
                if spikes.index_of(cand) is None and cand != center:
                    out.append(cand)
                    added += 1
            j += 1
        return [q for q in out if abs(q - center) < radius]

    return gen


def spike_function(spikes: SpikeSet) -> MultiMap:
    """Single-valued map: 1/(n+1) at the n-th listed point, 0 elsewhere."""

    def rule(x: Fraction) -> FiniteRealSet:
        n = spikes.index_of(x)
        if n is None:
            return finite_real(0)
        return finite_real(Fraction(1, n + 1))

    return MultiMap(REAL_LINE, UNIT_INTERVAL, rule,
                    name="spike", default_probes=spike_probes(spikes))


# ---------------------------------------------------------------------------
# extension and composition combinators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityEmbedding:
    """Identity injection of a finite subspace into a finite superspace."""

    sub: FinitePoints
    sup: FinitePoints

    def __post_init__(self) -> None:
        for a in self.sub.labels:
            if a not in self.sup.labels:
                raise ValueError("sub-space label %r missing from super-space" % a)
        for a in self.sub.points():
            for b in self.sub.points():
                if self.sub.dist(a, b) != self.sup.dist(a, b):
                    raise ValueError("metrics disagree on the embedded points")

    def in_image(self, x1) -> bool:
        return self.sub.contains(x1)


def whole_space_repr(codomain) -> ClosedSetRepr:
    """A representation of the entire codomain, where one exists."""
    if isinstance(codomain, UnitInterval):
        return IntervalUnion(((Fraction(0), Fraction(1)),), True)
    if isinstance(codomain, FinitePoints) and codomain.rational_labels:
        return FiniteRealSet(codomain.points())
    raise ValueError(
        "codomain %r admits no whole-space representation; the extension's "
        "off-image value is not representable" % getattr(codomain, "name", codomain)
    )


def extend(f0: MultiMap, embedding: IdentityEmbedding, x1_space) -> MultiMap:
    """Off the embedded image the value is the whole codomain; on it,
    the original value at the preimage."""
    whole = whole_space_repr(f0.codomain)

    def rule(x1) -> ClosedSetRepr:
        if embedding.in_image(x1):
            return f0.rule(x1)  # the identity's preimage
        return whole

    return MultiMap(x1_space, f0.codomain, rule,
                    name="extend(%s)" % f0.name,
                    default_probes=full_domain_probes(x1_space))


@dataclass(frozen=True)
class AffineMap:
    """t -> scale*t + shift on real-flavored codomains; injective."""

    scale: Fraction
    shift: Fraction

    def __post_init__(self) -> None:
        if self.scale == 0:
            raise ValueError("affine map must be injective")

    def apply(self, t: Fraction) -> Fraction:
        return self.scale * t + self.shift

    def image_set(self, s: ClosedSetRepr) -> ClosedSetRepr:
        if isinstance(s, Empty):
            return s
        if isinstance(s, FiniteRealSet):
            return FiniteRealSet(self.apply(p) for p in s.points)
        if isinstance(s, IntervalUnion):
            mapped = []
            for a, b in s.intervals:
                fa, fb = self.apply(a), self.apply(b)
                mapped.append((min(fa, fb), max(fa, fb)))
            return IntervalUnion(tuple(mapped), s.closed)
        raise ValueError("affine image of %r is not representable" % (s,))

    target = REAL_LINE


def _nested(u: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    """The start and length of the interval the scheme assigns to each
    prefix of u, the empty prefix first, each narrowed from the one before."""
    a, length = Fraction(0), Fraction(1)
    out = [(a, length)]
    for c in u:
        a += length * (1 - Fraction(1, 2 ** c))
        length *= Fraction(1, 2 ** (c + 2))
        out.append((a, length))
    return out


class BaireEmbedding:
    """The nested-interval injection of the sequence space into [0, 1].

    Intervals: the root is [0, 1]; inside [a, a + L] the child with entry
    c starts at a + L(1 - 2^-c) with length L*2^-(c+2).  Children sit
    inside their parent, siblings are pairwise disjoint with gaps, and each
    step multiplies the length by at most 1/4, so lengths decay at least
    like 4^-depth.  For an eventually periodic point the nested chain's
    common point is an exact rational: the recursion is affine, so the
    periodic tail sums a geometric series.
    """

    target = UNIT_INTERVAL

    def apply(self, alpha: BairePoint) -> Fraction:
        a, length = _nested(alpha.prefix)[-1]
        gain, factor = _nested(alpha.period)[-1]
        return a + length * gain / (1 - factor)

    def image_set(self, s: ClosedSetRepr) -> ClosedSetRepr:
        if isinstance(s, Empty):
            return s
        if isinstance(s, FiniteBaireSet):
            return FiniteRealSet(self.apply(p) for p in s.points)
        raise ValueError("embedded image of %r is not representable" % (s,))


def interval_of(u: Sequence[int]) -> tuple[Fraction, Fraction]:
    """The closed interval assigned to a finite sequence by the scheme."""
    a, length = _nested(u)[-1]
    return a, a + length


def baire_embed(alpha: BairePoint, depth: int) -> tuple[Fraction, Fraction]:
    """Interval of the depth-truncation; the embedded point lies inside."""
    return interval_of(alpha.head(depth))


def embed_chain(alpha: BairePoint, depth: int) -> list[tuple[Fraction, Fraction]]:
    """baire_embed(alpha, d) for d = 0..depth, narrowed entry by entry."""
    return [(a, a + length) for a, length in _nested(alpha.head(depth))]


def compose(pi, f: MultiMap) -> MultiMap:
    """Post-compose the value sets with an injective coordinate change.  A
    compose of a compose applies the whole chain of changes in one loop."""
    base, changes = getattr(f, "composed", (f, ()))
    changes += (pi,)

    def rule(x) -> ClosedSetRepr:
        value = base.rule(x)
        for change in changes:
            value = change.image_set(value)
        return value

    g = MultiMap(f.domain, pi.target, rule, name="compose(%s)" % f.name, default_probes=f.default_probes)
    g.composed = (base, changes)
    return g
