"""Witness-based continuity checking over finite truncations.

The quantifiers of the continuity notions range over infinite sets; the
checkers evaluate them over finite schedules (eps and delta values), a
probe generator supplying finitely many ball members, finite nets of the
value sets, and bounded dense-sequence indices.  Outcomes are tri-valued:

* Continuous — carries a witness point with an (eps -> delta) table that
  re-validates against the probes.
* Discontinuous — carries, for each point of a net of the value at x, a
  refutation level and per-delta counterexample probes, plus a margin
  making the per-net refutation cover the whole value set (point-to-set
  distance is 1-Lipschitz in the point).
* Inconclusive — some truncation axis was exhausted without a verdict.

One probe context feeds every checker: it gathers each delta ball once,
when a quantifier first reaches it, evaluates the map at each distinct
probe point once, and keeps each ball's probes with their value indices,
in probe order, and the distinct values of each ball; no probe point is
hashed again after its ball is gathered.  The checkers are quantifier
layers over it; their predicates read only the value at a probe, so a
table loop tests each distinct value once.
The quantifier steps compare exact distance keys (`closed_sets.distance_key`,
`net_key`, `eps_key`, `key_level`) and are written once for every
codomain: `closed_sets` picks the key by the kind of point and value, an
integer level on sequence space and the Fraction elsewhere.
The net of the value at x is the only net built: the distance from a net
point to the net of a probe's value is measured in closed form, since an
interval's net is a grid.  `verify_witness` does not use the context or
the closed form, so that a certificate is re-validated independently of
the search that produced it.  It shares the metric kernels with the
checkers (`dist_to_set`, and each space's open-ball test `ball`, an
integer rank test on tree space) but none of the search.

Verdicts are correct relative to the probe set and schedules; on finite
spaces probed exhaustively they coincide with brute-force evaluation of
the definitions.  Refutation levels come from the eps schedule so that
search verdicts and the truncated-negation oracle agree exactly.

The criterion evaluators (`eval_star`, `eval_dagger`) refuse to report a
refutation merely because the dense-sequence budget ran out: they demand a
separation certificate — two probes whose value sets are 2/(n+1) apart, or
an empty clipped value — which extends the refutation to every index of
the dense sequence at once.  Budget exhaustion without a certificate is
Inconclusive, which keeps verdicts monotone under budget growth.

Those two evaluators find the least dense index passing a level in closed
form, without enumerating the dense sequence: the points within 1/(n+1)
of every probe value form a region (`closed_sets.common_region`) and the
codomain names the least index inside it; a codomain that names none
carries only empty values, whose region is empty.  `eval_dagger` clips
values to the windows K_m = [-m, m] for every codomain, and stops at the
first window that clips no probe value; `m_bound` caps m only for values
reaching past [-m_bound, m_bound].  `eval_strong_star` enumerates the
dense sequence.

`MODES` names the evaluator of each mode of `baire-lab check`: the two
definition checkers (plain, strong), the two criterion evaluators (star,
dagger) and the lower-Fell check (fell).  `continuity_points` runs a mode
over a sample of points and returns the verdict at each: the truncated set
of points of continuity, with the evidence at every other point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, count
from typing import Any, Callable, Sequence

from .closed_sets import (
    ClosedSetRepr,
    Empty,
    clip_to_interval,
    closure,
    common_region,
    dist_to_set,
    distance_key,
    eps_key,
    eps_net,
    key_level,
    meets_open_ball,
    net_key,
    net_with_radius,
    region_frame,
    set_contains,
)

ProbeGen = Callable[[Any, Fraction], Sequence[Any]]


class DomainError(ValueError):
    """A point fell outside the domain of the space or map."""


@dataclass(frozen=True)
class CheckConfig:
    """Finite truncation of the continuity quantifiers."""

    eps_schedule: tuple[Fraction, ...]
    delta_schedule: tuple[Fraction, ...]
    probe_budget: int
    net_resolution: Fraction
    dense_bound: int
    n_bound: int
    m_bound: int

    def __post_init__(self) -> None:
        for schedule in (self.eps_schedule, self.delta_schedule):
            if not schedule or any(v <= 0 for v in schedule):
                raise ValueError("schedules must be nonempty and positive")
            if any(a <= b for a, b in zip(schedule, schedule[1:])):
                raise ValueError("schedules must be strictly descending")
        if self.probe_budget < 1 or self.dense_bound < 0 or self.n_bound < 0 or self.m_bound < 0:
            raise ValueError("budgets must be sensible")
        if self.net_resolution <= 0:
            raise ValueError("net resolution must be positive")


def default_config(**overrides) -> CheckConfig:
    halves = tuple(Fraction(1, 2 ** i) for i in range(9))
    base = dict(
        eps_schedule=halves,
        delta_schedule=halves,
        probe_budget=64,
        net_resolution=Fraction(1, 16),
        dense_bound=256,
        n_bound=8,
        m_bound=8,
    )
    base.update(overrides)
    return CheckConfig(**base)


class MultiMap:
    """Total assignment of value-set representations to domain points."""

    def __init__(self, domain, codomain, rule: Callable[[Any], ClosedSetRepr],
                 name: str = "multimap", default_probes: ProbeGen | None = None):
        self.domain = domain
        self.codomain = codomain
        self.rule = rule
        self.name = name
        self.default_probes = default_probes

    def value(self, x) -> ClosedSetRepr:
        if not self.domain.contains(x):
            raise DomainError("point %r outside the domain of %s" % (x, self.name))
        return self.rule(x)

    def __repr__(self) -> str:
        return "MultiMap(%s)" % self.name


def tabular_multimap(space, values: dict, codomain) -> MultiMap:
    """Explicit finite map over a finite-points domain."""
    table = dict(values)
    return MultiMap(space, codomain, table.__getitem__, name="tabular", default_probes=full_domain_probes(space))


def full_domain_probes(space) -> ProbeGen:
    """Probe generator enumerating the whole finite space inside the ball."""

    def gen(center, radius):
        return list(filter(space.ball(center, radius), space.points()))

    return gen


# ---------------------------------------------------------------------------
# verdicts and witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuityWitness:
    """A value point and the eps -> delta table that certifies it."""

    y: Any
    table: tuple[tuple[Fraction, Fraction], ...]
    net_resolution: Fraction


@dataclass(frozen=True)
class RefutationEntry:
    y: Any
    eps_star: Fraction
    counterexamples: tuple[tuple[Fraction, Any], ...]


@dataclass(frozen=True)
class DiscontinuityWitness:
    """Per-net-point refutations with a net-coverage margin.

    Point-to-set distance is 1-Lipschitz in the point, so refuting a net
    point at level eps_star refutes its whole net cell at eps_star minus
    the covering radius; margin > 0 extends the refutation to all of F(x).
    """

    entries: tuple[RefutationEntry, ...]
    net_resolution: Fraction
    net_radius: Fraction
    margin: Fraction
    notion: str = "plain"  # plain: every net point refuted; strong: one suffices


@dataclass(frozen=True, eq=False)
class Verdict:
    kind: str  # "continuous" | "discontinuous" | "inconclusive"
    witness: ContinuityWitness | DiscontinuityWitness | None = None
    report: Any = None

    def __repr__(self) -> str:
        return "Verdict(%s)" % self.kind


CONTINUOUS = "continuous"
DISCONTINUOUS = "discontinuous"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# probe handling
# ---------------------------------------------------------------------------


def gather_probes(multimap: MultiMap, probes: ProbeGen, x, radius: Fraction, budget: int) -> list:
    """Center plus generator output: deduplicated, validated, budget-capped."""
    out = [x]
    seen = {x}
    inside = multimap.domain.ball(x, radius)
    for xp in probes(x, radius):
        seen.add(xp)  # one hash per probe: a repeat leaves the size as it was
        if len(seen) == len(out):
            continue
        if not multimap.domain.contains(xp):
            raise DomainError("probe %r outside the domain" % (xp,))
        if not inside(xp):
            raise ValueError("probe generator emitted a point outside the open ball")
        out.append(xp)
        if len(out) >= budget:
            break
    return out


class ProbeContext:
    """The delta balls around x, each probe evaluated at most once.

    The first time a checker reaches a delta, the probes of its ball are
    gathered and F is evaluated at those not yet evaluated; a ball that no
    quantifier reaches is never gathered, so a generator fault there raises
    nothing.  The quantifiers range over a ball's distinct values, listed
    in the order they first appear, since every predicate reads only the
    value at a probe; each has an index into `distinct`, keying the memos.
    Each ball keeps its probes and their value indices, in probe order, so
    a counterexample is read from them without hashing a probe again.
    """

    def __init__(self, multimap: MultiMap, x, cfg: CheckConfig, probes: ProbeGen):
        self.multimap = multimap
        self.cfg = cfg
        self.distinct: list = []
        self._index: dict = {}  # distinct value -> its index
        self._at: dict = {}  # probe point -> index of its value
        self._balls: list = [None] * len(cfg.delta_schedule)
        self.value_at_x = self.distinct[self.at(x)]  # DomainError off the domain, before any probing
        self._gather = lambda delta: gather_probes(multimap, probes, x, delta, cfg.probe_budget)
        self.probes: list = [None] * len(cfg.delta_schedule)  # per ball: its probes, once a quantifier reaches it
        self.indices: list = [None] * len(cfg.delta_schedule)  # per ball: the value index at each of its probes

    def at(self, xp) -> int:
        """The index of the value at xp; F is evaluated there on first use."""
        i = self._at.get(xp)
        if i is None:
            value = self.multimap.value(xp)
            i = self._at[xp] = self._index.setdefault(value, len(self.distinct))
            if i == len(self.distinct):
                self.distinct.append(value)
        return i

    def balls(self):
        """Per delta of the schedule, in order: the delta and the indices of
        the distinct values at the probes of its ball."""
        for k, delta in enumerate(self.cfg.delta_schedule):
            if self._balls[k] is None:
                self.probes[k] = self._gather(delta)
                self.indices[k] = [self.at(xp) for xp in self.probes[k]]
                self._balls[k] = list(dict.fromkeys(self.indices[k]))
            yield delta, self._balls[k]

    def value_lists(self) -> dict:
        """Per delta, the distinct values at the probes of its ball."""
        return {delta: [self.distinct[i] for i in ball] for delta, ball in self.balls()}

    def first_delta(self, holds: Callable[[int], bool]) -> Fraction | None:
        """The first delta of the schedule whose every distinct value, given
        by its index, satisfies `holds`, else None."""
        for delta, ball in self.balls():
            if all(holds(i) for i in ball):
                return delta
        return None


def _counterexamples(ctx: ProbeContext, miss: Callable[[int], Any]) -> tuple[tuple, Any]:
    """Per delta, the first probe whose value misses most, by `miss` of the
    value's index (measured once per distinct value); also the least of
    those largest misses."""
    misses: dict = {}  # value index -> its miss
    out, most = [], []
    for k, (delta, ball) in enumerate(ctx.balls()):
        for i in ball:
            if i not in misses:
                misses[i] = miss(i)
        xp, i = max(zip(ctx.probes[k], ctx.indices[k]), key=lambda probe: misses[probe[1]])
        out.append((delta, xp))
        most.append(misses[i])
    return tuple(out), min(most)


# ---------------------------------------------------------------------------
# the two definition checkers
# ---------------------------------------------------------------------------


def _validate_table(ctx: ProbeContext, y):
    dist, resolution = ctx.multimap.codomain.dist, ctx.cfg.net_resolution
    near: dict = {}  # value index -> key of the distance from y to the value's net, None for an empty net

    def close(i, bound) -> bool:
        if i not in near:
            near[i] = net_key(y, ctx.distinct[i], resolution, dist)
        return near[i] is not None and near[i] < bound

    table = []
    for eps in ctx.cfg.eps_schedule:
        bound = eps_key(y, eps)
        found = ctx.first_delta(lambda i: close(i, bound))
        if found is None:
            return None
        table.append((eps, found))
    return tuple(table)


def _refute_entry(ctx: ProbeContext, y, net_radius: Fraction):
    counterexamples, far = _counterexamples(ctx, lambda i: distance_key(y, ctx.distinct[i]))
    for eps in ctx.cfg.eps_schedule:
        if not far < eps_key(y, eps) and eps - net_radius > 0:
            return RefutationEntry(y, eps, counterexamples)
    return None


def _check_tables(ctx: ProbeContext, strong: bool) -> Verdict:
    """The table loop of both definition checkers.

    Plain continuity needs a table at some point of the value's net and is
    refuted when every net point is; strong continuity needs a table at
    every net point and is refuted when one point without a table is.
    """
    resolution = ctx.cfg.net_resolution
    net, net_radius = net_with_radius(ctx.value_at_x, resolution)
    if not net:
        reason = ("every value point vacuously admits a table" if strong
                  else "no value point exists to admit a table")
        return Verdict(CONTINUOUS if strong else DISCONTINUOUS, report={
            "reason": "the value at x is empty: %s; no certificate" % reason,
        })
    tables = []
    for y in net:
        table = _validate_table(ctx, y)
        if table is not None and not strong:
            return Verdict(CONTINUOUS, ContinuityWitness(y, table, resolution))
        tables.append((y, table))
    failed = [y for y, table in tables if table is None]
    if not failed:
        y, table = tables[0]
        return Verdict(CONTINUOUS, ContinuityWitness(y, table, resolution), report={"validated": len(tables)})
    entries = []
    for y in failed:
        entry = _refute_entry(ctx, y, net_radius)
        if entry is None and not strong:
            break  # plain needs every net point refuted
        if entry is not None:
            entries.append(entry)
            if strong:
                break  # strong needs one
    if entries and (strong or len(entries) == len(failed)):
        margin = min(e.eps_star for e in entries) - net_radius
        return Verdict(DISCONTINUOUS, DiscontinuityWitness(tuple(entries), resolution, net_radius, margin,
                                                           notion="strong" if strong else "plain"))
    return Verdict(INCONCLUSIVE, report={
        "reason": ("some " if strong else "") + "net point neither validated nor refuted with margin",
        "exhausted": "eps/delta schedules",
    })


def check_continuity(multimap: MultiMap, x, cfg: CheckConfig, probes: ProbeGen) -> Verdict:
    """Does some value point admit the full eps -> delta table on probes?"""
    return _check_tables(ProbeContext(multimap, x, cfg, probes), strong=False)


def check_strong_continuity(multimap: MultiMap, x, cfg: CheckConfig, probes: ProbeGen) -> Verdict:
    """Does every point of the value's net admit a table on probes?"""
    return _check_tables(ProbeContext(multimap, x, cfg, probes), strong=True)


# ---------------------------------------------------------------------------
# criterion evaluators
# ---------------------------------------------------------------------------


def _certified_level(values: dict, cfg: CheckConfig, failing: int) -> int | None:
    """The least level n >= failing, up to n_bound, whose refutation is
    certified at every delta: each delta has an empty value (everything is
    distance 1 from it) or two values 2/(n+1) apart.  None when there is no
    such level.

    Two values sep > 0 apart refute every point y at level sep/2: y cannot
    be closer than sep/2 to both, so the probe sup is at least sep/2 no
    matter which dense index produced y.  So the pair certifies every n
    from the `key_level` of its distance key on: ceil(2/sep) - 1, or
    2L - 1 for sequence-space values 1/L apart.

    Each unordered pair of distinct values is measured at most once, and
    a delta's pairs only until one certifies the level the deltas measured
    so far require.  The smallest balls come first: they have the fewest
    values and tend to require the highest level.
    """
    never = cfg.n_bound + 1
    needs: dict = {}  # pair -> the least level it certifies

    def need(a, b) -> int:
        pair = frozenset((a, b))
        if pair not in needs:
            level = key_level(distance_key(a, b))
            needs[pair] = never if level is None else level
        return needs[pair]

    n = failing
    for delta in reversed(cfg.delta_schedule):
        if any(isinstance(v, Empty) for v in values[delta]):
            continue
        least = never
        for a, b in combinations(values[delta], 2):
            least = min(least, need(a, b))
            if least <= n:
                break
        n = max(n, least)
        if n > cfg.n_bound:
            return None
    return n


def _dense_search(codomain, cfg: CheckConfig):
    """The search for the least dense index passing a level: a function of
    (distinct values per delta, n, the scan's `closed_sets.region_frame`)
    giving the (n, s, delta) with the least s <= dense_bound, then the
    first delta of the schedule, or None.

    The points within 1/(n+1) of every value at a delta form a region
    (`closed_sets.common_region`), and the codomain gives the least index
    inside it.  A codomain whose values can only be empty has only empty
    regions, which hold no index, so it is never asked.
    """
    def search(values: dict, n: int, frame):
        hit = None
        known: dict = {}  # each value's own region at level n, shared by the deltas
        for delta in cfg.delta_schedule:
            inside = common_region(values[delta], n, frame, known)
            s = codomain.least_dense_index(inside, cfg.dense_bound) if inside else None
            if s is not None and (hit is None or s < hit[1]):
                hit = (n, s, delta)
        return hit

    return search


def _star_scan(values: dict, cfg: CheckConfig, search):
    """Per-level search for dense indices passing the inf-sup test.

    Returns (passes, failing, certified): the (n, s, delta) passes, the
    first level the search could not satisfy, and the least level from
    there whose refutation carries a separation certificate at every delta
    (thresholds shrink, so the searches of larger levels fail too).  A
    certificate at a level implies that the search fails there, so none
    is measured before a level fails.  The values are put on one integer
    frame (`closed_sets.region_frame`) for every level of the scan.
    """
    values = {delta: list(dict.fromkeys(values[delta])) for delta in cfg.delta_schedule}
    frame = region_frame(chain.from_iterable(values.values()))
    passes = []
    for n in range(cfg.n_bound + 1):
        hit = search(values, n, frame)
        if hit is None:
            return passes, n, _certified_level(values, cfg, n)
        passes.append(hit)
    return passes, None, None


def eval_star(multimap: MultiMap, x, cfg: CheckConfig, probes: ProbeGen) -> Verdict:
    """Truncated evaluation of the inf-sup criterion over a dense sequence."""
    search = _dense_search(multimap.codomain, cfg)
    passes, failing, certified = _star_scan(ProbeContext(multimap, x, cfg, probes).value_lists(), cfg, search)
    if failing is None:
        return Verdict(CONTINUOUS, report={"criterion": "star", "passes": tuple(passes)})
    if certified is not None:
        return Verdict(DISCONTINUOUS, report={
            "criterion": "star", "refuted_n": certified,
            "certificate": "probe value sets separated by 2/(n+1) at every delta",
        })
    return Verdict(INCONCLUSIVE, report={
        "criterion": "star", "failing_n": failing,
        "reason": "dense bound exhausted without a separation certificate",
    })


def eval_dagger(multimap: MultiMap, x, cfg: CheckConfig, probes: ProbeGen) -> Verdict:
    """The criterion on values clipped to the windows K_m = [-m, m], m = 0, 1, ...

    Empty clipped values contribute distance 1.  The windows stop at the
    first one that clips no probe value: every larger one gives the same
    clipped values, so the same scan.  A refutation is reported only
    there; a window `m_bound` that still clips some value ends the loop
    Inconclusive, since a larger window could change the outcome.
    """
    search = _dense_search(multimap.codomain, cfg)
    raw = ProbeContext(multimap, x, cfg, probes).value_lists()
    closures = {v: closure(v) for delta in cfg.delta_schedule for v in raw[delta]}  # each value clipped once a window
    refuted = []
    for m in count():
        lo, hi = Fraction(-m), Fraction(m)
        clip = {v: clip_to_interval(v, lo, hi) for v in closures}
        clipped = {delta: [clip[v] for v in raw[delta]] for delta in raw}
        passes, failing, certified = _star_scan(clipped, cfg, search)
        if failing is None:
            return Verdict(CONTINUOUS, report={
                "criterion": "dagger", "stage": m, "window": (lo, hi), "passes": tuple(passes),
            })
        refuted.append({"stage": m, "failing_n": failing, "certified": certified is not None})
        whole = all(clip[v] == c for v, c in closures.items())
        if whole or m == cfg.m_bound:
            break
    if not all(r["certified"] for r in refuted):
        return Verdict(INCONCLUSIVE, report={
            "criterion": "dagger", "stages": refuted,
            "reason": "refutation lacked a separation certificate at some stage",
        })
    if not whole:
        return Verdict(INCONCLUSIVE, report={
            "criterion": "dagger", "stages": refuted,
            "reason": "exhaustion bound clipped some value; larger stages could differ",
        })
    return Verdict(DISCONTINUOUS, report={"criterion": "dagger", "stages": refuted})


def eval_strong_star(multimap: MultiMap, x, cfg: CheckConfig, probes: ProbeGen) -> Verdict:
    """Truncated strong criterion: every dense point near the value at x
    must admit a delta with small probe-sup distance.

    It enumerates `codomain.dense_point` index by index, by design: unlike
    `eval_star`, it has no closed form yet, and no `baire-lab check` mode
    reaches it.  The codomain must therefore have a dense sequence, unless
    the value at x is empty: every point is at distance 1 from it, so no
    dense index is near enough to be tested and F is continuous there.
    """
    ctx = ProbeContext(multimap, x, cfg, probes)
    if isinstance(ctx.value_at_x, Empty):
        return Verdict(CONTINUOUS, report={"criterion": "strong_star"})
    dense = multimap.codomain.dense_point
    for n in range(cfg.n_bound + 1):
        for s in range(cfg.dense_bound + 1):
            ys = dense(s)
            if dist_to_set(ys, ctx.value_at_x) > Fraction(1, 3 * (n + 1)):
                continue
            if ctx.first_delta(lambda i: dist_to_set(ys, ctx.distinct[i]) < Fraction(1, n + 1)) is None:
                counterexamples, _ = _counterexamples(ctx, lambda i: dist_to_set(ys, ctx.distinct[i]))
                return Verdict(DISCONTINUOUS, report={
                    "criterion": "strong_star", "failing": (n, s), "y": ys,
                    "counterexamples": counterexamples,
                })
    return Verdict(CONTINUOUS, report={"criterion": "strong_star"})


def eval_lower_fell(multimap: MultiMap, x, cfg: CheckConfig, probes: ProbeGen,
                    test_balls: Sequence[tuple[Any, Fraction]]) -> Verdict:
    """Continuity of the closure map into the lower Fell sub-basis sets.

    For each test ball met by the closure of the value at x, some delta
    must make every probe's closure meet it too.
    """
    if not test_balls:
        raise ValueError("test_balls must be nonempty")
    ctx = ProbeContext(multimap, x, cfg, probes)
    value_closure = closure(ctx.value_at_x)
    checked = []
    for center, radius in test_balls:
        if not meets_open_ball(value_closure, center, radius):
            continue

        def meets(i) -> bool:
            return meets_open_ball(closure(ctx.distinct[i]), center, radius)

        found = ctx.first_delta(meets)
        if found is None:
            counterexamples, _ = _counterexamples(ctx, lambda i: not meets(i))
            return Verdict(DISCONTINUOUS, report={
                "criterion": "lower_fell", "ball": (center, radius),
                "counterexamples": counterexamples,
            })
        checked.append(((center, radius), found))
    return Verdict(CONTINUOUS, report={"criterion": "lower_fell", "validated": tuple(checked)})


# ---------------------------------------------------------------------------
# witness re-validation
# ---------------------------------------------------------------------------


def verify_witness(multimap: MultiMap, x, witness, probes: ProbeGen) -> bool:
    """Re-validate every clause of a witness, independent of any search."""
    if isinstance(witness, ContinuityWitness):
        return _verify_continuity(multimap, x, witness, probes)
    if isinstance(witness, DiscontinuityWitness):
        return _verify_discontinuity(multimap, x, witness)
    raise TypeError("not a witness: %r" % (witness,))


def _verify_continuity(multimap, x, w: ContinuityWitness, probes) -> bool:
    if not multimap.domain.contains(x):
        return False
    if not set_contains(w.y, multimap.value(x)):
        return False
    if not w.table:
        return False
    for eps, delta in w.table:
        if eps <= 0 or delta <= 0:
            return False
        ball = list(probes(x, delta))
        if not all(map(multimap.domain.ball(x, delta), ball)):
            return False
        for xp in [x, *ball]:
            net = eps_net(multimap.value(xp), w.net_resolution)
            if not net or min(multimap.codomain.dist(w.y, yp) for yp in net) >= eps:
                return False
    return True


def _verify_discontinuity(multimap, x, w: DiscontinuityWitness) -> bool:
    if not multimap.domain.contains(x):
        return False
    net, radius = net_with_radius(multimap.value(x), w.net_resolution)
    if radius != w.net_radius:
        return False
    if not w.entries:
        return False
    entry_points = {e.y for e in w.entries}
    if w.notion == "plain":
        if entry_points != set(net):
            return False
    elif not entry_points <= set(net):
        return False
    if w.margin != min(e.eps_star for e in w.entries) - w.net_radius or w.margin <= 0:
        return False
    balls: dict = {}  # (numerator, denominator) of a delta -> membership test of its ball around x
    for entry in w.entries:
        if entry.eps_star <= 0 or not entry.counterexamples:
            return False
        for delta, xp in entry.counterexamples:
            if delta <= 0 or not multimap.domain.contains(xp):
                return False
            key = delta.as_integer_ratio()  # hashes faster than the Fraction
            inside = balls.get(key) or balls.setdefault(key, multimap.domain.ball(x, delta))
            if not inside(xp):
                return False
            if dist_to_set(entry.y, multimap.value(xp)) < entry.eps_star:
                return False
    return True


MODES = {
    "plain": check_continuity,
    "strong": check_strong_continuity,
    "star": eval_star,
    "dagger": eval_dagger,
    "fell": eval_lower_fell,
}


def continuity_points(multimap: MultiMap, sample: Sequence, mode: str, cfg: CheckConfig,
                      probes: ProbeGen, test_balls: Sequence[tuple[Any, Fraction]] = ()) -> dict:
    """The verdict at each distinct point of the sample under the mode's
    evaluator; lower-Fell mode also takes the test balls."""
    if not isinstance(mode, str) or mode not in MODES:
        raise ValueError("unknown mode %r (valid: %s)" % (mode, ", ".join(MODES)))
    extra = (test_balls,) if mode == "fell" else ()
    return {x: MODES[mode](multimap, x, cfg, probes, *extra) for x in sample}
