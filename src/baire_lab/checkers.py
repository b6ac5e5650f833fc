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
evaluates the map at each distinct probe point once, on first use, and
lists the distinct values of each ball.  The checkers are quantifier
layers over it, and their predicates read only the value at a probe, so
the table loops test each distinct value of a ball once, not each probe.
The net of the value at x is the only net built: the distance from a net
point to the net of a probe's value is measured in closed form, since an
interval's net is a grid.  `verify_witness` does not use the context or
the closed form, so that a certificate is re-validated independently of
the search that produced it.

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
of every probe value form a region (shared heads in sequence space, a
union of open intervals on the line, the unit interval and rational finite
spaces) and the codomain names the least index inside it.  They scan index
by index only for a caller's `dense_fn` or a codomain with no closed form,
such as the grid; `eval_strong_star` always enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Sequence

from .closed_sets import (
    ClosedSetRepr,
    Empty,
    clip_to_interval,
    clips_properly,
    closure,
    common_heads,
    common_neighbourhood,
    dist_to_net,
    dist_to_set,
    eps_net,
    meets_open_ball,
    net_with_radius,
    set_separation,
)
from .spaces import BairePoint, BaireSpace, CantorGridPoint, real_flavored
from .trees import Tree

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


def tabular_multimap(space, values: dict, codomain, name: str = "tabular") -> MultiMap:
    """Explicit finite map over a finite-points domain."""
    table = dict(values)
    return MultiMap(space, codomain, table.__getitem__, name=name, default_probes=full_domain_probes(space))


def full_domain_probes(space) -> ProbeGen:
    """Probe generator enumerating the whole finite space inside the ball."""

    def gen(center, radius):
        return [p for p in space.points() if space.dist(center, p) < radius]

    return gen


def point_sort_key(p):
    if isinstance(p, Fraction):
        return (0, p)
    if isinstance(p, BairePoint):
        return (1, p.sort_key())
    if isinstance(p, CantorGridPoint):
        return (2, p.sort_key())
    if isinstance(p, str):
        return (3, p)
    if isinstance(p, Tree):
        return (4, p.sort_key())
    raise TypeError("unsortable point: %r" % (p,))


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
    for xp in probes(x, radius):
        if xp in seen:
            continue
        if not multimap.domain.contains(xp):
            raise DomainError("probe %r outside the domain" % (xp,))
        if multimap.domain.dist(x, xp) >= radius:
            raise ValueError("probe generator emitted a point outside the open ball")
        out.append(xp)
        seen.add(xp)
        if len(out) >= budget:
            break
    return out


class ProbeContext:
    """The delta balls around x, each probe evaluated at most once.

    Probes are gathered once per delta of the schedule.  The first time a
    checker reaches a delta, F is evaluated at the probes of its ball not
    yet evaluated, and the ball's distinct values are listed in the order
    they first appear.  The quantifiers range over those values, since
    every predicate reads only the value at a probe; each distinct value
    of the context has an index into `distinct`, which keys the memos.
    """

    def __init__(self, multimap: MultiMap, x, cfg: CheckConfig, probes: ProbeGen):
        self.multimap = multimap
        self.cfg = cfg
        self.distinct: list = []
        self._index: dict = {}  # distinct value -> its index
        self._at: dict = {}  # probe point -> index of its value
        self._balls: list = [None] * len(cfg.delta_schedule)
        self.value_at_x = self.distinct[self.at(x)]  # DomainError off the domain, before any probing
        self.probes = {
            delta: gather_probes(multimap, probes, x, delta, cfg.probe_budget)
            for delta in cfg.delta_schedule
        }

    def at(self, xp) -> int:
        """The index of the value at xp; F is evaluated there on first use."""
        if xp not in self._at:
            value = self.multimap.value(xp)
            if value not in self._index:
                self._index[value] = len(self.distinct)
                self.distinct.append(value)
            self._at[xp] = self._index[value]
        return self._at[xp]

    def balls(self):
        """Per delta of the schedule, in order: the delta and the indices of
        the distinct values at the probes of its ball."""
        for k, delta in enumerate(self.cfg.delta_schedule):
            if self._balls[k] is None:
                self._balls[k] = list(dict.fromkeys(self.at(xp) for xp in self.probes[delta]))
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


def _counterexamples(ctx: ProbeContext, y) -> tuple[list, Fraction]:
    """Per delta, the first probe whose value lies farthest from y; also
    the least of those farthest distances."""
    far: dict = {}  # value index -> distance from y to the value
    out = []
    for delta, ball in ctx.balls():
        for i in ball:
            if i not in far:
                far[i] = dist_to_set(y, ctx.distinct[i])
        out.append((delta, max(ctx.probes[delta], key=lambda xp: far[ctx.at(xp)])))
    return out, min(far[ctx.at(xp)] for _, xp in out)


# ---------------------------------------------------------------------------
# the two definition checkers
# ---------------------------------------------------------------------------


def _validate_table(ctx: ProbeContext, y):
    dist, resolution = ctx.multimap.codomain.dist, ctx.cfg.net_resolution
    near: dict = {}  # value index -> distance from y to the value's net; None for an empty net

    def close(i, eps) -> bool:
        if i not in near:
            near[i] = dist_to_net(y, ctx.distinct[i], resolution, dist)
        return near[i] is not None and near[i] < eps

    table = []
    for eps in ctx.cfg.eps_schedule:
        found = ctx.first_delta(lambda i: close(i, eps))
        if found is None:
            return None
        table.append((eps, found))
    return tuple(table)


def _refute_entry(ctx: ProbeContext, y, net_radius: Fraction):
    counterexamples, level = _counterexamples(ctx, y)
    for eps in ctx.cfg.eps_schedule:
        if eps <= level and eps - net_radius > 0:
            return RefutationEntry(y, eps, tuple(counterexamples))
    return None


def _check_tables(ctx: ProbeContext, strong: bool) -> Verdict:
    """The table loop of both definition checkers.

    Plain continuity needs a table at some point of the value's net and is
    refuted when every net point is; strong continuity needs a table at
    every net point and is refuted when one point without a table is.
    """
    resolution = ctx.cfg.net_resolution
    net, net_radius = net_with_radius(ctx.value_at_x, resolution)
    net = sorted(net, key=point_sort_key)
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


def _threshold(n: int) -> Fraction:
    return Fraction(1, n + 1)


def _sup_below(probe_values, y, threshold: Fraction) -> bool:
    """sup over probe values of dist < threshold, with early exit."""
    for v in probe_values:
        if dist_to_set(y, v) >= threshold:
            return False
    return True


def _certificate_level(probe_values, separation, enough: Fraction) -> Fraction | None:
    """Separation evidence at one delta: None when an empty value is
    present (everything is distance 1 from it — full refutation), else
    the largest pairwise separation between the distinct value sets, or
    the first one that reaches `enough`.

    Two values sep apart refute every point y at level sep/2: y cannot be
    closer than sep/2 to both, so the probe sup is at least sep/2 no
    matter which dense index produced y.  Equal values are 0 apart and
    add nothing; `separation` measures each distinct pair.
    """
    if any(isinstance(v, Empty) for v in probe_values):
        return None
    best = Fraction(0)
    for a, b in combinations(probe_values, 2):
        best = max(best, separation(a, b))
        if best >= enough:
            break
    return best


def _certified_level(values: dict, cfg: CheckConfig, failing: int) -> int | None:
    """The least level n >= failing, up to n_bound, whose refutation is
    certified at every delta: each delta has an empty value or two values
    2/(n+1) apart.  None when there is no such level.

    Each unordered pair of distinct values is measured at most once, and
    a delta's pairs only until one certifies the level the deltas measured
    so far require.  The smallest balls come first: they have the fewest
    values and tend to require the highest level.
    """
    separations: dict = {}

    def separation(a, b) -> Fraction:
        pair = frozenset((a, b))
        if pair not in separations:
            separations[pair] = set_separation(a, b)
        return separations[pair]

    n = failing
    for delta in reversed(cfg.delta_schedule):
        level = _certificate_level(values[delta], separation, 2 * _threshold(n))
        while level is not None and level < 2 * _threshold(n):
            n += 1
            if n > cfg.n_bound:
                return None
    return n


def _dense_search(codomain, cfg: CheckConfig, dense_fn: Callable[[int], Any] | None):
    """The search for the least dense index passing a level: a function of
    (distinct values per delta, n) giving the (n, s, delta) with the least
    s <= dense_bound, then the first delta of the schedule, or None.

    On the canonical codomains it is closed-form: the points within 1/(n+1)
    of every value at a delta form a region (the shared heads of length
    n + 1 in sequence space, open intervals on the line), and the space
    gives the least index inside it.  A caller's dense sequence, or a
    codomain without a closed form, is scanned index by index.
    """
    bound = cfg.dense_bound
    if dense_fn is None and isinstance(codomain, BaireSpace):
        def region(values, n, known):
            return common_heads(values, n + 1, known)
    elif dense_fn is None and real_flavored(codomain):
        def region(values, n, known):
            return common_neighbourhood(values, _threshold(n), known)
    else:
        dense = dense_fn or codomain.dense_point

        def scan(values: dict, n: int):
            threshold = _threshold(n)
            for s in range(bound + 1):
                ys = dense(s)
                for delta in cfg.delta_schedule:
                    if _sup_below(values[delta], ys, threshold):
                        return n, s, delta
            return None

        return scan

    def closed_form(values: dict, n: int):
        hit = None
        known: dict = {}  # each value's own region at level n, shared by the deltas
        for delta in cfg.delta_schedule:
            s = codomain.least_dense_index(region(values[delta], n, known), bound)
            if s is not None and (hit is None or s < hit[1]):
                hit = (n, s, delta)
        return hit

    return closed_form


def _star_scan(values: dict, cfg: CheckConfig, search):
    """Per-level search for dense indices passing the inf-sup test.

    Returns (passes, failing, certified): the (n, s, delta) passes, the
    first level the search could not satisfy, and the least level from
    there whose refutation carries a separation certificate at every delta
    (thresholds shrink, so the searches of larger levels fail too).  A
    certificate at a level implies that the search fails there, so none
    is measured before a level fails.
    """
    values = {delta: list(dict.fromkeys(values[delta])) for delta in cfg.delta_schedule}
    passes = []
    for n in range(cfg.n_bound + 1):
        hit = search(values, n)
        if hit is None:
            return passes, n, _certified_level(values, cfg, n)
        passes.append(hit)
    return passes, None, None


def eval_star(multimap: MultiMap, x, cfg: CheckConfig, probes: ProbeGen,
              dense_fn: Callable[[int], Any] | None = None) -> Verdict:
    """Truncated evaluation of the inf-sup criterion over a dense sequence."""
    search = _dense_search(multimap.codomain, cfg, dense_fn)
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


def _default_exhaustion(multimap, cfg: CheckConfig):
    """K_m = [-m, m] clipped to the codomain, m = 0 .. m_bound."""
    if getattr(multimap.codomain, "name", "") == "unit_interval":
        return [(Fraction(0), Fraction(min(m, 1))) for m in range(cfg.m_bound + 1)]
    return [(Fraction(-m), Fraction(m)) for m in range(cfg.m_bound + 1)]


def eval_dagger(multimap: MultiMap, x, cfg: CheckConfig, probes: ProbeGen,
                exhaustion: Sequence[tuple[Fraction, Fraction]] | None = None,
                dense_fn: Callable[[int], Any] | None = None) -> Verdict:
    """The exhaustion-relative criterion: values are clipped to K_m first.

    Empty clipped values contribute distance 1.  A refutation is reported
    only when no proper clipping happened at the last exhaustion stage;
    otherwise a larger stage could still change the outcome and the result
    is Inconclusive.
    """
    search = _dense_search(multimap.codomain, cfg, dense_fn)
    stages = list(exhaustion) if exhaustion is not None else _default_exhaustion(multimap, cfg)
    raw = ProbeContext(multimap, x, cfg, probes).value_lists()
    refuted = []
    for stage_index, (lo, hi) in enumerate(stages):
        clipped = {
            delta: [clip_to_interval(v, lo, hi) for v in raw[delta]]
            for delta in cfg.delta_schedule
        }
        passes, failing, certified = _star_scan(clipped, cfg, search)
        if failing is None:
            return Verdict(CONTINUOUS, report={
                "criterion": "dagger", "stage": stage_index, "window": (lo, hi),
                "passes": tuple(passes),
            })
        refuted.append({"stage": stage_index, "failing_n": failing,
                        "certified": certified is not None})
    if all(r["certified"] for r in refuted):
        lo, hi = stages[-1]
        proper = any(
            clips_properly(v, lo, hi)
            for delta in cfg.delta_schedule
            for v in raw[delta]
        )
        if not proper:
            return Verdict(DISCONTINUOUS, report={"criterion": "dagger", "stages": refuted})
        return Verdict(INCONCLUSIVE, report={
            "criterion": "dagger", "stages": refuted,
            "reason": "exhaustion bound clipped some value; larger stages could differ",
        })
    return Verdict(INCONCLUSIVE, report={
        "criterion": "dagger", "stages": refuted,
        "reason": "refutation lacked a separation certificate at some stage",
    })


def eval_strong_star(multimap: MultiMap, x, cfg: CheckConfig, probes: ProbeGen,
                     dense_fn: Callable[[int], Any] | None = None) -> Verdict:
    """Truncated strong criterion: every dense point near the value at x
    must admit a delta with small probe-sup distance."""
    dense = dense_fn or multimap.codomain.dense_point
    ctx = ProbeContext(multimap, x, cfg, probes)
    for n in range(cfg.n_bound + 1):
        for s in range(cfg.dense_bound + 1):
            ys = dense(s)
            if dist_to_set(ys, ctx.value_at_x) > Fraction(1, 3 * (n + 1)):
                continue
            if ctx.first_delta(lambda i: dist_to_set(ys, ctx.distinct[i]) < _threshold(n)) is None:
                counterexamples, _ = _counterexamples(ctx, ys)
                return Verdict(DISCONTINUOUS, report={
                    "criterion": "strong_star", "failing": (n, s), "y": ys,
                    "counterexamples": tuple(counterexamples),
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
            counterexamples = tuple(
                (delta, next(xp for xp in ctx.probes[delta] if not meets(ctx.at(xp))))
                for delta in cfg.delta_schedule
            )
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
    if dist_to_set(w.y, multimap.value(x)) != 0:
        return False
    if not w.table:
        return False
    for eps, delta in w.table:
        if eps <= 0 or delta <= 0:
            return False
        for xp in probes(x, delta):
            if multimap.domain.dist(x, xp) >= delta:
                return False
        for xp in [x, *probes(x, delta)]:
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
    net_keys = {point_sort_key(y) for y in net}
    entry_keys = {point_sort_key(e.y) for e in w.entries}
    if w.notion == "plain":
        if entry_keys != net_keys:
            return False
    elif not entry_keys <= net_keys:
        return False
    if w.margin != min(e.eps_star for e in w.entries) - w.net_radius or w.margin <= 0:
        return False
    for entry in w.entries:
        if entry.eps_star <= 0 or not entry.counterexamples:
            return False
        for delta, xp in entry.counterexamples:
            if delta <= 0 or not multimap.domain.contains(xp):
                return False
            if multimap.domain.dist(x, xp) >= delta:
                return False
            if dist_to_set(entry.y, multimap.value(xp)) < entry.eps_star:
                return False
    return True


def continuity_points(multimap: MultiMap, sample: Sequence, mode: str,
                      cfg: CheckConfig, probes: ProbeGen) -> dict:
    """Pointwise application of the selected checker; aggregation only."""
    if mode not in ("plain", "strong"):
        raise ValueError("mode must be 'plain' or 'strong'")
    checker = check_continuity if mode == "plain" else check_strong_continuity
    return {x: checker(multimap, x, cfg, probes) for x in sample}
