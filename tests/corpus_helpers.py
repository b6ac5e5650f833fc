"""Deterministic corpora shared by the gallery, acceptance and space tests."""

import random
from fractions import Fraction as Fr

from baire_lab.checkers import MultiMap
from baire_lab.closed_sets import closure, open_intervals
from baire_lab.gallery import dense_split, is_dyadic, split_probes
from baire_lab.instances import parse_baire_point
from baire_lab.spaces import REAL_LINE, UNIT_INTERVAL, FinitePoints, eventually_zero, grid_point
from baire_lab.trees import make_tree

GRID_ROWS = {
    "zero": ((), (0,)),
    "one": ((), (1,)),
    "single": ((1,), (0,)),
    "late_single": ((0, 0, 0, 1), (0,)),
    "period01": ((), (0, 1)),
    "period100": ((), (1, 0, 0)),
    "pre_period": ((1, 1, 0), (0, 1)),
    "finite_burst": ((1, 0, 1, 1), (0,)),
}


def grid_corpus(size=56):
    """All-zero, all-one, single-1 rows, periodic rows, mixed defaults."""
    names = sorted(GRID_ROWS)
    corpus = [grid_point(), grid_point(default=((), (1,)))]
    rng = random.Random(2024)
    while len(corpus) < size:
        explicit = {}
        for m in rng.sample(range(9), rng.randrange(0, 4)):
            explicit[m] = GRID_ROWS[rng.choice(names)]
        default = GRID_ROWS[rng.choice(["zero", "single", "finite_burst", "one", "period01"])]
        corpus.append(grid_point(explicit, default))
    return corpus


def open_split_maps():
    """The open-interval-valued maps of criterion 10: a shorter interval on
    the dyadics, and a second interval off them."""

    def open_split(x):
        return open_intervals((0, Fr(1, 4))) if is_dyadic(x) else open_intervals((0, 1))

    def open_split_wide(x):
        return open_intervals((0, 1)) if is_dyadic(x) else open_intervals((0, 1), (Fr(5, 4), Fr(3, 2)))

    return [
        MultiMap(UNIT_INTERVAL, UNIT_INTERVAL, open_split, name="open_split", default_probes=split_probes()),
        MultiMap(UNIT_INTERVAL, REAL_LINE, open_split_wide, name="open_split_wide", default_probes=split_probes()),
    ]


def closure_map(mm):
    """The map sending x to the closure of mm's value at x, with mm's probes."""
    return MultiMap(mm.domain, mm.codomain, lambda p: closure(mm.rule(p)),
                    name="closure(%s)" % mm.name, default_probes=mm.default_probes)


def fell_instances():
    """The maps and points of criterion 10: the open-split maps and both
    dense splits, each at five points."""
    maps = open_split_maps() + [dense_split("dyadic"), dense_split("thirds")]
    points = [Fr(1, 2), Fr(1, 3), Fr(2, 3), Fr(3, 8), Fr(5, 6)]
    return [(mm, x) for mm in maps for x in points]


# The points of criterion 6: ten dyadics and ten other points for the dyadic
# dense split, the first ten points of the harmonic spike set and ten others
# for the spike map.
DENSE_SPLIT_POINTS = (
    [Fr(0), Fr(1), Fr(1, 2), Fr(1, 4), Fr(3, 4), Fr(1, 8), Fr(5, 8), Fr(3, 16), Fr(7, 32), Fr(1, 64)]
    + [Fr(1, 3), Fr(2, 3), Fr(1, 5), Fr(2, 5), Fr(5, 6), Fr(1, 7), Fr(3, 7), Fr(1, 9), Fr(4, 11), Fr(9, 13)]
)
SPIKE_POINTS = (
    [Fr(1, n + 1) for n in range(10)]
    + [Fr(0), Fr(2), Fr(2, 5), Fr(3, 7), Fr(2, 7), Fr(5, 11), Fr(-1, 3), Fr(7, 9), Fr(3, 5), Fr(5, 7)]
)


DEPTH3_UNIVERSE = (
    [(a,) for a in range(3)]
    + [(a, b) for a in range(3) for b in range(3)]
    + [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
)


def depth3_tree_sample(count=2000, seed=40423):
    """Stratified seeded sample of depth-3 trees over the 3-ary universe."""
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        k = rng.randrange(1, 9)
        seeds = rng.sample(DEPTH3_UNIVERSE, k)
        tree = make_tree(seeds)
        if tree.finite_part not in seen:
            seen.add(tree.finite_part)
            out.append(tree)
    return out


def branch_bearing_trees():
    return [
        make_tree(branches=[eventually_zero(())]),
        make_tree(branches=[parse_baire_point(";1")]),
        make_tree(branches=[parse_baire_point("1;0")]),
        make_tree(branches=[parse_baire_point("0,1;0")]),
        make_tree(branches=[parse_baire_point(";0,1")]),
        make_tree([(2,)], branches=[eventually_zero(())]),
        make_tree([(1, 1)], branches=[parse_baire_point(";1")]),
        make_tree(branches=[eventually_zero(()), parse_baire_point("1;0")]),
        make_tree(branches=[parse_baire_point(";2")]),
        make_tree([(0, 2), (3,)], branches=[parse_baire_point("0;1")]),
    ]


# ---------------------------------------------------------------------------
# tree corpus enumeration (for the classification sweeps) and finite spaces
# ---------------------------------------------------------------------------


def enumerate_prefix_closed_trees(arity: int, depth: int):
    """All trees whose nodes come from {0..arity-1}^{<= depth}, as node sets.

    Yields frozensets of nodes, each prefix-closed and containing the
    empty node.  Counts grow triple-exponentially in depth; the top level
    is generated lazily so deep sweeps can stream.
    """

    def descendant_sets(levels_left: int) -> list[frozenset]:
        if levels_left == 0:
            return [frozenset()]
        child = descendant_sets(levels_left - 1)
        out: list[frozenset] = []

        def build(idx: int, acc: frozenset) -> None:
            if idx == arity:
                out.append(acc)
                return
            build(idx + 1, acc)
            for sub in child:
                build(idx + 1, acc | {(idx,)} | {(idx,) + u for u in sub})

        build(0, frozenset())
        return out

    if depth == 0:
        yield frozenset({()})
        return
    child = descendant_sets(depth - 1)

    def top(idx: int, acc: frozenset):
        if idx == arity:
            yield frozenset({()}) | acc
            return
        yield from top(idx + 1, acc)
        for sub in child:
            yield from top(idx + 1, acc | {(idx,)} | {(idx,) + u for u in sub})

    yield from top(0, frozenset())


def finite_points_space(labels, table):
    return FinitePoints(tuple(labels), tuple(tuple(row) for row in table))
