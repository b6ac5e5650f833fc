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
"""

import math
from fractions import Fraction

from baire_lab.closed_sets import FiniteBaireSet, dist_to_set
from baire_lab.spaces import BairePoint, CantorGridPoint, baire_dist, eventually_zero, node_rank, pair_index
from baire_lab.trees import _branch_cover_bound, terminals, tree_shift


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
    value of some delta's ball, then the first such delta, or None."""

    def search(values: dict, n: int):
        threshold = Fraction(1, n + 1)
        for s in range(cfg.dense_bound + 1):
            y = dense(s)
            for delta in cfg.delta_schedule:
                if all(baire_dist_to_points(y, v) < threshold for v in values[delta]):
                    return n, s, delta
        return None

    return search


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
