"""Trees on the naturals with fully decidable combinatorics.

A tree is a finite prefix-closed node set together with finitely many
designated infinite branches, each eventually periodic.  Membership,
terminal nodes, bodies, ill-foundedness, and the metric induced by
characteristic functions over a fixed enumeration of all finite sequences
are all exactly decidable for this representation.

The node enumeration is the graded one of `spaces.node_rank`: nodes are
ordered by (length + entry sum, length, lexicographic).  Each grade is
finite, the rank of a node is computable in closed form, and rank(b|j) is
strictly increasing along any branch b, which is what makes the metric and
the ball-constraint extraction feasible even for astronomically small radii.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress
from operator import itemgetter, ne
from typing import Iterable

from .spaces import BairePoint, MetricSpace, first_disagreement, floor_reciprocal, node_rank, node_weight, shift_node

Node = tuple[int, ...]

EMPTY_NODE: Node = ()


def prefix_closure(nodes: Iterable[Node]) -> frozenset[Node]:
    """The nodes, given as tuples or lists, and their prefixes."""
    return _closure(nodes)[0]


def _closure(nodes: Iterable[Node]) -> tuple[frozenset[Node], tuple[Node, ...]]:
    """The prefix closure of `nodes` and its sorted maximal nodes.  Longest
    first, a node already in `out` (kept prefix-closed) prefixes an earlier
    one; a new one of over 16 entries bisects for its longest present prefix."""
    out: set[Node] = {EMPTY_NODE}
    maximal = []
    for v in sorted(map(tuple, nodes), key=len, reverse=True):
        if v in out:
            continue
        maximal.append(v)
        if len(v) > 16:
            first = bisect_left(range(len(v) + 1), True, key=lambda j: v[:j] not in out)
            out.update(v[:j] for j in range(first, len(v) + 1))
        else:
            while v not in out:
                out.add(v)
                v = v[:-1]
    return frozenset(out), tuple(sorted(maximal)) or (EMPTY_NODE,)


_parent, _last = itemgetter(slice(-1)), itemgetter(-1)


def _off_branches(nodes: frozenset[Node], branches: Iterable[BairePoint]) -> frozenset[Node]:
    """The nodes that are a prefix of none of `branches`.

    Each branch is read once, to the depth of the longest node, and every
    node is compared with that head cut at its own length.
    """
    depth = max(map(len, nodes), default=0) if branches else 0
    for beta in branches:
        cut = beta.head(depth).__getitem__
        nodes = frozenset(compress(nodes, map(ne, nodes, map(cut, map(slice, map(len, nodes))))))
    return nodes


def rank_below(u: Node, bound: int) -> bool:
    """node_rank(u) < bound.

    The ranks of weight-w nodes fill [2^(w-1), 2^w) (the empty node, of
    weight 0, has rank 0), so the weight decides the comparison unless it
    equals the bit length of the bound (of 0 when negative); only then is
    u ranked, and not when the bound is 2^(w-1), the least rank of weight w.
    """
    w, b = node_weight(u), max(bound, 0).bit_length()
    return w < b if w != b else bound & (bound - 1) != 0 and node_rank(u) < bound


def max_entry_below_rank(k: int) -> int:
    """Strict upper bound for entries of nodes with rank < k.

    A node containing entry e has weight >= e + 1, hence rank >= 2^e, so
    entries of nodes below rank k are < k.bit_length().
    """
    return k.bit_length()


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    """Prefix-closed node set, canonical form.

    `finite_part` is the prefix closure of the off-branch nodes (always
    containing the empty node), `maximal` its sorted nodes that parent none
    of it (off-branch unless it is {()}); membership adds every prefix of every
    designated branch.  Two trees denote the same node set exactly when
    their branches and maximal nodes are equal, all that equality and the
    hash read: the designated branches are exactly the infinite branches of
    the node set, since past the finite part every deep prefix must follow
    one of the finitely many branches.  The constructor checks node sets
    from outside; `make_tree` and `generated_by` check only seeds' entries.
    """

    finite_part: frozenset[Node] = field(compare=False)
    branches: frozenset[BairePoint]
    maximal: tuple[Node, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        fp = frozenset(self.finite_part)
        parents = frozenset(map(_parent, filter(None, fp)))
        closed = EMPTY_NODE in fp and fp.issuperset(parents)
        # in a closed set every entry is the last entry of some node
        if min(map(_last if closed else min, filter(None, fp)), default=0) < 0:
            raise ValueError("node entries must be naturals")
        if not closed:
            raise ValueError("finite part must be closed under initial segments")
        fp, maximal = _closure(_off_branches(fp - parents, self.branches))
        object.__setattr__(self, "finite_part", fp)
        object.__setattr__(self, "maximal", maximal)

    def contains(self, u: Node) -> bool:
        return u in self.finite_part or any(branch.starts_with(u) for branch in self.branches)


def _tree(finite_part: frozenset[Node], branches: frozenset[BairePoint], maximal: tuple[Node, ...]) -> Tree:
    """A Tree from fields already in canonical form, unchecked."""
    t = object.__new__(Tree)
    t.__dict__.update(finite_part=finite_part, branches=branches, maximal=maximal)
    return t


def make_tree(nodes: Iterable[Node] = (), branches: Iterable[BairePoint] = ()) -> Tree:
    """The prefixes of `nodes` and `branches`; all entries are in maximal nodes."""
    fp, maximal = _closure(nodes)
    if min(map(min, filter(None, maximal)), default=0) < 0:
        raise ValueError("node entries must be naturals")
    branches = frozenset(branches)
    if branches:
        fp, maximal = _closure(_off_branches(frozenset(maximal), branches))
    return _tree(fp, branches, maximal)


def generated_by(seed: Iterable[Node]) -> Tree:
    """The least prefix-closed node set containing `seed`."""
    seed = tuple(seed)
    if not seed:
        raise ValueError("generating set must be nonempty")
    return make_tree(seed)


def tree_shift(t: Tree) -> Tree:
    """Entrywise +1 on every node and branch (entries >= 1), keeping prefixes and order."""
    return _tree(frozenset(map(shift_node, t.finite_part)), frozenset(b.shift_entries() for b in t.branches),
                 tuple(map(shift_node, t.maximal)))


def terminals(t: Tree) -> frozenset[Node]:
    """Members with no proper extension in the tree.

    Branch prefixes always extend along their branch, and in a
    prefix-closed set any proper extension implies an immediate child, so
    terminals are exactly the off-branch maximal nodes.
    """
    return _off_branches(frozenset(t.maximal), t.branches)


def is_ill_founded(t: Tree) -> bool:
    """The body of this representation is exactly the designated branches."""
    return bool(t.branches)


def body_prefixes(t: Tree, depth: int) -> frozenset[Node]:
    return frozenset(b.head(depth) for b in t.branches)


# ---------------------------------------------------------------------------
# the tree metric
# ---------------------------------------------------------------------------


def _branch_cover_bound(beta: BairePoint, t: Tree) -> int:
    """Depth past which no prefix of `beta` can be a member of `t`."""
    splits = (first_disagreement(beta, other) for other in t.branches)
    return max([*map(len, t.maximal), *(d for d in splits if d is not None)]) + 1


def _least_missing_prefix(beta: BairePoint, t: Tree) -> Node:
    """The shortest prefix of `beta` that is not a member of `t`, for a
    branch `beta` that `t` does not designate.  t is prefix-closed, so the
    heads of `beta` are members up to some length and not beyond; the empty
    head is a member and the head at `_branch_cover_bound` is not."""
    missing = bisect_left(range(_branch_cover_bound(beta, t)), True, key=lambda j: not t.contains(beta.head(j)))
    return beta.head(missing)


def _least_differing_node(a: Tree, b: Tree, limit: int | None = None) -> Node | None:
    """The least node, in the enumeration's order (weight, length,
    lexicographic), that is a member of one tree only; None on equal node
    sets.  It is a finite-part node of one tree outside the other's finite
    part and off its branches, or, for a branch of one tree that the other
    does not designate, the least prefix that the other lacks (deeper ones
    rank higher), found by bisection.  Given a `limit`, nodes longer than it
    may be passed over, so a least node longer than `limit` may come back
    as None or as another node longer than `limit`.
    """
    best = None
    for src, dst in ((a, b), (b, a)):
        nodes = src.finite_part
        if dst.branches and limit is not None:  # drop long nodes before they are hashed and sliced
            nodes = frozenset(compress(nodes, map(limit.__ge__, map(len, nodes))))
        found = _off_branches(nodes - dst.finite_part, dst.branches)
        if src.branches:
            found = chain(found, (_least_missing_prefix(beta, dst) for beta in src.branches - dst.branches
                                  if limit is None or not dst.contains(beta.head(limit))))
        for u in found:
            key = (len(u) + sum(u), len(u), u)
            if best is None or key < best:
                best = key
    return None if best is None else best[2]


def tree_dist(a: Tree, b: Tree) -> Fraction:
    """1/(least differing node rank + 1); 0 exactly on equal node sets."""
    u = _least_differing_node(a, b)
    return Fraction(0) if u is None else Fraction(1, node_rank(u) + 1)


def constrained_members(t: Tree, rank_bound: int) -> frozenset[Node]:
    """Members of `t` with rank below `rank_bound`.

    rank(b|j) is strictly increasing in j (weight strictly grows, and the
    enumeration is graded by weight), so branch prefixes are collected by a
    short scan even when rank_bound is astronomically large; along it, at
    most one prefix has the weight that makes `rank_below` rank it.
    """
    out = {u for u in t.finite_part if node_rank(u) < rank_bound}
    for beta in t.branches:
        j = 0
        while rank_below(beta.head(j), rank_bound):
            out.add(beta.head(j))
            j += 1
    return frozenset(out)


class TreeSpace(MetricSpace):
    """Trees as points, compared through their characteristic functions."""

    name = "tree_space"

    def contains(self, x) -> bool:
        return isinstance(x, Tree)

    def dist(self, x: Tree, y: Tree) -> Fraction:
        return tree_dist(x, y)

    def ball(self, center: Tree, radius: Fraction):
        """dist(center, p) < radius: no node ranked below floor(1/radius), so
        none longer than that bound's bit length, tells the trees apart."""
        bound = ball_rank_bound(radius)
        limit = bound.bit_length()

        def inside(p: Tree) -> bool:
            u = _least_differing_node(center, p, limit)
            return u is None or not rank_below(u, bound)

        return inside


TREE_SPACE = TreeSpace()


def ball_rank_bound(radius: Fraction) -> int:
    """Open tree-metric ball of `radius` constrains ranks below this."""
    return floor_reciprocal(radius)
