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

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter, ne
from typing import Iterable

from .spaces import BairePoint, first_disagreement, floor_reciprocal, node_rank, node_weight, shift_node

Node = tuple[int, ...]

EMPTY_NODE: Node = ()


def prefix_closure(nodes: Iterable[Node]) -> frozenset[Node]:
    out: set[Node] = {EMPTY_NODE}
    for u in nodes:
        v = tuple(u)
        while v not in out:  # prefixes of a present node are already present
            out.add(v)
            v = v[:-1]
    return frozenset(out)


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
    u ranked.
    """
    w, b = node_weight(u), max(bound, 0).bit_length()
    return w < b if w != b else node_rank(u) < bound


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
    containing the empty node); membership adds every prefix of every
    designated branch.  Two trees denote the same node set exactly when
    their canonical fields are equal: the designated branches are exactly
    the infinite branches of the node set, since past the finite part every
    deep prefix must follow one of the finitely many branches.
    """

    finite_part: frozenset[Node]
    branches: frozenset[BairePoint]

    def __post_init__(self) -> None:
        fp = frozenset(self.finite_part)
        closed = EMPTY_NODE in fp and fp.issuperset(map(_parent, filter(None, fp)))
        # in a closed set every entry is the last entry of some node
        if min(map(_last if closed else min, filter(None, fp)), default=0) < 0:
            raise ValueError("node entries must be naturals")
        if not closed:
            raise ValueError("finite part must be closed under initial segments")
        if self.branches:  # without branches every node is off-branch
            fp = prefix_closure(_off_branches(fp, self.branches))
        object.__setattr__(self, "finite_part", fp)

    def contains(self, u: Node) -> bool:
        return u in self.finite_part or any(branch.starts_with(u) for branch in self.branches)

    def max_finite_length(self) -> int:
        return max(map(len, self.finite_part), default=0)


def make_tree(nodes: Iterable[Node] = (), branches: Iterable[BairePoint] = ()) -> Tree:
    return Tree(prefix_closure(tuple(tuple(u) for u in nodes)), frozenset(branches))


def generated_by(seed: Iterable[Node]) -> Tree:
    """The least prefix-closed node set containing `seed`."""
    seed = tuple(tuple(u) for u in seed)
    if not seed:
        raise ValueError("generating set must be nonempty")
    return Tree(prefix_closure(seed), frozenset())


def tree_shift(t: Tree) -> Tree:
    """Entrywise +1 on every node and branch; all shifted entries >= 1."""
    return Tree(
        frozenset(map(shift_node, t.finite_part)),
        frozenset(b.shift_entries() for b in t.branches),
    )


def terminals(t: Tree) -> frozenset[Node]:
    """Members with no proper extension in the tree.

    Branch prefixes always extend along their branch, and in a
    prefix-closed set any proper extension implies an immediate child, so
    terminals are exactly the off-branch nodes that parent nothing.
    """
    return _off_branches(t.finite_part.difference(map(_parent, filter(None, t.finite_part))), t.branches)


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
    bound = t.max_finite_length()
    for other in t.branches:
        d = first_disagreement(beta, other)
        if d is not None:
            bound = max(bound, d)
    return bound + 1


def _least_missing_prefix(beta: BairePoint, t: Tree) -> Node:
    """The shortest prefix of `beta` that is not a member of `t`, for a
    branch `beta` that `t` does not designate.

    t is prefix-closed, so beta.head(j) is a member for every j below some
    least missing length and for none from there on.  The empty node is a
    member and the head at `_branch_cover_bound` is not, so bisecting that
    range finds the least missing length.
    """
    lo, hi = 0, _branch_cover_bound(beta, t)  # head(lo) is a member, head(hi) is not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if t.contains(beta.head(mid)):
            lo = mid
        else:
            hi = mid
    return beta.head(hi)


def tree_dist(a: Tree, b: Tree) -> Fraction:
    """1/(least differing node rank + 1); 0 exactly on equal node sets.

    Differing nodes are located among: the finite-part nodes of one tree
    outside the other's finite part and off its branches (a node in both
    finite parts is a member of both trees), and per uncovered branch, the
    least prefix that is not a member of the other tree (memberships of
    deeper prefixes only stay different, and rank increases with depth, so
    the least rank per branch is there; `_least_missing_prefix` finds it by
    bisection).  Candidates are keyed by the enumeration's order (weight,
    length, lexicographic), and only the least one is ranked.
    """
    if a == b:
        return Fraction(0)
    candidates: list[tuple[int, int, Node]] = []
    for src, dst in ((a, b), (b, a)):
        for u in _off_branches(src.finite_part - dst.finite_part, dst.branches):
            candidates.append((len(u) + sum(u), len(u), u))
        for beta in src.branches - dst.branches:
            u = _least_missing_prefix(beta, dst)
            candidates.append((len(u) + sum(u), len(u), u))
    if not candidates:
        raise AssertionError("unequal trees must differ at some node")
    return Fraction(1, node_rank(min(candidates)[2]) + 1)


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


class TreeSpace:
    """Trees as points, compared through their characteristic functions."""

    name = "tree_space"

    def contains(self, x) -> bool:
        return isinstance(x, Tree)

    def dist(self, x: Tree, y: Tree) -> Fraction:
        return tree_dist(x, y)


TREE_SPACE = TreeSpace()


def ball_rank_bound(radius: Fraction) -> int:
    """Open tree-metric ball of `radius` constrains ranks below this."""
    return floor_reciprocal(radius)
