"""Tree combinatorics, the node enumeration, and the tree metric."""

import itertools
import random
from fractions import Fraction as Fr

import pytest

from baire_lab import spaces
from baire_lab.checkers import default_config
from baire_lab.gallery import f2_probes
from baire_lab.instances import format_tree_literal, parse_baire_point, parse_tree_literal, point_from_json
from baire_lab.spaces import eventually_zero, node_rank, node_unrank
from baire_lab.trees import (
    EMPTY_NODE,
    TREE_SPACE,
    Tree,
    ball_rank_bound,
    body_prefixes,
    constrained_members,
    generated_by,
    is_ill_founded,
    make_tree,
    max_entry_below_rank,
    prefix_closure,
    rank_below,
    terminals,
    tree_dist,
    tree_shift,
)

from corpus_helpers import branch_bearing_trees, enumerate_prefix_closed_trees
from scan_oracle import (
    lex_rank_by_values,
    maximal_by_scan,
    outcome,
    terminals_by_scan,
    tree_dist_ranking_every_candidate,
    tree_finite_part_by_generators,
)


def finite_part_of_tree(finite_part, branches):
    return Tree(finite_part, branches).finite_part


def check_seeded_trees_against_the_constructor(seeds, branches):
    """`make_tree(seeds, branches)` and, without branches, `generated_by(seeds)`
    against `Tree(prefix_closure(seeds), branches)`: the same ValueError
    message, or the same finite part, maximal nodes, terminals, equality and
    hash, which are also the oracles'.  Returns the constructor's outcome."""
    built = outcome(lambda: Tree(prefix_closure(seeds), branches))
    seeded = [outcome(make_tree, seeds, branches)]
    if seeds and not branches:
        seeded.append(outcome(generated_by, seeds))
    if isinstance(built, str):
        assert seeded == [built] * len(seeded), (seeds, branches)
        return built
    closure = {EMPTY_NODE}
    for u in map(tuple, seeds):
        while u not in closure:
            closure.add(u)
            u = u[:-1]
    assert built.finite_part == tree_finite_part_by_generators(frozenset(closure), branches)
    assert built.maximal == maximal_by_scan(built.finite_part)
    assert terminals(built) == terminals_by_scan(built)
    for t in seeded:
        assert (t.finite_part, t.maximal, terminals(t)) == (built.finite_part, built.maximal, terminals(built))
        assert t == built and hash(t) == hash(built) and t.branches == built.branches
    return built


def random_tree(rng, with_branches=False):
    seeds = [
        tuple(rng.randrange(3) for _ in range(rng.randrange(1, 4)))
        for _ in range(rng.randrange(1, 4))
    ]
    branches = []
    if with_branches and rng.random() < 0.5:
        branches.append(parse_baire_point("%s;%d" % (
            ",".join(str(rng.randrange(2)) for _ in range(rng.randrange(2))) or "",
            rng.randrange(2),
        )))
    return make_tree(seeds, branches)


def test_generated_by_examples():
    assert generated_by([(2, 5)]).finite_part == {(), (2,), (2, 5)}
    assert generated_by([()]).finite_part == {()}
    assert generated_by([(0, 1), (0, 2)]).finite_part == {(), (0,), (0, 1), (0, 2)}
    with pytest.raises(ValueError):
        generated_by([])


def test_generated_by_is_least_prefix_closed_superset():
    rng = random.Random(31)
    for _ in range(1000):
        seeds = [tuple(rng.randrange(3) for _ in range(rng.randrange(4)))
                 for _ in range(rng.randrange(1, 4))]
        tree = generated_by(seeds)
        nodes = tree.finite_part
        # contains the seeds, prefix-closed
        assert all(u in nodes for u in seeds)
        assert all(u[:-1] in nodes for u in nodes if u)
        # least: brute-force closure is the same set
        brute = {u[:i] for u in seeds for i in range(len(u) + 1)} | {EMPTY_NODE}
        assert nodes == brute


def test_tree_shift_examples():
    assert tree_shift(make_tree()).finite_part == {()}
    assert tree_shift(make_tree([(0, 1)])).finite_part == {(), (1,), (1, 2)}
    shifted = tree_shift(make_tree(branches=[eventually_zero(())]))
    assert shifted.branches == {parse_baire_point(";1")}


def test_tree_shift_is_an_order_isomorphism_with_positive_entries():
    rng = random.Random(37)
    for _ in range(200):
        t = random_tree(rng, with_branches=True)
        shifted = tree_shift(t)
        mapping = {u: tuple(e + 1 for e in u) for u in t.finite_part}
        assert set(mapping.values()) == set(shifted.finite_part)
        for u in t.finite_part:
            assert len(mapping[u]) == len(u)
            for v in t.finite_part:
                assert (v[:len(u)] == u) == (mapping[v][:len(u)] == mapping[u])
        assert all(e >= 1 for u in shifted.finite_part for e in u)
        assert all(e >= 1 for b in shifted.branches for e in b.head(8))


def test_terminals_examples():
    assert terminals(make_tree()) == {()}
    assert terminals(make_tree([(0, 1)])) == {(0, 1)}
    on_branch = make_tree([(2, 5)], branches=[parse_baire_point("2,5;0")])
    assert terminals(on_branch) == frozenset()


def test_finite_trees_have_terminals():
    rng = random.Random(41)
    for _ in range(300):
        t = random_tree(rng)
        assert terminals(t)


def test_ill_foundedness_and_bodies():
    assert not is_ill_founded(make_tree())
    assert not is_ill_founded(generated_by([(0, 1, 2)]))
    branch = parse_baire_point(";1")
    t = make_tree(branches=[branch])
    assert is_ill_founded(t)
    assert body_prefixes(t, 2) == {(1, 1)}
    assert body_prefixes(make_tree([(3,)]), 1) == frozenset()
    two = make_tree(branches=[eventually_zero(()), parse_baire_point("1;0")])
    assert body_prefixes(two, 1) == {(0,), (1,)}


def test_well_founded_trees_have_empty_bodies():
    rng = random.Random(43)
    for _ in range(100):
        t = random_tree(rng)
        for depth in (1, 2, 5):
            assert body_prefixes(t, depth) == frozenset()


def test_validation_rejects_non_closed_finite_parts():
    with pytest.raises(ValueError):
        Tree(frozenset({(), (0, 1)}), frozenset())
    with pytest.raises(ValueError):
        Tree(frozenset({(0,)}), frozenset())  # missing the empty node
    with pytest.raises(ValueError):
        Tree(frozenset({(), (0,), (0, -1)}), frozenset())  # entries are naturals


def test_tree_constructor_matches_the_node_by_node_checks():
    """Drawn node sets, closed or not, with or without the empty node, some
    with a negative entry, and the empty set; with and without branches.
    The canonical finite part, or the message raised, is the oracle's, and
    the trees built from the same nodes as seeds match the constructor's."""
    rng = random.Random(67)
    branches = [frozenset(), frozenset({parse_baire_point(";0")}), frozenset({parse_baire_point("1;0,1")}),
                frozenset({parse_baire_point("0;1"), parse_baire_point(";2")})]
    messages = set()
    for _ in range(3000):
        nodes = {tuple(rng.randrange(3) for _ in range(rng.randrange(4))) for _ in range(rng.randrange(6))}
        if rng.random() < 0.5:
            nodes = set(prefix_closure(nodes))
        if nodes and rng.random() < 0.1:
            u = rng.choice(sorted(nodes, key=len, reverse=True))
            nodes.add(u[:-1] + (-1,) if u else (-1,))
        b = rng.choice(branches)
        got = outcome(finite_part_of_tree, frozenset(nodes), b)
        assert got == outcome(tree_finite_part_by_generators, frozenset(nodes), b), (nodes, b)
        if isinstance(got, str):
            messages.add(got)
        check_seeded_trees_against_the_constructor(sorted(nodes), b)
    assert messages == {"ValueError: node entries must be naturals",
                        "ValueError: finite part must be closed under initial segments"}
    assert outcome(finite_part_of_tree, frozenset(), frozenset()) == (
        "ValueError: finite part must be closed under initial segments")


def test_terminals_and_tree_dist_match_the_oracles_with_and_without_branches():
    rng = random.Random(71)
    trees = [random_tree(rng, with_branches=True) for _ in range(120)] + branch_bearing_trees()
    assert any(t.branches for t in trees) and any(not t.branches for t in trees)
    for t in trees:
        assert terminals(t) == terminals_by_scan(t), t
    for _ in range(600):
        a, b = rng.choice(trees), rng.choice(trees)
        assert tree_dist(a, b) == tree_dist_ranking_every_candidate(a, b), (a, b)


F2_CENTERS = ['tree{nodes:[()],branches:[";0"]}', 'tree{nodes:[()],branches:["2,1;0,1"]}',
              'tree{nodes:[(),(2)],branches:["0;1","1;0"]}']


def f2_deep_probes():
    """Each center of F2_CENTERS with the trunks and sprouts that
    `gallery.f2_probes` emits around it at every delta of the default
    schedule: chains of more than 260 nodes along each branch."""
    gen = f2_probes()
    out = []
    for text in F2_CENTERS:
        center = parse_tree_literal(text)
        out.append((center, [p for delta in default_config().delta_schedule for p in gen(center, delta)]))
    return out


def test_tree_constructor_matches_the_node_by_node_checks_on_deep_trunks():
    """The f2 trunks and sprouts, under no branches and under each center's
    branches; and deep chains made unclosed by a dropped middle node or by
    a node holding -1 at a non-last position, whose entry error must come
    before the closure error, as in the node-by-node order.  Each node set
    also seeds `make_tree` and `generated_by`, which close it and must match
    the constructor on its closure: the same tree, or the entry error."""
    centers = f2_deep_probes()
    branch_sets = [frozenset()] + [center.branches for center, _ in centers]
    entries = "ValueError: node entries must be naturals"
    closure = "ValueError: finite part must be closed under initial segments"
    for _, probes in centers:
        assert max(len(u) for p in probes for u in p.finite_part) > 260
        for p in probes:
            for b in branch_sets:
                got = outcome(finite_part_of_tree, p.finite_part, b)
                assert got == outcome(tree_finite_part_by_generators, p.finite_part, b), (p, b)
                assert check_seeded_trees_against_the_constructor(list(p.finite_part), b).finite_part == got
        deep = max(probes[-1].finite_part, key=len)
        bad = deep[:100] + (-1,) + deep[101:]
        cases = [(probes[-1].finite_part | {bad}, entries),
                 (probes[-1].finite_part - {deep[:50]}, closure),
                 (probes[-1].finite_part - {deep[:50]} | {bad}, entries),
                 (probes[-1].finite_part | {bad[:i] for i in range(101, len(bad) + 1)}, entries),
                 (frozenset([EMPTY_NODE, bad]), entries),
                 (frozenset([bad[:i] for i in range(1, len(bad) + 1)]), entries)]
        for nodes, message in cases:
            for b in branch_sets:
                assert outcome(finite_part_of_tree, nodes, b) == message
                assert outcome(tree_finite_part_by_generators, nodes, b) == message
                seeded = check_seeded_trees_against_the_constructor(list(nodes), b)
                assert seeded == message or message == closure


def test_trees_from_drawn_seeds_match_the_constructor():
    """Seeds of 0 to 300 entries, some following a branch for a stretch, with
    duplicates, nested prefixes, a node given as a list and now and then a
    negative entry; with and without branches.  Trees with the same node set
    are equal, and trees with different ones are not."""
    rng = random.Random(97)
    pool = [parse_baire_point(text) for text in (";0", "1;0,1", "0;1", ";2", "2,1;0,1")]
    made = []
    for _ in range(300):
        branches = frozenset(rng.sample(pool, rng.choice([0, 0, 1, 2])))
        seeds = []
        for _ in range(rng.randrange(1, 5)):
            length = rng.choice([0, 1, 16, 17, 261, rng.randrange(301)])
            head = rng.choice(pool).head(length) if rng.random() < 0.4 else ()
            seeds.append(head + tuple(rng.randrange(3) for _ in range(length - len(head) + rng.randrange(3))))
        seeds += [u[:rng.randrange(len(u) + 1)] for u in rng.sample(seeds, rng.randrange(len(seeds) + 1))]
        seeds += rng.sample(seeds, rng.randrange(len(seeds) + 1))
        if rng.random() < 0.1:
            u = rng.choice(seeds)
            k = rng.randrange(len(u) + 1)
            seeds.append(u[:k] + (-1,) + u[k + 1:])
        rng.shuffle(seeds)
        seeds[0] = list(seeds[0])
        t = check_seeded_trees_against_the_constructor(seeds, branches)
        if not isinstance(t, str):
            made.append(t)
    assert any(max(map(len, t.maximal)) > 261 for t in made) and any(t.branches for t in made)
    for a, b in zip(made, made[1:] + made[:1]):
        same = a.finite_part == b.finite_part and a.branches == b.branches
        assert (a == b) == same and (hash(a) == hash(b) or not same)


@pytest.mark.parametrize("literal", [
    'tree{nodes:[()],branches:["1;1"]}',  # 7,819 calls when trees re-checked their closure
    "tree{nodes:[(),(0),(0,1),(2)]}",  # 368
])
def test_f2_checks_build_no_parent_tuple(monkeypatch, literal):
    """A deterministic work count for the tree kernels: the calls of the
    parent-tuple helper `trees._parent` while f2 is checked in plain and star
    mode from a cleared value cache.  Every probe is built from seeds, closed
    by construction, and `terminals` reads the maximal nodes, so none is
    made; the counts in the comments were made when each tree re-checked
    its closure and `terminals` subtracted every parent."""
    from baire_lab import closed_sets, gallery, trees
    from baire_lab.checkers import check_continuity, eval_star

    f2, cfg, center = gallery.f2_multimap(), default_config(), parse_tree_literal(literal)
    calls = []

    def counted(u, original=trees._parent):
        calls.append(None)
        return original(u)

    closed_sets.tree_body_points.cache_clear()
    monkeypatch.setattr(trees, "_parent", counted)
    kinds = [check(f2, center, cfg, f2.default_probes).kind for check in (check_continuity, eval_star)]
    monkeypatch.undo()
    assert kinds == (["continuous", "inconclusive"] if center.branches else ["discontinuous"] * 2)
    assert len(calls) == 0


def test_terminals_and_tree_dist_match_the_oracles_on_deep_trunks():
    """Each center with its f2 trunks and sprouts, and the last trunk and
    sprout under the branches of every center (each keeps only its
    off-branch nodes): terminals on all; tree_dist from the center to each,
    between probes in emission order, and from the last trunk and sprout
    to the re-branched trees and to every center."""
    centers = f2_deep_probes()
    for center, probes in centers:
        rebranched = [Tree(p.finite_part, other.branches) for p in probes[-2:] for other, _ in centers]
        for t in [center, *probes, *rebranched]:
            assert terminals(t) == terminals_by_scan(t), t
        pairs = [(center, t) for t in probes + rebranched] + list(zip(probes, probes[1:]))
        pairs += [(p, t) for p in probes[-2:] for t in rebranched + [other for other, _ in centers]]
        for a, b in pairs:
            assert tree_dist(a, b) == tree_dist_ranking_every_candidate(a, b), (a, b)


def test_canonical_representation_identifies_equal_node_sets():
    branch = eventually_zero(())
    a = make_tree([(0,), (0, 0)], branches=[branch])
    b = make_tree([], branches=[branch])
    assert a == b and tree_dist(a, b) == 0
    c = make_tree([(0, 5)], branches=[branch])  # off-branch node kept
    assert c != b
    assert (0,) in c.finite_part  # prefix of an off-branch node stays


# --- node enumeration ----------------------------------------------------------


def test_node_rank_roundtrip_and_order():
    for k in range(2000):
        u = node_unrank(k)
        assert node_rank(u) == k
    # graded by weight, then length, then lexicographic
    prev = None
    for k in range(500):
        u = node_unrank(k)
        key = (len(u) + sum(u), len(u), u)
        if prev is not None:
            assert prev < key
        prev = key


def rank_layer_nodes():
    """Seeded random nodes, every short node over {0..3}, and deep branch
    prefixes of the length an ill-founded certificate pins."""
    rng = random.Random(61)
    nodes = [tuple(rng.randrange(5) for _ in range(rng.randrange(41))) for _ in range(20000)]
    nodes += [u for length in range(6) for u in itertools.product(range(4), repeat=length)]
    branches = {beta for t in branch_bearing_trees() for beta in t.branches}
    nodes += [beta.head(j) for beta in branches for j in range(256, 262)]
    return nodes


def test_node_rank_agrees_with_the_per_value_sum(monkeypatch):
    nodes = rank_layer_nodes()
    closed_form = [node_rank.__wrapped__(u) for u in nodes]
    monkeypatch.setattr(spaces, "_lex_rank", lex_rank_by_values)
    assert closed_form == [node_rank.__wrapped__(u) for u in nodes]


def test_rank_below_agrees_with_node_rank():
    deep = [beta.head(256) for t in branch_bearing_trees() for beta in t.branches]
    nodes = [EMPTY_NODE] + rank_layer_nodes()[::50] + deep
    for u in nodes:
        rank = node_rank(u)
        bounds = [rank - 1, rank, rank + 1]
        bounds += [2 ** k + d for k in range(301) for d in (-1, 0, 1)]
        for bound in bounds:
            assert rank_below(u, bound) == (rank < bound), (u, bound)


def test_branch_prefix_ranks_increase():
    beta = parse_baire_point("2,0;1,3")
    ranks = [node_rank(beta.head(j)) for j in range(12)]
    assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)


def test_max_entry_below_rank():
    for bound in (1, 2, 7, 100, 2 ** 40):
        cap = max_entry_below_rank(bound)
        for k in range(min(bound, 500)):
            assert all(e < cap for e in node_unrank(k))


def test_constrained_members_agrees_with_direct_filter():
    beta = parse_baire_point(";1")
    t = make_tree([(0, 1), (2,)], branches=[beta])
    certificate_bound = node_rank(beta.head(256)) + 2  # the radius an ill-founded certificate uses
    for bound in (1, 4, 16, 300, 10 ** 9, certificate_bound):
        got = constrained_members(t, bound)
        direct = {u for u in t.finite_part if node_rank(u) < bound}
        j = 0
        while node_rank(beta.head(j)) < bound:
            direct.add(beta.head(j))
            j += 1
        assert got == direct


# --- the tree metric -----------------------------------------------------------


def test_tree_dist_examples():
    a, b = generated_by([(0,)]), generated_by([(1,)])
    # first differing node is (0), the rank-1 node
    assert tree_dist(a, b) == Fr(1, 2)
    assert tree_dist(a, a) == 0


def test_tree_dist_agrees_with_enumeration_scan():
    rng = random.Random(47)
    for _ in range(200):
        a, b = random_tree(rng, True), random_tree(rng, True)
        d = tree_dist(a, b)
        got = next((k for k in range(1 << 12) if a.contains(node_unrank(k)) != b.contains(node_unrank(k))), None)
        if got is None:
            assert d == 0 or d < Fr(1, 1 << 12)
        else:
            assert d == Fr(1, got + 1)


def test_tree_metric_axioms():
    rng = random.Random(53)
    pts = [random_tree(rng, True) for _ in range(12)]
    for a in pts:
        assert tree_dist(a, a) == 0
        for b in pts:
            assert tree_dist(a, b) == tree_dist(b, a)
            if a != b:
                assert tree_dist(a, b) > 0
            for c in pts:
                assert tree_dist(a, c) <= max(tree_dist(a, b), tree_dist(b, c))


def test_tree_space_protocol():
    t = make_tree([(1,)])
    assert TREE_SPACE.contains(t)
    assert point_from_json(TREE_SPACE, format_tree_literal(t)) == t
    assert ball_rank_bound(Fr(1, 4)) == 4


BALL_RADII = default_config().delta_schedule + (Fr(1), Fr(3, 2), Fr(2, 3), Fr(1, 7), Fr(3, 1000))


def test_tree_ball_equals_the_fraction_definition():
    """TREE_SPACE.ball(x, r)(y) is tree_dist(x, y) < r, on the schedule's
    radii and on radii off a power of two, where the equal-weight branch of
    `rank_below` has to rank.  Pairs: each deep center with its f2 trunks,
    sprouts and their re-branched trees, both ways; the branch-bearing
    trees against each other and against every depth-2 ternary tree; and
    drawn shallow trees."""
    rng = random.Random(83)
    centers = f2_deep_probes()
    pairs = []
    for center, probes in centers:
        rebranched = [Tree(p.finite_part, other.branches) for p in probes[-2:] for other, _ in centers]
        pairs += [(center, t) for t in probes + rebranched] + [(t, center) for t in probes + rebranched]
        pairs += [(p, t) for p in probes[-2:] for t in rebranched + [other for other, _ in centers]]
    bearing = branch_bearing_trees()
    ternary = [Tree(nodes, frozenset()) for nodes in enumerate_prefix_closed_trees(3, 2)]
    drawn = [random_tree(rng, with_branches=True) for _ in range(60)]
    pairs += [(a, b) for a in bearing for b in bearing + drawn]
    pairs += [(rng.choice(bearing), t) for t in ternary] + [(t, rng.choice(ternary)) for t in ternary]
    pairs += [(rng.choice(drawn), rng.choice(drawn)) for _ in range(200)]
    assert len(ternary) == 729
    for a, b in pairs:
        d = tree_dist(a, b)
        for radius in BALL_RADII:
            assert TREE_SPACE.ball(a, radius)(b) == (d < radius), (a, b, radius)


def test_tree_ball_ranks_no_node_and_builds_no_fraction_per_probe(monkeypatch):
    """On the schedule's radii, powers of two, the ball test of every f2
    trunk and sprout ranks no node, and no membership call builds or
    compares a Fraction."""
    from baire_lab import trees

    tested = [(center, delta, p) for center, probes in f2_deep_probes()
              for delta in default_config().delta_schedule for p in probes]
    balls = [TREE_SPACE.ball(center, delta) for center, delta, _ in tested]
    work = []

    def counted(name, original):
        def wrapper(*args):
            work.append(name)
            return original(*args)
        return wrapper

    monkeypatch.setattr(trees, "node_rank", counted("node_rank", trees.node_rank))
    monkeypatch.setattr(Fr, "__new__", staticmethod(counted("Fraction", Fr.__new__)))
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fr, name, counted(name, getattr(Fr, name)))
    inside = [ball(p) for ball, (_, _, p) in zip(balls, tested)]
    monkeypatch.undo()
    assert work == []
    assert inside == [tree_dist(center, p) < delta for center, delta, p in tested]


def test_prefix_closure_walks_or_bisects_to_the_same_closure():
    """Long nodes (past 16 entries) bisect for their present prefixes;
    every mix of long and short nodes, in any order, closes the same way."""
    rng = random.Random(89)
    for _ in range(200):
        nodes = [tuple(rng.randrange(3) for _ in range(rng.choice([0, 1, 5, 16, 17, 40])))
                 for _ in range(rng.randrange(1, 6))]
        nodes += [u[:rng.randrange(len(u) + 1)] for u in nodes]
        rng.shuffle(nodes)
        assert prefix_closure(nodes) == {u[:j] for u in nodes for j in range(len(u) + 1)} | {EMPTY_NODE}


# --- literals ------------------------------------------------------------------


def test_tree_literal_roundtrip():
    t = make_tree([(2, 5)], branches=[parse_baire_point("0,1;0")])
    text = format_tree_literal(t)
    assert parse_tree_literal(text) == t
    assert parse_tree_literal("tree{nodes:[(),(0)]}") == make_tree([(0,)])
    with pytest.raises(ValueError):
        parse_tree_literal("tree{nodes:(0)}")
