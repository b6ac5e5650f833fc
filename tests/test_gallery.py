"""Gallery constructions: values, witnesses, probes, combinators."""

from fractions import Fraction as Fr

import pytest

from baire_lab.checkers import (
    ContinuityWitness,
    DiscontinuityWitness,
    RefutationEntry,
    check_continuity,
    check_strong_continuity,
    continuity_points,
    default_config,
    eval_star,
    full_domain_probes,
    tabular_multimap,
    verify_witness,
)
from baire_lab.closed_sets import dist_to_set, finite_real
from baire_lab.gallery import (
    AffineMap,
    BaireEmbedding,
    IdentityEmbedding,
    SpikeSet,
    baire_embed,
    compose,
    dense_split,
    embed_chain,
    extend,
    f1_graph_member,
    f1_multimap,
    f1_value,
    f1_witness,
    f2_multimap,
    f2_probes,
    f2_witness,
    first_one_at_or_after,
    flip_completion,
    harmonic_spike_set,
    has_infinitely_many_ones,
    interval_of,
    is_dyadic,
    is_non_third,
    last_one_index,
    n_of,
    ones_completion,
    _row_constraint_length,
    r_membership,
    spike_function,
    whole_space_repr,
)
from baire_lab.instances import parse_baire_point, parse_tree_literal, set_from_json, witness_to_json
from baire_lab.spaces import (
    REAL_LINE,
    UNIT_INTERVAL,
    BairePoint,
    eventually_zero,
    floor_reciprocal,
    grid_dist,
    grid_point,
    rational_points_space,
)
from baire_lab.trees import is_ill_founded, make_tree, generated_by, tree_dist

from corpus_helpers import branch_bearing_trees, enumerate_prefix_closed_trees, grid_corpus
from scan_oracle import (
    grid_dist_by_row_scans,
    ones_completion_by_cells,
    row_constraint_length_by_steps,
    scan_search,
    tree_dist_ranking_every_candidate,
)

CFG = default_config()

ALL_ZERO = grid_point()
ALL_ONES = grid_point(default=((), (1,)))


# --- grid instance -----------------------------------------------------------


def test_grid_row_analysis():
    assert last_one_index(BairePoint((1, 0, 1), (0,))) == 2
    assert has_infinitely_many_ones(BairePoint((), (0, 1)))
    assert first_one_at_or_after(BairePoint((), (0, 1)), 5) == 5
    assert first_one_at_or_after(BairePoint((1,), (0,)), 1) is None
    assert first_one_at_or_after(BairePoint((1, 1, 0), (0, 1)), 2) == 4
    assert first_one_at_or_after(BairePoint((0, 0, 1), (0,)), 0) == 2


def test_r_membership_examples():
    assert not r_membership(grid_point({0: ((1, 0, 1), (0,))}), 0)
    assert r_membership(grid_point({0: ((), (0, 1))}), 0)
    assert not r_membership(ALL_ZERO, 0)
    assert r_membership(ALL_ONES, 5)


def test_n_of_examples():
    assert n_of(ALL_ZERO, 0) == 1
    assert n_of(grid_point({0: ((1,), (0,))}), 0) == 2
    assert n_of(grid_point({0: ((0, 0, 1), (0,))}), 0) == 4
    with pytest.raises(ValueError):
        n_of(ALL_ONES, 0)


def test_f1_value_examples():
    assert f1_value(ALL_ZERO, 1).points == {Fr(1, 2), Fr(3, 2)}
    assert f1_value(ALL_ONES, 1).points == {Fr(0), Fr(1)}
    mixed = grid_point({0: ((1,), (0,))}, default=((), (1,)))
    assert f1_value(mixed, 1).points == {Fr(1, 3), Fr(1)}


def test_graph_membership_examples():
    assert f1_graph_member(ALL_ONES, Fr(0))
    assert f1_graph_member(ALL_ZERO, Fr(1, 2))
    assert not f1_graph_member(ALL_ZERO, Fr(0))
    assert f1_graph_member(grid_point({0: ((1,), (0,))}), Fr(1, 3))
    assert not f1_graph_member(ALL_ZERO, Fr(1, 3))
    assert not f1_graph_member(ALL_ZERO, Fr(-1))


def test_f1_graph_agrees_with_enumeration():
    # the window-M enumeration matches the graph predicate for y < M + 1;
    # at y = M + 1 exactly, the graph can see the first row past the window
    grid_ys = [Fr(k, 12) for k in range(0, 108)]
    for gamma in grid_corpus()[:20]:
        value = f1_value(gamma, 8)
        for y in grid_ys:
            assert f1_graph_member(gamma, y) == (y in value.points), (gamma, y)
        boundary = Fr(9)
        assert f1_graph_member(gamma, boundary) == r_membership(gamma, 9)
        assert boundary not in value.points


def test_f1_witness_classification_and_verification():
    mm = f1_multimap(8)
    for gamma in grid_corpus():
        witness = f1_witness(gamma, 8, CFG)
        expected_continuous = any(r_membership(gamma, m) for m in range(9))
        assert isinstance(witness, ContinuityWitness) == expected_continuous
        assert verify_witness(mm, gamma, witness, mm.default_probes), gamma


def test_f1_search_checkers_agree_with_witness_kind():
    mm = f1_multimap(8)
    for gamma in grid_corpus()[:12]:
        expected = "continuous" if any(r_membership(gamma, m) for m in range(9)) else "discontinuous"
        assert check_continuity(mm, gamma, CFG, mm.default_probes).kind == expected


def test_f1_completions_stay_in_their_balls():
    for gamma in (ALL_ZERO, grid_point({2: ((0, 1, 1), (0,))})):
        for radius in (Fr(1), Fr(1, 3), Fr(1, 64)):
            bound = floor_reciprocal(radius)
            beta = ones_completion(gamma, bound)
            assert grid_dist(gamma, beta) < radius or beta == gamma
            flipped = flip_completion(gamma, bound)
            assert grid_dist(gamma, flipped) == Fr(1, bound + 1)
            assert flipped != gamma


def test_grid_dist_matches_the_row_scan_oracle_on_witness_completions():
    probes = f1_multimap(8).default_probes
    rows = 0
    for gamma in grid_corpus()[:24]:
        witness = f1_witness(gamma, 8, CFG)
        if not isinstance(witness, ContinuityWitness):
            continue
        for _, delta in witness.table:
            for beta in probes(gamma, delta):
                assert grid_dist(gamma, beta) == grid_dist_by_row_scans(gamma, beta), (gamma, delta)
                rows = max(rows, len(beta.explicit_rows))
    assert rows > 200  # the smallest witness deltas complete hundreds of rows


def test_row_constraint_length_agrees_with_stepping():
    for m in range(40):
        for bound in range(3000):
            assert _row_constraint_length(m, bound) == row_constraint_length_by_steps(m, bound), (m, bound)


def test_ones_completion_agrees_with_cell_by_cell():
    for gamma in grid_corpus():
        for delta in CFG.delta_schedule:
            bound = floor_reciprocal(delta)
            assert ones_completion(gamma, bound) == ones_completion_by_cells(gamma, bound), (gamma, delta)


def test_f1_witness_entries_serialise_as_built_one_by_one():
    for gamma in grid_corpus():
        witness = f1_witness(gamma, 8, CFG)
        if isinstance(witness, ContinuityWitness):
            continue
        entries = []
        for m in range(9):
            offset = Fr(1, n_of(gamma, m) + 1)
            counterexamples = tuple((delta, ones_completion_by_cells(gamma, floor_reciprocal(delta)))
                                    for delta in CFG.delta_schedule)
            entries.append(RefutationEntry(m + offset, offset / 2, counterexamples))
        one_by_one = DiscontinuityWitness(tuple(entries), CFG.net_resolution, Fr(0),
                                          min(e.eps_star for e in entries))
        assert witness_to_json(witness) == witness_to_json(one_by_one), gamma


def test_f1_witness_discontinuity_level_matches_construction():
    w = f1_witness(ALL_ZERO, 8, CFG)
    # every row is zero, so every offset is 1/2 and the level is a quarter
    assert all(entry.eps_star == Fr(1, 4) for entry in w.entries)
    assert w.margin == Fr(1, 4)


# --- tree instance -----------------------------------------------------------


def small_tree_corpus():
    corpus = [make_tree(nodes) for nodes in enumerate_prefix_closed_trees(2, 2)]
    branch_trees = [
        make_tree(branches=[eventually_zero(())]),
        make_tree(branches=[parse_baire_point(";1")]),
        make_tree([(2,)], branches=[eventually_zero(())]),
        make_tree(branches=[eventually_zero(()), parse_baire_point("1;0")]),
    ]
    return corpus + branch_trees


def test_f2_witness_classification_and_verification():
    mm = f2_multimap()
    for tree in small_tree_corpus():
        witness = f2_witness(tree, CFG)
        assert isinstance(witness, ContinuityWitness) == is_ill_founded(tree)
        assert verify_witness(mm, tree, witness, mm.default_probes), tree


def test_f2_value_examples():
    mm = f2_multimap()
    assert dist_to_set(eventually_zero(()), mm.value(make_tree())) == 0
    assert dist_to_set(parse_baire_point("1;0"), mm.value(make_tree([(0,)]))) == 0
    assert dist_to_set(parse_baire_point(";1"), mm.value(make_tree(branches=[eventually_zero(())]))) == 0


def test_tree_body_json_decodes_to_the_f2_value():
    mm = f2_multimap()
    for literal in ("tree{nodes:[(),(0),(0,1),(2)]}", 'tree{nodes:[(),(3)],branches:["0;1"]}'):
        tree = parse_tree_literal(literal)
        assert set_from_json({"kind": "tree_body", "tree": literal}, "value") == mm.value(tree)
    assert is_ill_founded(tree)


def test_verify_witness_builds_each_ball_once():
    cases = [(f1_multimap(), ALL_ONES, f1_witness(ALL_ONES, 8, CFG)),
             (f2_multimap(), make_tree(branches=[eventually_zero(())]),
              f2_witness(make_tree(branches=[eventually_zero(())]), CFG))]
    for mm, x, witness in cases:
        radii = []

        def counting(center, radius, gen=mm.default_probes):
            radii.append(radius)
            return gen(center, radius)

        assert isinstance(witness, ContinuityWitness)
        assert verify_witness(mm, x, witness, counting)
        assert len(radii) == len(witness.table), mm.name


def test_f2_search_checker_matches_ill_foundedness():
    mm = f2_multimap()
    for tree in [make_tree(), generated_by([(0, 1), (0, 2)]),
                 make_tree(branches=[eventually_zero(())]),
                 make_tree([(3,)], branches=[parse_baire_point("0;1")])]:
        expected = "continuous" if is_ill_founded(tree) else "discontinuous"
        assert check_continuity(mm, tree, CFG, mm.default_probes).kind == expected


def test_tree_dist_ranks_the_least_differing_node_of_certificate_probes():
    """tree_dist against ranking every candidate, with each branch's least
    missing prefix found by a step-by-step scan, on each branch-bearing
    center and its own f2 probes: deep heads, and a sprout one node past a
    head, put that prefix at or below the top of the bisected range."""
    gen = f2_probes()
    for center in branch_bearing_trees():
        radii = [delta for _, delta in f2_witness(center, CFG).table]
        for radius in radii + [Fr(1), Fr(1, 7)]:
            trunk, sprout = gen(center, radius)
            for a, b in ((center, trunk), (center, sprout), (trunk, sprout)):
                assert tree_dist(a, b) == tree_dist_ranking_every_candidate(a, b), (center, radius)


def test_f2_probes_stay_in_their_balls():
    mm = f2_multimap()
    gen = mm.default_probes
    for tree in [make_tree(), generated_by([(0, 1)]), make_tree(branches=[eventually_zero(())])]:
        for radius in (Fr(1), Fr(1, 7), Fr(1, 200)):
            for probe in gen(tree, radius):
                assert tree_dist(tree, probe) < radius or probe == tree


# --- the nested-interval embedding --------------------------------------------


def test_interval_scheme_examples():
    assert interval_of(()) == (Fr(0), Fr(1))
    assert interval_of((0,)) == (Fr(0), Fr(1, 4))
    assert interval_of((1,)) == (Fr(1, 2), Fr(5, 8))


def _nodes_up_to(length, entry_bound):
    out = [()]
    frontier = [()]
    for _ in range(length):
        frontier = [u + (c,) for u in frontier for c in range(entry_bound)]
        out.extend(frontier)
    return out


def test_interval_family_properties():
    nodes = _nodes_up_to(4, 4)
    intervals = {u: interval_of(u) for u in nodes}
    for u, (a, b) in intervals.items():
        assert a < b
        assert b - a <= Fr(1, 2 ** len(u))
        if u:
            pa, pb = intervals[u[:-1]]
            assert pa <= a and b <= pb
    for u in nodes:
        for w in nodes:
            if u != w and not (u[: len(w)] == w or w[: len(u)] == u):
                (a, b), (c, d) = intervals[u], intervals[w]
                assert b < c or d < a, (u, w)


def test_embedded_point_lies_in_every_chain_interval():
    pi = BaireEmbedding()
    points = [
        eventually_zero(()),
        parse_baire_point("1;0"),
        parse_baire_point(";1"),
        parse_baire_point("0,2;1,3"),
        parse_baire_point(";2"),
        parse_baire_point("3;0,1"),
    ]
    for alpha in points:
        x = pi.apply(alpha)
        for depth in range(40):
            a, b = baire_embed(alpha, depth)
            assert a <= x <= b
    assert pi.apply(parse_baire_point("1;0")) == Fr(1, 2)
    assert pi.apply(parse_baire_point(";1")) == Fr(4, 7)


def test_embed_chain_is_every_truncation_interval():
    for text in ("1;0", ";1", "0,2;1,3", "3;0,1", "1,2;3"):
        alpha = parse_baire_point(text)
        for depth in (0, 1, 7, 40):
            assert embed_chain(alpha, depth) == [baire_embed(alpha, d) for d in range(depth + 1)]


def test_embedding_bicontinuity_modulus():
    from baire_lab.spaces import baire_dist

    pi = BaireEmbedding()
    pts = [eventually_zero(()), parse_baire_point("1;0"), parse_baire_point(";1"),
           parse_baire_point("0,1;0"), parse_baire_point("2;1"), parse_baire_point("0;2")]
    for alpha in pts:
        for beta in pts:
            if alpha == beta:
                continue
            d = baire_dist(alpha, beta)
            n = floor_reciprocal(d) - 1  # agreement length: d = 1/(n+1)
            a, b = interval_of(alpha.head(n))
            for p in (pi.apply(alpha), pi.apply(beta)):
                assert a <= p <= b
            assert abs(pi.apply(alpha) - pi.apply(beta)) <= b - a
            # disjoint at the disagreement depth forces separation
            ia = interval_of(alpha.head(n + 1))
            ib = interval_of(beta.head(n + 1))
            assert ia[1] < ib[0] or ib[1] < ia[0]


# --- extension ----------------------------------------------------------------


def _extend_instance():
    sup_space = rational_points_space([Fr(0), Fr(1, 1024), Fr(1, 2), Fr(1)])
    sub_space = rational_points_space([Fr(0), Fr(1, 1024), Fr(1, 2)])
    values = {
        Fr(0): finite_real(0),
        Fr(1, 1024): finite_real(1),   # inside every schedule ball around 0
        Fr(1, 2): finite_real(0),
    }
    f0 = tabular_multimap(sub_space, values, UNIT_INTERVAL)
    emb = IdentityEmbedding(sub_space, sup_space)
    return f0, emb, sup_space


def test_extend_values_and_transfer():
    f0, emb, sup_space = _extend_instance()
    f1 = extend(f0, emb, sup_space)
    for x0 in f0.domain.points():
        assert f1.value(x0) == f0.value(x0)
    assert f1.value(Fr(1)) == whole_space_repr(UNIT_INTERVAL)

    probes0 = full_domain_probes(f0.domain)
    probes1 = full_domain_probes(sup_space)
    base = continuity_points(f0, f0.domain.points(), "plain", CFG, probes0)
    extended = continuity_points(f1, sup_space.points(), "plain", CFG, probes1)
    for x0, verdict in base.items():
        assert extended[x0].kind == verdict.kind
    assert extended[Fr(1)].kind == "continuous"  # off-image points are continuous
    assert base[Fr(0)].kind == "discontinuous"   # the instance is not degenerate


def test_extend_rejects_unrepresentable_codomain():
    sub = rational_points_space([Fr(0), Fr(1)])
    sup = rational_points_space([Fr(0), Fr(1), Fr(2)])
    f0 = tabular_multimap(sub, {Fr(0): finite_real(0), Fr(1): finite_real(1)}, REAL_LINE)
    with pytest.raises(ValueError):
        extend(f0, IdentityEmbedding(sub, sup), sup)


def test_identity_embedding_validation():
    sub = rational_points_space([Fr(0), Fr(1)])
    other = rational_points_space([Fr(0), Fr(5)])
    with pytest.raises(ValueError):
        IdentityEmbedding(sub, other)


# --- composition ----------------------------------------------------------------


def test_affine_composition_preserves_verdicts():
    f0, emb, sup_space = _extend_instance()
    probes = full_domain_probes(f0.domain)
    for pi in (AffineMap(Fr(1, 2), Fr(0)), AffineMap(Fr(-1, 3), Fr(1))):
        composed = compose(pi, f0)
        for x in f0.domain.points():
            before = check_continuity(f0, x, CFG, probes).kind
            after = check_continuity(composed, x, CFG, probes).kind
            assert before == after, (pi, x)
    with pytest.raises(ValueError):
        AffineMap(Fr(0), Fr(1))


def test_baire_embedding_composition_preserves_verdicts():
    mm = f2_multimap()
    composed = compose(BaireEmbedding(), mm)
    for tree in [make_tree(), generated_by([(0,)]),
                 make_tree(branches=[eventually_zero(())]),
                 make_tree(branches=[parse_baire_point(";1")])]:
        before = check_continuity(mm, tree, CFG, mm.default_probes).kind
        after = check_continuity(composed, tree, CFG, mm.default_probes).kind
        assert before == after, tree
        assert before == ("continuous" if is_ill_founded(tree) else "discontinuous")


def test_composed_value_example():
    mm = f2_multimap()
    composed = compose(BaireEmbedding(), mm)
    value = composed.value(make_tree([(0,)]))  # body point (1,0,0,...)
    assert value == finite_real(Fr(1, 2))  # left endpoint of the (1)-interval


def test_a_compose_chain_applies_every_change_innermost_first():
    mm = f2_multimap()
    inner = compose(BaireEmbedding(), mm)
    chain = compose(AffineMap(Fr(3), Fr(0)), compose(AffineMap(Fr(1), Fr(1)), inner))
    assert chain.value(make_tree([(0,)])) == finite_real(Fr(9, 2))  # 3 * (1/2 + 1)
    assert chain.name == "compose(compose(compose(f2)))"
    assert inner.value(make_tree([(0,)])) == finite_real(Fr(1, 2))  # the chain left it as it was


# --- dense split and spikes -----------------------------------------------------


def test_membership_rules():
    assert is_dyadic(Fr(1, 2)) and is_dyadic(Fr(0)) and is_dyadic(Fr(3, 8))
    assert not is_dyadic(Fr(1, 3)) and not is_dyadic(Fr(1, 6))
    assert is_non_third(Fr(1, 2)) and not is_non_third(Fr(1, 3)) and not is_non_third(Fr(1))


def test_dense_split_values():
    ds = dense_split("dyadic")
    assert ds.value(Fr(1, 2)) == finite_real(0)
    assert ds.value(Fr(1, 3)) == finite_real(0, 1)
    assert ds.value(Fr(0)) == finite_real(0)


def test_dense_split_strong_verdicts_follow_membership():
    for variant, member in (("dyadic", is_dyadic), ("thirds", is_non_third)):
        ds = dense_split(variant)
        samples = [Fr(0), Fr(1), Fr(1, 2), Fr(1, 3), Fr(2, 3), Fr(3, 8), Fr(5, 6), Fr(1, 7)]
        for x in samples:
            expected = "continuous" if member(x) else "discontinuous"
            got = check_strong_continuity(ds, x, CFG, ds.default_probes)
            assert got.kind == expected, (variant, x)
            plain = check_continuity(ds, x, CFG, ds.default_probes)
            assert plain.kind == "continuous"  # plain continuity holds everywhere


def test_spike_values_and_errors():
    sp = spike_function(harmonic_spike_set())
    assert sp.value(Fr(1)) == finite_real(1)
    assert sp.value(Fr(1, 2)) == finite_real(Fr(1, 2))
    assert sp.value(Fr(2, 5)) == finite_real(0)
    with pytest.raises(ValueError):
        SpikeSet((Fr(1), Fr(1)))
    with pytest.raises(ValueError):
        SpikeSet((Fr(1, 3),), harmonic_tail_start=0)  # collides with the tail


def test_spike_plain_verdicts_follow_complement():
    spikes = harmonic_spike_set()
    sp = spike_function(spikes)
    samples = [Fr(1), Fr(1, 2), Fr(1, 3), Fr(1, 5), Fr(2, 5), Fr(3, 7), Fr(0), Fr(2)]
    for x in samples:
        expected = "discontinuous" if spikes.index_of(x) is not None else "continuous"
        got = check_continuity(sp, x, CFG, sp.default_probes)
        assert got.kind == expected, x


def test_verdicts_stable_under_alternative_dense_enumeration(monkeypatch):
    from baire_lab import checkers

    def alt_dense(s):
        # sign-flipped rational enumeration: 0, -1, 1, -1/2, 1/2, ...
        value = REAL_LINE.dense_point(s)
        return -value

    mm = f1_multimap(8)
    for gamma in (ALL_ONES, ALL_ZERO):
        default = eval_star(mm, gamma, CFG, mm.default_probes)
        with monkeypatch.context() as patched:
            patched.setattr(checkers, "_dense_search", lambda codomain, cfg: scan_search(alt_dense, cfg))
            swapped = eval_star(mm, gamma, CFG, mm.default_probes)
        assert default.kind == swapped.kind


# --- criterion evaluators on gallery instances -----------------------------------


def test_eval_star_on_grid_instances():
    mm = f1_multimap(8)
    assert eval_star(mm, ALL_ONES, CFG, mm.default_probes).kind == "continuous"
    assert eval_star(mm, ALL_ZERO, CFG, mm.default_probes).kind == "discontinuous"


def test_eval_dagger_on_grid_instance():
    from baire_lab.checkers import eval_dagger

    mm = f1_multimap(8)
    out = eval_dagger(mm, ALL_ONES, CFG, mm.default_probes)
    assert out.kind == "continuous"
    assert out.report["stage"] <= 1


def test_eval_strong_star_on_dense_split():
    from baire_lab.checkers import eval_strong_star

    ds = dense_split("dyadic")
    assert eval_strong_star(ds, Fr(1, 2), CFG, ds.default_probes).kind == "continuous"
    refuted = eval_strong_star(ds, Fr(1, 3), CFG, ds.default_probes)
    assert refuted.kind == "discontinuous"
    # the failing dense point approximates the value 1 that dyadic
    # perturbations cannot track
    assert refuted.report["y"] == Fr(1)


def test_constant_map_passes_strong_star():
    from baire_lab.checkers import eval_strong_star

    space = rational_points_space([Fr(0), Fr(1)])
    mm = tabular_multimap(space, {p: finite_real(0) for p in space.points()}, REAL_LINE)
    assert eval_strong_star(mm, Fr(0), CFG, full_domain_probes(space)).kind == "continuous"


def test_everywhere_continuous_maps_extend_continuously():
    # derived property of the extension: a map continuous at every point
    # of the embedded subspace stays continuous everywhere after extending
    sup_space = rational_points_space([Fr(0), Fr(1, 1024), Fr(1, 2), Fr(1)])
    sub_space = rational_points_space([Fr(0), Fr(1, 1024), Fr(1, 2)])
    values = {p: finite_real(0, Fr(1, 2)) for p in sub_space.points()}
    f0 = tabular_multimap(sub_space, values, UNIT_INTERVAL)
    base = continuity_points(f0, sub_space.points(), "plain", CFG, full_domain_probes(sub_space))
    assert all(v.kind == "continuous" for v in base.values())
    lifted = extend(f0, IdentityEmbedding(sub_space, sup_space), sup_space)
    out = continuity_points(lifted, sup_space.points(), "plain", CFG, full_domain_probes(sup_space))
    assert all(v.kind == "continuous" for v in out.values())
