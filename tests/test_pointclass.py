"""Pointclass lattice, parser, classifier, derivation traces."""

import random

import pytest

from baire_lab.pointclass import (
    ARITY,
    ParseError,
    Pointclass,
    SetExpr,
    TraceStep,
    classify,
    delta1,
    dual,
    dual_expr,
    join,
    leq,
    parse_expr,
    parse_pointclass,
    pi0,
    pi1,
    replay_trace,
    sigma0,
    sigma1,
)


def delta0(n: int) -> Pointclass:
    return Pointclass("Delta", 0, n)


def iter_subexpressions(e: SetExpr):
    yield e
    for a in e.args:
        yield from iter_subexpressions(a)


ALL_CLASSES = [
    Pointclass(kind, side, index)
    for kind in ("Sigma", "Pi", "Delta")
    for side in (0, 1)
    for index in range(1, 5)
]


# --- parser --------------------------------------------------------------------


def test_parse_examples():
    opn, closed = SetExpr("open"), SetExpr("closed")
    assert parse_expr("Ic(Uc(open))") == SetExpr("Ic", (SetExpr("Uc", (opn,)),))
    assert parse_expr("proj(inter(analytic, Ic(open)))") == SetExpr(
        "proj", (SetExpr("inter", (SetExpr("analytic"), SetExpr("Ic", (opn,)))),))
    assert parse_expr("  union( open ,closed )  ") == SetExpr("union", (opn, closed))


def test_set_expressions_refuse_unknown_names_and_wrong_operand_counts():
    with pytest.raises(ValueError, match="unknown name 'frogs'"):
        SetExpr("frogs")
    with pytest.raises(ValueError, match="union takes 2"):
        SetExpr("union", (SetExpr("open"),))
    with pytest.raises(ValueError, match="open takes 0"):
        SetExpr("open", (SetExpr("closed"),))
    assert str(SetExpr("union", (SetExpr("open"), SetExpr("Uc", (SetExpr("closed"),))))) == "union(open,Uc(closed))"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("Uc(")
    assert err.value.offset == 3
    assert "open" in err.value.expected
    with pytest.raises(ParseError):
        parse_expr("union(open)")
    with pytest.raises(ParseError):
        parse_expr("open closed")
    with pytest.raises(ParseError):
        parse_expr("frogs(open)")


# --- the order -------------------------------------------------------------------


def test_leq_examples():
    assert leq(sigma0(1), delta0(2))
    assert leq(sigma0(7), delta1(1))
    assert not leq(sigma1(1), pi1(1))
    assert leq(pi0(3), sigma0(4))
    assert leq(delta1(1), sigma1(1))
    assert not leq(sigma1(1), sigma0(9))
    assert leq(sigma0(2), pi1(3))


def test_leq_is_a_partial_order():
    for a in ALL_CLASSES:
        assert leq(a, a)
        for b in ALL_CLASSES:
            if leq(a, b) and leq(b, a):
                assert a == b
            for c in ALL_CLASSES:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c)


def test_join_is_least_upper_bound():
    for a in ALL_CLASSES:
        for b in ALL_CLASSES:
            if a.side != b.side and a.side == 1:
                continue  # join is used left-to-right on one side at a time
            j = join(a, b)
            assert leq(a, j) and leq(b, j)
            for c in ALL_CLASSES:
                if leq(a, c) and leq(b, c):
                    assert leq(j, c)


def test_dual_is_an_involution_fixing_delta():
    for a in ALL_CLASSES:
        assert dual(dual(a)) == a
        if a.kind == "Delta":
            assert dual(a) == a
        else:
            assert dual(a) != a


# --- classification ----------------------------------------------------------------


FLAGSHIPS = [
    ("Ic(Uc(open))", "Pi0(2)"),
    ("Uc(Ic(Uc(open)))", "Sigma0(3)"),
    ("proj(inter(analytic, Ic(open)))", "Sigma1(1)"),
    ("compl(proj(inter(analytic, Uc(closed))))", "Pi1(1)"),
    ("Ic(Ic(union(compl(Uc(closed)), open)))", "Pi0(2)"),
]


def test_flagship_classifications():
    for text, expected in FLAGSHIPS:
        assert str(classify(parse_expr(text))) == expected, text


def test_atom_classifications():
    for text, expected in [("open", "Sigma0(1)"), ("closed", "Pi0(1)"),
                           ("analytic", "Sigma1(1)"), ("coanalytic", "Pi1(1)"),
                           ("borel", "Delta1(1)")]:
        assert str(classify(parse_expr(text))) == expected


def test_projection_rules():
    assert str(classify(parse_expr("proj(open)"))) == "Sigma1(1)"
    assert str(classify(parse_expr("proj(borel)"))) == "Sigma1(1)"
    assert str(classify(parse_expr("proj(coanalytic)"))) == "Sigma1(2)"
    assert str(classify(parse_expr("proj(analytic)"))) == "Sigma1(1)"
    assert str(classify(parse_expr("proj(compl(proj(coanalytic)))"))) == "Sigma1(3)"


COMBINATORS = ("compl", "Uc", "Ic", "union", "inter", "preimg", "proj")


def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return SetExpr(rng.choice(["open", "closed", "analytic", "coanalytic", "borel"]))
    op = COMBINATORS[rng.randrange(7)]
    return SetExpr(op, tuple(random_expr(rng, depth - 1) for _ in range(ARITY[op])))


def test_duality_on_generated_corpus():
    rng = random.Random(307)
    for _ in range(400):
        e = random_expr(rng, rng.randrange(6))
        assert classify(dual_expr(e)) == dual(classify(e)), str(e)


def test_classification_monotone_under_substitution():
    rng = random.Random(311)

    def substitute(e, target, replacement):
        if e is target:
            return replacement
        return SetExpr(e.op, tuple(substitute(a, target, replacement) for a in e.args))

    lowerings = {"analytic": SetExpr("borel"), "coanalytic": SetExpr("borel"),
                 "borel": SetExpr("open")}
    checked = 0
    for _ in range(300):
        e = random_expr(rng, rng.randrange(5))
        subs = [s for s in iter_subexpressions(e)
                if s.op in lowerings]
        if not subs:
            continue
        target = rng.choice(subs)
        low = substitute(e, target, lowerings[target.op])
        assert leq(classify(low), classify(e)), (str(e), str(low))
        checked += 1
    assert checked > 100


def test_traces_replay_and_tampering_is_caught():
    rng = random.Random(313)
    for _ in range(100):
        e = random_expr(rng, rng.randrange(5))
        trace = []
        classify(e, trace)
        assert replay_trace(trace)
    trace = []
    classify(parse_expr("Ic(Uc(open))"), trace)
    bad = list(trace)
    bad[-1] = TraceStep(bad[-1].expr, bad[-1].rule, bad[-1].inputs, "Pi0(7)")
    assert not replay_trace(bad)
    bad2 = list(trace)
    bad2[0] = TraceStep(bad2[0].expr, "made-up-rule", bad2[0].inputs, bad2[0].result)
    assert not replay_trace(bad2)
    closed = TraceStep("closed", "atom-closed", (), "Pi0(1)")
    forgeries = [
        # a rule whose input does not fit: a countable union of closed sets is not closed
        [closed, TraceStep("Uc(closed)", "countable-union-sigma-stable", ("Pi0(1)",), "Pi0(1)")],
        # a rule of another combinator
        [closed, TraceStep("Uc(closed)", "countable-intersection-pi-stable", ("Pi0(1)",), "Pi0(1)")],
        # an input that no step derives, and closed is Pi0(1)
        [TraceStep("Uc(closed)", "countable-union-pi-step", ("Sigma0(1)",), "Sigma0(2)")],
        # inputs that are not the operand's result
        [closed, TraceStep("Uc(closed)", "countable-union-sigma-stable", ("Sigma0(1)",), "Sigma0(1)")],
        # two roots
        [closed, closed],
        # an expression that does not parse
        [TraceStep("frogs", "atom-open", (), "Sigma0(1)")],
    ]
    for forged in forgeries:
        assert not replay_trace(forged), forged
    assert replay_trace([closed, TraceStep("Uc(closed)", "countable-union-pi-step", ("Pi0(1)",), "Sigma0(2)")])


def test_pointclass_text_roundtrip():
    for pc in ALL_CLASSES:
        assert parse_pointclass(str(pc)) == pc
    with pytest.raises(ValueError):
        parse_pointclass("Sigma2(1)")
