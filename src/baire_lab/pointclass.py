"""Symbolic pointclass inference over a small set-expression language.

An expression is one node type, `SetExpr(op, args)`: an atom `open closed
analytic coanalytic borel` with no operands, or a combinator `compl Uc Ic
union inter preimg proj` applied to its operands (countable union and
intersection take one operand standing for a uniform family).  `classify`
computes the least class derivable from the standard closure rules and
returns it with a machine-readable derivation trace — one rule
instantiation per node, in post-order.  The result is always a guaranteed
upper bound; the engine knows nothing about hardness.  `replay_trace`
re-derives a trace from its own rule table: every step's expression must
parse, its rule must belong to that expression's op and apply to its
inputs, the inputs must be the results of its operands' steps, and the
trace must end at a single root.

Classes are Sigma/Pi/Delta at finite levels of the additive-multiplicative
hierarchy (side 0) and of the projective hierarchy (side 1), ordered by
the inclusion lattice: Delta below Sigma and Pi at the same index, all
three below Delta at the next index, and everything on side 0 below
Delta1(1) (every set built from countable operations on open sets is
bi-analytic).
"""

from __future__ import annotations

from dataclasses import dataclass

# ---------------------------------------------------------------------------
# pointclasses and their order
# ---------------------------------------------------------------------------

SIGMA, PI, DELTA = "Sigma", "Pi", "Delta"


@dataclass(frozen=True)
class Pointclass:
    kind: str   # Sigma | Pi | Delta
    side: int   # 0 = Borel-side, 1 = projective
    index: int  # >= 1

    def __post_init__(self) -> None:
        if self.kind not in (SIGMA, PI, DELTA):
            raise ValueError("kind must be Sigma, Pi or Delta")
        if self.side not in (0, 1) or self.index < 1:
            raise ValueError("side in {0,1} and index >= 1 required")

    def __str__(self) -> str:
        return "%s%d(%d)" % (self.kind, self.side, self.index)


def parse_pointclass(text: str) -> Pointclass:
    import re

    m = re.fullmatch(r"(Sigma|Pi|Delta)([01])\((\d+)\)", text.strip())
    if m is None:
        raise ValueError("malformed pointclass: %r" % text)
    return Pointclass(m.group(1), int(m.group(2)), int(m.group(3)))


def sigma0(n: int) -> Pointclass:
    return Pointclass(SIGMA, 0, n)


def pi0(n: int) -> Pointclass:
    return Pointclass(PI, 0, n)


def sigma1(n: int) -> Pointclass:
    return Pointclass(SIGMA, 1, n)


def pi1(n: int) -> Pointclass:
    return Pointclass(PI, 1, n)


def delta1(n: int) -> Pointclass:
    return Pointclass(DELTA, 1, n)


def leq(a: Pointclass, b: Pointclass) -> bool:
    """Reflexive-transitive closure of the inclusion lattice.

    Within one side: strictly smaller index always fits (through the Delta
    of the next level); at equal index, Delta fits under Sigma and Pi.
    Everything on side 0 fits under every projective class; nothing
    projective ever fits back into side 0.
    """
    if a.side == b.side:
        if a.index < b.index:
            return True
        if a.index > b.index:
            return False
        return a.kind == b.kind or a.kind == DELTA
    return a.side == 0


def join(a: Pointclass, b: Pointclass) -> Pointclass:
    """Least class of the lattice containing both."""
    if leq(a, b):
        return b
    if leq(b, a):
        return a
    # incomparable: same side and index with {Sigma, Pi} mixed
    return Pointclass(DELTA, a.side, a.index + 1)


def dual(pc: Pointclass) -> Pointclass:
    if pc.kind == DELTA:
        return pc
    return Pointclass(PI if pc.kind == SIGMA else SIGMA, pc.side, pc.index)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

# operand count of every name, atoms first: it checks a node, drives the
# parser and lists the names a ParseError expects, in this order
ARITY = {"open": 0, "closed": 0, "analytic": 0, "coanalytic": 0, "borel": 0,
         "compl": 1, "Uc": 1, "Ic": 1, "union": 2, "inter": 2, "preimg": 1, "proj": 1}


@dataclass(frozen=True)
class SetExpr:
    """An atom (no operands) or a combinator applied to its operands."""

    op: str
    args: tuple["SetExpr", ...] = ()

    def __post_init__(self) -> None:
        if self.op not in ARITY:
            raise ValueError("unknown name %r" % self.op)
        if len(self.args) != ARITY[self.op] or not all(isinstance(a, SetExpr) for a in self.args):
            raise ValueError("%s takes %d set expression(s)" % (self.op, ARITY[self.op]))

    def __str__(self) -> str:
        if not self.args:
            return self.op
        return "%s(%s)" % (self.op, ",".join(map(str, self.args)))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__("%s at offset %d%s" % (
            message, offset,
            "; expected one of: %s" % ", ".join(expected) if expected else "",
        ))
        self.offset = offset
        self.expected = expected


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ParseError("syntax error", self.pos, (token,))
        self.pos += len(token)

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if start == self.pos:
            raise ParseError("syntax error", start, tuple(ARITY))
        return self.text[start:self.pos]

    def expr(self) -> SetExpr:
        start = self.pos
        name = self.word()
        if name not in ARITY:
            raise ParseError("unknown name %r" % name, start, tuple(ARITY))
        args = []
        for k in range(ARITY[name]):
            self.expect("," if k else "(")
            args.append(self.expr())
        if args:
            self.expect(")")
        return SetExpr(name, tuple(args))

    def parse(self) -> SetExpr:
        out = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)
        return out


def parse_expr(text: str) -> SetExpr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    expr: str
    rule: str
    inputs: tuple[str, ...]
    result: str


def _ctbl_union_class(g: Pointclass) -> tuple[Pointclass, str]:
    if g.side == 1:
        return g, "countable-union-projective-stable"
    if g.kind == SIGMA:
        return g, "countable-union-sigma-stable"
    if g.kind == DELTA:
        return Pointclass(SIGMA, 0, g.index), "countable-union-within-sigma"
    return Pointclass(SIGMA, 0, g.index + 1), "countable-union-pi-step"


def _ctbl_inter_class(g: Pointclass) -> tuple[Pointclass, str]:
    if g.side == 1:
        return g, "countable-intersection-projective-stable"
    if g.kind == PI:
        return g, "countable-intersection-pi-stable"
    if g.kind == DELTA:
        return Pointclass(PI, 0, g.index), "countable-intersection-within-pi"
    return Pointclass(PI, 0, g.index + 1), "countable-intersection-sigma-step"


def _proj_class(g: Pointclass) -> tuple[Pointclass, str]:
    if g.side == 0 or (g.side == 1 and g.kind == DELTA and g.index == 1):
        return sigma1(1), "projection-of-borel-is-analytic"
    if g.kind == SIGMA:
        return g, "projection-sigma1-stable"
    if g.kind == PI:
        return Pointclass(SIGMA, 1, g.index + 1), "projection-pi1-step"
    return Pointclass(SIGMA, 1, g.index), "projection-within-sigma1"


# op -> function from the operand classes to (class, rule name)
_STEP = {
    "open": lambda: (sigma0(1), "atom-open"),
    "closed": lambda: (pi0(1), "atom-closed"),
    "analytic": lambda: (sigma1(1), "atom-analytic"),
    "coanalytic": lambda: (pi1(1), "atom-coanalytic"),
    "borel": lambda: (delta1(1), "atom-borel"),
    "compl": lambda g: (dual(g), "complement-swap"),
    "Uc": _ctbl_union_class,
    "Ic": _ctbl_inter_class,
    "union": lambda gl, gr: (join(gl, gr), "finite-union-join"),
    "inter": lambda gl, gr: (join(gl, gr), "finite-intersection-join"),
    "preimg": lambda g: (g, "preimage-invariant"),
    "proj": _proj_class,
}


def classify(e: SetExpr, trace: list[TraceStep] | None = None) -> Pointclass:
    """Least derivable upper bound with an auditable rule trace."""
    rec = trace.append if trace is not None else (lambda step: None)

    def go(node: SetExpr) -> Pointclass:
        ins = [go(a) for a in node.args]
        out, rule = _STEP[node.op](*ins)
        rec(TraceStep(str(node), rule, tuple(map(str, ins)), str(out)))
        return out

    return go(e)


# the complement's op for every op but compl and proj
_DUAL_OP = {"open": "closed", "closed": "open", "analytic": "coanalytic",
            "coanalytic": "analytic", "borel": "borel", "Uc": "Ic", "Ic": "Uc",
            "union": "inter", "inter": "union", "preimg": "preimg"}


def dual_expr(e: SetExpr) -> SetExpr:
    """An expression denoting the complement, by De Morgan push-through.

    Projections have no dual combinator in the grammar, so a complement
    node is left in place there; everywhere else the complement is pushed
    to the atoms.
    """
    if e.op == "compl":
        return e.args[0]
    if e.op == "proj":
        return SetExpr("compl", (e,))
    return SetExpr(_DUAL_OP[e.op], tuple(map(dual_expr, e.args)))


# ---------------------------------------------------------------------------
# independent trace replay
# ---------------------------------------------------------------------------


def _if(side: int, kind: str | None, result):
    """A one-operand rule for classes of this side and kind (None: any kind)."""
    return lambda g: result(g) if g.side == side and kind in (None, g.kind) else None


# rule -> (the op it belongs to, a map from the operand classes to the
# result, or to None where the rule does not apply); written apart from
# classify's table so that a replay re-derives every step
_RULES = {
    "atom-open": ("open", lambda: sigma0(1)),
    "atom-closed": ("closed", lambda: pi0(1)),
    "atom-analytic": ("analytic", lambda: sigma1(1)),
    "atom-coanalytic": ("coanalytic", lambda: pi1(1)),
    "atom-borel": ("borel", lambda: delta1(1)),
    "complement-swap": ("compl", dual),
    "countable-union-projective-stable": ("Uc", _if(1, None, lambda g: g)),
    "countable-union-sigma-stable": ("Uc", _if(0, SIGMA, lambda g: g)),
    "countable-union-within-sigma": ("Uc", _if(0, DELTA, lambda g: sigma0(g.index))),
    "countable-union-pi-step": ("Uc", _if(0, PI, lambda g: sigma0(g.index + 1))),
    "countable-intersection-projective-stable": ("Ic", _if(1, None, lambda g: g)),
    "countable-intersection-pi-stable": ("Ic", _if(0, PI, lambda g: g)),
    "countable-intersection-within-pi": ("Ic", _if(0, DELTA, lambda g: pi0(g.index))),
    "countable-intersection-sigma-step": ("Ic", _if(0, SIGMA, lambda g: pi0(g.index + 1))),
    "finite-union-join": ("union", join),
    "finite-intersection-join": ("inter", join),
    "preimage-invariant": ("preimg", lambda g: g),
    "projection-of-borel-is-analytic": ("proj", lambda g: sigma1(1) if leq(g, delta1(1)) else None),
    "projection-sigma1-stable": ("proj", _if(1, SIGMA, lambda g: g)),
    "projection-pi1-step": ("proj", _if(1, PI, lambda g: sigma1(g.index + 1))),
    "projection-within-sigma1": ("proj", _if(1, DELTA, lambda g: sigma1(g.index))),
}


def replay_trace(trace: list[TraceStep]) -> bool:
    """Check that the trace derives one expression bottom-up, by the rules.

    Each step's expression must parse, and its rule must belong to that
    expression's op and apply to the input classes.  The inputs must be
    the results of the steps for its operands, which come before it in
    post-order.  The last step must be the only root.
    """
    done: list[tuple[SetExpr, str]] = []  # derived, not yet used as an operand
    for step in trace:
        try:
            e = parse_expr(step.expr)
            ins = [parse_pointclass(t) for t in step.inputs]
        except ValueError:
            return False
        op, result = _RULES.get(step.rule, (None, None))
        operands = done[len(done) - len(e.args):]
        if (op != e.op or len(operands) != len(e.args)
                or [x for x, _ in operands] != list(e.args)
                or [r for _, r in operands] != list(step.inputs)):
            return False
        out = result(*ins)
        if out is None or str(out) != step.result:
            return False
        del done[len(done) - len(e.args):]
        done.append((e, step.result))
    return len(done) == 1
