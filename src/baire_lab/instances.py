"""Every text literal and every JSON wire form: rationals, sequences,
nodes, trees, instance files, value sets, grid points, verdicts,
witnesses, digests.

A rational is "p/q" text, with "/q" left out when q is 1 ("3", "-1/2");
an eventually periodic sequence is "prefix;period", each part
comma-separated naturals ("0,1;0" for 0,1,0,0,...); a node is "(2,5)"; a
tree is `tree{nodes:[(),(0)],branches:["0;1"]}`, either list left out but
not both, spaced between its tokens but not inside a number.  An instance
file bundles a multimap, points to check, a mode, a config, and a probe
spec.  Everything numeric is a rational literal; keys are sorted on
output, so identical inputs produce byte-identical reports.
A `finite_points` space's labels are its points: strings, or, with
`rational_labels`, rationals parsed here once, so that "2/4" names the
point 1/2 and its distance table must be |x - y|; left out, it is derived.
A grid point is an object of bit-string rows or that object's text; a
`tree_body` value is the f2 value at its tree.  Every malformed literal
becomes a `SchemaError` at its field path through `decode_at`.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import Any

from .checkers import (
    MODES,
    CheckConfig,
    ContinuityWitness,
    DiscontinuityWitness,
    MultiMap,
    RefutationEntry,
    Verdict,
    default_config,
    full_domain_probes,
    tabular_multimap,
)
from .closed_sets import Empty, FiniteBaireSet, FiniteRealSet, IntervalUnion, fits_space, tree_body_points
from .gallery import (
    F1_DEFAULT_WINDOW,
    SPLIT_SPECS,
    AffineMap,
    BaireEmbedding,
    IdentityEmbedding,
    SpikeSet,
    compose,
    dense_split,
    extend,
    f1_multimap,
    f2_multimap,
    spike_function,
)
from .spaces import (
    BAIRE_SPACE,
    CANTOR_GRID,
    REAL_LINE,
    UNIT_INTERVAL,
    BairePoint,
    BaireSpace,
    CantorGrid,
    CantorGridPoint,
    FinitePoints,
    real_flavored,
)
from .trees import EMPTY_NODE, TREE_SPACE, Node, Tree, TreeSpace, make_tree


class SchemaError(ValueError):
    """Instance-file violation, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path


F1_MAX_WINDOW = 256  # every f1 value scans the window's rows: one point took 21 s at 512 and 323 s at 2048

_MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def decode_at(path: str, decode, *args, message: str | None = None, prefix: str = "", catch=_MALFORMED):
    """decode(*args), where a malformed literal (a `catch` error, by default
    any _MALFORMED one) becomes a SchemaError at path: `message`, or `prefix`
    and the error's own text.  A constructor that validates decoded objects
    passes catch=ValueError, so that a fault of the program stays a
    traceback.  A SchemaError raised inside passes through unchanged."""
    try:
        return decode(*args)
    except SchemaError:
        raise
    except catch as exc:
        raise SchemaError(path, prefix + str(exc) if message is None else message) from exc


def _natural(value: Any, name: str) -> int:
    """value, a JSON integer or its decimal text, as a natural number.  A JSON
    float or boolean is refused, not truncated, and so is a negative number."""
    if isinstance(value, (bool, float)) or int(value) < 0:
        raise ValueError("%s must be a natural number, got %r" % (name, value))
    return int(value)


def _object(obj: Any, path: str) -> dict:
    """obj, when it is a JSON object; a SchemaError at path otherwise."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a JSON object, not %s" % type(obj).__name__)
    return obj


def _list(obj: Any, path: str) -> list:
    """obj, when it is a JSON list; a SchemaError at path otherwise."""
    if not isinstance(obj, list):
        raise SchemaError(path, "expected a JSON list, not %s" % type(obj).__name__)
    return obj


def _kind(obj: Any, path: str, default: str | None = None) -> str:
    """The "kind" of the JSON object obj, when it is a string; a
    SchemaError at path, or at path.kind, otherwise."""
    kind = _object(obj, path).get("kind", default)
    if not isinstance(kind, str):
        raise SchemaError(path + ".kind", "expected a kind string, got %r" % (kind,))
    return kind


# ---------------------------------------------------------------------------
# text literals
# ---------------------------------------------------------------------------


def parse_rational(text: str) -> Fraction:
    """Parse canonical "p/q" (or bare "p") text.

    Raises ValueError on malformed input, including a zero denominator.
    """
    text = text.strip()
    num_text, slash, den_text = text.partition("/")
    num, den = int(num_text), int(den_text) if slash else 1
    if den == 0:
        raise ValueError("zero denominator in rational literal: %r" % text)
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Canonical text: "p/q", with "/q" omitted for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def _integers(text: str) -> tuple[int, ...]:
    """The comma-separated integers of a sequence part or a node: blank
    text holds none, and an empty entry is refused."""
    return tuple(map(int, text.split(","))) if text.strip() else ()


def parse_baire_point(text: str) -> BairePoint:
    """Parse the "prefix;period" literal, e.g. "0,1;0" for (0,1,0,0,...)."""
    if ";" not in text:
        raise ValueError('expected "prefix;period" literal: %r' % text)
    pre_text, _, per_text = text.partition(";")
    period = _integers(per_text)
    if not period:
        raise ValueError("period part must be nonempty: %r" % text)
    return BairePoint(_integers(pre_text), period)


def format_baire_point(p: BairePoint) -> str:
    return "%s;%s" % (",".join(map(str, p.prefix)), ",".join(map(str, p.period)))


_NODE, _BRANCH = r"\(([^()]*)\)", r'"([^"]*)"'  # a node, its entries captured; a branch, its literal


def format_node(u: Node) -> str:
    return "(%s)" % ",".join(map(str, u))


def parse_node(text: str) -> Node:
    text = text.strip()
    if text in ("ε", "e"):
        return EMPTY_NODE
    m = re.fullmatch(_NODE, text)
    if m is None:
        raise ValueError("malformed node literal: %r" % text)
    return _integers(m.group(1))


def format_tree_literal(t: Tree) -> str:
    nodes = ",".join(format_node(u) for u in sorted(t.finite_part))
    branches = ",".join('"%s"' % format_baire_point(b) for b in sorted(t.branches))
    if branches:
        return "tree{nodes:[%s],branches:[%s]}" % (nodes, branches)
    return "tree{nodes:[%s]}" % nodes


def _spaced_list(name: str, item: str) -> str:
    """A bracketed list of item, comma-separated and spaced between tokens,
    its inside captured under name."""
    return r"\[\s*(?P<%s>(?:%s\s*(?:,\s*%s\s*)*)?)\]" % (name, item, item)


# nodes, then branches after a comma when there are nodes; either list may be left out
_TREE = re.compile(r"\s*tree\s*\{\s*(?:nodes\s*:\s*%s\s*)?(?:(?(nodes),\s*)branches\s*:\s*%s\s*)?\}\s*"
                   % (_spaced_list("nodes", _NODE), _spaced_list("branches", _BRANCH)))


def parse_tree_literal(text: str) -> Tree:
    """Parse `tree{ nodes: [(…),(…)], branches: ["prefix;period", …] }`."""
    m = _TREE.fullmatch(text)
    if m is None:
        raise ValueError("malformed tree literal: %r" % text)
    nodes, branches = m.group("nodes", "branches")
    if nodes is None and branches is None:
        raise ValueError("tree literal needs nodes and/or branches: %r" % text)
    return make_tree(map(_integers, re.findall(_NODE, nodes or "")),
                     map(parse_baire_point, re.findall(_BRANCH, branches or "")))


# ---------------------------------------------------------------------------
# spaces and points
# ---------------------------------------------------------------------------

_SPACES = {
    "real_line": REAL_LINE,
    "unit_interval": UNIT_INTERVAL,
    "baire_space": BAIRE_SPACE,
    "cantor_grid": CANTOR_GRID,
    "tree_space": TREE_SPACE,
}


def space_from_json(obj: dict, path: str = "space"):
    kind = _kind(obj, path)
    if kind in _SPACES:
        return _SPACES[kind]
    if kind == "finite_points":
        labels = _list(obj.get("labels", []), path + ".labels")
        if not all(isinstance(a, str) for a in labels):
            raise SchemaError(path + ".labels", "labels must be strings, got %r" % (labels,))
        rational = obj.get("rational_labels", False)
        if not isinstance(rational, bool):
            raise SchemaError(path + ".rational_labels", "expected true or false, got %r" % (rational,))
        if rational:
            labels = decode_at(path + ".labels", list, map(parse_rational, labels),
                               prefix="expected rational literals: ")
        rows = [_list(row, "%s.table[%d]" % (path, i))
                for i, row in enumerate(_list(obj.get("table", []), path + ".table"))]
        try:  # inline, not through decode_at: the triangle check is the deepest frame of a `compose` chain
            if rational and "table" not in obj:
                table = tuple(tuple(abs(a - b) for b in labels) for a in labels)
            else:
                table = tuple(tuple(parse_rational(d) for d in row) for row in rows)
            return FinitePoints(tuple(labels), table)
        except _MALFORMED as exc:
            raise SchemaError(path, str(exc)) from exc
    raise SchemaError(path + ".kind", "unknown space kind %r" % kind)


def _grid_row(obj: dict) -> BairePoint:
    return BairePoint(tuple(map(int, obj.get("prefix", ""))), tuple(map(int, obj.get("period", "0"))) or (0,))


def _grid_point(obj) -> CantorGridPoint:
    """A grid point from its JSON object, or from that object's text."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    rows = obj.get("explicit_rows", {})
    return CantorGridPoint(tuple((int(m), _grid_row(spec)) for m, spec in rows.items()),
                           _grid_row(obj.get("default_row", {"prefix": "", "period": "0"})))


def _grid_row_to_json(row: BairePoint) -> dict:
    return {"prefix": "".join(map(str, row.prefix)), "period": "".join(map(str, row.period))}


def point_from_json(space, obj: Any, path: str = "point"):
    """A point literal of the space; on the grid, a JSON object or its text."""
    if isinstance(space, CantorGrid) and isinstance(obj, (str, dict)):
        return decode_at(path, _grid_point, obj, catch=(*_MALFORMED, RecursionError))  # deep JSON text
    if not isinstance(obj, str):
        raise SchemaError(path, "expected a point literal string, got %r" % (obj,))
    return decode_at(path, _parse_point, space, obj)


def _parse_point(space, text: str):
    """The point of the space that the literal text names."""
    if isinstance(space, FinitePoints):
        point = parse_rational(text) if space.rational_labels else text
        if not space.contains(point):
            raise ValueError("point %r not in space" % text)
        return point
    if isinstance(space, BaireSpace):
        return parse_baire_point(text)
    if isinstance(space, TreeSpace):
        return parse_tree_literal(text)
    return parse_rational(text)  # the line and the unit interval


def domain_point_from_json(multimap, obj: Any, path: str):
    """A point of the multimap's domain: parsed, then checked to lie in it."""
    point = point_from_json(multimap.domain, obj, path)
    if not multimap.domain.contains(point):
        raise SchemaError(path, "point %r lies outside the domain of %s" % (obj, multimap.name))
    return point


def balls_from_json(codomain, obj: Any, path: str = "test_balls") -> list:
    """Decode the [center, radius] pairs of lower-Fell mode; every center
    must lie in the codomain and every radius be a positive rational
    literal."""
    if not obj:
        raise SchemaError(path, "fell mode needs test balls")
    if not isinstance(obj, list):
        raise SchemaError(path, "expected a list of [center, radius] pairs")
    balls = []
    for i, entry in enumerate(obj):
        where = "%s[%d]" % (path, i)
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError(where, "a test ball is a [center, radius] pair, got %r" % (entry,))
        center = point_from_json(codomain, entry[0], where)
        if not codomain.contains(center):
            raise SchemaError(where, "center %r lies outside the %s codomain" % (entry[0], codomain.name))
        message = "radius must be a positive rational literal, got %r" % (entry[1],)
        radius = decode_at(where, parse_rational, entry[1], message=message)
        if radius <= 0:
            raise SchemaError(where, message)
        balls.append((center, radius))
    return balls


# ---------------------------------------------------------------------------
# multimaps
# ---------------------------------------------------------------------------


def _rational_field(obj: dict, key: str, path: str) -> Fraction:
    literal = obj.get(key)
    return decode_at(path, parse_rational, literal, message="expected a rational literal, got %r" % (literal,))


def set_from_json(obj: Any, path: str):
    """A value set: an object with a kind string whose `points` and
    `intervals`, where given, are lists, and each interval a list."""
    kind = _kind(obj, path)
    _list(obj.get("points", []), path + ".points")
    for i, iv in enumerate(_list(obj.get("intervals", []), path + ".intervals")):
        _list(iv, "%s.intervals[%d]" % (path, i))
    return decode_at(path, _set_of_kind, kind, obj, prefix="not a value set: ")


def _set_of_kind(kind: str, obj: dict):
    if kind == "finite_real":
        return FiniteRealSet(parse_rational(p) for p in obj["points"])
    if kind in ("closed_intervals", "open_intervals"):
        intervals = tuple((parse_rational(a), parse_rational(b)) for a, b in obj["intervals"])
        return IntervalUnion(intervals, kind == "closed_intervals")
    if kind == "finite_baire":
        return FiniteBaireSet(frozenset(parse_baire_point(p) for p in obj["points"]))
    if kind == "tree_body":
        return FiniteBaireSet(tree_body_points(parse_tree_literal(obj["tree"])))
    if kind == "empty":
        return Empty()
    raise ValueError("unknown set kind: %r" % (kind,))


def _coordinate_change(obj: dict, codomain, path: str):
    """The injective coordinate change of `compose`, checked against the
    codomain of the map it is composed with."""
    kind = _kind(obj, path)
    if kind == "affine":
        if not real_flavored(codomain):
            raise SchemaError(path, "affine needs a real_line, unit_interval or rational finite_points base "
                                    "codomain, not %s" % codomain.name)
        scale = _rational_field(obj, "scale", path + ".scale")
        if scale == 0:
            raise SchemaError(path + ".scale", "scale must be nonzero, so that the map is injective")
        return AffineMap(scale, _rational_field(obj, "shift", path + ".shift"))
    if kind == "baire_embed":
        if not isinstance(codomain, BaireSpace):
            raise SchemaError(path, "baire_embed needs a baire_space base codomain, not %s" % codomain.name)
        return BaireEmbedding()
    raise SchemaError(path + ".kind", "unknown coordinate change %r" % kind)


def multimap_from_json(obj: dict, path: str = "multimap") -> MultiMap:
    kind = _kind(obj, path)
    if kind == "f1":
        message = "expected a non-negative integer, got %r" % (obj.get("window"),)
        window = decode_at(path + ".window", _natural, obj.get("window", F1_DEFAULT_WINDOW), "window", message=message)
        if window > F1_MAX_WINDOW:
            raise SchemaError(path + ".window", "window must be at most %d, got %d" % (F1_MAX_WINDOW, window))
        return f1_multimap(window)
    if kind == "f2":
        return f2_multimap()
    if kind == "dense_split":
        variant = obj.get("variant", "dyadic")
        if not isinstance(variant, str) or variant not in SPLIT_SPECS:
            raise SchemaError(path + ".variant", "unknown dense_split variant %r" % variant)
        return dense_split(variant)
    if kind == "spike":
        tail = obj.get("harmonic_tail_start")
        if tail is not None:
            tail = decode_at(path + ".harmonic_tail_start", _natural, tail, "harmonic_tail_start",
                             message=None if isinstance(tail, int) else "expected an integer, got %r" % (tail,))
        head = _list(obj.get("head", []), path + ".head")  # rational literals, pairwise distinct and off the tail
        spikes = decode_at(path + ".head", lambda: SpikeSet(tuple(map(parse_rational, head)), tail))
        return spike_function(spikes)
    if kind == "tabular":
        space = space_from_json(obj.get("space", {}), path + ".space")
        codomain = space_from_json(obj.get("codomain", {"kind": "real_line"}), path + ".codomain")
        values = {}
        for label, setobj in _object(obj.get("values", {}), path + ".values").items():
            point = point_from_json(space, label, path + ".values")
            where = "%s.values.%s" % (path, label)
            if point in values:
                raise SchemaError(where, "a second value for the point %r" % (point,))
            values[point] = set_from_json(setobj, where)
            if not fits_space(values[point], codomain):
                raise SchemaError(where, "a %s value is not a subset of the %s codomain"
                                  % (values[point].kind, codomain.name))
        if not isinstance(space, FinitePoints):
            raise SchemaError(path + ".space", "a tabular map needs a finite_points space, not %s" % space.name)
        missing = [p for p in space.points() if p not in values]
        if missing:
            raise SchemaError(path + ".values", "missing values for %r" % missing)
        return tabular_multimap(space, values, codomain)
    if kind == "extend":
        base = multimap_from_json(obj.get("base", {}), path + ".base")
        sup = space_from_json(obj.get("super_space", {}), path + ".super_space")
        if not isinstance(base.domain, FinitePoints) or not isinstance(sup, FinitePoints):
            raise SchemaError(path, "extend requires finite-points domain spaces")
        embedding = decode_at(path + ".super_space", IdentityEmbedding, base.domain, sup, catch=ValueError)
        # off the image the value is the whole codomain, which must be representable
        return decode_at(path + ".base", extend, base, embedding, sup, catch=ValueError)
    if kind == "compose":
        base = multimap_from_json(obj.get("base", {}), path + ".base")
        return compose(_coordinate_change(obj.get("pi", {}), base.codomain, path + ".pi"), base)
    raise SchemaError(path + ".kind", "unknown multimap kind %r" % kind)


# ---------------------------------------------------------------------------
# config and probes
# ---------------------------------------------------------------------------


def config_from_json(obj: dict, path: str = "config") -> CheckConfig:
    base = default_config()
    _object(obj, path)
    eps = _list(obj.get("eps_schedule", []), path + ".eps_schedule")
    delta = _list(obj.get("delta_schedule", []), path + ".delta_schedule")
    naturals = ("probe_budget", "dense_bound", "n_bound", "m_bound")
    return decode_at(path, lambda: CheckConfig(
        eps_schedule=tuple(map(parse_rational, eps)) or base.eps_schedule,
        delta_schedule=tuple(map(parse_rational, delta)) or base.delta_schedule,
        **{key: _natural(obj.get(key, getattr(base, key)), key) for key in naturals},
        net_resolution=parse_rational(obj["net_resolution"]) if "net_resolution" in obj else base.net_resolution,
    ))


def probes_from_json(obj: dict, multimap: MultiMap, path: str = "probe_spec"):
    kind = _kind(obj, path, "default")
    if kind == "default":
        if multimap.default_probes is None:
            raise SchemaError(path, "multimap ships no default probe generator")
        return multimap.default_probes
    if kind == "full_domain":
        if not isinstance(multimap.domain, FinitePoints):
            raise SchemaError(path, "full_domain probes need a finite domain")
        return full_domain_probes(multimap.domain)
    raise SchemaError(path + ".kind", "unknown probe spec %r" % kind)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def encode_value(value) -> Any:
    """Best-effort canonical JSON encoding of report payloads."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, BairePoint):
        return format_baire_point(value)
    if isinstance(value, CantorGridPoint):
        return {"explicit_rows": {str(m): _grid_row_to_json(row) for m, row in value.explicit_rows},
                "default_row": _grid_row_to_json(value.default_row)}
    if isinstance(value, Tree):
        return format_tree_literal(value)
    if isinstance(value, RefutationEntry):
        return encode_value(vars(value))
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return value


_WITNESS_KINDS = {ContinuityWitness: "continuity", DiscontinuityWitness: "discontinuity"}


def witness_to_json(witness) -> dict:
    """The witness's fields, encoded, under its kind."""
    if type(witness) not in _WITNESS_KINDS:
        raise TypeError("not a witness: %r" % (witness,))
    return {"kind": _WITNESS_KINDS[type(witness)], **encode_value(vars(witness))}


def verdict_to_json(verdict: Verdict) -> dict:
    out: dict[str, Any] = {"verdict": verdict.kind}
    if verdict.witness is not None:
        out["witness"] = witness_to_json(verdict.witness)
    if verdict.report is not None:
        out["report"] = encode_value(verdict.report)
    return out


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def load_instance(obj: dict):
    """Decode an instance file into (multimap, points, mode, cfg, probes)."""
    _object(obj, "$")
    multimap = multimap_from_json(obj.get("multimap", {}), "multimap")
    mode = obj.get("mode", "plain")
    if not isinstance(mode, str) or mode not in MODES:
        raise SchemaError("mode", "unknown mode %r (valid: %s)" % (mode, ", ".join(MODES)))
    cfg = config_from_json(obj.get("config", {}), "config")
    probes = probes_from_json(obj.get("probe_spec", {"kind": "default"}), multimap, "probe_spec")
    points = [domain_point_from_json(multimap, p, "points[%d]" % i)
              for i, p in enumerate(_list(obj.get("points", []), "points"))]
    return multimap, points, mode, cfg, probes


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def instance_digest(obj: dict) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()
