"""Every JSON wire form: instance files, value sets, grid points, verdicts,
witnesses, digests.

An instance file bundles a multimap, points to check, a mode, a config,
and a probe spec.  Everything numeric is a canonical "p/q" string; keys
are sorted on output, so identical inputs produce byte-identical reports.
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
from .rationals import format_rational, parse_rational
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
    format_baire_point,
    parse_baire_point,
    real_flavored,
)
from .trees import TREE_SPACE, Tree, format_tree_literal, parse_tree_literal


class SchemaError(ValueError):
    """Instance-file violation, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path


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
        return decode_at(path, _grid_point, obj)
    if not isinstance(obj, str):
        raise SchemaError(path, "expected a point literal string, got %r" % (obj,))
    return decode_at(path, space.parse_point, obj)


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
        window = decode_at(path + ".window", int, obj.get("window", 8), message=message)
        if window < 0:
            raise SchemaError(path + ".window", message)
        return f1_multimap(window)
    if kind == "f2":
        return f2_multimap()
    if kind == "dense_split":
        variant = obj.get("variant", "dyadic")
        if variant not in ("dyadic", "thirds"):
            raise SchemaError(path + ".variant", "unknown dense_split variant %r" % variant)
        return dense_split(variant)
    if kind == "spike":
        tail = obj.get("harmonic_tail_start")
        if tail is not None:
            tail = decode_at(path + ".harmonic_tail_start", int, tail,
                             message="expected an integer, got %r" % (tail,))
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
    return decode_at(path, lambda: CheckConfig(
        eps_schedule=tuple(map(parse_rational, eps)) or base.eps_schedule,
        delta_schedule=tuple(map(parse_rational, delta)) or base.delta_schedule,
        probe_budget=int(obj.get("probe_budget", base.probe_budget)),
        net_resolution=parse_rational(obj["net_resolution"]) if "net_resolution" in obj else base.net_resolution,
        dense_bound=int(obj.get("dense_bound", base.dense_bound)),
        n_bound=int(obj.get("n_bound", base.n_bound)),
        m_bound=int(obj.get("m_bound", base.m_bound)),
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
