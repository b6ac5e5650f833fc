"""JSON wire formats: instance files, verdicts, witnesses, digests.

An instance file bundles a multimap, points to check, a mode, a config,
and a probe spec.  Everything numeric is a canonical "p/q" string; keys
are sorted on output, so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

from .checkers import (
    CheckConfig,
    ContinuityWitness,
    DiscontinuityWitness,
    MultiMap,
    Verdict,
    default_config,
    full_domain_probes,
    tabular_multimap,
)
from .closed_sets import set_from_json
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
    CantorGridPoint,
    FinitePoints,
    format_baire_point,
    grid_point_from_json,
    grid_point_to_json,
)
from .trees import TREE_SPACE, Tree, format_tree_literal


class SchemaError(ValueError):
    """Instance-file violation, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path


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
    kind = obj.get("kind")
    if kind in _SPACES:
        return _SPACES[kind]
    if kind == "finite_points":
        try:
            return FinitePoints(
                tuple(obj["labels"]),
                tuple(tuple(parse_rational(d) for d in row) for row in obj["table"]),
                rational_labels=bool(obj.get("rational_labels", False)),
            )
        except (KeyError, ValueError) as exc:
            raise SchemaError(path, str(exc)) from exc
    raise SchemaError(path + ".kind", "unknown space kind %r" % kind)


def point_from_json(space, obj: Any, path: str = "point"):
    if not isinstance(obj, (str, dict)):
        raise SchemaError(path, "expected a point literal string, got %r" % (obj,))
    try:
        if isinstance(obj, dict):
            return grid_point_from_json(obj)
        return space.parse_point(obj)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def domain_point_from_json(multimap, obj: Any, path: str):
    """A point of the multimap's domain: parsed, then checked to lie in it."""
    point = point_from_json(multimap.domain, obj, path)
    if not multimap.domain.contains(point):
        raise SchemaError(path, "point %r lies outside the domain of %s" % (obj, multimap.name))
    return point


def balls_from_json(codomain, obj: Any, path: str = "test_balls") -> list:
    """Decode the [center, radius] pairs of lower-Fell mode; every radius
    must be a positive rational literal."""
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
        try:
            radius = parse_rational(entry[1]) if isinstance(entry[1], str) else None
        except ValueError:
            radius = None
        if radius is None or radius <= 0:
            raise SchemaError(where, "radius must be a positive rational literal, got %r" % (entry[1],))
        balls.append((center, radius))
    return balls


# ---------------------------------------------------------------------------
# multimaps
# ---------------------------------------------------------------------------


def multimap_from_json(obj: dict, path: str = "multimap") -> MultiMap:
    kind = obj.get("kind")
    if kind == "f1":
        try:
            window = int(obj.get("window", 8))
        except (TypeError, ValueError):
            window = -1
        if window < 0:
            raise SchemaError(path + ".window", "expected a non-negative integer, got %r" % (obj.get("window"),))
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
        try:
            tail = None if tail is None else int(tail)
        except (TypeError, ValueError) as exc:
            raise SchemaError(path + ".harmonic_tail_start", "expected an integer, got %r" % (tail,)) from exc
        try:  # rational literals, pairwise distinct and off the tail
            spikes = SpikeSet(tuple(parse_rational(q) for q in obj.get("head", [])), tail)
        except (AttributeError, TypeError, ValueError) as exc:
            raise SchemaError(path + ".head", str(exc)) from exc
        return spike_function(spikes)
    if kind == "tabular":
        space = space_from_json(obj.get("space", {}), path + ".space")
        codomain = space_from_json(obj.get("codomain", {"kind": "real_line"}), path + ".codomain")
        values = {}
        for label, setobj in obj.get("values", {}).items():
            point = point_from_json(space, label, path + ".values")
            try:
                values[point] = set_from_json(setobj)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise SchemaError("%s.values.%s" % (path, label), "not a value set: %s" % exc) from exc
        missing = [p for p in space.points() if p not in values]
        if missing:
            raise SchemaError(path + ".values", "missing values for %r" % missing)
        return tabular_multimap(space, values, codomain)
    if kind == "extend":
        base = multimap_from_json(obj.get("base", {}), path + ".base")
        sup = space_from_json(obj.get("super_space", {}), path + ".super_space")
        if not isinstance(base.domain, FinitePoints) or not isinstance(sup, FinitePoints):
            raise SchemaError(path, "extend requires finite-points domain spaces")
        return extend(base, IdentityEmbedding(base.domain, sup), sup)
    if kind == "compose":
        base = multimap_from_json(obj.get("base", {}), path + ".base")
        pi_obj = obj.get("pi", {})
        pi_kind = pi_obj.get("kind")
        if pi_kind == "affine":
            pi = AffineMap(parse_rational(pi_obj["scale"]), parse_rational(pi_obj["shift"]))
        elif pi_kind == "baire_embed":
            pi = BaireEmbedding()
        else:
            raise SchemaError(path + ".pi.kind", "unknown coordinate change %r" % pi_kind)
        return compose(pi, base)
    raise SchemaError(path + ".kind", "unknown multimap kind %r" % kind)


# ---------------------------------------------------------------------------
# config and probes
# ---------------------------------------------------------------------------


def config_from_json(obj: dict, path: str = "config") -> CheckConfig:
    base = default_config()
    try:
        return CheckConfig(
            eps_schedule=tuple(parse_rational(v) for v in obj.get("eps_schedule", [])) or base.eps_schedule,
            delta_schedule=tuple(parse_rational(v) for v in obj.get("delta_schedule", [])) or base.delta_schedule,
            probe_budget=int(obj.get("probe_budget", base.probe_budget)),
            net_resolution=parse_rational(obj["net_resolution"]) if "net_resolution" in obj else base.net_resolution,
            dense_bound=int(obj.get("dense_bound", base.dense_bound)),
            n_bound=int(obj.get("n_bound", base.n_bound)),
            m_bound=int(obj.get("m_bound", base.m_bound)),
        )
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def config_to_json(cfg: CheckConfig) -> dict:
    return {
        "eps_schedule": [format_rational(v) for v in cfg.eps_schedule],
        "delta_schedule": [format_rational(v) for v in cfg.delta_schedule],
        "probe_budget": cfg.probe_budget,
        "net_resolution": format_rational(cfg.net_resolution),
        "dense_bound": cfg.dense_bound,
        "n_bound": cfg.n_bound,
        "m_bound": cfg.m_bound,
    }


def probes_from_json(obj: dict, multimap: MultiMap, path: str = "probe_spec"):
    kind = obj.get("kind", "default")
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
        return grid_point_to_json(value)
    if isinstance(value, Tree):
        return format_tree_literal(value)
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return value


def witness_to_json(witness) -> dict:
    if isinstance(witness, ContinuityWitness):
        return {
            "kind": "continuity",
            "y": encode_value(witness.y),
            "table": [[format_rational(e), format_rational(d)] for e, d in witness.table],
            "net_resolution": format_rational(witness.net_resolution),
        }
    if isinstance(witness, DiscontinuityWitness):
        return {
            "kind": "discontinuity",
            "entries": [
                {
                    "y": encode_value(entry.y),
                    "eps_star": format_rational(entry.eps_star),
                    "counterexamples": [
                        [format_rational(d), encode_value(xp)] for d, xp in entry.counterexamples
                    ],
                }
                for entry in witness.entries
            ],
            "net_resolution": format_rational(witness.net_resolution),
            "net_radius": format_rational(witness.net_radius),
            "margin": format_rational(witness.margin),
            "notion": witness.notion,
        }
    raise TypeError("not a witness: %r" % (witness,))


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

MODES = ("plain", "strong", "star", "dagger", "fell")


def load_instance(obj: dict):
    """Decode an instance file into (multimap, points, mode, cfg, probes)."""
    if not isinstance(obj, dict):
        raise SchemaError("$", "instance file must be a JSON object")
    multimap = multimap_from_json(obj.get("multimap", {}), "multimap")
    mode = obj.get("mode", "plain")
    if mode not in MODES:
        raise SchemaError("mode", "unknown mode %r (valid: %s)" % (mode, ", ".join(MODES)))
    cfg = config_from_json(obj.get("config", {}), "config")
    probes = probes_from_json(obj.get("probe_spec", {"kind": "default"}), multimap, "probe_spec")
    points = [domain_point_from_json(multimap, p, "points[%d]" % i) for i, p in enumerate(obj.get("points", []))]
    return multimap, points, mode, cfg, probes


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def instance_digest(obj: dict) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()
