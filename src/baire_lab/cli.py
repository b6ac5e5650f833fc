"""Command-line surface with reproducible JSON reports.

Exit codes: 0 for conclusive results, 2 for input errors, 3 when some
verdict is Inconclusive.  Reports are deterministic: sorted keys,
canonical "p/q" rationals, and no volatile fields unless --timing is
given (wall time breaks byte-identity by nature).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .checkers import (
    check_continuity,
    check_strong_continuity,
    default_config,
    eval_dagger,
    eval_lower_fell,
    eval_star,
    verify_witness,
)
from .gallery import (
    baire_embed,
    f1_multimap,
    f1_witness,
    f2_multimap,
    f2_witness,
)
from .instances import (
    SchemaError,
    balls_from_json,
    config_to_json,
    domain_point_from_json,
    encode_value,
    instance_digest,
    load_instance,
    verdict_to_json,
    witness_to_json,
)
from .pointclass import ParseError, classify, parse_expr
from .rationals import format_rational
from .spaces import grid_point, grid_point_from_json, parse_baire_point, real_flavored
from .trees import (
    body_prefixes,
    format_node,
    format_tree_literal,
    generated_by,
    is_ill_founded,
    parse_node,
    parse_tree_literal,
    terminals,
    tree_shift,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


def _emit(report: dict, args, started: float) -> None:
    if getattr(args, "timing", False):
        report["wall_time_seconds"] = round(time.monotonic() - started, 6)
    print(json.dumps(report, sort_keys=True, indent=2))


def _report(command: str, **fields) -> dict:
    out = {"command": command, "version": __version__}
    out.update(fields)
    return out


def cmd_classify(args) -> int:
    started = time.monotonic()
    try:
        trace = []
        expr = parse_expr(args.expr)
        result = classify(expr, trace)
    except ParseError as exc:
        print(json.dumps({"error": str(exc), "offset": exc.offset}, sort_keys=True), file=sys.stderr)
        return EXIT_INPUT
    _emit(_report(
        "classify",
        expr=str(expr),
        pointclass=str(result),
        derivation=[
            {"expr": s.expr, "rule": s.rule, "inputs": list(s.inputs), "result": s.result}
            for s in trace
        ],
    ), args, started)
    return EXIT_OK


_CHECKERS = {
    "plain": check_continuity,
    "strong": check_strong_continuity,
    "star": eval_star,
    "dagger": eval_dagger,
}


def cmd_check(args) -> int:
    started = time.monotonic()
    try:
        with open(args.instance) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "cannot read instance file: %s" % exc}), file=sys.stderr)
        return EXIT_INPUT
    try:
        multimap, points, mode, cfg, probes = load_instance(raw)
        if args.point is not None:
            points = [domain_point_from_json(multimap, args.point, "point")]
        if args.mode is not None:
            mode = args.mode
        if mode == "dagger" and not real_flavored(multimap.codomain):
            raise SchemaError("mode", "dagger clips values to intervals, so it needs a real_line, unit_interval "
                                      "or rational finite_points codomain, not %s" % multimap.codomain.name)
        if mode == "fell":
            balls = balls_from_json(multimap.codomain, raw.get("test_balls"))
        results = []
        for point in points:
            if mode == "fell":
                verdict = eval_lower_fell(multimap, point, cfg, probes, balls)
            else:
                verdict = _CHECKERS[mode](multimap, point, cfg, probes)
            results.append({
                "point": encode_value(point),
                **verdict_to_json(verdict),
            })
    except SchemaError as exc:
        print(json.dumps({"error": str(exc), "path": exc.path}, sort_keys=True), file=sys.stderr)
        return EXIT_INPUT
    _emit(_report(
        "check",
        digest=instance_digest(raw),
        mode=mode,
        config=config_to_json(cfg),
        results=results,
    ), args, started)
    if any(r["verdict"] == "inconclusive" for r in results):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


_NAMED_GAMMAS = {
    "all_ones": lambda: grid_point(default=((), (1,))),
    "all_zero": lambda: grid_point(),
}


def cmd_gallery(args) -> int:
    started = time.monotonic()
    cfg = default_config()
    try:
        if args.name == "f1":
            if args.gamma is None:
                raise SchemaError("gamma", "f1 needs --gamma (all_ones, all_zero, or JSON)")
            if args.gamma in _NAMED_GAMMAS:
                gamma = _NAMED_GAMMAS[args.gamma]()
            else:
                gamma = grid_point_from_json(json.loads(args.gamma))
            multimap = f1_multimap()
            witness = f1_witness(gamma, cfg=cfg)
            accepted = verify_witness(multimap, gamma, witness, multimap.default_probes)
            kind = "continuous" if witness.__class__.__name__ == "ContinuityWitness" else "discontinuous"
            _emit(_report(
                "gallery f1",
                gamma=encode_value(gamma),
                verdict=kind,
                witness=witness_to_json(witness),
                witness_verified=accepted,
            ), args, started)
            return EXIT_OK if accepted else EXIT_INCONCLUSIVE
        if args.name == "f2":
            if args.tree is None:
                raise SchemaError("tree", "f2 needs --tree 'tree{nodes:[...]}'")
            tree = parse_tree_literal(args.tree)
            multimap = f2_multimap()
            witness = f2_witness(tree, cfg=cfg)
            accepted = verify_witness(multimap, tree, witness, multimap.default_probes)
            kind = "continuous" if witness.__class__.__name__ == "ContinuityWitness" else "discontinuous"
            _emit(_report(
                "gallery f2",
                tree=format_tree_literal(tree),
                ill_founded=is_ill_founded(tree),
                verdict=kind,
                witness=witness_to_json(witness),
                witness_verified=accepted,
            ), args, started)
            return EXIT_OK if accepted else EXIT_INCONCLUSIVE
        if args.name == "embed":
            if args.alpha is None or args.depth is None:
                raise SchemaError("alpha", "embed needs --alpha 'prefix;period' and --depth N")
            alpha = parse_baire_point(args.alpha)
            chain = [baire_embed(alpha, d) for d in range(args.depth + 1)]
            _emit(_report(
                "gallery embed",
                alpha=args.alpha,
                depth=args.depth,
                intervals=[[format_rational(a), format_rational(b)] for a, b in chain],
            ), args, started)
            return EXIT_OK
        raise SchemaError("name", "unknown gallery entry %r (valid: f1, f2, embed)" % args.name)
    except (SchemaError, ValueError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return EXIT_INPUT


def cmd_tree(args) -> int:
    started = time.monotonic()
    try:
        if args.op == "generate":
            nodes = [parse_node(t.strip()) for t in args.nodes.split()] if args.nodes else []
            if not nodes:
                raise SchemaError("nodes", "generate needs --nodes '(..) (..)'")
            tree = generated_by(nodes)
        else:
            if args.tree is None:
                raise SchemaError("tree", "%s needs --tree 'tree{...}'" % args.op)
            tree = parse_tree_literal(args.tree)
        if args.op == "shift":
            result = {"tree": format_tree_literal(tree_shift(tree))}
        elif args.op == "trm":
            result = {"terminals": [format_node(u) for u in sorted(terminals(tree))]}
        elif args.op == "illfounded":
            result = {
                "ill_founded": is_ill_founded(tree),
                "body_depth_3": [format_node(u) for u in sorted(body_prefixes(tree, 3))],
            }
        elif args.op == "generate":
            result = {"tree": format_tree_literal(tree)}
        else:
            raise SchemaError("op", "unknown tree operation %r" % args.op)
    except (SchemaError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return EXIT_INPUT
    _emit(_report("tree %s" % args.op, **result), args, started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baire-lab",
        description="Exact continuity checkers for multi-valued maps, tree "
                    "combinatorics, and pointclass inference.",
        epilog="Classifier grammar: atoms open closed analytic coanalytic "
               "borel; combinators compl(e) Uc(e) Ic(e) union(e,e) "
               "inter(e,e) preimg(e) proj(e).",
    )
    parser.add_argument("--timing", action="store_true",
                        help="add wall time to reports (breaks byte-identity)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_classify = sub.add_parser("classify", help="classify a set expression")
    p_classify.add_argument("expr")
    p_classify.set_defaults(fn=cmd_classify)

    p_check = sub.add_parser("check", help="run a checker over an instance file")
    p_check.add_argument("instance", help="path to the instance JSON file")
    p_check.add_argument("--point", help="override: single point literal")
    p_check.add_argument("--mode", choices=["plain", "strong", "star", "dagger", "fell"])
    p_check.set_defaults(fn=cmd_check)

    p_gallery = sub.add_parser("gallery", help="run a gallery construction")
    p_gallery.add_argument("name", help="f1 | f2 | embed")
    p_gallery.add_argument("--gamma", help="f1: all_ones, all_zero, or grid-point JSON")
    p_gallery.add_argument("--tree", help="f2: tree literal")
    p_gallery.add_argument("--alpha", help="embed: sequence literal 'prefix;period'")
    p_gallery.add_argument("--depth", type=int, help="embed: interval chain depth")
    p_gallery.set_defaults(fn=cmd_gallery)

    p_tree = sub.add_parser("tree", help="tree combinatorics")
    p_tree.add_argument("op", choices=["shift", "trm", "illfounded", "generate"])
    p_tree.add_argument("--tree", help="tree literal")
    p_tree.add_argument("--nodes", help="generate: space-separated node literals")
    p_tree.set_defaults(fn=cmd_tree)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
