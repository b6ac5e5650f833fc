"""Command-line surface with reproducible JSON reports.

Exit codes: 0 for conclusive results, 1 for a gallery witness that
`verify_witness` rejects (a fault of the program), 2 for input errors, 3
when some verdict is Inconclusive.  Reports are deterministic: sorted keys,
canonical "p/q" rationals, and no volatile fields unless --timing is
given (wall time breaks byte-identity by nature).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .checkers import MODES, ContinuityWitness, continuity_points, default_config, verify_witness
from .gallery import (
    F1_DEFAULT_WINDOW,
    embed_chain,
    f1_multimap,
    f1_witness,
    f2_multimap,
    f2_witness,
)
from .instances import (
    SchemaError,
    _natural,
    balls_from_json,
    decode_at,
    domain_point_from_json,
    encode_value,
    format_node,
    format_rational,
    format_tree_literal,
    instance_digest,
    load_instance,
    parse_baire_point,
    parse_node,
    parse_tree_literal,
    point_from_json,
    verdict_to_json,
    witness_to_json,
)
from .pointclass import ParseError, classify, parse_expr
from .spaces import CANTOR_GRID, grid_point, real_flavored
from .trees import body_prefixes, generated_by, is_ill_founded, terminals, tree_shift

EXIT_OK = 0
EXIT_FAULT = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3

EMBED_MAX_DEPTH = 1024  # the chain's endpoints grow with the depth: depth 3000 ran past 20 s


def _emit(report: dict, args) -> None:
    if args.timing:
        report["wall_time_seconds"] = round(time.monotonic() - args.started, 6)
    print(json.dumps(report, sort_keys=True, indent=2))


def _report(command: str, **fields) -> dict:
    out = {"command": command, "version": __version__}
    out.update(fields)
    return out


def cmd_classify(args) -> int:
    trace = []
    expr = parse_expr(args.expr)
    result = classify(expr, trace)
    _emit(_report(
        "classify",
        expr=str(expr),
        pointclass=str(result),
        derivation=[
            {"expr": s.expr, "rule": s.rule, "inputs": list(s.inputs), "result": s.result}
            for s in trace
        ],
    ), args)
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        with open(args.instance) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # also undecodable bytes and deep nesting
        raise SchemaError("instance", "cannot read instance file: %s" % exc) from exc
    try:
        multimap, points, mode, cfg, probes = load_instance(raw)
    except RecursionError as exc:  # the decoder recurses once per nested map
        raise SchemaError("instance", "instance nests too deeply to decode: %s" % exc) from exc
    if args.point is not None:
        points = [domain_point_from_json(multimap, args.point, "point")]
    mode = args.mode or mode
    if mode == "dagger" and not real_flavored(multimap.codomain):
        raise SchemaError("mode", "dagger clips values to intervals, so it needs a real_line, unit_interval "
                                  "or rational finite_points codomain, not %s" % multimap.codomain.name)
    balls = balls_from_json(multimap.codomain, raw.get("test_balls")) if mode == "fell" else ()
    verdicts = continuity_points(multimap, points, mode, cfg, probes, balls)
    results = [{"point": encode_value(x), **verdict_to_json(verdicts[x])} for x in points]
    _emit(_report(
        "check",
        digest=instance_digest(raw),
        mode=mode,
        config=encode_value(vars(cfg)),
        results=results,
    ), args)
    if any(r["verdict"] == "inconclusive" for r in results):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _certify(command: str, multimap, x, witness, args, **fields) -> int:
    """Emit a gallery witness at x with its verdict, once `verify_witness`
    accepts it.  A rejected gallery witness is a fault of the program, not
    a verdict: it is written to stderr as an error, with exit 1."""
    if not verify_witness(multimap, x, witness, multimap.default_probes):
        print(json.dumps({"error": "%s: verify_witness rejected the gallery witness" % command}), file=sys.stderr)
        return EXIT_FAULT
    _emit(_report(
        command,
        verdict="continuous" if isinstance(witness, ContinuityWitness) else "discontinuous",
        witness=witness_to_json(witness),
        witness_verified=True,
        **fields,
    ), args)
    return EXIT_OK


_NAMED_GAMMAS = {
    "all_ones": lambda: grid_point(default=((), (1,))),
    "all_zero": lambda: grid_point(),
}


def cmd_gallery(args) -> int:
    cfg = default_config()
    if args.name == "f1":
        if args.gamma is None:
            raise SchemaError("gamma", "f1 needs --gamma (all_ones, all_zero, or JSON)")
        if args.gamma in _NAMED_GAMMAS:
            gamma = _NAMED_GAMMAS[args.gamma]()
        else:
            gamma = point_from_json(CANTOR_GRID, args.gamma, "gamma")
        return _certify("gallery f1", f1_multimap(), gamma, f1_witness(gamma, F1_DEFAULT_WINDOW, cfg), args,
                        gamma=encode_value(gamma))
    if args.name == "f2":
        if args.tree is None:
            raise SchemaError("tree", "f2 needs --tree 'tree{nodes:[...]}'")
        tree = decode_at("tree", parse_tree_literal, args.tree)
        return _certify("gallery f2", f2_multimap(), tree, f2_witness(tree, cfg), args,
                        tree=format_tree_literal(tree), ill_founded=is_ill_founded(tree))
    if args.name == "embed":
        if args.alpha is None or args.depth is None:
            raise SchemaError("alpha", "embed needs --alpha 'prefix;period' and --depth N")
        alpha = decode_at("alpha", parse_baire_point, args.alpha)
        depth = decode_at("depth", _natural, args.depth, "depth")
        if depth > EMBED_MAX_DEPTH:
            raise SchemaError("depth", "depth must be at most %d, got %d" % (EMBED_MAX_DEPTH, depth))
        chain = embed_chain(alpha, depth)
        _emit(_report(
            "gallery embed",
            alpha=args.alpha,
            depth=depth,
            intervals=[[format_rational(a), format_rational(b)] for a, b in chain],
        ), args)
        return EXIT_OK
    raise SchemaError("name", "unknown gallery entry %r (valid: f1, f2, embed)" % args.name)


def cmd_tree(args) -> int:
    if args.op == "generate":
        if not (args.nodes or "").split():
            raise SchemaError("nodes", "generate needs --nodes '(..) (..)'")
        nodes = decode_at("nodes", lambda: [parse_node(t) for t in args.nodes.split()])
        tree = decode_at("nodes", generated_by, nodes, catch=ValueError)
    else:
        if args.tree is None:
            raise SchemaError("tree", "%s needs --tree 'tree{...}'" % args.op)
        tree = decode_at("tree", parse_tree_literal, args.tree)
    if args.op == "shift":
        result = {"tree": format_tree_literal(tree_shift(tree))}
    elif args.op == "trm":
        result = {"terminals": [format_node(u) for u in sorted(terminals(tree))]}
    elif args.op == "illfounded":
        result = {
            "ill_founded": is_ill_founded(tree),
            "body_depth_3": [format_node(u) for u in sorted(body_prefixes(tree, 3))],
        }
    else:
        result = {"tree": format_tree_literal(tree)}
    _emit(_report("tree %s" % args.op, **result), args)
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
    p_check.add_argument("--mode", choices=MODES)
    p_check.set_defaults(fn=cmd_check)

    p_gallery = sub.add_parser("gallery", help="run a gallery construction")
    p_gallery.add_argument("name", help="f1 | f2 | embed")
    p_gallery.add_argument("--gamma", help="f1: all_ones, all_zero, or grid-point JSON")
    p_gallery.add_argument("--tree", help="f2: tree literal")
    p_gallery.add_argument("--alpha", help="embed: sequence literal 'prefix;period'")
    p_gallery.add_argument("--depth", help="embed: interval chain depth, at most %d" % EMBED_MAX_DEPTH)
    p_gallery.set_defaults(fn=cmd_gallery)

    p_tree = sub.add_parser("tree", help="tree combinatorics")
    p_tree.add_argument("op", choices=["shift", "trm", "illfounded", "generate"])
    p_tree.add_argument("--tree", help="tree literal")
    p_tree.add_argument("--nodes", help="generate: space-separated node literals")
    p_tree.set_defaults(fn=cmd_tree)

    return parser


def main(argv=None) -> int:
    """Run one command.  Only here is an input error written: a
    SchemaError with its field path, a ParseError with its offset."""
    args = build_parser().parse_args(argv)
    args.started = time.monotonic()
    try:
        return args.fn(args)
    except SchemaError as exc:
        error = {"error": str(exc), "path": exc.path}
    except ParseError as exc:
        error = {"error": str(exc), "offset": exc.offset}
    print(json.dumps(error, sort_keys=True), file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
