"""The benchmark still runs against the library.

`perfbench/tracer.py` wraps functions by name, where their callers bind
them, and reads two caches by name, and `perfbench/workloads.py` builds
maps and instance files through the library's constructors and CLI.
Renaming or deleting one of them, or changing what it accepts, would break
only the benchmark run; these tests make it fail here as well.  The
`BENCH_*.json` records of measured changes must claim a workload and an
end-to-end metric that `BENCHMARK.json` declares.

The library's modules also carry no leftovers: every import is used, and
every private top-level name is referenced in its own module.  Every wire
form lives in `instances.py`: only it and `cli.py` import json, and no
other module defines a `*_from_json` or `*_to_json` function.  So does
every text literal: no other module defines a top-level `parse_*` or
`format_*` function (the expression language of `pointclass.py` aside), no
class defines `parse_point`, and there is no `baire_lab.rationals`.
`checkers.py` names no space class and no value class but `Empty`: the
kind of a codomain is decided in `closed_sets.py` and `spaces.py`.  No
module caches a function with `functools` but the two whose hit ratios the
benchmark reads.  A tree's representation stays in `trees.py`: no other
module calls the `Tree` constructor or reads a tree's maximal nodes.
"""

import ast
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = str(ROOT / "perfbench")


def _bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_every_target_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    targets = [(owner, attr) for _, owner, attrs, _ in tracer.TARGETS for attr in attrs]
    originals = [_bound(owner, attr) for owner, attr in targets]
    t = tracer.Tracer()
    t.install()
    try:
        for (owner, attr), original in zip(targets, originals):
            assert _bound(owner, attr).__wrapped__ is original, (owner, attr)
    finally:
        t.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert _bound(owner, attr) is original, (owner, attr)
    for cached in tracer.CACHES.values():
        cached.cache_info()
        cached.cache_clear()


def test_every_workload_runs_and_judges_its_first_operations(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        for op in workload(17, str(tmp_path / name)).round(0)[:3]:
            problems, _, _ = op.judge(op.run())
            assert problems == [], (name, op.kind, problems)


def test_every_bench_record_claims_a_declared_workload_and_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for record in records:
        claim = json.loads(record.read_text())["claim"]
        assert claim["workload"] in workloads, record.name
        assert claim["metric"] in metrics, record.name


def test_library_modules_leave_no_unused_import_or_private_helper():
    leftovers = []
    for path in sorted((ROOT / "src" / "baire_lab").glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text())
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                leftovers += [(path.name, "import", name) for name in bound if name not in loaded]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            leftovers += [(path.name, "private", name) for name in defined
                          if name.startswith("_") and not name.startswith("__") and name not in loaded]
    assert leftovers == []


def test_only_the_input_boundary_speaks_json():
    speakers = []
    for path in sorted((ROOT / "src" / "baire_lab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if path.name not in ("instances.py", "cli.py"):
                speakers += [(path.name, "import", m) for m in modules if m.split(".")[0] == "json"]
            if path.name != "instances.py" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.endswith(("_from_json", "_to_json")):
                speakers.append((path.name, "def", node.name))
    assert speakers == []


def test_only_the_input_boundary_reads_and_writes_text_literals():
    assert importlib.util.find_spec("baire_lab.rationals") is None
    readers = []
    for path in sorted((ROOT / "src" / "baire_lab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith(("parse_", "format_")) \
                    and path.name != "instances.py" \
                    and (path.name, node.name) not in {("pointclass.py", "parse_expr"), ("pointclass.py", "parse_pointclass")}:
                readers.append((path.name, node.name))
        readers += [(path.name, node.name, "parse_point") for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                    for item in node.body if isinstance(item, ast.FunctionDef) and item.name == "parse_point"]
    assert readers == []


def test_checkers_name_no_space_or_value_class():
    """The quantifier layers read a codomain only through the exact keys and
    regions of `closed_sets` and the spaces' own operations, never by the
    class of the codomain or of a value.  `Empty` stays nameable: it is the
    distance-1 convention the criteria state."""
    banned = {"BaireSpace", "RealLine", "UnitInterval", "FinitePoints", "CantorGrid", "TreeSpace",
              "FiniteBaireSet", "FiniteRealSet", "IntervalUnion", "_distance_level"}
    named = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "baire_lab" / "checkers.py").read_text())):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
    assert named & banned == set()
    assert "Empty" in named


def test_no_function_gains_a_functools_cache():
    """`spaces.node_rank` and `closed_sets.tree_body_points` keep their
    caches only because `perfbench/tracer.py` reads their hit ratios; every
    other use of `lru_cache` or `cache`, as a decorator or a call, fails."""
    allowed = {("spaces", "node_rank"), ("closed_sets", "tree_body_points")}
    found = []
    for path in sorted((ROOT / "src" / "baire_lab").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {alias.asname or alias.name for alias in node.names if alias.name == "functools"}
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                names |= {alias.asname or alias.name for alias in node.names if alias.name in ("lru_cache", "cache")}
        uses = {node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                and isinstance(node.value, ast.Name) and node.value.id in modules}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    used = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if used in uses:
                        uses.discard(used)
                        found.append((path.stem, node.name))
        found += [(path.stem, "line %d" % node.lineno) for node in uses]  # applied by a call
    assert set(found) <= allowed, sorted(set(found) - allowed)


def test_only_trees_builds_a_tree_or_reads_its_maximal_nodes():
    """Outside `trees.py`, trees come from `make_tree`, `generated_by` and the
    other functions of that module, and are read through its functions and
    `finite_part`, `branches` and `contains`; a call of `Tree(...)`, by name
    or as an attribute, or a read of `maximal`, by attribute or by string,
    fails."""
    found = []
    for path in sorted((ROOT / "src" / "baire_lab").glob("*.py")):
        if path.name == "trees.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "Tree" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append((path.name, node.lineno, "Tree("))
            elif isinstance(node, ast.Attribute) and node.attr == "maximal" \
                    or isinstance(node, ast.Constant) and node.value == "maximal":
                found.append((path.name, node.lineno, "maximal"))
    assert found == []
