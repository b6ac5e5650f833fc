"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each traced function by a wrapper in every
namespace that binds it (a module attribute, a class attribute, or an entry
of a module-level dict such as the CLI's checker table), because callers
look names up where they imported them: `checkers` binds `dist_to_set` and
`eps_net`, `gallery` binds `generated_by`, `cli` binds the checkers.
`uninstall()` puts the originals back.

Each wrapped call records a span (name, start, end, parent span, operation
id) and adds to per-name totals: calls, inclusive time and self time (the
time not covered by wrapped callees).  Recursive calls of one name count as
calls but add their time only at the outermost level.  Spans stay in memory
until the run writes them out, six numbers per span in one flat list;
a parent of -1 marks a span opened directly by the operation.
"""

from __future__ import annotations

import array
import gzip
import json
import time

from baire_lab import checkers, cli, closed_sets, gallery, instances, pointclass, spaces, trees

SEARCH_ENTRY_POINTS = ("check_continuity", "check_strong_continuity", "eval_star", "eval_dagger",
                       "eval_strong_star", "eval_lower_fell")

# layer name -> (owning module or class, attribute names, distinct-key function or None)
TARGETS = [
    ("checkers.search", checkers, SEARCH_ENTRY_POINTS, None),
    ("checkers.gather_probes", checkers, ("gather_probes",), None),
    ("checkers.value", checkers.MultiMap, ("value",), lambda args: (args[0], args[1])),
    ("checkers.verify_witness", checkers, ("verify_witness",), None),
    ("closed_sets.dist_to_set", closed_sets, ("dist_to_set",), None),
    ("closed_sets.set_separation", closed_sets, ("set_separation",), None),
    ("closed_sets.eps_net", closed_sets, ("eps_net",), lambda args: (args[0], args[1])),
    ("spaces.baire_dist", spaces, ("baire_dist",), None),
    ("spaces.grid_dist", spaces, ("grid_dist",), None),
    ("spaces.dense_point", spaces.RealLine, ("dense_point",), None),
    ("spaces.dense_point", spaces.UnitInterval, ("dense_point",), None),
    ("spaces.dense_point", spaces.BaireSpace, ("dense_point",), None),
    ("spaces.dense_point", spaces.CantorGrid, ("dense_point",), None),
    ("spaces.dense_point", spaces.FinitePoints, ("dense_point",), None),
    ("trees.generated_by", trees, ("generated_by",), None),
    ("trees.tree_dist", trees, ("tree_dist",), None),
    ("trees.constrained_members", trees, ("constrained_members",), None),
    ("gallery.witness", gallery, ("f1_witness", "f2_witness"), None),
    ("instances.load_instance", instances, ("load_instance",), None),
    ("instances.verdict_to_json", instances, ("verdict_to_json",), None),
    ("instances.instance_digest", instances, ("instance_digest",), None),
    ("pointclass.classify", pointclass, ("classify",), None),
    ("cli.main", cli, ("main",), None),
]

# checker entry points and verify_witness take the probe generator as their
# fourth argument; it is wrapped per call so probe generation is a layer too
PROBES_ARG = 3
PROBE_TAKERS = ("checkers.search", "checkers.verify_witness")

NAMESPACES = (checkers, cli, closed_sets, gallery, instances, pointclass, spaces, trees)

# lru_caches whose hit ratio is read from cache_info(), summed over the
# clears of one pass
CACHES = {
    "trees.node_rank": trees.node_rank,
    "closed_sets.tree_body_points": closed_sets.tree_body_points,
}


def put(holder, key, value) -> None:
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.keyed: set[str] = set()  # layers that count distinct arguments
        self.stack: list[list] = []  # open spans: [span id, ns covered by wrapped callees]
        self.patches: list[tuple[object, object, object]] = []  # (holder, key, original)
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(self.names, 0)
        self.total_ns = dict.fromkeys(self.names, 0)
        self.self_ns = dict.fromkeys(self.names, 0)
        self.depth = dict.fromkeys(self.names, 0)
        self.keys: dict[str, set] = {name: set() for name in self.keyed}
        self.stack.clear()
        self.cache_hits = dict.fromkeys(CACHES, 0)
        self.cache_lookups = dict.fromkeys(CACHES, 0)
        self.spans = array.array("q")  # per span: op, span id, parent id, name index, start ns, end ns
        self.next_span = 0
        self.op = 0

    def layer(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            for table in (self.calls, self.total_ns, self.self_ns, self.depth):
                table.setdefault(name, 0)
        return self.index[name]

    def wrap(self, name: str, fn, key=None):
        idx = self.layer(name)
        if key is not None:
            self.keyed.add(name)
            self.keys.setdefault(name, set())
        stack, clock = self.stack, time.perf_counter_ns
        wrap_probes = name in PROBE_TAKERS

        def wrapper(*args, **kwargs):
            if wrap_probes and len(args) > PROBES_ARG:
                args = args[:PROBES_ARG] + (self.wrap("gallery.probes", args[PROBES_ARG]),) + args[PROBES_ARG + 1:]
            if key is not None:
                self.keys[name].add(key(args))
            span = self.next_span
            self.next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            self.depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.depth[name] -= 1
                elapsed = end - start
                self.calls[name] += 1
                self.self_ns[name] += elapsed - frame[1]
                if self.depth[name] == 0:
                    self.total_ns[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                self.spans.extend((self.op, span, parent, idx, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        self.layer("gallery.probes")
        for name, owner, attrs, key in TARGETS:
            for attr in attrs:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapped = self.wrap(name, original, key)
                if isinstance(owner, type):
                    self.patch(owner, attr, original, wrapped)
                    continue
                for ns in NAMESPACES:
                    for ns_attr, value in list(vars(ns).items()):
                        if value is original:
                            self.patch(ns, ns_attr, original, wrapped)
                        elif isinstance(value, dict) and not ns_attr.startswith("__"):
                            for k, v in list(value.items()):
                                if v is original:
                                    self.patch(value, k, original, wrapped)

    def patch(self, holder, key, original, wrapped) -> None:
        put(holder, key, wrapped)
        self.patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self.patches):
            put(holder, key, original)
        self.patches = []

    def clear_caches(self) -> None:
        """Add the caches' hits and lookups to the totals, then empty them:
        `cache_clear()` also resets what `cache_info()` reports."""
        for name, cached in CACHES.items():
            info = cached.cache_info()
            self.cache_hits[name] += info.hits
            self.cache_lookups[name] += info.hits + info.misses
            cached.cache_clear()

    def snapshot(self) -> dict:
        """Per-layer figures of everything recorded since the last reset."""
        out = {}
        for name in self.names:
            calls = self.calls[name]
            out[name + ".calls"] = calls
            out[name + ".s"] = self.total_ns[name] / 1e9
            out[name + ".self_s"] = self.self_ns[name] / 1e9
            if name in self.keyed:
                out[name + ".distinct_ratio"] = len(self.keys[name]) / calls if calls else 0.0
        for name, cached in CACHES.items():
            info = cached.cache_info()
            hits = self.cache_hits[name] + info.hits
            lookups = self.cache_lookups[name] + info.hits + info.misses
            out[name + ".hit_ratio"] = hits / lookups if lookups else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["op", "span", "parent", "name", "start_ns", "end_ns"],
                       "names": self.names, "spans": self.spans.tolist()}, fh, separators=(",", ":"))
