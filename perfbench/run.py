"""baire-lab benchmark: verdict throughput and latency on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.  One
process, one client, closed loop: each operation is sent only after the
previous one returned.  Inputs are generated from `--seed` (see
workloads.py), and every outcome is judged against a reference that does
not rely on the search.

`--trace 0` times rounds of operations until `--seconds` have passed (the
round under way is finished, and a workload may ask for a minimum number of
operations) and reports the end-to-end metrics.  Module caches are cleared
before the timed phase, and before every request of `cli_requests`,
because each `baire-lab` invocation starts cold.  `setup_s` is the median
over nine fresh processes of the time from the spawn to the first
operation being ready: interpreter start, importing baire_lab, building
the workload and writing its instance files.  All four times are read on
the reference clock described at REFERENCE_S below (a machine on which a
fixed loop of Fraction additions takes 0.5 ms), and the wall-clock
figures are printed beside them.

`--trace 1` repeats the first round in pairs, untraced then traced, until
`--seconds` have passed, and reports per-layer figures of one traced pass:
call counts and ratios of the first pass (they repeat exactly; cache hit
ratios add up the lookups of every request of a pass, across the clears),
times as the median over passes.  `trace.overhead_ratio` is the median of
traced over untraced time.  The spans of the first traced pass are written
to `.perfbench_out/spans-<workload>.json.gz`, replacing those of the last
run.

Lines before the last describe the run (percentile used for the tail,
failure ratio, report hash, composition); the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("criterion_scan", "interval_nets", "gallery_certify", "cli_requests")
SETUP_REPEATS = 9

# The end-to-end times are read on a reference clock.  A shared machine's
# speed can drift by 1.8x within seconds and stay there for minutes (a fixed
# loop of Fraction additions, alone in its process, with CPU time equal to
# wall time), and whole runs move with it.  So every timed operation is
# followed by `calibration()`, a fixed loop that uses nothing of baire_lab,
# and a long operation is interrupted every SAMPLE_S for one more, whose
# time is taken out of the operation's.  The operation's time is scaled by
# REFERENCE_S over the median of the calibrations taken during and after
# it and its neighbours: the time it would take on a machine where the loop
# takes REFERENCE_S.
REFERENCE_S = 0.0005
SAMPLE_S = 0.05
CALIBRATION_WINDOW = 4  # operations on each side whose calibrations count

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "checkers.search.self_s",
    "checkers.gather_probes.calls", "checkers.gather_probes.s",
    "checkers.value.calls", "checkers.value.s", "checkers.value.distinct_ratio",
    "checkers.verify_witness.calls", "checkers.verify_witness.s",
    "closed_sets.dist_to_set.calls", "closed_sets.dist_to_set.s",
    "closed_sets.set_separation.calls", "closed_sets.set_separation.s",
    "closed_sets.eps_net.calls", "closed_sets.eps_net.s", "closed_sets.eps_net.distinct_ratio",
    "closed_sets.tree_body_points.hit_ratio",
    "trees.node_rank.hit_ratio",
    "spaces.baire_dist.calls", "spaces.baire_dist.s",
    "spaces.dense_point.calls",
    "spaces.grid_dist.calls", "spaces.grid_dist.s",
    "trees.generated_by.calls", "trees.generated_by.s",
    "trees.tree_dist.calls", "trees.tree_dist.s",
    "trees.constrained_members.s",
    "gallery.witness.s",
    "gallery.probes.calls", "gallery.probes.s",
    "instances.load_instance.s",
    "instances.verdict_to_json.s",
    "instances.instance_digest.s",
    "pointclass.classify.s",
    "cli.main.self_s",
    "trace.overhead_ratio",
]


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# a fresh process that sets a workload up and prints the seconds since the
# time its parent passed in, read from the system-wide monotonic clock just
# before the spawn
SETUP_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), sys.argv[5]).round(0)
print(time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[6]))
"""


def import_library():
    """Import the benchmark modules, and through them baire_lab from src/."""
    if not os.path.isfile(os.path.join(SRC, "baire_lab", "__init__.py")):
        sys.exit("perfbench: no baire_lab sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import tracer
    import workloads
    import baire_lab

    if os.path.dirname(os.path.dirname(os.path.abspath(baire_lab.__file__))) != SRC:
        sys.exit("perfbench: baire_lab imported from %s, not from %s" % (baire_lab.__file__, SRC))
    return workloads, tracer


def setup_times(workload: str, seed: int, workdir: str) -> tuple[list[float], list[float]]:
    """Set-up time of SETUP_REPEATS fresh processes: from the spawn until
    the process has started its interpreter, imported baire_lab and built
    the workload and its first round (writing instance files where the
    workload has them).  Returns the times and the calibrations taken
    between them."""
    times, calibrations = [], []
    for i in range(SETUP_REPEATS):
        calibrations += [calibration(), calibration()]
        started = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, HERE, workload, str(seed),
                                os.path.join(workdir, "setup-%d" % i), started],
                               capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    return times, calibrations


class Tally:
    """Outcomes of judged operations: failures, verdict kinds, composition."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.verdicts = collections.Counter()
        self.kinds = collections.Counter()
        self.tags = collections.defaultdict(collections.Counter)

    def record(self, op, outcome, error) -> list:
        """Judge one outcome; return its canonical payloads."""
        self.attempted += 1
        self.kinds[op.kind] += 1
        for tag, value in op.tags.items():
            self.tags[tag][value] += 1
        problems, payloads = [], []
        if error is not None:
            problems = [error]
        else:
            try:
                problems, kinds, payloads = op.judge(outcome)
                self.verdicts.update(kinds)
            except Exception:
                problems = ["judging raised: " + traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append("%s: %s" % (op.kind, "; ".join(problems)))
        return payloads

    def composition(self) -> dict:
        out = {"operations": dict(sorted(self.kinds.items()))}
        total_verdicts = sum(self.verdicts.values())
        out["verdicts"] = dict(sorted(self.verdicts.items()))
        out["inconclusive_share"] = self.verdicts["inconclusive"] / total_verdicts if total_verdicts else 0.0
        trees_seen = self.tags["tree"][True]
        if trees_seen:
            out["ill_founded_tree_share"] = self.tags["ill_founded"][True] / trees_seen
        interval = self.tags["interval_valued"]
        if interval:
            out["interval_valued_share"] = interval[True] / sum(interval.values())
        if self.tags["subcommand"]:
            out["requests"] = dict(sorted(self.tags["subcommand"].items()))
        return out


def execute(op, sampler=None):
    """Run one operation; return (seconds, outcome, error text or None).
    With a Sampler, calibrations run inside the operation and their time
    is not counted."""
    if sampler is not None:
        sampler.start()
    started = time.perf_counter()
    try:
        outcome, error = op.run(), None
    except Exception:
        outcome, error = None, "raised: " + traceback.format_exc(limit=3)
    finally:
        if sampler is not None:
            sampler.stop()
    seconds = time.perf_counter() - started
    return seconds - (sampler.spent if sampler is not None else 0.0), outcome, error


def calibration() -> float:
    """Seconds of one fixed loop of Fraction additions, with the cyclic
    garbage collector off so that the size of the program's heap does not
    enter it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 200):
            total += Fraction(1, k * k)
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class Sampler:
    """Calibrations of the timed operations, one list per operation: those
    taken every SAMPLE_S while it ran (on SIGALRM) and one after it."""

    def __init__(self):
        self.per_op: list[list[float]] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self.sample)

    def sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.per_op[-1].append(calibration())
        self.spent += time.perf_counter() - started

    def start(self) -> None:
        self.per_op.append([])
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def after(self) -> None:
        self.per_op[-1].append(calibration())


def on_reference_clock(durations, per_op):
    """Each duration scaled by REFERENCE_S over the median of the
    calibrations taken during and after it and CALIBRATION_WINDOW
    operations on each side."""
    w = CALIBRATION_WINDOW
    return [d * REFERENCE_S / statistics.median([c for cs in per_op[max(0, i - w):i + w + 1] for c in cs])
            for i, d in enumerate(durations)]


def run_pass(ops, tally, before_each=None, payload_sink=None, sampler=None):
    """Run and judge operations in order; return the seconds of those judged
    correct, and of all.  With a Sampler, operations are calibrated."""
    durations = []
    ok_durations = []
    for op in ops:
        if before_each is not None:
            before_each()
        seconds, outcome, error = execute(op, sampler)
        if sampler is not None:
            sampler.after()
        failed_before = tally.failed
        payloads = tally.record(op, outcome, error)
        durations.append(seconds)
        if tally.failed == failed_before:
            ok_durations.append(seconds)
        if payload_sink is not None:
            payload_sink.append(payloads)
    return ok_durations, durations


def report_digest(payloads) -> str:
    digest = hashlib.sha256()
    for op_payloads in payloads:
        for payload in op_payloads:
            text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True,
                                                                      separators=(",", ":"))
            digest.update(text.encode())
            digest.update(b"\n")
    return digest.hexdigest()


def tail(durations):
    """p99 when at least ten samples lie beyond it, else p90."""
    n = len(durations)
    if n < 2:
        return "max", durations[0] if durations else 0.0
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    if n * 0.01 >= 10:
        return "p99", cuts[98]
    return "p90", cuts[89]


def timed_run(workload, tally, first_round, seconds, clear, before_each, payloads):
    """Whole rounds until `seconds` have passed and the workload's
    `min_ops` operations were timed.  Returns the rounds, the operations
    judged correct, the wall-clock durations and the Sampler."""
    all_ok, all_durations, sampler = 0, [], Sampler()
    min_ops = getattr(workload, "min_ops", 0)
    clear()
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        ops = first_round if r == 0 else workload.round(r)
        ok, durations = run_pass(ops, tally, before_each, payloads if r == 0 else None, sampler)
        all_ok += len(ok)
        all_durations += durations
        r += 1
        if time.perf_counter() >= deadline and len(all_durations) >= min_ops:
            return r, all_ok, all_durations, sampler


def traced_run(tracer_mod, tally, first_round, seconds, clear, before_each, payloads, spans_path):
    tracer = tracer_mod.Tracer()
    traced_before_each = tracer.clear_caches if before_each is not None else None
    ratios, snapshots = [], []
    deadline = time.perf_counter() + seconds
    while True:
        clear()
        _, untraced = run_pass(first_round, tally, before_each, payloads if not ratios else None)
        clear()
        tracer.reset()
        tracer.install()
        outcomes = []
        try:
            # outcomes are judged after uninstall, so judging is not traced
            for i, op in enumerate(first_round):
                if traced_before_each is not None:
                    traced_before_each()
                tracer.op = i
                outcomes.append(execute(op))
            snapshots.append(tracer.snapshot())
        finally:
            tracer.uninstall()
        for op, (_, outcome, error) in zip(first_round, outcomes):
            tally.record(op, outcome, error)
        ratios.append(sum(s for s, _, _ in outcomes) / sum(untraced))
        if len(snapshots) == 1:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            tracer.write_spans(spans_path)
        if time.perf_counter() >= deadline:
            break
    first = snapshots[0]
    varying = sorted(k for k in first if k.endswith(".calls") and any(s[k] != first[k] for s in snapshots))
    if varying:
        print("warning: call counts differ between traced passes: %s" % ", ".join(varying))
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = statistics.median(ratios)
        elif layer_unit(name) == "s":
            value = statistics.median(s[name] for s in snapshots)
        else:
            value = first[name]
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    return len(snapshots), metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, tracer_mod = import_library()
    workdir = os.path.join(OUT_DIR, "run-%d" % os.getpid())
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        first_round = workload.round(0)
        clear = workloads.clear_module_caches
        before_each = clear if getattr(workload, "cold_each_op", False) else None
        tally = Tally()
        payloads: list = []
        print("perfbench workload=%s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds,
                                                                   args.trace))
        if args.trace:
            spans_path = os.path.join(OUT_DIR, "spans-%s.json.gz" % args.workload)
            passes, metrics = traced_run(tracer_mod, tally, first_round, args.seconds, clear, before_each,
                                         payloads, spans_path)
            print("traced passes %d of the first round (%d operations); spans in %s"
                  % (passes, len(first_round), os.path.relpath(spans_path, ROOT)))
        else:
            setups, setup_calibrations = setup_times(args.workload, args.seed, workdir)
            rounds, ok, wall, sampler = timed_run(workload, tally, first_round, args.seconds, clear,
                                                  before_each, payloads)
            durations = on_reference_clock(wall, sampler.per_op)
            calibrations = [c for cs in sampler.per_op for c in cs]
            setup_scale = REFERENCE_S / statistics.median(setup_calibrations)
            tail_name, tail_s = tail(durations)
            n = len(durations)
            beyond = sum(1 for d in durations if d > tail_s)
            figures = {
                "ops_per_s": (ok / sum(durations), ok / sum(wall)),
                "op_p50_ms": (statistics.median(durations) * 1000, statistics.median(wall) * 1000),
                "op_tail_ms": (tail_s * 1000, tail(wall)[1] * 1000),
                "setup_s": (statistics.median(setups) * setup_scale, statistics.median(setups)),
            }
            metrics = {k: reference for k, (reference, _) in figures.items()}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
            print("rounds %d, operations %d, op time %.3f s" % (rounds, n, sum(wall)))
            print("op_tail_ms is %s of %d samples, %d beyond it" % (tail_name, n, beyond))
            print("setup_s is the median of %s s (wall clock)" % ", ".join("%.4f" % t for t in setups))
            print("calibrations %d, median %.4f ms, reference %.4f ms; on the wall clock: %s"
                  % (len(calibrations), statistics.median(calibrations) * 1000, REFERENCE_S * 1000,
                     ", ".join("%s %.6g" % (k, w) for k, (_, w) in figures.items())))
        for name, m in metrics.items():
            print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
        print("failed_ratio %s (%d of %d)" % (tally.failed / tally.attempted, tally.failed, tally.attempted))
        for failure in tally.failures:
            print("failure: " + failure.replace("\n", " | "))
        print("report_sha256 %s (first round, %d operations)" % (report_digest(payloads), len(payloads)))
        print("composition " + json.dumps(tally.composition(), sort_keys=True))
        print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
