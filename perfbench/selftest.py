"""Quick self-test of the benchmark: one round per workload.

    python3 perfbench/selftest.py

Checks that
- every workload runs one round (`--seconds 1`) with every operation judged
  correct, and prints every end-to-end metric of BENCHMARK.json with its
  unit;
- two traced runs print every per-layer metric with its unit and the same
  `.calls` counts;
- `report_sha256` is the same under three PYTHONHASHSEED values;
- the reference checks can fail: a wrong verdict, a forged certificate, a
  wrong exit code, an altered report, a check report with flipped verdicts
  (for every template that has a verdict reference) and an operation that
  raises are each counted as failed, and the run goes on;
- run from a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from baire_lab import checkers  # noqa: E402

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print("FAIL " + message)


def bench(workload: str, trace: int, hashseed: str, cwd: str = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("report_sha256 "))
    return json.loads(lines[-1]), digest


def check_metrics(workload: str, result: dict, wanted: list[dict], label: str) -> None:
    got = result["metrics"]
    check(sorted(got) == sorted(m["name"] for m in wanted), "%s %s: metric names differ from BENCHMARK.json"
          % (workload, label))
    for m in wanted:
        entry = got.get(m["name"], {})
        check(entry.get("unit") == m["unit"] and isinstance(entry.get("value"), (int, float)),
              "%s %s: %s not printed with unit %s" % (workload, label, m["name"], m["unit"]))


def test_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = bench(workload, 0, "1")
        check(untraced.returncode == 0, "%s: exit %d: %s" % (workload, untraced.returncode, untraced.stderr[-500:]))
        traced = [bench(workload, 1, seed) for seed in ("2", "3")]
        if untraced.returncode or any(p.returncode for p in traced):
            continue
        result, digest = parse(untraced)
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              "%s: operations failed: %s" % (workload, untraced.stdout[-800:]))
        check_metrics(workload, result, spec["end_to_end"], "trace 0")
        (first, digest1), (second, digest2) = parse(traced[0]), parse(traced[1])
        for r in (first, second):
            check(r["correct"], "%s: traced operations failed" % workload)
            check_metrics(workload, r, spec["per_layer"], "trace 1")
        calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
        again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
        check(calls == again, "%s: .calls counts differ between traced runs" % workload)
        check(digest == digest1 == digest2, "%s: report_sha256 differs across PYTHONHASHSEED" % workload)
        print("ok %s: %d operations, %d layer call counts repeat, report %s"
              % (workload, result["attempted"], len(calls), digest[:12]))


def failed_count(pairs) -> int:
    tally = run.Tally()
    for op, outcome in pairs:
        tally.record(op, outcome, None)
    return tally.failed


def flip(kind: str) -> str:
    return "discontinuous" if kind == "continuous" else "continuous"


def alter(stdout: str) -> str:
    """The report with its main finding changed, per subcommand."""
    report = json.loads(stdout)
    command = report["command"]
    if command == "check":
        report["digest"] = "0" * 64
    elif command in ("gallery f1", "gallery f2"):
        report["verdict"] = flip(report["verdict"])
    elif command == "gallery embed":
        report["intervals"].reverse()
    elif command == "classify":
        report["pointclass"] = "Sigma0(99)"
    elif "tree" in report:
        report["tree"] = report["tree"].replace("nodes:[()", "nodes:[(),(9)")
    elif "terminals" in report:
        report["terminals"].append("(9)")
    else:
        report["ill_founded"] = True
    return json.dumps(report, sort_keys=True, indent=2)


def test_references_can_fail(workdir: str) -> None:
    # a wrong verdict, on every operation of a criterion_scan and an
    # interval_nets round whose verdicts were all conclusive
    for cls in (workloads.CriterionScan, workloads.IntervalNets):
        wrong = []
        for op in cls(7, workdir).round(0):
            outcome = op.run()
            if any(v.kind == "inconclusive" for _, v in outcome):
                continue
            if op.kind == "tabular":
                # no structural reference, only plain = star: flip one of them
                (_, plain), (_, star) = outcome
                wrong.append((op, [("plain", checkers.Verdict(flip(plain.kind))), ("star", star)]))
            else:
                wrong.append((op, [(name, checkers.Verdict(flip(v.kind))) for name, v in outcome]))
        check(wrong and failed_count(wrong) == len(wrong),
              "%s: a wrong verdict was not counted as failed" % cls.__name__)

    # a forged certificate: every witness of a gallery round altered before verification
    def forge(w):
        if isinstance(w, checkers.DiscontinuityWitness):
            return dataclasses.replace(w, margin=w.margin + 1)
        if isinstance(w.y, Fraction):
            return dataclasses.replace(w, y=w.y + 1000)
        return dataclasses.replace(w, y=dataclasses.replace(w.y, prefix=(99,) + w.y.prefix))

    gallery = workloads.GalleryCertify(7, workdir)
    gallery.tamper = forge
    ops = gallery.round(0)
    check(failed_count((op, op.run()) for op in ops) == len(ops),
          "gallery_certify: a forged certificate was not counted as failed")

    # a wrong exit code and an altered report, on every request of a cli round
    ops = workloads.CliRequests(7, workdir).round(0)
    outcomes = [op.run() for op in ops]
    bad_exit = [(op, (2, stdout, stderr)) for op, (code, stdout, stderr) in zip(ops, outcomes)]
    check(failed_count(bad_exit) == len(ops), "cli_requests: exit code 2 was not counted as failed")
    altered = [(op, (code, alter(stdout), stderr)) for op, (code, stdout, stderr) in zip(ops, outcomes)]
    check(failed_count(altered) == len(ops), "cli_requests: an altered report was not counted as failed")

    # check reports with their verdicts flipped and the digest left as it
    # was, per template; only templates with a verdict reference can catch it
    cli = workloads.CliRequests(7, workdir)
    unreferenced = []
    for maker in cli.roadmap_makers + cli.other_makers:
        _, expect, _ = maker(random.Random(maker.__name__))
        op = cli.cli_op(cli.check_request(random.Random(maker.__name__), maker, maker.__name__))
        code, stdout, stderr = op.run()
        report = json.loads(stdout)
        for r in report["results"]:
            r["verdict"] = flip(r["verdict"])
        if all(e is None for e in expect):
            unreferenced.append(maker.__name__)
            continue
        check(failed_count([(op, (code, json.dumps(report), stderr))]) == 1,
              "cli_requests %s: flipped verdicts were not counted as failed" % maker.__name__)
    print("ok flipped check verdicts counted as failed; templates without a verdict reference: %s"
          % ", ".join(unreferenced))

    # an operation that raises is counted and the pass goes on
    def boom():
        raise RuntimeError("deliberate")

    raising = workloads.Op("raises", boom, lambda outcome: ([], [], []))
    good = workloads.CriterionScan(7, workdir).round(0)[0]
    tally = run.Tally()
    ok, durations = run.run_pass([raising, good], tally)
    check(tally.attempted == 2 and tally.failed == 1 and len(ok) == 1,
          "an operation that raised was not counted as one failure among two")
    print("ok reference checks count wrong verdicts, forged certificates, bad exits, altered reports, raises")


def test_bare_directory(workdir: str) -> None:
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("interval_nets", 0, "1", cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ the benchmark must exit non-zero and print nothing (exit %d)" % proc.returncode)
    print("ok without src/: exit %d, nothing printed" % proc.returncode)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        test_references_can_fail(workdir)
        test_bare_directory(workdir)
        test_runs(spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: %s" % ("FAILED (%d)" % len(FAILURES) if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
