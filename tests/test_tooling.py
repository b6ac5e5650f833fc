"""The benchmark still runs against the library.

`perfbench/tracer.py` wraps functions by name, where their callers bind
them, and reads two caches by name, and `perfbench/workloads.py` builds
maps and instance files through the library's constructors and CLI.
Renaming or deleting one of them, or changing what it accepts, would break
only the benchmark run; these tests make it fail here as well.
"""

from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


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
