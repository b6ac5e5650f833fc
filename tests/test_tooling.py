"""The benchmark's tracer still finds every library name it wraps.

`perfbench/tracer.py` wraps functions by name, where their callers bind
them, and reads two caches by name.  Renaming or deleting one of them would
break only the benchmark run; this test makes it fail here as well.
"""

from pathlib import Path


def _bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_every_target_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
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
