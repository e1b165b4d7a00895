"""The traced benchmark finds every function it wraps.

A traced or renamed function that no longer resolves makes its per-layer
metrics print as ``null`` in ``perfbench/run.py --trace 1``; this catches
that before the benchmark runs.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    tracer = spans.Tracer()
    patches = spans.install(tracer, layers.TARGETS, [])
    try:
        assert tracer.missing == set()
    finally:
        spans.uninstall(patches)
