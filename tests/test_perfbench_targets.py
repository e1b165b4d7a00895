"""The traced benchmark finds every function it wraps, and every metric it
reports is a number.

A traced or renamed function that no longer resolves makes its per-layer
metrics print as ``null`` in ``perfbench/run.py --trace 1``, and a metric
that comes out NaN makes the last printed line invalid JSON; these catch
both before the benchmark runs.  The untraced ``oracle`` workload must also
reproduce every row digest of ``perfbench/reference.json`` at two more of
its seeds.
"""

import importlib
import json
import math
import pkgutil
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["sweep", "cli", "oracle"])
def test_every_traced_metric_is_a_finite_number(monkeypatch, tmp_path, name):
    # the traced run of perfbench/worker.py, in process, writing under tmp_path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import btfactors
    import layers
    import spans
    import workloads

    modules = [btfactors, *(importlib.import_module(info.name) for info in
                            pkgutil.walk_packages(btfactors.__path__, "btfactors."))]
    workload = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    patches = spans.install(tracer, layers.TARGETS, modules)
    try:
        inputs = workload.build(1, tmp_path)
        record = tracer.begin("bench.run")
        try:
            output = workload.run(inputs)
        finally:
            tracer.end(record)
        check = workloads.Check()
        reference = json.loads((PERFBENCH / "reference.json").read_text())[name]["1"]
        workload.check(inputs, output, reference, check)
        workload.cleanup(inputs)
    finally:
        spans.uninstall(patches)
    spans.write_spans(tmp_path / "spans.jsonl", tracer.spans)
    assert tracer.missing == set() and check.failures == []
    metrics = layers.layer_metrics(spans.SpanTree(tracer.spans), tracer.missing)
    bad = {key: value for key, value in metrics.items()
           if isinstance(value, bool) or not isinstance(value, (int, float))
           or not math.isfinite(value)}
    assert bad == {}
    json.dumps({"metrics": metrics}, allow_nan=False)


@pytest.mark.parametrize("seed", [0, 10])
def test_oracle_rows_match_the_reference_digests(monkeypatch, tmp_path, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS["oracle"]
    inputs = workload.build(seed, tmp_path)
    rows = workload.run(inputs)
    reference = json.loads((PERFBENCH / "reference.json").read_text())["oracle"][str(seed)]
    assert len(reference) == 100 and workload.digests(inputs, rows) == reference
