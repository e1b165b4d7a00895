"""One workload step in one fresh process; run.py starts it.

    python3 perfbench/worker.py MODE WORKLOAD SEED [properties]

MODE is ``setup`` (import btfactors and build the inputs), ``iteration``
(set up, then run the workload once in the timed section and check its
outputs) or ``traced`` (one iteration with every layer wrapped in spans).
Set-up and the timed section are reported in reference seconds, measured
with the host-speed probe (see hostspeed.py), and also in raw seconds; the
traced run is not probed.
With ``properties`` an iteration also records the input properties.  The
result is one JSON object on the last line of standard output.

Inputs are built fresh in every process, so model row caches fill inside
the timed section, as they do for a user on every run.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_out"


def import_btfactors() -> list:
    """Import btfactors and all its submodules; returns the modules."""
    package = importlib.import_module("btfactors")
    modules = [package]
    for info in pkgutil.walk_packages(package.__path__, "btfactors."):
        modules.append(importlib.import_module(info.name))
    return modules


def load_reference(workload: str, seed: int) -> dict | None:
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_setup(workload, seed: int):
    """Import btfactors and build the inputs.

    Returns the inputs, the set-up time in reference seconds and in raw
    seconds.  Set-up is shorter than one probe tick, so the host speed for
    it is measured by kernel runs right after it.
    """
    start = time.perf_counter()
    import_btfactors()
    inputs = workload.build(seed, WORKDIR)
    raw = time.perf_counter() - start
    from hostspeed import measured_speed  # imported after set-up, which times numpy's import

    return inputs, raw * measured_speed(), raw


def setup(workload, seed: int) -> dict:
    inputs, setup_s, raw_setup_s = timed_setup(workload, seed)
    workload.cleanup(inputs)
    return {"setup_s": setup_s, "raw_setup_s": raw_setup_s}


def iteration(workload, seed: int, with_properties: bool) -> dict:
    from workloads import Check

    inputs, setup_s, raw_setup_s = timed_setup(workload, seed)
    from hostspeed import Probe

    probe = Probe().start()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        output = workload.run(inputs)
        t1 = time.perf_counter()
        cpu = cpu_seconds() - cpu0
    finally:
        probe.stop()
    # the probe's kernel ran inside the timed section; leave it out
    raw_wall = t1 - t0 - probe.handler_s(t0, t1)
    raw_cpu = cpu - probe.handler_s(t0, t1)
    speed = probe.speed(t0, t1)
    wall = probe.normalized(t0, t1)
    check = Check()
    workload.check(inputs, output, load_reference(workload.name, seed), check)
    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": wall,
        "cpu_s": raw_cpu * speed,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "host_speed": speed,
        "items": workload.items(output),
        "attempted": check.attempted,
        "failures": check.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": sys.modules["numpy"].__version__,
    }
    if with_properties:
        result["properties"] = workload.properties(inputs, output)
    workload.cleanup(inputs)
    return result


def traced(workload, seed: int) -> dict:
    from layers import TARGETS, layer_metrics, self_time_ranking
    from spans import ATTRS, NAME, SpanTree, Tracer, install, write_spans
    from workloads import Check

    modules = import_btfactors()
    tracer = Tracer()
    install(tracer, TARGETS, modules)
    record = tracer.begin("bench.setup")
    try:
        inputs = workload.build(seed, WORKDIR)
    finally:
        tracer.end(record)
    record = tracer.begin("bench.run")
    t0 = time.perf_counter()
    try:
        output = workload.run(inputs)
    finally:
        wall = time.perf_counter() - t0
        tracer.end(record)
    check = Check()
    workload.check(inputs, output, load_reference(workload.name, seed), check)
    properties = workload.properties(inputs, output)
    workload.cleanup(inputs)

    tree = SpanTree(tracer.spans)
    metrics = layer_metrics(tree, tracer.missing)
    distinct = [d for s in tracer.spans if s[NAME] == "toyseq.sample_candidate_set"
                for d in [(s[ATTRS] or {}).get("distinct")] if d is not None]
    if distinct:
        properties["distinct_candidates_per_set"] = sum(distinct) / len(distinct)
    ratio = metrics.get("toyseq.beam_decode.unique_ratio")
    if ratio:
        properties["beam_repeat_share"] = 1.0 - ratio
    WORKDIR.mkdir(exist_ok=True)
    spans_path = WORKDIR / f"trace-{workload.name}-{seed}.jsonl"
    write_spans(spans_path, tracer.spans)
    return {
        "wall_s": wall,
        "metrics": metrics,
        "missing": sorted(tracer.missing),
        "self_time_ranking": self_time_ranking(tree),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "attempted": check.attempted,
        "failures": check.failures,
        "properties": properties,
        "numpy": sys.modules["numpy"].__version__,
    }


def main(argv) -> int:
    from workloads import WORKLOADS

    mode, workload, seed = argv[0], WORKLOADS[argv[1]], int(argv[2])
    if mode == "setup":
        result = setup(workload, seed)
    elif mode == "iteration":
        result = iteration(workload, seed, argv[3:] == ["properties"])
    elif mode == "traced":
        result = traced(workload, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
