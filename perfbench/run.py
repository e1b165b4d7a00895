"""btfactors benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {sweep,cli,oracle} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout of the repository; it uses the
checkout's ``src/`` and writes only under ``.bench_out/`` there.  Each
workload runs in fresh single-threaded Python processes (see worker.py):

* ``--trace 0`` measures the end-to-end metrics with tracing off.  It
  starts one process per iteration, each with the same seed, until about S
  seconds have passed, and reports the median iteration.  It runs at least
  MIN_ITERATIONS.  Every process also times its set-up (importing btfactors
  and building the inputs); extra set-up-only processes bring the set-up
  samples to SETUP_SAMPLES, and set-up is reported as their median.
  Times are in reference seconds: each process measures the host's speed
  with the probe of hostspeed.py, alongside the workload and right after
  set-up, and scales its times to a host of fixed speed, because the
  shared host's own speed drifts by more than the benchmark's bounds.
  The raw seconds and the host speed of every iteration are printed too.
* ``--trace 1`` runs one untraced and one traced iteration and reports the
  per-layer metrics from the traced one, plus the tracing overhead.  The
  spans are written to ``.bench_out/trace-<workload>-<seed>.jsonl``.

Metric names and units come from BENCHMARK.json at the checkout root.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name and unit, the failure ratio, the input properties and an
environment stamp.  The exit status is 0 only when every process finished;
output mismatches are reported through ``failed``, not the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ITERATIONS = 2
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0
WORKLOAD_NAMES = ("sweep", "cli", "oracle")
# single-threaded BLAS so timings do not depend on the core count
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(mode: str, workload: str, seed: int, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} process exited with status {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def read_git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def environment(numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": THREAD_ENV,
        "git_commit": read_git_commit(),
        "src_lines": src_lines(),
    }


def timed_metrics(workload: str, seed: int, seconds: float, deadline: float):
    runs, cycles = [], []
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        runs.append(run_child("iteration", workload, seed, deadline,
                              *(() if runs else ("properties",))))
        cycles.append(time.monotonic() - cycle_start)
        expected_end = time.monotonic() - start + statistics.median(cycles)
        if len(runs) >= MIN_ITERATIONS and expected_end > seconds:
            break
    setup_runs = list(runs)
    while len(setup_runs) < SETUP_SAMPLES:
        setup_runs.append(run_child("setup", workload, seed, deadline))
    setups = [r["setup_s"] for r in setup_runs]
    walls = [r["wall_s"] for r in runs]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": sum(r["items"] for r in runs) / sum(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    result = {
        "attempted": sum(r["attempted"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "properties": runs[0]["properties"],
        "numpy": runs[0]["numpy"],
    }
    detail = {"iterations": len(runs), "walls": walls, "setups": setups,
              "raw_walls": [r["raw_wall_s"] for r in runs],
              "raw_cpus": [r["raw_cpu_s"] for r in runs],
              "raw_setups": [r["raw_setup_s"] for r in setup_runs],
              "host_speeds": [r["host_speed"] for r in runs]}
    return values, result, detail


def traced_metrics(workload: str, seed: int, deadline: float):
    untraced = run_child("iteration", workload, seed, deadline)
    traced = run_child("traced", workload, seed, deadline)
    values = dict(traced["metrics"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_ratio"] = traced["wall_s"] / untraced["raw_wall_s"]
    detail = {
        "untraced_wall_s": untraced["raw_wall_s"],
        "spans": traced["spans"],
        "spans_file": traced["spans_file"],
        "missing_functions": traced["missing"],
        "self_time_ranking": traced["self_time_ranking"],
    }
    return values, traced, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "btfactors" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no src/btfactors package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        if args.trace:
            values, result, detail = traced_metrics(args.workload, args.seed, deadline)
        else:
            values, result, detail = timed_metrics(args.workload, args.seed, args.seconds,
                                                   deadline)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(wanted):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(wanted))}",
              file=sys.stderr)
        return 1

    attempted, failures = result["attempted"], result["failures"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, unit in wanted.items():
        shown = "missing" if values[name] is None else repr(values[name])
        print(f"  {name:42s} {shown} {unit}")
    if "raw_walls" in detail:
        print(f"  {'raw wall_s (median)':42s} {statistics.median(detail['raw_walls'])!r} s"
              f" at host speed {statistics.median(detail['host_speeds']):.3f}")
    print(f"  {'fail_ratio':42s} {len(failures) / attempted!r} ({len(failures)}/{attempted})")
    for failure in failures[:20]:
        print(f"  failed: {failure}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "detail": detail,
        "properties": result["properties"],
        "environment": environment(result["numpy"]),
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
