"""Host-speed probe: time a fixed kernel at regular ticks during a measurement.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to about 1.6x within minutes.  CPU time drifts with it (the slowdown is
contention for the core, its caches and memory, not stolen time), so
neither wall nor CPU time alone tells a slower program from a busier host.
The probe measures the host alongside the program.  A real-time interval
timer interrupts the measured code every PERIOD_S seconds, and the signal
handler runs and times ``kernel()``: a fixed mix of the kinds of work the
workloads do, namely dict churn, Python calls and float math, small-array
numpy operations, lookups in a table larger than the core's caches, and
large-array cumulative sums, draws and searches.

``Probe.normalized(start, end)`` turns the wall time between two
``perf_counter`` readings into reference seconds, the time the measured
code would have taken on a host where ``kernel()`` takes
REFERENCE_KERNEL_S: the program's own time (the handler's is left out)
times REFERENCE_KERNEL_S over the median kernel time of the ticks in
between.  A program that does more work takes more reference seconds; a
busier host does not.  ``measured_speed()`` serves steps shorter than a
tick, such as set-up: it times back-to-back kernel runs right after them.

The kernel uses only Python and numpy, never btfactors, so a change to the
program cannot change the yardstick.  On the 2-vCPU VM the benchmark was
tuned on, over 6, 6 and 12 iterations of seed 1, normalizing cut the
relative standard deviation of the timed section from 0.107 to 0.040
(``cli``), 0.092 to 0.024 (``sweep``) and 0.049 to 0.034 (``oracle``).
A kernel with only interpreter work tracked ``cli`` and ``sweep`` but made
``oracle``, which spends its time in large-array numpy calls, worse.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
# median kernel() time on the 2-vCPU Intel Xeon VM the benchmark was tuned
# on (Python 3.11.7, numpy 2.4.6): at ticks inside a running workload, and
# back to back
REFERENCE_KERNEL_S = 0.010
REFERENCE_BACK_TO_BACK_S = 0.007

_rng = random.Random(20231021)
_TABLE = {_rng.getrandbits(40): float(i) for i in range(50_000)}
_KEYS = _rng.sample(sorted(_TABLE), 3000)
_SMALL = np.arange(64, dtype=float)
_LARGE = np.random.default_rng(0).random(200_000)
_draws = np.random.default_rng(1)


def _step(x: float, y: float) -> float:
    return math.log(x + 1.0) + y * 0.5


def kernel() -> float:
    """Fixed work of each kind the workloads do; returns a checksum."""
    counts: dict = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    acc, kept = 0.0, []
    for i in range(1500):
        acc = _step(acc * 0.001 + i, acc * 1e-6)
        kept.append(acc)
        if len(kept) > 50:
            kept.sort()
            del kept[:25]
    a = _SMALL
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    total = 0.0
    for key in _KEYS:
        total += _TABLE[key]
    cumulative = np.cumsum(_LARGE)
    _draws.random(20_000)  # discarded: part of the fixed amount of work
    found = np.searchsorted(cumulative, _draws.random(20_000) * cumulative[-1])
    return total + acc + float(a[0]) + len(counts) + float(found[0])


def measured_speed(runs: int = 9) -> float:
    """Host speed from ``runs`` back-to-back kernel runs, after one to warm up.

    This measures the host around a step too short for the timer's ticks.
    Back-to-back runs find the kernel's code and data in cache, so they
    read faster than the ticks inside a workload and have their own
    reference time.
    """
    kernel()
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return REFERENCE_BACK_TO_BACK_S / statistics.median(times)


class Probe:
    """Times ``kernel()`` every PERIOD_S seconds of wall time while started."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.ticks: list[float] = []   # perf_counter when each kernel run began
        self.kernel_s: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.ticks.append(t0)
        self.kernel_s.append(time.perf_counter() - t0)

    def start(self) -> "Probe":
        kernel()  # warm the kernel's code before the first tick
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _between(self, start: float, end: float) -> range:
        return range(bisect.bisect_left(self.ticks, start), bisect.bisect_left(self.ticks, end))

    def handler_s(self, start: float, end: float) -> float:
        """Kernel time between two perf_counter readings."""
        return sum(min(self.kernel_s[i], end - self.ticks[i]) for i in self._between(start, end))

    def speed(self, start: float, end: float) -> float:
        """Median host speed between two readings; 1.0 is the reference host."""
        inside = [self.kernel_s[i] for i in self._between(start, end)]
        if not inside:
            raise ValueError("the probe recorded no ticks in the interval")
        return REFERENCE_KERNEL_S / statistics.median(inside)

    def normalized(self, start: float, end: float) -> float:
        """Reference seconds of measured code between two perf_counter readings."""
        return (end - start - self.handler_s(start, end)) * self.speed(start, end)
