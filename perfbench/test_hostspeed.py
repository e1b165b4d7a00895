"""Tests of the host-speed probe.

    python3 -m pytest perfbench/test_hostspeed.py
"""

from __future__ import annotations

import time

import pytest

from hostspeed import REFERENCE_KERNEL_S, Probe, measured_speed


def probe_with(ticks, kernel_s):
    probe = Probe()
    probe.ticks = list(ticks)
    probe.kernel_s = list(kernel_s)
    return probe


def test_reference_speed_leaves_program_time_unchanged():
    k = REFERENCE_KERNEL_S
    probe = probe_with([1.0, 2.0, 3.0], [k] * 3)
    # 4 s between the readings, of which 3 kernel runs are the handler's
    assert probe.handler_s(0.0, 4.0) == pytest.approx(3 * k)
    assert probe.speed(0.0, 4.0) == pytest.approx(1.0)
    assert probe.normalized(0.0, 4.0) == pytest.approx(4.0 - 3 * k)


def test_half_speed_host_halves_reference_seconds():
    k = 2 * REFERENCE_KERNEL_S
    probe = probe_with([0.5 * i for i in range(1, 20)], [k] * 19)
    assert probe.speed(0.0, 10.0) == pytest.approx(0.5)
    assert probe.normalized(0.0, 10.0) == pytest.approx((10.0 - 19 * k) / 2)


def test_only_ticks_inside_the_interval_count():
    fast, slow = REFERENCE_KERNEL_S, 2 * REFERENCE_KERNEL_S
    probe = probe_with([float(i) for i in range(1, 21)], [fast] * 10 + [slow] * 10)
    assert probe.speed(0.0, 10.5) == pytest.approx(1.0)    # ticks 1..10
    assert probe.speed(10.5, 21.0) == pytest.approx(0.5)   # ticks 11..20
    assert probe.handler_s(0.0, 10.5) == pytest.approx(10 * fast)


def test_a_tick_cut_by_the_end_counts_only_up_to_it():
    k = REFERENCE_KERNEL_S
    probe = probe_with([1.0, 2.0], [k, k])
    assert probe.handler_s(0.0, 2.0 + k / 2) == pytest.approx(1.5 * k)


def test_one_disturbed_tick_does_not_set_the_speed():
    k = REFERENCE_KERNEL_S
    probe = probe_with([1.0, 2.0, 3.0, 4.0, 5.0], [k, k, 50 * k, k, k])
    assert probe.speed(0.0, 6.0) == pytest.approx(1.0)


def test_an_interval_without_ticks_is_refused():
    probe = probe_with([1.0], [REFERENCE_KERNEL_S])
    with pytest.raises(ValueError):
        probe.speed(2.0, 3.0)


def test_timer_ticks_and_stops():
    probe = Probe(period_s=0.02).start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        probe.stop()
    count = len(probe.ticks)
    assert count >= 3
    time.sleep(0.05)
    assert len(probe.ticks) == count


def test_back_to_back_speed_is_a_positive_ratio():
    assert 0.0 < measured_speed(runs=3) < 100.0
