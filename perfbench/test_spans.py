"""Tests of the benchmark's span recorder and layer metrics.

    python3 -m pytest perfbench/test_spans.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

from layers import METRICS, layer_metrics
from spans import FAILED, NAME, PARENT, SpanTree, Target, Tracer, install, uninstall, union_length

ROOT = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None, False]


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 3.0, 6.0, parent=0),    # overlaps b: counted once
        span("d", 8.0, 9.5, parent=0),
        span("e", 2.0, 2.5, parent=1),    # grandchild: not a child of a
    ]
    tree = SpanTree(spans)
    assert tree.self_time(0) == pytest.approx(10.0 - (5.0 + 1.5))
    assert tree.self_time(1) == pytest.approx(3.0 - 0.5)
    assert tree.self_time(4) == pytest.approx(0.5)
    assert tree.self_total(("a", "b")) == pytest.approx(3.5 + 2.5)


def test_busy_counts_nested_spans_of_one_group_once():
    spans = [span("g.outer", 0.0, 4.0), span("g.inner", 1.0, 2.0, parent=0),
             span("g.outer", 6.0, 7.0)]
    assert SpanTree(spans).busy(("g.outer", "g.inner")) == pytest.approx(5.0)
    assert union_length([]) == 0.0


def _fake_modules(monkeypatch):
    home = types.ModuleType("fakepkg.home")
    exec(
        "def f(x):\n    return x + 1\n"
        "def g(x):\n    return f(x) * 2\n"
        "class Model:\n"
        "    @classmethod\n"
        "    def load(cls, text):\n        return cls()\n",
        vars(home),
    )
    user = types.ModuleType("fakepkg.user")
    user.f = home.f           # from .home import f
    monkeypatch.setitem(sys.modules, "fakepkg.home", home)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    return home, user


def test_function_bound_twice_records_one_span_per_call(monkeypatch):
    home, user = _fake_modules(monkeypatch)
    tracer = Tracer()
    targets = [Target("fake.f", "fakepkg.home", "f"), Target("fake.g", "fakepkg.home", "g"),
               Target("fake.load", "fakepkg.home", "Model.load")]
    patches = install(tracer, targets, [home, user])
    assert home.f is user.f
    assert home.f(1) == 2 and user.f(1) == 2
    assert home.g(1) == 4
    assert isinstance(home.Model.load("x"), home.Model)
    uninstall(patches)
    home.f(1)
    assert [s[NAME] for s in tracer.spans] == ["fake.f", "fake.f", "fake.g", "fake.f",
                                              "fake.load"]
    assert [s[PARENT] for s in tracer.spans] == [-1, -1, -1, 2, -1]
    assert not hasattr(home.f, "__traced__")


def test_failed_call_is_recorded_and_reraised(monkeypatch):
    home, user = _fake_modules(monkeypatch)
    tracer = Tracer()
    install(tracer, [Target("fake.f", "fakepkg.home", "f")], [home, user])
    with pytest.raises(TypeError):
        user.f("not a number")
    assert tracer.spans[0][FAILED] is True
    assert tracer.spans[0][2] is not None


def test_missing_function_is_reported_missing_not_zero(monkeypatch):
    home, user = _fake_modules(monkeypatch)
    tracer = Tracer()
    install(tracer, [Target("toyseq.beam_decode", "fakepkg.home", "beam_decode"),
                     Target("btloop.evaluate_test_bleu", "fakepkg.absent", "f"),
                     Target("fake.f", "fakepkg.home", "f")], [home, user])
    assert tracer.missing == {"toyseq.beam_decode", "btloop.evaluate_test_bleu"}
    metrics = layer_metrics(SpanTree([]), {"btloop.evaluate_test_bleu"})
    assert metrics["toyseq.beam_decode.test_busy_s"] is None
    assert metrics["toyseq.beam_decode.synth_busy_s"] == 0
    metrics = layer_metrics(SpanTree([]), tracer.missing)
    assert metrics["toyseq.beam_decode.busy_s"] is None
    assert metrics["toyseq.beam_decode.calls"] is None
    assert metrics["toyseq.batch_sample.busy_s"] == 0.0
    assert metrics["toyseq.failed"] == 0


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(METRICS) + ["trace.wall_s", "trace.overhead_ratio"]
