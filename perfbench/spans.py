"""In-memory span recorder for the benchmark's traced run.

The recorder wraps functions at every module binding that holds them, so a
caller that did ``from .decode import beam_decode`` is traced as well as one
that calls ``decode.beam_decode``.  Each call records one span: name, start,
end, parent span, optional attributes and whether it raised.  Spans stay in
memory until the run ends; ``write_spans`` writes them out as JSON lines.

Only the traced run's process installs wrappers, so timed runs never carry
them.  Nothing here imports the program under test.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, ATTRS, FAILED = range(6)


@dataclass(frozen=True)
class Target:
    """A function to trace: ``module:qualname`` recorded under ``name``.

    ``annotate(args, kwargs, result)`` may return a dict of attributes for
    the span, such as a row count or the bytes a call wrote.
    """

    name: str
    module: str
    qualname: str
    annotate: Callable | None = None


class Tracer:
    """Records spans; the parent of a span is the innermost open span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._wrappers: dict[int, Callable] = {}

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.clock(), None, parent, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list, failed: bool = False) -> None:
        record[END] = self.clock()
        record[FAILED] = failed
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, annotate: Callable | None = None) -> Callable:
        """One wrapper per function object, however many bindings share it."""
        existing = self._wrappers.get(id(fn))
        if existing is not None:
            return existing

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(record, failed=True)
                raise
            self.end(record)
            if annotate is not None:
                try:
                    record[ATTRS] = annotate(args, kwargs, result)
                except Exception as exc:  # a stale annotation must not break the run
                    record[ATTRS] = {"annotate_error": repr(exc)}
            return result

        traced.__traced__ = fn
        self._wrappers[id(fn)] = traced
        return traced


def _resolve(target: Target):
    """(owner, attribute, raw value) for a target, or None if it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


def install(tracer: Tracer, targets, modules) -> list[tuple]:
    """Wrap each target at every binding in ``modules`` (and its class).

    A target that no longer exists is added to ``tracer.missing`` and left
    out.  Returns the patches, for ``uninstall``.
    """
    patches = []
    for target in targets:
        found = _resolve(target)
        if found is None:
            tracer.missing.add(target.name)
            continue
        owner, attr, raw = found
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(tracer.wrap(target.name, raw.__func__, target.annotate))
            else:
                replacement = tracer.wrap(target.name, raw, target.annotate)
            patches.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            continue
        wrapper = tracer.wrap(target.name, raw, target.annotate)
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is raw:
                    patches.append((module, key, raw))
                    setattr(module, key, wrapper)
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# -- span arithmetic ------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTree:
    """Closed spans with child lists, for busy, self and count queries."""

    def __init__(self, spans):
        if any(s[END] is None for s in spans):
            raise ValueError("span tree built while a span is still open")
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.children[s[PARENT]].append(i)
            self.by_name.setdefault(s[NAME], []).append(i)

    def of(self, names) -> list[int]:
        names = [names] if isinstance(names, str) else names
        return sorted(i for name in set(names) for i in self.by_name.get(name, ()))

    def duration(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def busy(self, names) -> float:
        """Wall time during which at least one span of ``names`` was open."""
        return union_length((self.spans[i][START], self.spans[i][END]) for i in self.of(names))

    def self_time(self, i: int) -> float:
        """Duration minus the part of it that child spans cover."""
        start, end = self.spans[i][START], self.spans[i][END]
        covered = union_length(
            (max(start, self.spans[c][START]), min(end, self.spans[c][END]))
            for c in self.children[i]
        )
        return self.duration(i) - covered

    def self_total(self, names) -> float:
        return sum(self.self_time(i) for i in self.of(names))

    def ancestors(self, i: int):
        p = self.spans[i][PARENT]
        while p >= 0:
            yield p
            p = self.spans[p][PARENT]

    def nearest(self, i: int, names):
        """Name of the closest ancestor whose name is in ``names``, if any."""
        for a in self.ancestors(i):
            if self.spans[a][NAME] in names:
                return self.spans[a][NAME]
        return None

    def attr_sum(self, names, key: str) -> float:
        total = 0
        for i in self.of(names):
            attrs = self.spans[i][ATTRS] or {}
            total += attrs.get(key, 0)
        return total


def write_spans(path, spans) -> None:
    """One JSON object per span: index, name, start, end, parent, attributes."""
    with open(path, "w") as out:
        for i, s in enumerate(spans):
            out.write(json.dumps({
                "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT], "attrs": s[ATTRS], "failed": s[FAILED],
            }) + "\n")
