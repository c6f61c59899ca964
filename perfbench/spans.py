"""Span recording around the public functions of each conetip layer.

The tracer replaces a library function with a timing wrapper under every
name the package binds it to (``conetip.solve_pencil``,
``conetip.interval.solve_pencil``, ``conetip.absorption.solve_pencil``, ...),
so calls between layers are seen as well as calls from the benchmark.  Spans
are kept in memory; aggregation into per-layer metrics happens after the
traced passes end.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    task: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans (name, start, end, parent, task) and per-call
    observations made by hooks on the wrapped functions' return values."""

    def __init__(self):
        self.spans = []
        self.obs = defaultdict(list)
        self.task_span = None
        self.task_id = None
        # span stack of the thread running the task: a call made on a pool
        # thread is a child of the span that thread is blocked in
        self._task_stack = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, key, value):
        with self._lock:
            self.obs[key].append(value)

    def call(self, name, fn, args, kwargs, observe=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._task_stack[-1]
            except IndexError:
                parent = self.task_span
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, t0, t1, parent, self.task_id))
        if observe is not None:
            observe(self, result, args, kwargs)
        return result

    @contextlib.contextmanager
    def task(self, task_id, name):
        """Root span of one benchmark task."""
        self.task_id = task_id
        self.task_span = next(self._ids)
        self._task_stack = self._stack()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            with self._lock:
                self.spans.append(Span(self.task_span, name, t0, t1, None, task_id))
            self.task_span = self.task_id = None
            self._task_stack = []

    def install(self, modules, targets):
        """Wrap every binding of each target function in ``modules``.

        ``targets`` maps a function object to ``(span_name, observe)``.
        """
        wrappers = {id(fn): self._wrapper(fn, name, observe)
                    for fn, (name, observe) in targets.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, w)

    def _wrapper(self, fn, name, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)
        return wrapper

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Queries over a finished list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)

    def ancestors(self, span):
        p = span.parent
        while p is not None and p in self.by_id:
            span = self.by_id[p]
            yield span
            p = span.parent

    def has_ancestor(self, span, name):
        return any(a.name == name for a in self.ancestors(span))

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def busy(self, *names):
        """Summed duration of the outermost spans named in ``names`` (summed,
        not merged, across threads: concurrent work counts once per thread)."""
        names = set(names)
        return sum(s.duration for s in self.spans if s.name in names
                   and not any(a.name in names for a in self.ancestors(s)))

    def self_time(self, span):
        kids = [(c.start, c.end) for c in self.children.get(span.sid, ())]
        return span.duration - _union_length(kids, span.start, span.end)
