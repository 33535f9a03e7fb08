"""Spans recorded from outside etalab, for the traced run only.

``Tracer.install`` replaces functions at the name where their callers
look them up (a module attribute, or a class attribute for methods) with
wrappers that record a span each: name, start, end, parent span, job and
round, plus an optional amount of work taken from the call.
``Tracer.uninstall`` puts the originals back.  Spans stay in memory
until ``write``.

The parent of a span is the innermost open span on the same thread.  A
worker thread of the scan thread pool has no open span of its own, so
its spans hang under the innermost open span of the main thread, which
is the ``scans.scan_conjecture`` call waiting on the pool.
"""

from __future__ import annotations

import itertools
import json
import threading
import time


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "round", "thread", "work")

    def __init__(self, id_, name, start, parent, job, round_, thread):
        self.id = id_
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.round = round_
        self.thread = thread
        self.work = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self.round = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            main = self._main_stack
            parent = main[-1].id if main and stack is not main else None
        span = Span(next(self._ids), name, 0.0, parent, self.job, self.round,
                    threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name, work):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(span)
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name, work) target in place."""
        for owner, attr, name, work in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out
