"""Span recorder for the traced run, kept in the benchmark's own files.

The tracer wraps public methods of the live engine, cache, router, index
and pipeline objects by setting an instance attribute that shadows the
class method, so the program itself is unchanged and the untraced run
pays nothing.  Each call records a span ``(id, parent, request, name,
start, end, thread, size)``.  Parents come from a thread-local stack, so
spans opened on the change-feed consumer's thread nest under that
thread's own ``apply_mutation`` span rather than under whatever lookup
the main thread is serving.  Spans stay in memory until :meth:`dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int
    request: int
    name: str
    start: float
    end: float
    thread: str
    size: int


class Tracer:
    """Records spans around wrapped calls; computes self time per layer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str]] = []

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str | Callable[..., str],
        size: Callable[..., int] | None = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        ``name`` may be a function of the call's arguments (so
        ``apply_mutation`` spans carry the mutation kind); ``size`` maps
        the arguments to the work count stored on the span (queries,
        mentions).
        """
        inner = getattr(obj, attr)
        ids = self._ids
        local = self._local
        spans = self.spans

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent, request = stack[-1] if stack else (0, span_id)
            stack.append((span_id, request))
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(
                    Span(
                        span_id,
                        parent,
                        request,
                        name(*args, **kwargs) if callable(name) else name,
                        start,
                        end,
                        threading.current_thread().name,
                        size(*args, **kwargs) if size is not None else 1,
                    )
                )

        setattr(obj, attr, traced)
        self._patched.append((obj, attr))

    def count_hits(self, obj: object, attr: str, name: str) -> None:
        """Count ``name.hit`` / ``name.miss`` by whether ``obj.attr`` returns None."""
        inner = getattr(obj, attr)
        counts = self.counts

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            out = inner(*args, **kwargs)
            counts[f"{name}.miss" if out is None else f"{name}.hit"] += 1
            return out

        setattr(obj, attr, counted)
        self._patched.append((obj, attr))

    def unwrap(self) -> None:
        """Remove every wrapper, restoring the class methods."""
        for obj, attr in reversed(self._patched):
            try:
                delattr(obj, attr)
            except AttributeError:
                pass
        self._patched.clear()

    def self_times(
        self, until: float | None = None, thread: str | None = None
    ) -> dict[str, tuple[int, float, float, int]]:
        """Per span name: (calls, total seconds, self seconds, total size).

        A span's self time is its duration minus the time its direct
        children cover; children run on the parent's thread and never
        overlap each other, so that is the sum of their durations.
        ``until`` keeps only spans that began at or before that time,
        ``thread`` only spans recorded on the thread of that name.
        """
        spans = [
            s
            for s in self.spans
            if (until is None or s.start <= until)
            and (thread is None or s.thread == thread)
        ]
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent:
                child_time[span.parent] += span.end - span.start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for span in spans:
            row = out[span.name]
            duration = span.end - span.start
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_time.get(span.id, 0.0)
            row[3] += span.size
        return {name: tuple(row) for name, row in out.items()}

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self, path: Path) -> Path:
        """Write every span as one JSON line; returns the path."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
        return path
