"""In-memory span recorder and the patch set that attaches it to cotloop.

Spans and counts are recorded from the benchmark's side of each layer
boundary: a public name is replaced, where its caller looks it up, by a
wrapper that records a span (or only a count) and calls the original.
Names the program no longer has are skipped and reported as missing, so
a refactor that removes one leaves that layer reading zero instead of
breaking the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: int          # 0 for a root span
    name: str
    start: float         # perf_counter seconds
    end: float


class SpanRecorder:
    """Collects spans and counters; parents come from a per-thread stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> Callable:
        """`fn` recorded as a span named `name`, a child of the caller's span."""
        clock = self.clock

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_error is not None:
                    on_error()
                raise
            finally:
                end = clock()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """`fn` with a call counter only, for calls too frequent to span."""
        def counting(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counting

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call `fn` inside a span named `name`."""
        return self.wrap(name, fn)(*args, **kwargs)

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"meta": meta, "counts": dict(self.counts),
                       "fields": list(Span._fields),
                       "spans": [list(s) for s in self.spans]}, f)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    covered by the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self seconds per span name."""
    per_span = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + per_span[s.id]
    return totals


class Patcher:
    """Replaces attributes and restores every one of them on exit."""

    _ABSENT = object()

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _found(self, owner, attr: str) -> bool:
        if hasattr(owner, attr):
            return True
        label = getattr(owner, "__name__", type(owner).__name__)
        self.missing.append(f"{label}.{attr}")
        return False

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, self._ABSENT)))
        setattr(owner, attr, value)

    def function(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Module global, or a bound method shadowed on one instance."""
        if self._found(owner, attr):
            self._set(owner, attr, make(getattr(owner, attr)))

    def method(self, cls, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Plain method: the wrapper receives `self` as its first argument."""
        if self._found(cls, attr):
            self._set(cls, attr, make(getattr(cls, attr)))

    def classmethod(self, cls, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Classmethod: the wrapper receives the bound method's arguments."""
        if self._found(cls, attr):
            self._set(cls, attr, staticmethod(make(getattr(cls, attr))))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is self._ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
