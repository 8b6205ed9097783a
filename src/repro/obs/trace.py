"""Lightweight nested spans, a trace ring buffer, and a slow-request log.

A *trace* is one request's tree of timed spans.  The serving layer opens
a trace per HTTP request with :func:`trace_request`; instrumented code
anywhere below it wraps hot sections in ``with span("foldin.solve"):``.
The active trace lives in a :class:`contextvars.ContextVar`, so the
instrumented code needs no plumbing -- it neither knows nor cares
whether a trace is active.  A context variable is per thread *and* per
asyncio task: interleaved request coroutines on one event loop each see
their own trace, and ``asyncio.to_thread`` copies the caller's context,
so spans opened in an executor thread land in the request that awaited
it.

When **no** trace is active in the current context, :func:`span`
returns a shared no-op singleton: the cost is one context-variable read
and a ``None`` check, which is what lets library code (fold-in, journal,
cache) stay instrumented unconditionally.

Completed traces land in a :class:`TraceBuffer`: a bounded ring of the
most recent traces plus a separate bounded log of requests slower than
a threshold, each with its per-span breakdown.  Both are served through
``/healthz`` (counts) and inspectable from tests; nothing is ever
written unless a buffer was installed.

Trace ids are deterministic per process (pid + monotone counter) -- no
randomness, so golden tests stay replayable.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager

_active: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_trace", default=None
)
_trace_ids = itertools.count(1)


class SpanRecord:
    """One timed section: name, start offset, duration, nested children."""

    __slots__ = ("name", "start", "duration", "children")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.duration = 0.0
        self.children: list[SpanRecord] = []

    def to_dict(self) -> dict:
        """JSON-friendly span dict."""
        out = {"name": self.name, "duration_ms": round(self.duration * 1e3, 3)}
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class Trace:
    """One request's span tree plus identity and timing metadata."""

    __slots__ = (
        "trace_id", "name", "meta", "started_unix", "duration", "spans",
        "_stack", "_t0",
    )

    def __init__(self, name: str, meta: dict | None = None) -> None:
        self.trace_id = f"{os.getpid():x}-{next(_trace_ids):06x}"
        self.name = name
        self.meta = dict(meta) if meta else {}
        self.started_unix = time.time()
        self.duration = 0.0
        self.spans: list[SpanRecord] = []
        #: Open spans, innermost last.  One request's spans run one at a
        #: time (its coroutine awaits each executor hop), so the stack
        #: is never pushed from two places at once.
        self._stack: list[SpanRecord] = []
        self._t0 = time.perf_counter()

    def to_dict(self) -> dict:
        """JSON-friendly trace dict with nested spans."""
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_unix": round(self.started_unix, 6),
            "duration_ms": round(self.duration * 1e3, 3),
            "meta": dict(self.meta),
            "spans": [record.to_dict() for record in self.spans],
        }


class _NoopSpan:
    """Shared do-nothing context manager returned when no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOOP = _NoopSpan()


class _LiveSpan:
    """Context manager that records one SpanRecord into a trace."""

    __slots__ = ("_name", "_trace", "_record", "_t0")

    def __init__(self, name: str, trace: Trace) -> None:
        self._name = name
        self._trace = trace

    def __enter__(self) -> "_LiveSpan":
        trace = self._trace
        self._t0 = time.perf_counter()
        record = SpanRecord(self._name, self._t0 - trace._t0)
        stack = trace._stack
        if stack:
            stack[-1].children.append(record)
        else:
            trace.spans.append(record)
        stack.append(record)
        self._record = record
        return self

    def __exit__(self, *exc) -> None:
        self._record.duration = time.perf_counter() - self._t0
        stack = self._trace._stack
        if stack and stack[-1] is self._record:
            stack.pop()


def span(name: str):
    """Open a named span if a trace is active in this context, else a no-op."""
    trace = _active.get()
    if trace is None:
        return _NOOP
    return _LiveSpan(name, trace)


def current_trace() -> Trace | None:
    """The trace active in the calling thread or task, if any."""
    return _active.get()


class TraceBuffer:
    """Bounded ring of recent traces plus a bounded slow-request log."""

    def __init__(
        self,
        capacity: int = 256,
        slow_threshold: float = 0.5,
        slow_capacity: int = 64,
    ) -> None:
        self.slow_threshold = float(slow_threshold)
        self._lock = threading.Lock()
        self._recent: deque[Trace] = deque(maxlen=capacity)
        self._slow: deque[Trace] = deque(maxlen=slow_capacity)
        self._captured = 0
        self._slow_seen = 0

    def add(self, trace: Trace) -> None:
        """Insert a completed trace into the ring."""
        with self._lock:
            self._captured += 1
            self._recent.append(trace)
            if trace.duration >= self.slow_threshold:
                self._slow_seen += 1
                self._slow.append(trace)

    def recent(self) -> list[dict]:
        """Snapshot of the recent-trace ring, as dicts."""
        with self._lock:
            return [trace.to_dict() for trace in self._recent]

    def slow(self) -> list[dict]:
        """Snapshot of the slow-request log, as dicts."""
        with self._lock:
            return [trace.to_dict() for trace in self._slow]

    def stats(self) -> dict:
        """Counts for /healthz: totals and buffer occupancy."""
        with self._lock:
            return {
                "captured": self._captured,
                "buffered": len(self._recent),
                "slow_seen": self._slow_seen,
                "slow_buffered": len(self._slow),
                "slow_threshold_ms": round(self.slow_threshold * 1e3, 3),
            }


@contextmanager
def trace_request(name: str, buffer: TraceBuffer | None = None, meta: dict | None = None):
    """Open a trace for the current context; deposit it in ``buffer`` on exit.

    Yields the :class:`Trace` so the caller can attach metadata (status
    code, route) before the context closes.  Nested calls are not
    supported -- the inner call would steal the outer stack -- so an
    already-active trace makes this a pass-through that yields the
    existing trace and deposits nothing.
    """
    active = _active.get()
    if active is not None:
        yield active
        return
    trace = Trace(name, meta)
    token = _active.set(trace)
    try:
        yield trace
    finally:
        trace.duration = time.perf_counter() - trace._t0
        _active.reset(token)
        if buffer is not None:
            buffer.add(trace)
