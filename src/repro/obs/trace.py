"""Round-lifecycle tracing: structured spans with JSON-lines export.

A :class:`Tracer` produces nested :class:`Span`\\ s — one JSON object per
line in the sink — measuring durations on the monotonic clock
(:mod:`repro.core.timing`), never the wall clock. Nesting is per thread: a
span opened while another is active on the same thread becomes its child
(``parent_id``), which is how one ``session.propose`` span ends up owning
its round's ``round.prepare``/``round.search``/``round.materialize``
children and the search span owns the backend's broadcast/merge spans.

**Zero cost when disabled.** The process-wide tracer defaults to
:data:`NULL_TRACER`, whose :meth:`~NullTracer.span` returns a shared no-op
context manager — no allocation, no clock read, no I/O. Call sites that
would compute non-trivial span attributes guard on ``tracer.enabled``.
Tracing must never perturb behaviour: spans carry *measurements about* the
round, and the differential suite pins traced-vs-untraced transcripts
bit-identical on every backend.

**Worker processes.** A forked worker inherits the parent's tracer object —
including its open file descriptor, which two processes must not interleave
writes on. Every span creation therefore checks the owning pid and silently
degrades to the no-op span in any other process; worker-side activity is
observable through the counter snapshot/merge protocol instead
(:mod:`repro.obs.registry`), and the driver-side backend spans bound it in
time.

Span line format (one JSON object per line)::

    {"name": "round.search", "span_id": 7, "parent_id": 6, "pid": 123,
     "thread": "MainThread", "t_wall": 1754650000.123,
     "t_start": 12.345678, "duration_s": 0.042, "attrs": {"backend": "serial"}}

``t_start`` is a monotonic reading (comparable only within one trace);
``t_wall`` is an informational wall-clock anchor taken at span start and
never used for durations.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, IO

from repro.core.timing import monotonic_seconds

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "start_tracing",
    "stop_tracing",
]


class _NullSpan:
    """The shared do-nothing span handed out whenever tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """Attribute setting is a no-op on the null span."""


_NULL_SPAN = _NullSpan()


class Span:
    """One live span; exits write a JSON line to the tracer's sink."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs", "_t_start", "_t_wall")

    def __init__(self, tracer: "Tracer", name: str, parent_id: int | None, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = tracer._next_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self._t_wall = time.time()
        self._t_start = monotonic_seconds()

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = max(0.0, monotonic_seconds() - self._t_start)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self, duration)
        return False


class Tracer:
    """Writes spans as JSON lines to a sink (a file handle or a list).

    ``sink`` is either a writable text file object (lines are written and
    flushed as spans close, so a killed process keeps every finished span)
    or a plain list (spans are appended as dicts — the in-memory form the
    scenario sweep and the tests use).
    """

    enabled = True

    def __init__(self, sink: IO[str] | list, *, close_sink: bool = False) -> None:
        self._sink = sink
        self._close_sink = close_sink
        self._lock = threading.Lock()
        self._ids = iter(range(1, 2**63))
        self._local = threading.local()
        self._pid = os.getpid()

    # ------------------------------------------------------------------ spans
    def span(self, name: str, **attrs: Any):
        """Open a span; use as a context manager.

        Returns the shared no-op span from any process other than the one
        that created the tracer (forked pool workers inherit the tracer and
        must not interleave writes on its file descriptor).
        """
        if os.getpid() != self._pid:
            return _NULL_SPAN
        return Span(self, name, self._current_id(), attrs)

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_id(self) -> int | None:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span, duration: float) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - misnested exit; drop rather than corrupt
            try:
                stack.remove(span)
            except ValueError:
                pass
        self._write(
            {
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "pid": self._pid,
                "thread": threading.current_thread().name,
                "t_wall": span._t_wall,
                "t_start": span._t_start,
                "duration_s": duration,
                "attrs": span.attrs,
            }
        )

    def _write(self, record: dict) -> None:
        if isinstance(self._sink, list):
            with self._lock:
                self._sink.append(record)
            return
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._sink.write(line + "\n")
            self._sink.flush()

    # ------------------------------------------------------------------ close
    def close(self) -> None:
        if self._close_sink and not isinstance(self._sink, list):
            self._sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullTracer:
    """The disabled tracer: every span is the shared no-op span."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()

#: The process-wide active tracer; NULL unless ``--trace-out`` (or a test)
#: installed a real one.
_ACTIVE: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The active tracer (the no-op tracer unless tracing was enabled)."""
    return _ACTIVE


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install *tracer* (None = disable) and return the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return previous


def start_tracing(path: str | os.PathLike) -> Tracer:
    """Open *path* for writing and install a JSON-lines tracer on it.

    The ``--trace-out`` entry point used by all three CLIs. Returns the
    tracer; pair with :func:`stop_tracing` (or ``set_tracer(previous)``).
    """
    handle = open(path, "w", encoding="utf-8")
    tracer = Tracer(handle, close_sink=True)
    set_tracer(tracer)
    return tracer


def stop_tracing() -> None:
    """Disable tracing and close the active tracer's sink (idempotent)."""
    previous = set_tracer(NULL_TRACER)
    if isinstance(previous, Tracer):
        previous.close()
