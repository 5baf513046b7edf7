"""Round-lifecycle tracing: the one clock behind every reported duration.

A :class:`Tracer` produces nested :class:`Span`\\ s measuring durations on
the monotonic performance counter, never the wall clock (which can jump
backwards or forwards under NTP adjustments or suspend/resume). A span
times itself whether or not a sink is installed, and its duration is
clamped at zero, so even a hostile clock source never reports a negative
duration. The engine reads its own timings from spans: an
:class:`~repro.core.session.IterationRecord`'s skyline, selection,
materialization and execution seconds and the session's query-generation
seconds are the durations of the matching spans — one clock for records
and traces.

**Sinks.** With a sink installed, every finished span is written as one
JSON object per line. Nesting is per thread: a span opened while another
is active on the same thread becomes its child (``parent_id``), which is
how one ``session.propose`` span ends up owning its round's
``round.prepare``/``round.search``/``round.materialize`` children. The
process-wide tracer defaults to a :class:`Tracer` without a sink: its spans
time themselves and write nothing. Tracing must never perturb behaviour:
spans carry *measurements about* the round, and the differential suite pins
traced-vs-untraced transcripts bit-identical.

**Forked processes.** A forked child inherits the parent's tracer object —
including its open file descriptor, which two processes must not interleave
writes on. A span opened in any process other than the tracer's owner
therefore times itself and writes nothing.

Span line format (one JSON object per line)::

    {"name": "round.search", "span_id": 7, "parent_id": 6, "pid": 123,
     "thread": "MainThread", "t_wall": 1754650000.123,
     "t_start": 12.345678, "duration_s": 0.042, "attrs": {"attempts": 3}}

``t_start`` is a monotonic reading (comparable only within one trace);
``t_wall`` is an informational wall-clock anchor taken at span start and
never used for durations.
"""

from __future__ import annotations

import json
import os
import threading
import time
from time import perf_counter
from typing import Any, IO

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "start_tracing",
    "stop_tracing",
]


class Span:
    """One live span: times itself; a tracer with a sink writes it on exit.

    ``duration_s`` holds the measured duration once the span has exited.
    """

    __slots__ = (
        "_tracer", "name", "span_id", "parent_id", "attrs", "duration_s", "_t_start", "_t_wall"
    )

    def __init__(self, tracer: "Tracer | None", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.duration_s = 0.0
        self.span_id = self.parent_id = None
        if tracer is not None:
            self.span_id = tracer._next_id()
            self.parent_id = tracer._current_id()
            self._t_wall = time.time()
        self._t_start = perf_counter()

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = max(0.0, perf_counter() - self._t_start)
        if self._tracer is not None:
            if exc_type is not None:
                self.attrs.setdefault("error", exc_type.__name__)
            self._tracer._pop(self)
        return False


class Tracer:
    """Opens spans; writes finished ones to a sink (a file handle or a list).

    ``sink`` is either a writable text file object (lines are written and
    flushed as spans close, so a killed process keeps every finished span),
    a plain list (spans are appended as dicts — the in-memory form the
    scenario sweep and the tests use), or ``None``: spans still time
    themselves but nothing is written.
    """

    def __init__(self, sink: IO[str] | list | None = None, *, close_sink: bool = False) -> None:
        self._sink = sink
        self._close_sink = close_sink
        self._lock = threading.Lock()
        self._ids = iter(range(1, 2**63))
        self._local = threading.local()
        self._pid = os.getpid()

    # ------------------------------------------------------------------ spans
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; use as a context manager.

        Without a sink, or in any process other than the one that created
        the tracer (a forked child inherits the tracer and must not
        interleave writes on its file descriptor), the span only times
        itself.
        """
        if self._sink is None or os.getpid() != self._pid:
            return Span(None, name, attrs)
        return Span(self, name, attrs)

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

    def _pop(self, span: Span) -> None:
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
                "duration_s": span.duration_s,
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


#: The process-wide active tracer; sink-less unless ``--trace-out`` (or a
#: test) installed one with a sink.
_ACTIVE = Tracer()


def get_tracer() -> Tracer:
    """The active tracer (a sink-less one unless tracing was enabled)."""
    return _ACTIVE


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install *tracer* (None = a sink-less tracer) and return the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
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
    """Install a sink-less tracer and close the active tracer's sink (idempotent)."""
    set_tracer(None).close()
