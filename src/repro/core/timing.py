"""Monotonic timing for the session and round-planner instrumentation.

Every duration the paper's tables report (execution time per iteration, the
skyline/selection/materialization split, query-generation time) is measured
with the process-wide *monotonic* performance counter — never the wall clock.
Wall-clock time can jump backwards or forwards (NTP adjustments, suspend/
resume, leap smearing): a backwards jump would report a negative round
duration, and summing skewed per-round readings would corrupt
:attr:`~repro.core.session.SessionResult.total_seconds`.

:class:`Stopwatch` additionally clamps at zero, so even a hostile clock
source can never surface a negative duration in an
:class:`~repro.core.session.IterationRecord`.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["monotonic_seconds", "Stopwatch"]


def monotonic_seconds() -> float:
    """The monotonic clock reading used for all session/round durations."""
    return perf_counter()


class Stopwatch:
    """Measure non-negative elapsed durations on the monotonic clock."""

    __slots__ = ("_started",)

    def __init__(self) -> None:
        self._started = monotonic_seconds()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`), clamped at 0."""
        return max(0.0, monotonic_seconds() - self._started)

    def restart(self) -> float:
        """Return the elapsed duration and reset the start point to now."""
        elapsed = self.elapsed()
        self._started = monotonic_seconds()
        return elapsed
