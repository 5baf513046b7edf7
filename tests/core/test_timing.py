"""Monotonic-clock timing: span durations are the session layer's one clock.

Session and round durations feed the paper's tables. Every one of them is
the duration of a span (:mod:`repro.obs.trace`) measured on the monotonic
performance counter, never ``time.time``. These tests pin the span clock
(non-negative even under a backwards-jumping source), the session (timings
unaffected by a hostile wall clock), and that each record timing is exactly
the duration of its span.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import QFEConfig
from repro.core.feedback import WorstCaseSelector
from repro.core.session import QFESession
from repro.obs import trace
from repro.obs.trace import Tracer, set_tracer
from repro.qbo import QBOConfig


class TestSpanClock:
    def test_duration_is_non_negative_and_grows(self):
        tracer = Tracer()
        with tracer.span("short") as short:
            pass
        with tracer.span("long") as long:
            time.sleep(0.01)
        assert 0.0 <= short.duration_s < long.duration_s

    def test_backwards_jumping_clock_is_clamped_to_zero(self, monkeypatch):
        readings = iter([100.0, 40.0, 100.0, 40.0])  # the clock "jumps back" 60 seconds
        monkeypatch.setattr(trace, "perf_counter", lambda: next(readings))
        with Tracer().span("unsinked") as unsinked:
            pass
        spans: list = []
        with Tracer(spans).span("sinked") as sinked:
            pass
        assert unsinked.duration_s == sinked.duration_s == 0.0
        assert spans[0]["duration_s"] == 0.0


class TestSessionTimingUsesMonotonicClock:
    @pytest.fixture()
    def hostile_wall_clock(self, monkeypatch):
        # time.time() runs *backwards*: any timing derived from the wall
        # clock would come out negative. perf_counter is untouched.
        state = {"now": 1_700_000_000.0}

        def backwards() -> float:
            state["now"] -= 3600.0
            return state["now"]

        monkeypatch.setattr(time, "time", backwards)
        return backwards

    def test_session_timings_survive_wall_clock_skew(
        self, hostile_wall_clock, employee_db, employee_result, employee_candidates
    ):
        session = QFESession(
            employee_db, employee_result,
            candidates=employee_candidates, config=QFEConfig(),
        )
        outcome = session.run(WorstCaseSelector())
        assert outcome.iteration_count >= 1
        assert outcome.query_generation_seconds >= 0.0
        for record in outcome.iterations:
            assert record.execution_seconds >= 0.0
            assert record.skyline_seconds >= 0.0
            assert record.selection_seconds >= 0.0
            assert record.materialize_seconds >= 0.0
        assert outcome.total_seconds >= 0.0
        assert outcome.total_seconds == pytest.approx(
            outcome.query_generation_seconds
            + sum(r.execution_seconds for r in outcome.iterations)
        )


def _descendants(span: dict, spans: list[dict]) -> dict[str, list[dict]]:
    """Every span below *span*, by name."""
    below: dict[str, list[dict]] = {}
    frontier = [span["span_id"]]
    while frontier:
        parent = frontier.pop()
        for child in spans:
            if child["parent_id"] == parent:
                below.setdefault(child["name"], []).append(child)
                frontier.append(child["span_id"])
    return below


class TestRecordTimingsAreSpanDurations:
    def test_records_and_the_trace_share_one_clock(self, employee_db, employee_result):
        spans: list = []
        previous = set_tracer(Tracer(spans))
        try:
            # No candidates given: the session generates its own.
            session = QFESession(
                employee_db, employee_result,
                config=QFEConfig(delta_seconds=30.0),
                qbo_config=QBOConfig(threshold_variants=2),
            )
            outcome = session.run(WorstCaseSelector())
        finally:
            set_tracer(previous)
        assert outcome.iteration_count >= 1

        (generate,) = [span for span in spans if span["name"] == "qbo.generate"]
        assert outcome.query_generation_seconds == generate["duration_s"] > 0.0
        proposes = {
            span["attrs"]["iteration"]: span
            for span in spans
            if span["name"] == "session.propose"
        }
        for record in outcome.iterations:
            propose = proposes[record.iteration]
            below = _descendants(propose, spans)
            (skyline,) = below["round.skyline"]
            (subset,) = below["round.subset"]
            (search,) = below["round.search"]
            (materialize,) = below["round.materialize"]
            assert record.execution_seconds == propose["duration_s"]
            assert record.skyline_seconds == skyline["duration_s"]
            assert record.selection_seconds == subset["duration_s"]
            assert record.materialize_seconds == (
                search["duration_s"] + materialize["duration_s"]
            )
