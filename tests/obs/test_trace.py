"""Tracer: span records, nesting, sinks, span clock, pid guard, summary, CLI, validator."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.summary import aggregate_phases, phase_breakdown, render_summary
from repro.obs.trace import Tracer, get_tracer, set_tracer, start_tracing, stop_tracing

_REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _restore_tracer():
    previous = get_tracer()
    yield
    set_tracer(previous)


class TestSpans:
    def test_span_records_name_duration_and_attrs(self):
        spans: list = []
        tracer = Tracer(spans)
        with tracer.span("work", kind="unit"):
            pass
        (record,) = spans
        assert record["name"] == "work"
        assert record["attrs"] == {"kind": "unit"}
        assert record["duration_s"] >= 0
        assert record["parent_id"] is None

    def test_nesting_links_parent_ids(self):
        spans: list = []
        tracer = Tracer(spans)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        by_name = {record["name"]: record for record in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["sibling"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        # Children close (and are written) before their parent.
        assert spans[-1]["name"] == "outer"

    def test_span_ids_are_unique(self):
        spans: list = []
        tracer = Tracer(spans)
        for _ in range(10):
            with tracer.span("tick"):
                pass
        ids = [record["span_id"] for record in spans]
        assert len(set(ids)) == len(ids)

    def test_set_attaches_attrs_mid_span(self):
        spans: list = []
        tracer = Tracer(spans)
        with tracer.span("work") as span:
            span.set(rows=42)
        assert spans[0]["attrs"] == {"rows": 42}

    def test_exception_marks_the_span_and_propagates(self):
        spans: list = []
        tracer = Tracer(spans)
        with pytest.raises(RuntimeError):
            with tracer.span("work"):
                raise RuntimeError("boom")
        assert spans[0]["attrs"]["error"] == "RuntimeError"

    def test_forked_process_gets_noop_spans(self):
        spans: list = []
        tracer = Tracer(spans)
        tracer._pid -= 1  # simulate being inherited by a forked child
        with tracer.span("work") as span:
            time.sleep(0.001)
        assert spans == []
        # The span still timed itself: a round in that process keeps its timings.
        assert span.duration_s > 0.0

    def test_a_span_exposes_the_duration_it_wrote(self):
        spans: list = []
        with Tracer(spans).span("work") as span:
            time.sleep(0.001)
        assert spans[0]["duration_s"] == span.duration_s > 0.0


class TestFileSink:
    def test_start_stop_tracing_writes_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = start_tracing(path)
        assert get_tracer() is tracer
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        stop_tracing()
        assert get_tracer() is not tracer
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [record["name"] for record in records] == ["inner", "outer"]

    def test_stop_tracing_is_idempotent(self, tmp_path):
        start_tracing(tmp_path / "t.jsonl")
        stop_tracing()
        stop_tracing()


class TestSinklessTracer:
    def test_the_default_tracer_times_spans_and_writes_nothing(self):
        set_tracer(None)
        tracer = get_tracer()
        with tracer.span("outer", kind="unit") as outer:
            with tracer.span("inner") as inner:
                time.sleep(0.001)
            inner.set(rows=3)
        assert outer.duration_s >= inner.duration_s > 0.0
        # Nothing is recorded: no ids, no parent links, no sink to write to.
        assert (outer.span_id, inner.span_id, inner.parent_id) == (None, None, None)

    def test_stop_tracing_leaves_a_tracer_that_still_times(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        start_tracing(path)
        stop_tracing()
        with get_tracer().span("after") as span:
            time.sleep(0.001)
        assert span.duration_s > 0.0
        assert path.read_text() == ""


def _round_spans(tracer):
    """Emit one synthetic round's span tree with known durations."""
    with tracer.span("session.propose", iteration=1):
        with tracer.span("round.prepare"):
            pass
        with tracer.span("round.search", attempts=2):
            with tracer.span("round.attempt", attempt=0, pairs=1):
                pass
        with tracer.span("round.materialize"):
            pass
        with tracer.span("round.present"):
            pass


class TestSummary:
    def test_phases_sum_to_round_wall_clock(self):
        spans: list = []
        _round_spans(Tracer(spans))
        (entry,) = phase_breakdown(spans)
        assert entry["round"] == 1
        assert sum(entry["phases"].values()) == pytest.approx(entry["total_s"])

    def test_aggregate_phases_covers_all_rounds(self):
        spans: list = []
        tracer = Tracer(spans)
        _round_spans(tracer)
        _round_spans(tracer)
        totals = aggregate_phases(spans)
        per_round = phase_breakdown(spans)
        assert len(per_round) == 2
        assert totals["prepare"] == pytest.approx(
            sum(entry["phases"]["prepare"] for entry in per_round), abs=1e-5
        )

    def test_render_summary_has_a_row_per_round_plus_totals(self):
        spans: list = []
        tracer = Tracer(spans)
        _round_spans(tracer)
        _round_spans(tracer)
        text = render_summary(spans)
        lines = text.strip().splitlines()
        assert lines[0].split()[:2] == ["round", "total_s"]
        assert len(lines) == 2 + 2 + 1  # header, rule, two rounds, totals
        assert lines[-1].split()[0] == "all"

    def test_each_round_span_maps_to_one_phase(self):
        spans: list = []
        _round_spans(Tracer(spans))
        (entry,) = phase_breakdown(spans)
        assert set(entry["phases"]) == {
            "prepare", "evaluate", "materialize", "present", "other"
        }
        durations = {span["name"]: span["duration_s"] for span in spans}
        assert entry["phases"]["prepare"] == durations["round.prepare"]
        # The search span is evaluation, its round.attempt child included.
        assert entry["phases"]["evaluate"] == durations["round.search"]
        assert entry["phases"]["materialize"] == durations["round.materialize"]
        assert entry["phases"]["present"] == durations["round.present"]

    def test_render_summary_columns_are_the_phases(self):
        spans: list = []
        _round_spans(Tracer(spans))
        header = render_summary(spans).splitlines()[0].split()
        assert header == [
            "round", "total_s", "prepare_s", "evaluate_s", "materialize_s",
            "present_s", "other_s", "top", "phase",
        ]

    def test_render_summary_empty_trace(self):
        assert "no session.propose spans" in render_summary([])

    def test_summary_reads_a_span_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = start_tracing(path)
        _round_spans(tracer)
        stop_tracing()
        (entry,) = phase_breakdown(str(path))
        assert sum(entry["phases"].values()) == pytest.approx(entry["total_s"])


class TestTraceCli:
    def test_qfe_trace_summary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = start_tracing(path)
        _round_spans(tracer)
        stop_tracing()
        from repro.obs.cli import main

        proc_out = []

        class _Capture:
            def write(self, text):
                proc_out.append(text)

        stdout, sys.stdout = sys.stdout, _Capture()
        try:
            code = main(["summary", str(path)])
        finally:
            sys.stdout = stdout
        assert code == 0
        assert "round" in "".join(proc_out)

    def test_qfe_trace_summary_missing_file(self):
        from repro.obs.cli import main

        assert main(["summary", "/nonexistent/trace.jsonl"]) == 2


class TestCheckTraceScript:
    def _run(self, path):
        return subprocess.run(
            [sys.executable, str(_REPO_ROOT / "scripts" / "check_trace.py"), str(path)],
            capture_output=True,
            text=True,
        )

    def test_valid_trace_passes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = start_tracing(path)
        _round_spans(tracer)
        stop_tracing()
        result = self._run(path)
        assert result.returncode == 0, result.stderr

    def test_malformed_trace_fails(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x"}\nnot json\n')
        result = self._run(path)
        assert result.returncode == 1
        assert "missing field" in result.stderr
        assert "not valid JSON" in result.stderr

    def test_a_child_outside_its_parent_window_fails(self, tmp_path):
        spans: list = []
        _round_spans(Tracer(spans))
        by_name = {span["name"]: span for span in spans}
        path = tmp_path / "nested.jsonl"
        path.write_text("".join(json.dumps(span) + "\n" for span in spans))
        assert self._run(path).returncode == 0
        # A child that ends after its parent: its window is not nested.
        search = by_name["round.search"]
        by_name["round.attempt"]["t_start"] = search["t_start"] + search["duration_s"]
        by_name["round.attempt"]["duration_s"] = 0.5
        path.write_text("".join(json.dumps(span) + "\n" for span in spans))
        result = self._run(path)
        assert result.returncode == 1
        assert "not inside its parent" in result.stderr
        assert "round.attempt" in result.stderr

    def test_dangling_parent_fails(self, tmp_path):
        spans: list = []
        _round_spans(Tracer(spans))
        spans[0]["parent_id"] = 9999
        path = tmp_path / "dangling.jsonl"
        path.write_text("".join(json.dumps(span) + "\n" for span in spans))
        result = self._run(path)
        assert result.returncode == 1
        assert "dangling parent_id" in result.stderr
