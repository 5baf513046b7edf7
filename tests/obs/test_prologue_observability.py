"""The round prologue's spans, span attributes and counters on a traced Q2 session.

Each computed prologue opens ``round.space`` (tuple-class space) under
``round.prepare``, tags ``round.skyline`` and ``round.subset`` with
Algorithm 3's and 4's results, and adds its work to the ``qfe_prologue_*``
counters and ``qfe_skyline_truncations{by}`` once. A round replayed from the
prologue memo adds nothing. Every round's presentation opens
``present.database_delta`` under ``round.present``, and its search opens one
``round.attempt`` per attempt it scores.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import round_planner
from repro.core.config import QFEConfig
from repro.core.round_planner import PLAN_MEMO_STATS, PROLOGUE_STATS, SKYLINE_TRUNCATIONS
from repro.experiments.runner import prepare_candidates, run_session
from repro.obs.summary import load_spans
from repro.obs.trace import Tracer, get_tracer, set_tracer, start_tracing, stop_tracing
from repro.relational.evaluator import JoinCache
from repro.workloads import build_pair

_REPO_ROOT = Path(__file__).resolve().parents[2]
_CONFIG = QFEConfig(delta_seconds=1e6)


@pytest.fixture(autouse=True)
def _restore_tracer():
    previous = get_tracer()
    yield
    set_tracer(previous)


@pytest.fixture(scope="module")
def q2():
    database, result, target = build_pair("Q2", 0.03)
    candidates, _ = prepare_candidates(database, result, target)
    return database, result, target, candidates


def _run(q2, *, join_cache=None):
    database, result, target, candidates = q2
    return run_session(
        database, result, target, candidates=candidates, config=_CONFIG, join_cache=join_cache
    )


def _record_results(monkeypatch) -> tuple[list, list]:
    """Wrap Algorithms 3 and 4 as the planner calls them; collect their results."""
    skylines: list = []
    selections: list = []
    for name, sink in (("skyline_stc_dtc_pairs", skylines), ("pick_stc_dtc_subset", selections)):
        original = getattr(round_planner, name)

        def recording(*args, _original=original, _sink=sink, **kwargs):
            result = _original(*args, **kwargs)
            _sink.append(result)
            return result

        monkeypatch.setattr(round_planner, name, recording)
    return skylines, selections


def _named(spans: list, name: str) -> list[dict]:
    return sorted((span for span in spans if span["name"] == name), key=lambda s: s["span_id"])


def test_span_attributes_equal_each_rounds_results(q2, monkeypatch):
    skylines, selections = _record_results(monkeypatch)
    spans: list = []
    set_tracer(Tracer(spans))
    run = _run(q2)
    set_tracer(None)
    rounds = run.session.iteration_count
    assert rounds >= 1 and len(skylines) == len(selections) == rounds

    skyline_attrs = [span["attrs"] for span in _named(spans, "round.skyline")]
    assert skyline_attrs == [
        {
            "enumerated_pairs": skyline.enumerated_pairs,
            "reaction_keys": skyline.reaction_keys,
            "pairs": skyline.pair_count,
            "truncated_by": skyline.truncated_by,
        }
        for skyline in skylines
    ]
    subset_attrs = [span["attrs"] for span in _named(spans, "round.subset")]
    assert subset_attrs == [
        {"sets_evaluated": s.sets_evaluated, "effects_built": s.effects_built}
        for s in selections
    ]
    space_attrs = [span["attrs"] for span in _named(spans, "round.space")]
    assert len(space_attrs) == rounds
    assert all(attrs["source_classes"] > 0 and attrs["attributes"] > 0 for attrs in space_attrs)

    # The counters add each round's figures once.
    assert PROLOGUE_STATS.source_classes == sum(a["source_classes"] for a in space_attrs)
    assert PROLOGUE_STATS.enumerated_pairs == sum(s.enumerated_pairs for s in skylines)
    assert PROLOGUE_STATS.reaction_keys == sum(s.reaction_keys for s in skylines)
    assert PROLOGUE_STATS.effects == sum(s.effects_built for s in selections)
    for by in ("cap", "time"):
        assert SKYLINE_TRUNCATIONS.get(by=by) == sum(s.truncated_by == by for s in skylines)
    assert sum(s.reaction_keys for s in skylines) < sum(s.enumerated_pairs for s in skylines)


def test_a_memo_hit_round_adds_nothing(q2):
    join_cache = JoinCache()
    first = _run(q2, join_cache=join_cache)
    counters = (PROLOGUE_STATS.snapshot(), SKYLINE_TRUNCATIONS.series())
    spans: list = []
    set_tracer(Tracer(spans))
    second = _run(q2, join_cache=join_cache)
    set_tracer(None)
    rounds = first.session.iteration_count
    assert second.session.iteration_count == PLAN_MEMO_STATS.memo_hits == rounds
    assert (PROLOGUE_STATS.snapshot(), SKYLINE_TRUNCATIONS.series()) == counters
    assert not {"round.space", "round.skyline", "round.subset"} & {s["name"] for s in spans}


def test_the_new_spans_nest_once_per_round_and_the_trace_checks(q2, tmp_path):
    path = tmp_path / "trace_q2.jsonl"
    start_tracing(path)
    try:
        run = _run(q2)
    finally:
        stop_tracing()
    checked = subprocess.run(
        [sys.executable, str(_REPO_ROOT / "scripts" / "check_trace.py"), str(path)],
        capture_output=True,
        text=True,
    )
    assert checked.returncode == 0, checked.stderr

    spans = load_spans(str(path))
    by_id = {span["span_id"]: span for span in spans}
    rounds = run.session.iteration_count
    for child, parent in (
        ("round.space", "round.prepare"),
        ("present.database_delta", "round.present"),
    ):
        opened = _named(spans, child)
        assert len(opened) == rounds
        parents = [by_id[span["parent_id"]] for span in opened]
        assert [p["name"] for p in parents] == [parent] * rounds
        assert len({p["span_id"] for p in parents}) == rounds
    # A file sink writes a span as it closes, attributes included.
    for name, keys in (
        ("round.space", {"source_classes", "attributes"}),
        ("round.skyline", {"enumerated_pairs", "reaction_keys", "pairs", "truncated_by"}),
        ("round.subset", {"sets_evaluated", "effects_built"}),
    ):
        assert [set(span["attrs"]) for span in _named(spans, name)] == [keys] * rounds


def test_one_attempt_span_per_attempt_tried(q2, monkeypatch):
    from repro.core import execution_backend

    searched: list = []
    run_attempts = execution_backend.SerialBackend.run_attempts

    def recording(self, plan, join_cache):
        searched.append(run_attempts(self, plan, join_cache))
        return searched[-1]

    monkeypatch.setattr(execution_backend.SerialBackend, "run_attempts", recording)
    # The first scored attempt splits nothing, so round 1 falls back at least
    # once: a fallback changes the transcript and must show in the trace.
    signature = execution_backend.partition_signature
    scored: list = []

    def first_splits_nothing(fingerprints):
        scored.append(1)
        groups = signature(fingerprints)
        return (0,) * len(groups) if len(scored) == 1 else groups

    monkeypatch.setattr(execution_backend, "partition_signature", first_splits_nothing)
    spans: list = []
    set_tracer(Tracer(spans))
    run = _run(q2)
    set_tracer(None)

    assert len(searched) == run.session.iteration_count
    assert len(searched[0]) >= 2
    outcomes = [outcome for round_outcomes in searched for outcome in round_outcomes]
    attempts = _named(spans, "round.attempt")
    assert [span["attrs"] for span in attempts] == [
        {
            "attempt": outcome.attempt_index,
            "pairs": len(outcome.pairs),
            "applied": outcome.applied,
            "distinguishes": outcome.distinguishes,
        }
        for outcome in outcomes
    ]
    # Each round's attempts are children of that round's search span.
    searches = _named(spans, "round.search")
    children = [
        [span for span in attempts if span["parent_id"] == search["span_id"]]
        for search in searches
    ]
    assert [len(round_attempts) for round_attempts in children] == [len(o) for o in searched]


def test_a_replay_shows_in_the_trace(q2, tmp_path):
    """A restore replays its log: ``checkpoint.restore`` counts the rounds
    it replayed, each replayed ``round.prepare`` carries ``replay=True``, each
    replayed ``round.skyline`` enumerates its logged pair count, and a round
    no memo entry serves counts as a memo miss."""
    from repro.core import OracleSelector, QFESession
    from repro.service.checkpoint import capture_checkpoint, restore_checkpoint

    database, result, target, candidates = q2
    session = QFESession(database, result, candidates=candidates, config=_CONFIG)
    session.run(OracleSelector(target))
    blob = capture_checkpoint(session, session_id="traced")
    counts = [entry[1] for entry in session.log if entry[0] == "round"]
    assert len(counts) == session.outcome.iteration_count >= 1
    misses = PLAN_MEMO_STATS.memo_misses
    path = tmp_path / "trace_replay.jsonl"
    start_tracing(path)
    try:
        restore_checkpoint(blob, database=database, result=result, join_cache=JoinCache())
    finally:
        stop_tracing()
    checked = subprocess.run(
        [sys.executable, str(_REPO_ROOT / "scripts" / "check_trace.py"), str(path)],
        capture_output=True,
        text=True,
    )
    assert checked.returncode == 0, checked.stderr

    spans = load_spans(str(path))
    (restore,) = _named(spans, "checkpoint.restore")
    assert restore["attrs"]["rounds_replayed"] == len(counts)
    prepares = _named(spans, "round.prepare")
    assert [span["attrs"]["replay"] for span in prepares] == [True] * len(counts)
    skylines = _named(spans, "round.skyline")
    assert [span["attrs"]["enumerated_pairs"] for span in skylines] == counts
    assert PLAN_MEMO_STATS.memo_misses == misses + len(counts)
