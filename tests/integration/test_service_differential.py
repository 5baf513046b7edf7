"""Checkpoint/resume and multi-session differential suite over Q1–Q6.

The service layer must never change what QFE computes:

* a session **checkpointed and resumed at every round** — each resume a
  verified replay of its logged calls, with the base database rebuilt from
  its workload reference or re-bound to the shared live one — produces a
  canonical transcript *byte-identical* to an uninterrupted run, also when
  ``δ``'s pair budget cut its rounds, and a checkpoint claiming another pair
  count is refused;
* a transcript is the same under a clock running 10× fast: Algorithm 3's
  ``δ`` is a pair budget, and nothing that decides a round reads a clock;
* **many concurrent sessions** multiplexed over one manager's shared base
  state finish with transcripts identical to the same sessions run
  sequentially.

The uninterrupted in-process run is the oracle; any divergence means session
state capture, checkpoint serialization or shared-state multiplexing broke. Heavier workloads carry the ``slow`` marker:
tier-1 runs Q2/Q4/Q6, while CI's dedicated differential step runs everything
with ``-m ""``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time

import pytest

from repro.core import OracleSelector, QFEConfig, QFESession
from repro.core.feedback import WorstCaseSelector
from repro.core.round_planner import PROLOGUE_STATS
from repro.exceptions import CheckpointError
from repro.experiments.runner import prepare_candidates
from repro.relational.evaluator import JoinCache
from repro.service.checkpoint import (
    DatabaseRef,
    capture_checkpoint,
    restore_checkpoint,
    session_transcript,
    transcript_json,
)
from repro.service.manager import SessionManager, workload_session_inputs
from repro.workloads import build_pair

_SCALE = 0.03
_CANDIDATES = 10
# A 30,000,000-pair Algorithm 3 budget, which no round of these sessions
# reaches; the budget-cut tests below cut rounds on purpose.
_CONFIG = QFEConfig(delta_seconds=30.0)

_WORKLOADS = [
    pytest.param("Q1", marks=pytest.mark.slow),
    "Q2",
    pytest.param("Q3", marks=pytest.mark.slow),
    "Q4",
    pytest.param("Q5", marks=pytest.mark.slow),
    "Q6",
]

_SETUP_CACHE: dict[str, tuple] = {}


@pytest.fixture()
def workload_setup_for():
    """Build (and cache per process) the ``(D, R, target, candidates)`` of a workload."""

    def build(name: str):
        setup = _SETUP_CACHE.get(name)
        if setup is None:
            setup = workload_session_inputs(name, _SCALE, candidate_count=_CANDIDATES)
            _SETUP_CACHE[name] = setup
        return setup

    return build


def _uninterrupted_transcript(setup, workload) -> str:
    database, result, target, candidates = setup
    session = QFESession(database, result, candidates=candidates, config=_CONFIG)
    session.run(OracleSelector(target))
    return transcript_json(session_transcript(session, workload=workload))


def _resumed_transcript(setup, workload, *, rebuild_base=True) -> str:
    """Run the session suspending + resuming through a checkpoint every round.

    With ``rebuild_base`` the checkpoint stores only the workload reference,
    so every resume rebuilds the base database from scratch — the strongest
    form of the resume property (nothing survives but the checkpoint bytes).
    """
    database, result, target, candidates = setup
    ref = DatabaseRef.workload(workload, _SCALE)
    selector = OracleSelector(target)
    session = QFESession(database, result, candidates=candidates, config=_CONFIG)

    def cycle(session):
        blob = capture_checkpoint(session, session_id="diff", database_ref=ref)
        if rebuild_base:
            restored, _ = restore_checkpoint(blob)
        else:
            restored, _ = restore_checkpoint(blob, database=database, result=result)
        return restored

    while True:
        session = cycle(session)  # suspended before the round search
        pending = session.propose()
        session = cycle(session)  # suspended with the round pending
        pending = session.propose()  # replayed from the checkpoint
        if pending is None:
            break
        session.submit(selector.select(pending.round, pending.partition))
        session = cycle(session)  # suspended right after the choice

    return transcript_json(session_transcript(session, workload=workload))


@pytest.mark.parametrize("workload_name", _WORKLOADS)
def test_resume_every_round_is_bit_identical_to_uninterrupted(
    workload_setup_for, workload_name
):
    setup = workload_setup_for(workload_name)
    reference = _uninterrupted_transcript(setup, workload_name)
    resumed = _resumed_transcript(setup, workload_name)
    assert resumed == reference


def test_resume_every_round_over_the_shared_base(workload_setup_for):
    # Every resume re-binds the same live base database (as the service does
    # for a shared pair) instead of rebuilding it from the reference.
    setup = workload_setup_for("Q2")
    reference = _uninterrupted_transcript(setup, "Q2")
    assert _resumed_transcript(setup, "Q2", rebuild_base=False) == reference


def _drive(session, selector):
    while (pending := session.propose()) is not None:
        session.submit(selector.select(pending.round, pending.partition))


_INPUTS: dict[tuple, tuple] = {}


def _inputs(workload, scale, count=None):
    """``(D, R, candidates)``: the service's candidates (*count* of them when
    given), or with ``count="qbo"`` every candidate of the default QBO config."""
    key = (workload, scale, count)
    if key not in _INPUTS:
        if count == "qbo":
            database, result, target = build_pair(workload, scale)
            candidates, _ = prepare_candidates(database, result, target)
        else:
            database, result, _, candidates = workload_session_inputs(
                workload, scale, candidate_count=count
            )
        _INPUTS[key] = (database, result, candidates)
    return _INPUTS[key]


class _FastClock:
    """``perf_counter`` running *factor* times fast: a stand-in for a machine
    that much slower, or that loaded."""

    def __init__(self, factor: float) -> None:
        self.factor = factor
        self.start = time.perf_counter()

    def __call__(self) -> float:
        return self.start + (time.perf_counter() - self.start) * self.factor


def test_a_fast_clock_changes_no_transcript(monkeypatch):
    """Q2@1.0 with every QBO candidate (61), the default config and the
    worst-case user: ``δ`` = 1 s cuts round 1 at exactly 1,000,000 pairs, and
    a clock running 10× fast in every module that reads one changes nothing."""
    database, result, candidates = _inputs("Q2", 1.0, "qbo")
    assert len(candidates) == 61

    def worst_case_run():
        session = QFESession(database, result, candidates=candidates)
        _drive(session, WorstCaseSelector())
        return session.log, transcript_json(session_transcript(session))

    log, transcript = worst_case_run()
    assert log[0] == ("round", 1_000_000)
    clocked = [
        module
        for name, module in sorted(sys.modules.items())
        if name.partition(".")[0] == "repro" and hasattr(module, "perf_counter")
    ]
    assert "repro.obs.trace" in {module.__name__ for module in clocked}
    fast = _FastClock(10.0)
    for module in clocked:
        monkeypatch.setattr(module, "perf_counter", fast)
    assert worst_case_run() == (log, transcript)


def _signed(blob: bytes, body: dict) -> bytes:
    """*blob*'s header over *body*, with the body's sha256 recomputed."""
    header = json.loads(blob.partition(b"\n")[0])
    encoded = json.dumps(body).encode()
    header["payload_sha256"] = hashlib.sha256(encoded).hexdigest()
    return json.dumps(header).encode() + b"\n" + encoded


@pytest.mark.parametrize(
    "workload, scale, count, delta, cut",
    [
        ("Q2", 1.0, 10, 0.002, True),
        pytest.param("Q2", 1.0, "qbo", 1.0, True, marks=pytest.mark.slow),
        pytest.param("scenario:chain@29", 1.0, None, 0.01, True, marks=pytest.mark.slow),
        # Rounds within their budget, and a session that ends exhausted in
        # round 1.
        pytest.param("scenario:mixed@2", 1.0, None, 1.0, False, marks=pytest.mark.slow),
        pytest.param("Q4", 0.3, None, 1.0, False, marks=pytest.mark.slow),
    ],
)
def test_budget_cut_rounds_replay_exactly(workload, scale, count, delta, cut):
    """Every checkpoint of a worst-case session restores over the live join
    cache (whose memo serves the replayed rounds) and over a fresh one, and
    the restored session finishes to the uninterrupted transcript."""
    database, result, candidates = _inputs(workload, scale, count)
    config = QFEConfig(delta_seconds=delta)
    live = JoinCache()
    session = QFESession(database, result, candidates=candidates, config=config, join_cache=live)
    selector = WorstCaseSelector()
    blobs, cuts = [], 0
    while True:
        pending = session.propose()
        blobs.append(capture_checkpoint(session, session_id="cut"))
        if pending is None:
            break
        cuts += pending.generation.skyline.truncated_by == "time"
        session.submit(selector.select(pending.round, pending.partition))
        blobs.append(capture_checkpoint(session, session_id="cut"))
    transcript = transcript_json(session_transcript(session))
    assert bool(cuts) == cut
    for blob in blobs:
        for join_cache in (live, JoinCache()):
            restored, _ = restore_checkpoint(
                blob, database=database, result=result, join_cache=join_cache
            )
            _drive(restored, selector)
            assert transcript_json(session_transcript(restored)) == transcript


@pytest.mark.parametrize("raised_by", [1, 10**12])
def test_a_raised_round_count_is_refused_within_the_budget(raised_by):
    """A re-signed checkpoint whose round claims more pairs than its budget
    buys is refused, and the replay enumerates no more than that budget."""
    database, result, candidates = _inputs("Q2", 1.0, 10)
    session = QFESession(
        database, result, candidates=candidates, config=QFEConfig(delta_seconds=0.002)
    )
    session.propose()
    assert session.pending_round.generation.skyline.truncated_by == "time"
    blob = capture_checkpoint(session, session_id="raised")
    body = json.loads(blob.partition(b"\n")[2])
    assert body["log"] == [["round", 2_000]]
    body["log"][0][1] += raised_by
    enumerated = PROLOGUE_STATS.enumerated_pairs
    with pytest.raises(CheckpointError, match="log entry 0, "):
        restore_checkpoint(
            _signed(blob, body), database=database, result=result, join_cache=JoinCache()
        )
    assert PROLOGUE_STATS.enumerated_pairs - enumerated == 2_000


def _drive_managed_with_oracle(manager, session_id, target):
    selector = OracleSelector(target)
    while True:
        _, pending = manager.get_round(session_id)
        if pending is None:
            return
        manager.submit_choice(
            session_id, selector.select(pending.round, pending.partition)
        )


class TestConcurrentSessions:
    def _concurrent_vs_sequential(self, setup, workload, *, users: int):
        database, result, target, candidates = setup
        reference = _uninterrupted_transcript(setup, workload)

        with SessionManager() as manager:
            ids = [
                manager.create_session(
                    workload=workload,
                    scale=_SCALE,
                    candidate_count=_CANDIDATES,
                    config=_CONFIG,
                    session_id=f"user-{i}",
                ).session_id
                for i in range(users)
            ]
            errors: list[BaseException] = []

            def drive(session_id):
                try:
                    _drive_managed_with_oracle(manager, session_id, target)
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=drive, args=(session_id,))
                for session_id in ids
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, f"concurrent session failed: {errors[:1]}"

            transcripts = {
                session_id: transcript_json(manager.transcript(session_id))
                for session_id in ids
            }
        for session_id, transcript in transcripts.items():
            assert transcript == reference, f"{session_id} diverged from the sequential run"

    def test_concurrent_sessions_over_shared_serial_backend(self, workload_setup_for):
        self._concurrent_vs_sequential(workload_setup_for("Q2"), "Q2", users=4)

    @pytest.mark.slow
    def test_8_concurrent_sessions_over_one_manager(self, workload_setup_for):
        self._concurrent_vs_sequential(workload_setup_for("Q2"), "Q2", users=8)
