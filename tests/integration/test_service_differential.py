"""Checkpoint/resume and multi-session differential suite over Q1–Q6.

The service layer must never change what QFE computes:

* a session **checkpointed and resumed at every round** — each resume a
  verified replay of its logged calls, with the base database rebuilt from
  its workload reference or re-bound to the shared live one — produces a
  canonical transcript *byte-identical* to an uninterrupted run, also when
  the clock cut its rounds (a replay enumerates each round's logged pair
  count);
* **many concurrent sessions** multiplexed over one manager's shared base
  state finish with transcripts identical to the same sessions run
  sequentially.

The uninterrupted in-process run is the oracle; any divergence means session
state capture, checkpoint serialization or shared-state multiplexing broke. Heavier workloads carry the ``slow`` marker:
tier-1 runs Q2/Q4/Q6, while CI's dedicated differential step runs everything
with ``-m ""``.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import OracleSelector, QFEConfig, QFESession
from repro.core.feedback import WorstCaseSelector
from repro.service.checkpoint import (
    DatabaseRef,
    capture_checkpoint,
    restore_checkpoint,
    session_transcript,
    transcript_json,
)
from repro.service.manager import SessionManager, workload_session_inputs

_SCALE = 0.03
_CANDIDATES = 10
# A generous Algorithm 3 budget so skyline enumeration never truncates on
# wall-clock time — time truncation is the one legitimately nondeterministic
# input, and it is orthogonal to what this suite verifies.
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


class _SteppingClock:
    """The skyline's clock, advancing *step* seconds at every read.

    Algorithm 3 reads its clock every 64 pairs and at each level's end, so
    under ``δ`` = 1 s (the default config) a round is cut after a fixed
    number of reads: a reproducible stand-in for a loaded machine, whose
    cuts no resume can reproduce by reading the clock again. A step is a
    power of two, so the sums stay exact and the cut never depends on the
    clock's earlier reads.
    """

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _clock_cut_session(workload, scale, step, join_cache, monkeypatch):
    """A worst-case session under the default config and a stepping clock;
    returns its pair, a checkpoint after every call, the canonical
    transcript and how many rounds the clock cut."""
    from repro.core import skyline

    database, result, _, candidates = _clock_cut_inputs(workload, scale)
    monkeypatch.setattr(skyline, "perf_counter", _SteppingClock(step))
    session = QFESession(database, result, candidates=candidates, join_cache=join_cache)
    selector = WorstCaseSelector()
    blobs, cut = [], 0
    while True:
        pending = session.propose()
        blobs.append(capture_checkpoint(session, session_id="cut"))
        if pending is None:
            break
        cut += pending.generation.skyline.truncated_by == "time"
        session.submit(selector.select(pending.round, pending.partition))
        blobs.append(capture_checkpoint(session, session_id="cut"))
    return (database, result), blobs, transcript_json(session_transcript(session)), cut


_CLOCK_CUT_INPUTS: dict[tuple, tuple] = {}


def _clock_cut_inputs(workload, scale):
    if (workload, scale) not in _CLOCK_CUT_INPUTS:
        _CLOCK_CUT_INPUTS[workload, scale] = workload_session_inputs(workload, scale)
    return _CLOCK_CUT_INPUTS[workload, scale]


def _assert_clock_cut_replays(workload, scale, step, monkeypatch, *, every_blob_cold):
    """Every checkpoint of a clock-cut session replays to its own rounds.

    Restores read a differently stepping clock, so a replay that consulted
    the clock instead of each round's logged pair count would cut its
    rounds elsewhere and be refused. Each checkpoint is restored over the
    original cache (whose memo serves the replayed rounds), the last (or
    every) one over a fresh cache, and the last one over a cache whose memo
    holds another cut's prologues of the same round bodies; every restored
    session, finished under the original clock, reproduces the transcript.
    """
    from repro.core import skyline
    from repro.core.round_planner import PLAN_MEMO_STATS
    from repro.relational.evaluator import JoinCache

    original = JoinCache()
    (database, result), blobs, transcript, cut = _clock_cut_session(
        workload, scale, step, original, monkeypatch
    )
    other_cut = JoinCache()
    _clock_cut_session(workload, scale, step * 4, other_cut, monkeypatch)

    def resumed(blob, join_cache):
        monkeypatch.setattr(skyline, "perf_counter", _SteppingClock(step * 4))
        session, _ = restore_checkpoint(
            blob, database=database, result=result, join_cache=join_cache
        )
        monkeypatch.setattr(skyline, "perf_counter", _SteppingClock(step))
        _drive(session, WorstCaseSelector())
        return transcript_json(session_transcript(session))

    for index, blob in enumerate(blobs):
        assert resumed(blob, original) == transcript
        if every_blob_cold or index == len(blobs) - 1:
            assert resumed(blob, JoinCache()) == transcript
    misses = PLAN_MEMO_STATS.memo_misses
    assert resumed(blobs[-1], other_cut) == transcript
    if cut:  # another cut's prologue of the same round is not reused
        assert PLAN_MEMO_STATS.memo_misses > misses
    return cut


def _drive(session, selector):
    while (pending := session.propose()) is not None:
        session.submit(selector.select(pending.round, pending.partition))


def test_clock_cut_rounds_replay_exactly(monkeypatch):
    """Tier-1 guard: one coarse cut of ``scenario:chain@29`` at 1.0."""
    assert _assert_clock_cut_replays(
        "scenario:chain@29", 1.0, 2**-4, monkeypatch, every_blob_cold=False
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "workload, scale, step, cuts",
    [
        ("Q2", 1.0, 2**-7, True),
        ("Q2", 1.0, 2**-9, True),
        ("scenario:chain@29", 1.0, 2**-7, True),
        ("scenario:chain@29", 1.0, 2**-9, True),
        # Rounds too small for the clock to cut, and a session that
        # ends exhausted in round 1.
        ("scenario:mixed@2", 1.0, 2**-2, False),
        ("Q4", 0.3, 2**-2, False),
    ],
)
def test_finer_clock_cut_rounds_replay_exactly(workload, scale, step, cuts, monkeypatch):
    cut = _assert_clock_cut_replays(workload, scale, step, monkeypatch, every_blob_cold=True)
    assert bool(cut) == cuts


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
