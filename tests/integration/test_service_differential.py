"""Checkpoint/resume and multi-session differential suite over Q1–Q6.

The service layer must never change what QFE computes:

* a session **checkpointed and resumed at every round** — crossing a pickle
  boundary each time, with the base database rebuilt from its workload
  reference — produces a canonical transcript *byte-identical* to an
  uninterrupted run (serial and warm-pool backends alike);
* **many concurrent sessions** multiplexed over one shared backend finish
  with transcripts identical to the same sessions run sequentially.

The uninterrupted in-process run is the oracle; any divergence means session
state capture, checkpoint serialization, shared-state multiplexing or the
shared-snapshot install broke. Heavier workloads carry the ``slow`` marker:
tier-1 runs Q2/Q4/Q6, while CI's dedicated differential step runs everything
with ``-m ""``.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import OracleSelector, QFEConfig, QFESession
from repro.core.feedback import WorstCaseSelector
from repro.core.worker_runtime import WarmProcessPoolBackend
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


def _uninterrupted_transcript(setup, workload, *, workers: int = 0) -> str:
    database, result, target, candidates = setup
    session = QFESession(
        database, result, candidates=candidates, config=_CONFIG, workers=workers
    )
    session.run(OracleSelector(target))
    return transcript_json(session_transcript(session, workload=workload))


def _resumed_transcript(setup, workload, *, backend=None, rebuild_base=True) -> str:
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
            restored, _ = restore_checkpoint(blob, backend=backend)
        else:
            restored, _ = restore_checkpoint(
                blob, database=database, result=result, backend=backend
            )
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


def test_resume_every_round_on_a_pooled_backend(workload_setup_for):
    # The resumed sessions all share one live warm pool; the shared base
    # database keeps the workers' installed snapshot current across resume
    # boundaries. The serial uninterrupted run stays the oracle.
    setup = workload_setup_for("Q2")
    reference = _uninterrupted_transcript(setup, "Q2")
    backend = WarmProcessPoolBackend(2)
    try:
        resumed = _resumed_transcript(setup, "Q2", backend=backend, rebuild_base=False)
    finally:
        backend.close()
    assert resumed == reference


@pytest.mark.slow
def test_pooled_uninterrupted_run_matches_serial(workload_setup_for):
    setup = workload_setup_for("Q2")
    assert _uninterrupted_transcript(setup, "Q2", workers=2) == _uninterrupted_transcript(
        setup, "Q2"
    )


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
    def _concurrent_vs_sequential(self, setup, workload, *, users: int, workers: int):
        database, result, target, candidates = setup
        reference = _uninterrupted_transcript(setup, workload)

        with SessionManager(workers=workers) as manager:
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
        self._concurrent_vs_sequential(
            workload_setup_for("Q2"), "Q2", users=4, workers=0
        )

    @pytest.mark.slow
    def test_8_concurrent_sessions_over_one_shared_process_pool(self, workload_setup_for):
        self._concurrent_vs_sequential(
            workload_setup_for("Q2"), "Q2", users=8, workers=2
        )
