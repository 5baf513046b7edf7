"""Unit tests for the SessionManager: multiplexing, passivation, metrics."""

import threading
import time

import pytest

from repro.core.feedback import WorstCaseSelector
from repro.core.session import QFESession
from repro.exceptions import ServiceError, SessionNotFound
from repro.service.checkpoint import session_transcript, transcript_json
from repro.service.manager import SessionManager, workload_session_inputs
from repro.service.store import InMemorySessionStore

#: Every session of these tests runs over the shared Q2@0.03 pair.
_Q2 = {"workload": "Q2", "scale": 0.03}


def _drive_managed(manager, session_id):
    """Drive a managed session to completion with worst-case choices."""
    selector = WorstCaseSelector()
    while True:
        _, pending = manager.get_round(session_id)
        if pending is None:
            return
        manager.submit_choice(
            session_id, selector.select(pending.round, pending.partition)
        )


@pytest.fixture()
def manager():
    with SessionManager(store=InMemorySessionStore()) as m:
        yield m


@pytest.fixture(scope="module")
def q2_inputs():
    """``(D, R, target, candidates)`` of the Q2@0.03 pair, six candidates."""
    return workload_session_inputs("Q2", 0.03, candidate_count=6)


@pytest.fixture()
def q2_candidates(q2_inputs):
    return q2_inputs[3]


class TestLifecycle:
    def test_session_matches_direct_run_bit_identically(self, manager, q2_inputs):
        database, result, _, candidates = q2_inputs
        reference = QFESession(database, result, candidates=candidates)
        reference.run(WorstCaseSelector())
        expected = transcript_json(session_transcript(reference, workload="Q2"))

        managed = manager.create_session(**_Q2, candidates=candidates)
        _drive_managed(manager, managed.session_id)
        actual = transcript_json(manager.transcript(managed.session_id))
        assert actual == expected

    def test_sessions_on_one_pair_share_base_state(self, manager, q2_candidates):
        a = manager.create_session(**_Q2, candidates=q2_candidates)
        b = manager.create_session(**_Q2, candidates=q2_candidates)
        assert a.pair is b.pair
        assert a.session.join_cache is b.session.join_cache
        assert a.session.database is b.session.database
        assert manager.metrics()["shared_pairs"] == 1

    def test_unknown_session_raises(self, manager):
        with pytest.raises(SessionNotFound):
            manager.get_round("s-doesnotexist")
        with pytest.raises(SessionNotFound):
            manager.submit_choice("s-doesnotexist", 0)

    def test_delete_session(self, manager, q2_candidates):
        managed = manager.create_session(**_Q2, candidates=q2_candidates)
        assert manager.delete_session(managed.session_id) is True
        assert manager.delete_session(managed.session_id) is False
        with pytest.raises(SessionNotFound):
            manager.get_round(managed.session_id)

    def test_duplicate_session_id_rejected(self, manager, q2_candidates):
        manager.create_session(**_Q2, candidates=q2_candidates, session_id="fixed")
        with pytest.raises(ServiceError):
            manager.create_session(**_Q2, candidates=q2_candidates, session_id="fixed")

    def test_create_requires_workload_or_pair(self, manager):
        with pytest.raises(ServiceError):
            manager.create_session()

    def test_unknown_workload_is_a_service_error_naming_the_known_ones(self, manager):
        with pytest.raises(ServiceError, match=r"unknown workload 'Q9'; known: .*'Q1'"):
            manager.create_session(workload="Q9", scale=0.03)
        # Nothing was built or registered for the bad name.
        assert manager.metrics()["shared_pairs"] == 0

    def test_closed_manager_refuses_new_sessions(self, q2_candidates):
        manager = SessionManager()
        manager.close()
        with pytest.raises(ServiceError):
            manager.create_session(**_Q2, candidates=q2_candidates)


class TestPassivationAndResume:
    def test_lru_passivation_to_store_and_transparent_resume(self, q2_candidates):
        store = InMemorySessionStore()
        with SessionManager(store=store, max_live_sessions=1) as manager:
            a = manager.create_session(**_Q2, candidates=q2_candidates, session_id="a")
            manager.get_round("a")
            # Creating "b" exceeds the live cap: "a" passivates to the store.
            manager.create_session(**_Q2, candidates=q2_candidates, session_id="b")
            assert manager.session_ids() == ["b"]
            assert "a" in store
            assert manager.metrics()["sessions_passivated"] == 1
            # Touching "a" again resumes it from its checkpoint ("b" passivates).
            _, pending = manager.get_round("a")
            assert pending is not None
            assert manager.metrics()["sessions_resumed"] == 1
            _drive_managed(manager, "a")
            assert manager.transcript("a")["status"] == "converged"

    def test_a_resumed_session_rejoins_its_pair_join_cache(self):
        store = InMemorySessionStore()
        with SessionManager(store=store, max_live_sessions=1) as manager:
            a = manager.create_session(
                workload="Q2", scale=0.03, candidate_count=6, session_id="a"
            )
            manager.get_round("a")
            manager.create_session(
                workload="Q2", scale=0.03, candidate_count=6, session_id="b"
            )
            assert manager.session_ids() == ["b"]  # "a" passivated
            manager.get_round("a")  # resumes "a", passivating "b"
            resumed = manager._sessions["a"]
            assert resumed is not a
            # The resumed session evaluates through the pair's shared join
            # cache, so its next rounds reuse the warm join and prologue memo.
            assert resumed.pair is a.pair
            assert resumed.session.join_cache is a.pair.join_cache

    def test_restored_rounds_refer_to_the_pairs_live_database(self):
        store = InMemorySessionStore()
        selector = WorstCaseSelector()
        with SessionManager(store=store, max_live_sessions=1) as manager:
            manager.create_session(workload="Q2", scale=0.03, candidate_count=6, session_id="a")
            _, pending = manager.get_round("a")
            manager.submit_choice("a", selector.select(pending.round, pending.partition))
            manager.get_round("a")
            manager.create_session(workload="Q2", scale=0.03, candidate_count=6, session_id="b")
            assert manager.session_ids() == ["b"]  # "a" passivated with two rounds
            manager.get_round("a")  # resumes "a" from its checkpoint
            resumed = manager._sessions["a"]
            rounds = resumed.session.last_rounds
            # The checkpoint held references, not copies: every restored round's
            # base is the one live database the pair shares.
            assert len(rounds) == 2
            assert all(round_.database is resumed.pair.database for round_ in rounds)
            assert resumed.session.database is resumed.pair.database

    def test_capacity_without_store_is_refused(self, q2_candidates):
        with SessionManager(max_live_sessions=1) as manager:
            manager.create_session(**_Q2, candidates=q2_candidates, session_id="a")
            with pytest.raises(ServiceError, match="capacity"):
                manager.create_session(**_Q2, candidates=q2_candidates, session_id="b")
            # The refused session is not half-registered.
            assert manager.session_ids() == ["a"]

    def test_manager_restart_resumes_workload_sessions(self):
        store = InMemorySessionStore()
        with SessionManager(store=store) as manager:
            managed = manager.create_session(
                workload="Q2", scale=0.03, candidate_count=6, session_id="q2s"
            )
            manager.get_round("q2s")
        # close() checkpointed the live session; a fresh manager (fresh
        # process, conceptually) resumes it from the workload reference.
        with SessionManager(store=store) as manager2:
            assert manager2.session_ids() == []
            _, pending = manager2.get_round("q2s")
            assert pending is not None
            _drive_managed(manager2, "q2s")
            transcript = manager2.transcript("q2s")
            assert transcript["status"] in ("converged", "exhausted", "stalled")
            assert transcript["workload"] == "Q2"


class TestPairPruning:
    def test_unreferenced_workload_pairs_bounded_by_max_warm_pairs(
        self, employee_db, employee_result, employee_candidates
    ):
        with SessionManager(store=InMemorySessionStore(), max_warm_pairs=2) as manager:
            # Distinct scales of one workload each pin a full database; only
            # max_warm_pairs unreferenced ones may stay warm.
            for index, scale in enumerate((0.02, 0.025, 0.03)):
                sid = f"s{index}"
                manager.create_session(
                    workload="Q2", scale=scale, candidate_count=4, session_id=sid
                )
                manager.delete_session(sid)
            assert manager.metrics()["shared_pairs"] <= 2


class TestMetrics:
    def test_metrics_shape_and_counters(self, manager, q2_candidates):
        managed = manager.create_session(**_Q2, candidates=q2_candidates)
        _drive_managed(manager, managed.session_id)
        metrics = manager.metrics()
        assert metrics["sessions_created"] == 1
        assert metrics["rounds_served"] >= 1
        assert metrics["choices_submitted"] >= 1
        assert metrics["checkpoints_written"] >= 2
        assert metrics["active_sessions"] == 1
        latency = metrics["round_latency_seconds"]
        assert latency["count"] == metrics["rounds_served"]
        assert latency["p50"] is not None and latency["p50"] >= 0
        assert latency["p95"] is not None and latency["p95"] >= latency["p50"] * 0.0
        assert manager.healthz()["status"] == "ok"
        # Rounds run in process: neither payload names a backend or workers.
        assert not {"backend", "workers"} & (set(metrics) | set(manager.healthz()))

    def test_round_replay_is_not_double_counted(self, manager, q2_candidates):
        managed = manager.create_session(**_Q2, candidates=q2_candidates)
        manager.get_round(managed.session_id)
        manager.get_round(managed.session_id)  # idempotent replay
        assert manager.metrics()["rounds_served"] == 1

    def test_a_workload_create_generates_under_the_pair_compute_lock(
        self, manager, monkeypatch
    ):
        from repro.experiments import runner

        calls = []
        generate = runner.prepare_candidates

        def recording(database, result, target, **kwargs):
            pairs = [p for p in manager._pairs.values() if p.database is database]
            calls.append((pairs, kwargs["join_cache"], pairs[0].compute_lock.locked()))
            return generate(database, result, target, **kwargs)

        monkeypatch.setattr(runner, "prepare_candidates", recording)
        managed = manager.create_session(workload="Q2", scale=0.03, candidate_count=6)
        ((pairs, join_cache, locked),) = calls
        assert pairs == [managed.pair]
        assert join_cache is managed.pair.join_cache
        assert locked
        assert not managed.pair.compute_lock.locked()
        assert manager.metrics()["compute_lock_wait_seconds"]["count"] == 1

    def test_a_wait_for_the_pair_compute_lock_is_observed(self, manager, q2_candidates):
        managed = manager.create_session(**_Q2, candidates=q2_candidates)
        assert manager.metrics()["compute_lock_wait_seconds"]["count"] == 0
        held = threading.Event()

        def hold_the_pair() -> None:
            with managed.pair.compute_lock:
                held.set()
                time.sleep(0.2)

        holder = threading.Thread(target=hold_the_pair)
        holder.start()
        held.wait()
        manager.get_round(managed.session_id)
        holder.join()
        wait = manager.metrics()["compute_lock_wait_seconds"]
        assert wait["count"] == 1
        assert wait["p50"] >= 0.15
        assert "qfe_service_compute_lock_wait_seconds_count 1" in manager.prometheus_metrics()
