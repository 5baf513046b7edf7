"""Unit tests for the SessionManager: multiplexing, passivation, metrics."""

import threading
import time

import pytest

from repro.core.feedback import WorstCaseSelector
from repro.core.session import QFESession
from repro.exceptions import ServiceError, SessionNotFound
from repro.service.checkpoint import session_transcript, transcript_json
from repro.service.manager import SessionManager
from repro.service.store import InMemorySessionStore


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


class TestLifecycle:
    def test_session_matches_direct_run_bit_identically(
        self, manager, employee_db, employee_result, employee_candidates
    ):
        reference = QFESession(employee_db, employee_result, candidates=employee_candidates)
        reference.run(WorstCaseSelector())
        expected = transcript_json(session_transcript(reference))

        managed = manager.create_session(
            database=employee_db, result=employee_result, candidates=employee_candidates
        )
        _drive_managed(manager, managed.session_id)
        actual = transcript_json(manager.transcript(managed.session_id))
        assert actual == expected

    def test_sessions_on_one_pair_share_base_state(
        self, manager, employee_db, employee_result, employee_candidates
    ):
        a = manager.create_session(
            database=employee_db, result=employee_result, candidates=employee_candidates
        )
        b = manager.create_session(
            database=employee_db, result=employee_result, candidates=employee_candidates
        )
        assert a.pair is b.pair
        assert a.session.join_cache is b.session.join_cache
        assert a.session.database is b.session.database
        assert manager.metrics()["shared_pairs"] == 1

    def test_unknown_session_raises(self, manager):
        with pytest.raises(SessionNotFound):
            manager.get_round("s-doesnotexist")
        with pytest.raises(SessionNotFound):
            manager.submit_choice("s-doesnotexist", 0)

    def test_delete_session(self, manager, employee_db, employee_result,
                            employee_candidates):
        managed = manager.create_session(
            database=employee_db, result=employee_result, candidates=employee_candidates
        )
        assert manager.delete_session(managed.session_id) is True
        assert manager.delete_session(managed.session_id) is False
        with pytest.raises(SessionNotFound):
            manager.get_round(managed.session_id)

    def test_duplicate_session_id_rejected(self, manager, employee_db, employee_result,
                                           employee_candidates):
        manager.create_session(
            database=employee_db, result=employee_result,
            candidates=employee_candidates, session_id="fixed",
        )
        with pytest.raises(ServiceError):
            manager.create_session(
                database=employee_db, result=employee_result,
                candidates=employee_candidates, session_id="fixed",
            )

    def test_create_requires_workload_or_pair(self, manager):
        with pytest.raises(ServiceError):
            manager.create_session()

    def test_unknown_workload_is_a_service_error_naming_the_known_ones(self, manager):
        with pytest.raises(ServiceError, match=r"unknown workload 'Q9'; known: .*'Q1'"):
            manager.create_session(workload="Q9", scale=0.03)
        # Nothing was built or registered for the bad name.
        assert manager.metrics()["shared_pairs"] == 0

    def test_closed_manager_refuses_new_sessions(self, employee_db, employee_result,
                                                 employee_candidates):
        manager = SessionManager()
        manager.close()
        with pytest.raises(ServiceError):
            manager.create_session(
                database=employee_db, result=employee_result,
                candidates=employee_candidates,
            )


class TestPassivationAndResume:
    def test_lru_passivation_to_store_and_transparent_resume(
        self, employee_db, employee_result, employee_candidates
    ):
        store = InMemorySessionStore()
        with SessionManager(store=store, max_live_sessions=1) as manager:
            a = manager.create_session(
                database=employee_db, result=employee_result,
                candidates=employee_candidates, session_id="a",
            )
            manager.get_round("a")
            # Creating "b" exceeds the live cap: "a" passivates to the store.
            manager.create_session(
                database=employee_db, result=employee_result,
                candidates=employee_candidates, session_id="b",
            )
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

    def test_capacity_without_store_is_refused(self, employee_db, employee_result,
                                               employee_candidates):
        with SessionManager(max_live_sessions=1) as manager:
            manager.create_session(
                database=employee_db, result=employee_result,
                candidates=employee_candidates, session_id="a",
            )
            with pytest.raises(ServiceError, match="capacity"):
                manager.create_session(
                    database=employee_db, result=employee_result,
                    candidates=employee_candidates, session_id="b",
                )
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
    def test_inline_pair_dies_with_its_last_session(self, manager, employee_db,
                                                    employee_result, employee_candidates):
        a = manager.create_session(
            database=employee_db, result=employee_result, candidates=employee_candidates
        )
        b = manager.create_session(
            database=employee_db, result=employee_result, candidates=employee_candidates
        )
        assert manager.metrics()["shared_pairs"] == 1
        manager.delete_session(a.session_id)
        assert manager.metrics()["shared_pairs"] == 1  # b still references it
        manager.delete_session(b.session_id)
        assert manager.metrics()["shared_pairs"] == 0

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
    def test_metrics_shape_and_counters(self, manager, employee_db, employee_result,
                                        employee_candidates):
        managed = manager.create_session(
            database=employee_db, result=employee_result, candidates=employee_candidates
        )
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

    def test_round_replay_is_not_double_counted(self, manager, employee_db,
                                                employee_result, employee_candidates):
        managed = manager.create_session(
            database=employee_db, result=employee_result, candidates=employee_candidates
        )
        manager.get_round(managed.session_id)
        manager.get_round(managed.session_id)  # idempotent replay
        assert manager.metrics()["rounds_served"] == 1

    def test_a_wait_for_the_pair_compute_lock_is_observed(
        self, manager, employee_db, employee_result, employee_candidates
    ):
        managed = manager.create_session(
            database=employee_db, result=employee_result, candidates=employee_candidates
        )
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
