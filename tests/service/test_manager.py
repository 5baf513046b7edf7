"""Unit tests for the SessionManager: multiplexing, passivation, metrics."""

import sys
import threading
import time

import pytest

from repro.core.feedback import WorstCaseSelector
from repro.core.session import QFESession
from repro.exceptions import CheckpointError, ServiceError, SessionNotFound
from repro.service import manager as manager_module
from repro.service.checkpoint import read_checkpoint_header, session_transcript, transcript_json
from repro.service.manager import SessionManager, workload_session_inputs
from repro.service.store import InMemorySessionStore

#: Every session of these tests runs over the shared Q2@0.03 pair.
_Q2 = {"workload": "Q2", "scale": 0.03}


def _drive_managed(manager, session_id):
    """Drive a managed session to completion with worst-case choices."""
    while _step_managed(manager, session_id):
        pass


def _step_managed(manager, session_id) -> bool:
    """One round with a worst-case choice; False once the session has finished."""
    _, pending = manager.get_round(session_id)
    if pending is None:
        return False
    choice = WorstCaseSelector().select(pending.round, pending.partition)
    manager.submit_choice(session_id, choice)
    return True


def _reference_transcript(q2_inputs, candidates) -> str:
    """The transcript of an uninterrupted in-process run over *candidates*."""
    database, result, _, _ = q2_inputs
    reference = QFESession(database, result, candidates=candidates)
    reference.run(WorstCaseSelector())
    return transcript_json(session_transcript(reference, workload="Q2"))


class _CountingStore(InMemorySessionStore):
    """An in-memory store that records the session id of every put."""

    def __init__(self) -> None:
        super().__init__()
        self.puts: list[str] = []

    def put(self, session_id: str, blob: bytes) -> None:
        self.puts.append(session_id)
        super().put(session_id, blob)


def _slowed(function, entered: threading.Event, seconds: float = 0.3):
    """*function*, delayed by *seconds* after setting *entered*."""

    def slow(*args, **kwargs):
        entered.set()
        time.sleep(seconds)
        return function(*args, **kwargs)

    return slow


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
        candidates = q2_inputs[3]
        expected = _reference_transcript(q2_inputs, candidates)

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

    def test_a_create_the_store_refuses_registers_nothing(self, manager, q2_candidates):
        with pytest.raises(CheckpointError, match="invalid session id"):
            manager.create_session(**_Q2, candidates=q2_candidates, session_id="no spaces")
        assert manager.session_ids() == []
        assert manager.metrics()["sessions_created"] == 0

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

    def test_a_closed_manager_resumes_nothing(self, q2_candidates):
        manager = SessionManager()
        manager.create_session(**_Q2, candidates=q2_candidates, session_id="a")
        manager.close()
        assert "a" in manager.store  # stored, but the manager is closed
        for step in (manager.get_round, manager.transcript):
            with pytest.raises(ServiceError, match="closed"):
                step("a")
        assert manager.healthz() == {"status": "closed", "active_sessions": 0}


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

    def test_the_id_of_a_passivated_session_stays_taken(self, q2_inputs):
        candidates = q2_inputs[3]
        with SessionManager(max_live_sessions=1) as manager:
            manager.create_session(**_Q2, candidates=candidates, session_id="a")
            _step_managed(manager, "a")
            manager.create_session(**_Q2, candidates=candidates, session_id="b")
            assert manager.session_ids() == ["b"]  # "a" lives only in the store
            with pytest.raises(ServiceError, match="already exists"):
                manager.create_session(**_Q2, candidates=candidates[:3], session_id="a")
            # "a"'s checkpoint was not overwritten: it resumes where it was.
            _drive_managed(manager, "a")
            expected = _reference_transcript(q2_inputs, candidates)
            assert transcript_json(manager.transcript("a")) == expected

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

    def test_without_a_store_sessions_passivate_into_memory(self, q2_inputs):
        candidates = q2_inputs[3]
        specs = {"a": candidates, "b": candidates[:4]}
        references = {name: _reference_transcript(q2_inputs, c) for name, c in specs.items()}
        with SessionManager(max_live_sessions=1) as manager:
            for name, session_candidates in specs.items():
                manager.create_session(**_Q2, candidates=session_candidates, session_id=name)
            # One step each in turn: every request on the other session
            # resumes it from the in-memory store and passivates this one.
            running = list(specs)
            while running:
                running = [name for name in running if _step_managed(manager, name)]
            for name in specs:
                assert transcript_json(manager.transcript(name)) == references[name]
            metrics = manager.metrics()
        assert metrics["sessions_resumed"] >= metrics["rounds_served"] - 1
        assert (
            metrics["sessions_created"] + metrics["sessions_resumed"]
            - metrics["sessions_passivated"]
        ) == metrics["active_sessions"] == 1

    @pytest.mark.parametrize("bound", ["max_sessions", "ttl_seconds"])
    def test_a_session_the_store_dropped_is_gone_once_it_passivates(
        self, q2_candidates, bound
    ):
        now = [0.0]
        store = InMemorySessionStore(**{bound: 1}, clock=lambda: now[0])
        with SessionManager(store=store, max_live_sessions=1) as manager:
            manager.create_session(**_Q2, candidates=q2_candidates, session_id="a")
            now[0] = 2.0  # past the TTL of "a"'s only checkpoint
            # "b" passivates "a" without a write, and "b"'s checkpoint evicts
            # (or outlives) "a"'s: the store's bounds decide who survives.
            manager.create_session(**_Q2, candidates=q2_candidates, session_id="b")
            assert manager.session_ids() == ["b"]
            assert store.ids() == ["b"]
            with pytest.raises(SessionNotFound):
                manager.get_round("a")

    def test_manager_restart_resumes_workload_sessions(self):
        store = InMemorySessionStore()
        with SessionManager(store=store) as manager:
            managed = manager.create_session(
                workload="Q2", scale=0.03, candidate_count=6, session_id="q2s"
            )
            manager.get_round("q2s")
        # The round's step stored the session and close() wrote nothing; a
        # fresh manager (fresh process, conceptually) resumes it from the
        # workload reference.
        with SessionManager(store=store) as manager2:
            assert manager2.session_ids() == []
            _, pending = manager2.get_round("q2s")
            assert pending is not None
            _drive_managed(manager2, "q2s")
            transcript = manager2.transcript("q2s")
            assert transcript["status"] in ("converged", "exhausted", "stalled")
            assert transcript["workload"] == "Q2"


class TestSingleWriter:
    def test_only_completed_steps_write_checkpoints(self, q2_candidates):
        store = _CountingStore()
        manager = SessionManager(store=store, max_live_sessions=1)
        manager.create_session(**_Q2, candidates=q2_candidates, session_id="a")
        manager.create_session(**_Q2, candidates=q2_candidates, session_id="b")
        assert store.puts == ["a", "b"]  # two creates; "a" passivated unwritten
        _, pending = manager.get_round("a")  # resume "a", passivate "b"
        manager.get_round("a")  # the same pending round: no step
        manager.transcript("a")  # a read: no step
        manager.submit_choice("a", WorstCaseSelector().select(pending.round, pending.partition))
        manager.get_round("b")  # resume "b", passivate "a"
        assert store.puts == ["a", "b", "a", "a", "b"]
        metrics = manager.metrics()
        assert metrics["checkpoints_written"] == len(store.puts)
        assert metrics["sessions_passivated"] == 3
        manager.close()
        assert len(store.puts) == 5  # shutdown drops "b" without a write

    def test_a_round_served_after_a_failed_write_is_stored(self, q2_inputs):
        class FailingOnce(InMemorySessionStore):
            fail = False

            def put(self, session_id, blob):
                if self.fail:
                    self.fail = False
                    raise OSError("disk full")
                super().put(session_id, blob)

        q2_candidates = q2_inputs[3]
        store = FailingOnce()
        manager = SessionManager(store=store, max_live_sessions=1)
        manager.create_session(**_Q2, candidates=q2_candidates, session_id="a")
        store.fail = True
        with pytest.raises(OSError):
            manager.get_round("a")  # round 1 is planned, its write fails
        _, pending = manager.get_round("a")  # the retry serves round 1 ...
        assert read_checkpoint_header(store.get("a"))["status"] == "awaiting-choice"
        assert manager.metrics()["checkpoints_written"] == 2  # ... and stores it
        manager.create_session(**_Q2, candidates=q2_candidates, session_id="b")
        assert manager.session_ids() == ["b"]  # "a" passivated
        choice = WorstCaseSelector().select(pending.round, pending.partition)
        manager.submit_choice("a", choice)  # the round the user was shown
        _drive_managed(manager, "a")
        expected = _reference_transcript(q2_inputs, q2_candidates)
        assert transcript_json(manager.transcript("a")) == expected

    def test_a_delete_waits_for_the_step_in_flight(self, manager, q2_candidates, monkeypatch):
        managed = manager.create_session(**_Q2, candidates=q2_candidates, session_id="a")
        _, pending = manager.get_round("a")
        choice = WorstCaseSelector().select(pending.round, pending.partition)
        entered = threading.Event()
        monkeypatch.setattr(managed.session, "submit", _slowed(managed.session.submit, entered))
        stepping = threading.Thread(target=manager.submit_choice, args=("a", choice))
        stepping.start()
        assert entered.wait(timeout=30)
        assert manager.delete_session("a") is True
        stepping.join(timeout=30)
        assert not stepping.is_alive()
        # The step's checkpoint landed before the delete removed it.
        assert "a" not in manager.store
        with pytest.raises(SessionNotFound):
            manager.get_round("a")
        assert manager.delete_session("a") is False

    def test_deleting_a_passivated_session_removes_its_checkpoint(self, q2_candidates):
        with SessionManager(max_live_sessions=1) as manager:
            manager.create_session(**_Q2, candidates=q2_candidates, session_id="a")
            manager.create_session(**_Q2, candidates=q2_candidates, session_id="b")
            assert manager.session_ids() == ["b"]  # "a" lives only in the store
            assert manager.delete_session("a") is True
            assert manager.store.ids() == ["b"]
            with pytest.raises(SessionNotFound):
                manager.get_round("a")
            assert manager.delete_session("a") is False

    def test_a_delete_during_a_resume_is_final(self, q2_candidates, monkeypatch):
        with SessionManager(store=InMemorySessionStore(), max_live_sessions=1) as manager:
            manager.create_session(**_Q2, candidates=q2_candidates, session_id="a")
            manager.create_session(**_Q2, candidates=q2_candidates, session_id="b")
            entered = threading.Event()
            monkeypatch.setattr(
                manager_module,
                "restore_checkpoint",
                _slowed(manager_module.restore_checkpoint, entered),
            )
            outcomes = []

            def resume() -> None:
                try:
                    manager.get_round("a")
                    outcomes.append("served")
                except SessionNotFound:
                    outcomes.append("not found")

            resuming = threading.Thread(target=resume)
            resuming.start()
            assert entered.wait(timeout=30)
            assert manager.delete_session("a") is True
            resuming.join(timeout=30)
            assert not resuming.is_alive()
            assert outcomes == ["not found"]
            assert manager.session_ids() == ["b"]
            with pytest.raises(SessionNotFound):
                manager.get_round("a")

    def test_a_close_during_a_resume_registers_nothing(self, q2_candidates, monkeypatch):
        manager = SessionManager(max_live_sessions=1)
        manager.create_session(**_Q2, candidates=q2_candidates, session_id="a")
        manager.create_session(**_Q2, candidates=q2_candidates, session_id="b")
        entered = threading.Event()
        monkeypatch.setattr(
            manager_module,
            "restore_checkpoint",
            _slowed(manager_module.restore_checkpoint, entered),
        )
        outcomes = []

        def resume() -> None:
            try:
                manager.get_round("a")
                outcomes.append("served")
            except ServiceError as exc:
                outcomes.append(str(exc))

        resuming = threading.Thread(target=resume)
        resuming.start()
        assert entered.wait(timeout=30)
        manager.close()
        resuming.join(timeout=30)
        assert not resuming.is_alive()
        assert outcomes == ["the session manager is closed"]
        assert manager.healthz() == {"status": "closed", "active_sessions": 0}

    def test_racing_steps_passivations_and_deletes_keep_the_store_exact(self, q2_inputs):
        candidates = q2_inputs[3]
        reference = _reference_transcript(q2_inputs, candidates)
        ids = [f"u{index}" for index in range(6)]
        doomed = set(ids[::2])
        stepped = {sid: threading.Event() for sid in ids}
        errors: list[BaseException] = []

        def drive(sid: str) -> None:
            try:
                while _step_managed(manager, sid):
                    stepped[sid].set()
            except SessionNotFound:
                if sid not in doomed:
                    raise
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stepped[sid].set()

        def delete(sid: str) -> None:
            stepped[sid].wait(timeout=30)
            manager.delete_session(sid)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SessionManager(max_live_sessions=2) as manager:
                for sid in ids:
                    manager.create_session(**_Q2, candidates=candidates, session_id=sid)
                threads = [threading.Thread(target=drive, args=(sid,)) for sid in ids]
                threads += [threading.Thread(target=delete, args=(sid,)) for sid in doomed]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors
                survivors = sorted(set(ids) - doomed)
                assert sorted(manager.store.ids()) == survivors
                for sid in doomed:
                    with pytest.raises(SessionNotFound):
                        manager.get_round(sid)
                for sid in survivors:
                    assert transcript_json(manager.transcript(sid)) == reference
        finally:
            sys.setswitchinterval(interval)


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


def _recording_generator(monkeypatch, *, slow: float = 0.0):
    """Count the candidate generations a manager runs, optionally slowed."""
    from repro.experiments import runner

    calls = []
    generate = runner.prepare_candidates

    def recording(*args, **kwargs):
        calls.append(kwargs["candidate_count"])
        time.sleep(slow)
        return generate(*args, **kwargs)

    monkeypatch.setattr(runner, "prepare_candidates", recording)
    return calls


class TestCandidateMemo:
    def test_a_warm_create_generates_nothing(self, manager, q2_inputs, monkeypatch):
        calls = _recording_generator(monkeypatch)
        manager.create_session(workload="Q2", scale=0.03, candidate_count=6)
        assert calls == [6]
        waits = manager.metrics()["compute_lock_wait_seconds"]["count"]
        second = manager.create_session(workload="Q2", scale=0.03, candidate_count=6)
        assert calls == [6]  # the memo served it: no QBO run ...
        metrics = manager.metrics()
        assert metrics["compute_lock_wait_seconds"]["count"] == waits  # ... and no lock
        assert (metrics["candidate_memo_misses"], metrics["candidate_memo_hits"]) == (1, 1)
        exposition = manager.prometheus_metrics()
        assert "qfe_service_candidate_memo_misses 1" in exposition
        assert "qfe_service_candidate_memo_hits 1" in exposition
        _drive_managed(manager, second.session_id)
        expected = _reference_transcript(q2_inputs, q2_inputs[3])
        assert transcript_json(manager.transcript(second.session_id)) == expected

    def test_another_count_or_config_generates_anew(self, manager, monkeypatch):
        from repro.qbo.config import QBOConfig

        calls = _recording_generator(monkeypatch)
        manager.create_session(workload="Q2", scale=0.03, candidate_count=6)
        manager.create_session(workload="Q2", scale=0.03, candidate_count=5)
        manager.create_session(workload="Q2", scale=0.03, candidate_count=6,
                               qbo_config=QBOConfig(max_candidates=8))
        # The service default, spelled out, is the same key as no config.
        manager.create_session(workload="Q2", scale=0.03, candidate_count=6,
                               qbo_config=manager_module._SERVICE_QBO)
        assert calls == [6, 5, 6]
        assert manager.metrics()["candidate_memo_hits"] == 1

    def test_explicit_candidates_bypass_the_memo(self, manager, q2_candidates, monkeypatch):
        calls = _recording_generator(monkeypatch)
        managed = manager.create_session(**_Q2, candidates=q2_candidates)
        assert calls == [] and managed.pair.candidate_memo == {}
        metrics = manager.metrics()
        assert (metrics["candidate_memo_misses"], metrics["candidate_memo_hits"]) == (0, 0)

    def test_one_key_past_the_limit_evicts_the_oldest(self, manager, q2_candidates, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setattr(
            runner, "prepare_candidates", lambda *args, **kwargs: (list(q2_candidates), 0.0)
        )
        limit = manager_module.CANDIDATE_MEMO_LIMIT
        counts = range(2, limit + 3)  # limit + 1 keys
        for count in counts:
            managed = manager.create_session(workload="Q2", scale=0.03, candidate_count=count)
        memo = managed.pair.candidate_memo
        assert [key[1] for key in memo] == list(counts)[1:]
        assert all(value == tuple(q2_candidates) for value in memo.values())
        manager.create_session(workload="Q2", scale=0.03, candidate_count=2)
        assert manager.metrics()["candidate_memo_misses"] == limit + 2

    def test_a_pruned_pair_drops_its_memo(self, monkeypatch):
        calls = _recording_generator(monkeypatch)
        with SessionManager(max_warm_pairs=1) as manager:
            first = manager.create_session(workload="Q2", scale=0.03, candidate_count=6)
            manager.delete_session(first.session_id)
            other = manager.create_session(workload="Q2", scale=0.02, candidate_count=6)
            manager.delete_session(other.session_id)  # prunes the Q2@0.03 pair
            assert manager.metrics()["shared_pairs"] == 1
            again = manager.create_session(workload="Q2", scale=0.03, candidate_count=6)
            assert again.pair is not first.pair
            assert calls == [6, 6, 6]
            assert manager.metrics()["candidate_memo_hits"] == 0

    def test_racing_creates_on_a_cold_pair_generate_once(self, manager, monkeypatch):
        calls = _recording_generator(monkeypatch, slow=0.3)
        start = threading.Barrier(2)
        created = []

        def create() -> None:
            start.wait()
            created.append(manager.create_session(workload="Q2", scale=0.03, candidate_count=6))

        threads = [threading.Thread(target=create) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert calls == [6]
        assert created[0].pair is created[1].pair
        assert created[0].session.initial_candidates == created[1].session.initial_candidates
        metrics = manager.metrics()
        assert (metrics["candidate_memo_misses"], metrics["candidate_memo_hits"]) == (1, 1)

    def test_racing_creates_over_evicting_keys_keep_the_memo_exact(self, q2_candidates, monkeypatch):
        from repro.experiments import runner

        limit = manager_module.CANDIDATE_MEMO_LIMIT
        counts = list(range(2, limit + 5))  # more keys than the memo holds

        def expected(count):
            return tuple(q2_candidates[: 2 + count % (len(q2_candidates) - 1)])

        generated = []

        def generate(*args, candidate_count, **kwargs):
            generated.append(candidate_count)
            return list(expected(candidate_count)), 0.0

        monkeypatch.setattr(runner, "prepare_candidates", generate)
        errors: list[BaseException] = []

        def create(offset: int) -> None:
            try:
                for step in range(3 * len(counts)):
                    count = counts[(offset + step) % len(counts)]
                    managed = manager.create_session(
                        workload="Q2", scale=0.03, candidate_count=count
                    )
                    assert tuple(managed.session.initial_candidates) == expected(count)
                    manager.delete_session(managed.session_id)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SessionManager() as manager:
                threads = [threading.Thread(target=create, args=(k,)) for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors
                metrics = manager.metrics()
                (pair,) = manager._pairs.values()
        finally:
            sys.setswitchinterval(interval)
        assert metrics["candidate_memo_misses"] == len(generated)
        assert metrics["candidate_memo_hits"] + len(generated) == 4 * 3 * len(counts)
        assert len(pair.candidate_memo) == limit
        assert all(value == expected(key[1]) for key, value in pair.candidate_memo.items())


class TestPairBuild:
    @pytest.mark.parametrize(
        "scale", [1e6, manager_module.MAX_PAIR_SCALE * 1.01, float("inf"), float("nan"), 0.0, -1.0]
    )
    def test_a_scale_out_of_bounds_is_refused_unbuilt(self, manager, monkeypatch, scale):
        from repro.workloads.paper_queries import Workload

        built = []
        monkeypatch.setattr(Workload, "build_pair", lambda self, s=1.0: built.append(s))
        with pytest.raises(ServiceError, match="scale"):
            manager.create_session(workload="Q2", scale=scale)
        assert built == []
        assert manager.metrics()["shared_pairs"] == 0

    def test_a_resume_at_a_scale_out_of_bounds_is_refused_unbuilt(
        self, manager, q2_candidates, monkeypatch
    ):
        import json

        from repro.workloads.paper_queries import Workload

        manager.create_session(**_Q2, candidates=q2_candidates, session_id="big")
        header_line, _, body = manager.store.get("big").partition(b"\n")
        header = json.loads(header_line)
        header["database_ref"]["scale"] = 1e6  # outside the body's checksum
        manager.store.put("big", json.dumps(header).encode() + b"\n" + body)
        manager._sessions.clear()  # as if passivated
        built = []
        monkeypatch.setattr(Workload, "build_pair", lambda self, s=1.0: built.append(s))
        with pytest.raises(ServiceError, match="scale"):
            manager.get_round("big")
        assert built == []

    def test_a_slow_pair_build_blocks_no_other_request(self, manager, q2_candidates, monkeypatch):
        from repro.workloads.paper_queries import Workload

        warm = manager.create_session(**_Q2, candidates=q2_candidates)
        entered, release = threading.Event(), threading.Event()
        build = Workload.build_pair

        def slow_build(self, scale=1.0):
            entered.set()
            release.wait(timeout=5.0)
            return build(self, scale)

        monkeypatch.setattr(Workload, "build_pair", slow_build)
        cold = threading.Thread(
            target=manager.create_session,
            kwargs=dict(workload="Q2", scale=0.02, candidates=q2_candidates),
        )
        cold.start()
        try:
            assert entered.wait(timeout=5.0)
            started = time.perf_counter()
            assert manager.healthz()["status"] == "ok"
            _, pending = manager.get_round(warm.session_id)
            waited = time.perf_counter() - started
            still_building = not release.is_set() and cold.is_alive()
        finally:
            release.set()
            cold.join()
        assert pending is not None
        assert still_building and waited < 2.0
        assert manager.metrics()["shared_pairs"] == 2
