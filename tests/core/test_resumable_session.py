"""Tests for the resumable QFESession state machine (propose/submit/close)."""

import pytest

from repro.core.config import QFEConfig
from repro.core.feedback import NONE_OF_THE_ABOVE, OracleSelector, WorstCaseSelector
from repro.core.session import QFESession
from repro.exceptions import FeedbackError, QFESessionError
from repro.service.checkpoint import capture_checkpoint, restore_checkpoint


def _manual_run(session, selector):
    """Drive the state machine by hand, exactly as the service layer does."""
    while True:
        pending = session.propose()
        if pending is None:
            return session.outcome
        choice = selector.select(pending.round, pending.partition)
        session.submit(choice)


def _transcript(session):
    outcome = session.outcome
    return (
        outcome.identified_query,
        outcome.remaining_queries,
        outcome.converged,
        outcome.exhausted,
        [
            (r.iteration, r.candidate_count, r.subset_count, r.chosen_option,
             r.remaining_candidates, r.db_cost, r.result_cost)
            for r in outcome.iterations
        ],
        [
            (round_.iteration, tuple(round_.database_delta.describe()),
             tuple(tuple(o.delta.describe()) for o in round_.options))
            for round_ in session.last_rounds
        ],
    )


class TestProposeSubmit:
    def test_manual_drive_matches_run(self, employee_db, employee_result, employee_candidates):
        blocking = QFESession(employee_db, employee_result, candidates=employee_candidates)
        blocking.run(WorstCaseSelector())

        manual = QFESession(employee_db, employee_result, candidates=employee_candidates)
        outcome = _manual_run(manual, WorstCaseSelector())

        assert outcome.converged
        assert _transcript(manual) == _transcript(blocking)

    def test_propose_is_idempotent_until_submit(self, employee_db, employee_result,
                                                employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        first = session.propose()
        assert first is not None
        assert session.propose() is first
        assert session.status == "awaiting-choice"
        session.submit(0)
        second = session.propose()
        assert second is None or second is not first

    def test_submit_without_pending_round_raises(self, employee_db, employee_result,
                                                 employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        with pytest.raises(QFESessionError):
            session.submit(0)

    def test_invalid_choice_keeps_round_pending(self, employee_db, employee_result,
                                                employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        pending = session.propose()
        with pytest.raises(FeedbackError):
            session.submit(pending.option_count)  # one past the end
        # The round survives the bad request: a valid retry succeeds.
        assert session.pending_round is pending
        step = session.submit(0)
        assert step.status in ("chosen", "converged")

    def test_submit_after_finish_raises(self, employee_db, employee_result,
                                        employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        _manual_run(session, WorstCaseSelector())
        assert session.done
        with pytest.raises(QFESessionError):
            session.submit(0)

    def test_none_of_the_above_replenishes(self, employee_db, employee_result,
                                           employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        before = len(employee_candidates)
        session.propose()
        step = session.submit(NONE_OF_THE_ABOVE)
        assert step.status == "replenished"
        assert step.record is None
        assert not step.done
        assert session.remaining_candidates > before
        # The session keeps going afterwards.
        outcome = _manual_run(session, WorstCaseSelector())
        assert outcome.converged or outcome.exhausted

    def test_status_transitions(self, employee_db, employee_result, employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        assert session.status == "new"
        pending = session.propose()
        assert session.status == "awaiting-choice"
        step = session.submit(0)
        assert session.status in ("active", "converged")
        _manual_run(session, WorstCaseSelector())
        assert session.status == "converged"
        assert session.done

    def test_oracle_identifies_target_via_state_machine(self, employee_db, employee_result,
                                                        employee_candidates):
        target = employee_candidates[1]
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        outcome = _manual_run(session, OracleSelector(target))
        assert outcome.converged
        assert outcome.identified_query == target

    def test_run_after_manual_steps_restarts(self, employee_db, employee_result,
                                             employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        session.propose()
        session.submit(0)
        outcome = session.run(WorstCaseSelector())
        assert outcome.converged
        # run() starts from the full initial candidate set, not the partial state
        assert outcome.initial_candidate_count == len(employee_candidates)


def _resumed(session, database, result):
    """*session* checkpointed and restored over the given example pair."""
    blob = capture_checkpoint(session, session_id="resumable")
    restored, _ = restore_checkpoint(blob, database=database, result=result)
    return restored


class TestStateCapture:
    def test_state_roundtrips_through_a_checkpoint_mid_session(
        self, employee_db, employee_result, employee_candidates
    ):
        reference = QFESession(employee_db, employee_result, candidates=employee_candidates)
        _manual_run(reference, WorstCaseSelector())

        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        selector = WorstCaseSelector()
        while True:
            # Suspend with a round pending, resume in a "new process".
            session.propose()
            session = _resumed(session, employee_db, employee_result)
            pending = session.propose()
            if pending is None:
                break
            session.submit(selector.select(pending.round, pending.partition))

        assert _transcript(session) == _transcript(reference)

    def test_restored_pending_round_survives(self, employee_db, employee_result,
                                             employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        pending = session.propose()
        restored = _resumed(session, employee_db, employee_result)
        assert restored.status == "awaiting-choice"
        replayed = restored.propose()
        assert replayed.iteration == pending.iteration
        assert replayed.partition.group_count == pending.partition.group_count
        assert tuple(replayed.round.database_delta.describe()) == tuple(
            pending.round.database_delta.describe()
        )


class TestCloseIdempotence:
    def test_close_twice_and_context_manager(self, employee_db, employee_result,
                                             employee_candidates):
        with QFESession(employee_db, employee_result, candidates=employee_candidates) as session:
            session.run(WorstCaseSelector())
            session.close()
        session.close()  # exiting the with closed once; this is the third call

    def test_session_usable_after_close(self, employee_db, employee_result,
                                        employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        session.run(WorstCaseSelector())
        session.close()
        outcome = session.run(WorstCaseSelector())
        assert outcome.converged

    def test_close_after_mid_session_exception_is_safe(self, employee_db,
                                                       employee_result,
                                                       employee_candidates):
        class ExplodingSelector:
            def select(self, round_, partition):
                raise RuntimeError("user fell off the internet")

        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        with pytest.raises(RuntimeError):
            session.run(ExplodingSelector())
        session.close()
        session.close()
        # The session stays usable: a later run starts over and finishes.
        assert session.run(WorstCaseSelector()).converged

    def test_shared_join_cache_not_cleared_by_close(self, employee_db, employee_result,
                                                    employee_candidates):
        from repro.relational.evaluator import JoinCache

        shared = JoinCache()
        session = QFESession(
            employee_db, employee_result, candidates=employee_candidates,
            join_cache=shared,
        )
        session.run(WorstCaseSelector())
        assert shared.cached_join_count > 0
        session.close()
        assert shared.cached_join_count > 0  # shared caches outlive the session

        owned = QFESession(employee_db, employee_result, candidates=employee_candidates)
        owned.run(WorstCaseSelector())
        assert owned.join_cache.cached_join_count > 0
        owned.close()
        assert owned.join_cache.cached_join_count == 0  # owned cache is released
