"""Unit and integration tests for the QFE session loop (Algorithm 1)."""

import pytest

from repro.core.config import QFEConfig
from repro.core.feedback import NONE_OF_THE_ABOVE, OracleSelector, ScriptedSelector, WorstCaseSelector
from repro.core.session import QFESession
from repro.exceptions import FeedbackError, QFESessionError
from repro.relational.evaluator import evaluate
from tests.oracles.delta_reference import apply_tuple_delta


class TestSessionWithProvidedCandidates:
    def test_oracle_identifies_each_candidate(self, employee_db, employee_result,
                                               employee_candidates):
        for target in employee_candidates:
            session = QFESession(employee_db, employee_result, candidates=employee_candidates)
            outcome = session.run(OracleSelector(target))
            assert outcome.converged
            assert outcome.identified_query == target

    def test_worst_case_converges(self, employee_db, employee_result, employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        outcome = session.run(WorstCaseSelector())
        assert outcome.converged
        assert outcome.identified_query in employee_candidates

    def test_iteration_records_are_complete(self, employee_db, employee_result,
                                            employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        outcome = session.run(WorstCaseSelector())
        assert outcome.iteration_count >= 1
        previous_candidates = len(employee_candidates)
        for record in outcome.iterations:
            assert record.candidate_count <= previous_candidates
            assert record.subset_count >= 2
            assert record.remaining_candidates < record.candidate_count
            assert record.db_cost >= 1
            assert record.result_cost >= 0
            assert record.avg_result_cost == pytest.approx(
                record.result_cost / record.subset_count
            )
            previous_candidates = record.remaining_candidates
        assert outcome.total_modification_cost == pytest.approx(
            outcome.total_db_cost + outcome.total_result_cost
        )

    def test_candidate_counts_shrink_monotonically(self, employee_db, employee_result,
                                                   employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        outcome = session.run(WorstCaseSelector())
        counts = [record.candidate_count for record in outcome.iterations]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("selector", ["worst-case", "oracle"])
    def test_no_round_copies_the_database(
        self, employee_db, employee_result, employee_candidates, monkeypatch, selector
    ):
        from repro.relational.database import Database

        def refuse(self):
            raise AssertionError("a round copied the database")

        # D' is the base plus its TupleDelta: materialization, evaluation,
        # presentation and the simulated user all read the one base.
        monkeypatch.setattr(Database, "copy", refuse)
        user = (
            WorstCaseSelector() if selector == "worst-case"
            else OracleSelector(employee_candidates[1])
        )
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        outcome = session.run(user)
        assert outcome.converged
        assert all(round_.database is employee_db for round_ in session.last_rounds)

    def test_rounds_are_exposed(self, employee_db, employee_result, employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        session.run(WorstCaseSelector())
        assert session.last_rounds
        assert session.last_rounds[0].iteration == 1

    def test_empty_candidates_rejected(self, employee_db, employee_result):
        session = QFESession(employee_db, employee_result, candidates=[])
        with pytest.raises(QFESessionError):
            session.run(WorstCaseSelector())

    def test_invalid_choice_rejected(self, employee_db, employee_result, employee_candidates):
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        with pytest.raises(FeedbackError):
            session.run(ScriptedSelector([5, 5, 5, 5]))

    def test_max_iterations_bound(self, employee_db, employee_result, employee_candidates):
        session = QFESession(
            employee_db, employee_result, candidates=employee_candidates,
            config=QFEConfig(max_iterations=1),
        )
        outcome = session.run(WorstCaseSelector())
        assert outcome.iteration_count <= 1


class TestSessionWithGeneratedCandidates:
    def test_example_1_1_with_generator(self, employee_db, employee_result):
        from repro.datasets import employee as employee_dataset
        from repro.qbo import QBOConfig

        session = QFESession(
            employee_db, employee_result,
            qbo_config=QBOConfig(threshold_variants=2),
        )
        outcome = session.run(OracleSelector(employee_dataset.TARGET_QUERY))
        assert outcome.initial_candidate_count > 3
        assert outcome.query_generation_seconds > 0
        assert outcome.converged or outcome.exhausted
        if outcome.converged:
            # the identified query must at least be equivalent to the target on D
            produced = evaluate(outcome.identified_query, employee_db)
            assert produced.bag_equal(employee_result)

    def test_none_of_the_above_triggers_replenishment(self, employee_db, employee_result,
                                                      employee_candidates):
        # Reject everything once, then answer like the worst-case user.
        class RejectOnceSelector:
            def __init__(self):
                self.rejected = False
                self.fallback = WorstCaseSelector()

            def select(self, round_, partition):
                if not self.rejected:
                    self.rejected = True
                    return NONE_OF_THE_ABOVE
                return self.fallback.select(round_, partition)

        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        outcome = session.run(RejectOnceSelector())
        # replenishment added constant-mutated variants, so the session either
        # converges or ends with an explicit exhausted flag — never an error
        assert outcome.converged or outcome.exhausted
        assert outcome.initial_candidate_count == 3


class TestInvalidOriginalDatabase:
    """Section 6.3: D' keeps D's keys; the session never re-checks the whole D'."""

    @pytest.mark.parametrize("selector", ["worst-case", "oracle"])
    def test_a_key_violation_already_in_d_does_not_exhaust_the_session(
        self, employee_db, employee_result, employee_candidates, selector
    ):
        # A second Eid 1 that no candidate selects: D itself breaks its key.
        database = employee_db.copy()
        database.relation("Employee").insert([1, "Zed", "F", "HR", 100])
        user = (
            WorstCaseSelector() if selector == "worst-case"
            else OracleSelector(employee_candidates[1])
        )
        session = QFESession(database, employee_result, candidates=employee_candidates)
        outcome = session.run(user)
        assert outcome.converged and not outcome.exhausted
        assert outcome.iteration_count == 1
        for round_ in session.last_rounds:
            changed = {
                op.attribute
                for relation_delta in round_.database_delta.relation_deltas
                for op in relation_delta.script.operations
            }
            assert changed and "Eid" not in changed
            modified = apply_tuple_delta(round_.database, round_.delta)
            eids = [t.values[0] for t in modified.relation("Employee").tuples]
            assert eids == [1, 2, 3, 4, 1]
