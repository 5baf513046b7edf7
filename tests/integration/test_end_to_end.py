"""End-to-end integration tests across the whole pipeline.

Each test exercises the full stack: dataset construction → candidate query
generation (QBO) → QFE winnowing loop (Database Generator, Result Feedback) →
identification of the target query, including SQLite cross-checks of the
final answer.
"""

import pytest

from repro.core import OracleSelector, QFEConfig, QFESession, WorstCaseSelector
from repro.experiments.runner import prepare_candidates
from repro.qbo.config import QBOConfig
from repro.relational.evaluator import evaluate
from repro.sql.sqlite_backend import SQLiteBackend
from repro.workloads import build_pair
from tests.oracles.constraints_reference import modification_is_valid
from tests.oracles.delta_reference import apply_tuple_delta

_FAST_QBO = QBOConfig(threshold_variants=2, max_terms_per_conjunct=3, max_candidates=20)
_FAST_CONFIG = QFEConfig(delta_seconds=0.3)


@pytest.mark.parametrize("workload_name", ["Q2", "Q3", "Q5"])
class TestOracleSessions:
    def test_oracle_identifies_a_result_equivalent_query(self, workload_name):
        database, result, target = build_pair(workload_name, scale=0.03)
        candidates, _ = prepare_candidates(database, result, target, qbo_config=_FAST_QBO)
        session = QFESession(database, result, candidates=candidates, config=_FAST_CONFIG)
        outcome = session.run(OracleSelector(target))
        assert outcome.converged
        identified = outcome.identified_query
        # the identified query agrees with the target on the original database…
        assert evaluate(identified, database).bag_equal(result)
        # …and on every modified database the session presented
        for round_ in session.last_rounds:
            modified = apply_tuple_delta(round_.database, round_.delta)
            ours = evaluate(identified, modified)
            target_result = evaluate(target, modified)
            assert ours.bag_equal(target_result)

    def test_every_presented_database_is_valid(self, workload_name):
        database, result, target = build_pair(workload_name, scale=0.03)
        candidates, _ = prepare_candidates(database, result, target, qbo_config=_FAST_QBO)
        session = QFESession(database, result, candidates=candidates, config=_FAST_CONFIG)
        session.run(OracleSelector(target))
        for round_ in session.last_rounds:
            assert modification_is_valid(apply_tuple_delta(round_.database, round_.delta))
            assert round_.database_delta.cost >= 1


class TestWorstCaseSessions:
    def test_worst_case_q5_converges(self):
        database, result, target = build_pair("Q5", scale=0.03)
        candidates, _ = prepare_candidates(database, result, target, qbo_config=_FAST_QBO)
        session = QFESession(database, result, candidates=candidates, config=_FAST_CONFIG)
        outcome = session.run(WorstCaseSelector())
        assert outcome.converged or outcome.exhausted
        assert outcome.iteration_count >= 1
        # every iteration prunes at least one candidate
        for record in outcome.iterations:
            assert record.remaining_candidates < record.candidate_count

    def test_worst_case_never_exceeds_candidate_count_iterations(self):
        database, result, target = build_pair("Q3", scale=0.03)
        candidates, _ = prepare_candidates(
            database, result, target, qbo_config=_FAST_QBO, candidate_count=10
        )
        session = QFESession(database, result, candidates=candidates, config=_FAST_CONFIG)
        outcome = session.run(WorstCaseSelector())
        assert outcome.iteration_count <= len(candidates)


class TestSQLiteAgreementEndToEnd:
    def test_identified_query_agrees_with_sqlite(self):
        database, result, target = build_pair("Q5", scale=0.03)
        candidates, _ = prepare_candidates(database, result, target, qbo_config=_FAST_QBO)
        session = QFESession(database, result, candidates=candidates, config=_FAST_CONFIG)
        outcome = session.run(OracleSelector(target))
        assert outcome.converged
        with SQLiteBackend(database) as backend:
            sqlite_result = backend.execute(outcome.identified_query)
        assert sqlite_result.bag_equal(result)

    def test_candidate_generation_agrees_with_sqlite(self, employee_db, employee_result):
        from repro.datasets.employee import TARGET_QUERY

        candidates, _ = prepare_candidates(
            employee_db, employee_result, TARGET_QUERY, qbo_config=_FAST_QBO
        )
        with SQLiteBackend(employee_db) as backend:
            for query in candidates:
                assert backend.execute(query).bag_equal(employee_result)
