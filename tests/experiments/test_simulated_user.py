"""Unit tests for simulated users and the response-time model."""

import pytest

from repro.core.feedback import NONE_OF_THE_ABOVE, OracleSelector
from repro.core.partitioner import partition_queries
from repro.core.feedback import build_feedback_round
from repro.core.session import QFESession
from repro.experiments.simulated_user import (
    NoisyOracleSelector,
    ResponseTimeModel,
    simulated_oracle_user,
    simulated_worst_case_user,
)
from tests.oracles.delta_reference import apply_tuple_delta


@pytest.fixture()
def bob_round(employee_db, employee_result, employee_candidates, bob_below_4000):
    partition = partition_queries(
        employee_candidates, apply_tuple_delta(employee_db, bob_below_4000.delta)
    )
    round_ = build_feedback_round(1, employee_db, employee_result, bob_below_4000, partition)
    return round_, partition


class TestResponseTimeModel:
    def test_bounds_respected(self, bob_round):
        round_, _ = bob_round
        model = ResponseTimeModel()
        assert model.minimum <= model.response_seconds(round_) <= model.maximum

    def test_more_changes_take_longer(self, bob_round):
        round_, _ = bob_round
        slow = ResponseTimeModel(per_db_edit=10.0)
        fast = ResponseTimeModel(per_db_edit=0.1)
        assert slow.response_seconds(round_) >= fast.response_seconds(round_)


class TestSimulatedUser:
    def test_oracle_user_records_times(self, employee_db, employee_result, employee_candidates):
        target = employee_candidates[1]
        user = simulated_oracle_user(target)
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        outcome = session.run(user)
        assert outcome.converged and outcome.identified_query == target
        assert user.rounds_seen == outcome.iteration_count
        assert len(user.response_times) == outcome.iteration_count
        assert user.total_response_seconds >= 2.0 * outcome.iteration_count

    def test_worst_case_user(self, employee_db, employee_result, employee_candidates):
        user = simulated_worst_case_user()
        session = QFESession(employee_db, employee_result, candidates=employee_candidates)
        outcome = session.run(user)
        assert outcome.converged
        assert user.rounds_seen >= 1


class TestNoisyOracle:
    def test_error_rate_validation(self, employee_candidates):
        with pytest.raises(ValueError):
            NoisyOracleSelector(employee_candidates[0], error_rate=1.5)

    def test_zero_error_rate_behaves_like_oracle(self, bob_round, employee_candidates):
        round_, partition = bob_round
        target = employee_candidates[1]
        noisy = NoisyOracleSelector(target, error_rate=0.0)
        assert noisy.select(round_, partition) == OracleSelector(target).select(round_, partition)
        assert noisy.errors_made == 0

    def test_always_erring_oracle_rejects(self, bob_round, employee_candidates):
        round_, partition = bob_round
        noisy = NoisyOracleSelector(employee_candidates[1], error_rate=0.999999, seed=3)
        assert noisy.select(round_, partition) == NONE_OF_THE_ABOVE
        assert noisy.errors_made == 1
