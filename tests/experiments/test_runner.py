"""Tests for the experiment runner."""

import pytest

from repro.core.config import QFEConfig
from repro.experiments.runner import prepare_candidates, run_session, run_workload
from repro.qbo.config import QBOConfig
from repro.workloads import build_pair

_FAST_QBO = QBOConfig(threshold_variants=1, max_terms_per_conjunct=2, max_candidates=12)
_FAST_CONFIG = QFEConfig(delta_seconds=0.2)


class TestPrepareCandidates:
    def test_target_always_included(self, employee_db, employee_result):
        from repro.datasets import employee as employee_dataset

        candidates, elapsed = prepare_candidates(
            employee_db, employee_result, employee_dataset.TARGET_QUERY, qbo_config=_FAST_QBO
        )
        assert any(c == employee_dataset.TARGET_QUERY for c in candidates)
        assert elapsed >= 0

    def test_candidate_count_truncation(self, employee_db, employee_result):
        from repro.datasets import employee as employee_dataset

        candidates, _ = prepare_candidates(
            employee_db, employee_result, employee_dataset.TARGET_QUERY,
            qbo_config=_FAST_QBO, candidate_count=3,
        )
        assert len(candidates) == 3
        assert any(c == employee_dataset.TARGET_QUERY for c in candidates)

    def test_candidate_count_expansion(self, employee_db, employee_result):
        from repro.datasets import employee as employee_dataset

        candidates, _ = prepare_candidates(
            employee_db, employee_result, employee_dataset.TARGET_QUERY,
            qbo_config=_FAST_QBO, candidate_count=15,
        )
        assert 12 <= len(candidates) <= 15


class TestRunSession:
    def test_run_with_explicit_candidates(self, employee_db, employee_result, employee_candidates):
        from repro.datasets import employee as employee_dataset

        run = run_session(
            employee_db, employee_result, employee_dataset.TARGET_QUERY,
            candidates=employee_candidates, feedback="oracle", config=_FAST_CONFIG,
        )
        assert run.session.converged
        assert run.candidate_count == 3
        assert run.iteration_count >= 1
        assert run.execution_seconds >= 0

    def test_a_shared_join_cache_replays_the_repeat_session(
        self, employee_db, employee_result, employee_candidates
    ):
        from repro.core.round_planner import PLAN_MEMO_STATS
        from repro.datasets import employee as employee_dataset
        from repro.relational.evaluator import JoinCache

        join_cache = JoinCache()
        runs = [
            run_session(
                employee_db, employee_result, employee_dataset.TARGET_QUERY,
                candidates=employee_candidates, join_cache=join_cache,
                capture_transcript=True,
            )
            for _ in range(2)
        ]
        assert runs[1].transcript == runs[0].transcript
        # The first run planned every round; the second replayed them all.
        assert PLAN_MEMO_STATS.memo_misses == runs[0].iteration_count
        assert PLAN_MEMO_STATS.memo_hits == runs[1].iteration_count
        # The cache is shared, not owned: the runs leave it populated.
        assert join_cache.cached_join_count > 0

    def test_unknown_feedback_mode_rejected(self, employee_db, employee_result,
                                            employee_candidates):
        from repro.datasets import employee as employee_dataset

        with pytest.raises(ValueError):
            run_session(
                employee_db, employee_result, employee_dataset.TARGET_QUERY,
                candidates=employee_candidates, feedback="nonsense",  # type: ignore[arg-type]
            )

    @pytest.mark.slow
    def test_run_workload_oracle(self):
        run = run_workload(
            "Q5", scale=0.03, config=_FAST_CONFIG, qbo_config=_FAST_QBO, feedback="oracle"
        )
        assert run.workload == "Q5"
        assert run.session.converged
        assert run.session.identified_query is not None

    @pytest.mark.slow
    def test_run_workload_worst_case(self):
        run = run_workload(
            "Q3", scale=0.03, config=_FAST_CONFIG, qbo_config=_FAST_QBO, feedback="worst"
        )
        assert run.iteration_count >= 1
        assert run.session.converged or run.session.exhausted
