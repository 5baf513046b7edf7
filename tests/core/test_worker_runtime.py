"""Unit tests for the warm persistent worker runtime (protocol pieces).

Everything here runs driver-side without spinning up worker processes: the
cost model's unit sizing, content-hashed round bodies, and the backend's
versioned base bookkeeping (``release_base``). Full sessions over live pools
live in ``tests/integration/test_warm_pool_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.core.config import QFEConfig
from repro.core.execution_backend import (
    BACKEND_STATS,
    RoundContext,
    context_body_payload,
)
from repro.core.worker_runtime import AttemptCostModel, WarmProcessPoolBackend
from repro.relational.evaluator import BaseSnapshot


class TestAttemptCostModel:
    def test_overshards_classically_before_any_observation(self):
        model = AttemptCostModel()
        assert not model.seeded
        # Round 1: workers × 2 units, capped by the attempt count.
        assert model.unit_count(100, workers=2) == 4
        assert model.unit_count(3, workers=2) == 3
        assert model.unit_count(0, workers=2) == 0

    def test_sizes_units_to_the_time_target_after_seeding(self):
        model = AttemptCostModel(target_unit_seconds=0.02)
        model.observe(attempts=10, seconds=0.1)  # 10 ms per attempt
        assert model.seeded
        assert model.attempt_seconds == pytest.approx(0.01)
        # 2 attempts ≈ one 0.02 s unit → 100 attempts land in 50 units.
        assert model.unit_count(100, workers=2) == 50

    def test_unit_count_always_occupies_every_worker(self):
        model = AttemptCostModel(target_unit_seconds=10.0)
        model.observe(attempts=100, seconds=0.001)  # tiny attempts
        # The time target alone would ask for one giant unit; the clamp keeps
        # all workers busy whenever there are enough attempts.
        assert model.unit_count(100, workers=4) == 4
        assert model.unit_count(2, workers=4) == 2

    def test_ewma_folds_new_observations(self):
        model = AttemptCostModel(alpha=0.5)
        model.observe(attempts=1, seconds=0.01)
        model.observe(attempts=1, seconds=0.03)
        assert model.attempt_seconds == pytest.approx(0.02)
        assert model.observations == 2

    def test_rejects_bad_parameters_and_ignores_bad_samples(self):
        with pytest.raises(ValueError):
            AttemptCostModel(alpha=0.0)
        with pytest.raises(ValueError):
            AttemptCostModel(target_unit_seconds=0.0)
        model = AttemptCostModel()
        model.observe(attempts=0, seconds=1.0)
        model.observe(attempts=5, seconds=-1.0)
        assert not model.seeded


def _context(token: str = "round-1") -> RoundContext:
    from repro.relational.predicates import ComparisonOp, DNFPredicate, Term
    from repro.relational.query import SPJQuery

    query = SPJQuery(
        ["Emp"],
        ["Emp.ename"],
        DNFPredicate.from_terms([Term("Emp.salary", ComparisonOp.GT, 60)]),
    )
    return RoundContext(
        token=token,
        queries=(query,),
        config=QFEConfig(),
        referenced=("Emp",),
        result_name="R",
        result_arity=1,
    )


class TestContentHashedBodies:
    def test_body_hash_ignores_the_round_token(self):
        hash_a, payload_a = context_body_payload(_context("round-1"))
        hash_b, payload_b = context_body_payload(_context("round-2"))
        assert hash_a == hash_b
        assert payload_a == payload_b
        assert len(hash_a) == 64  # sha256 hex

    def test_backend_ships_each_distinct_body_once(self, two_table_db):
        backend = WarmProcessPoolBackend(2)
        try:
            hash_one, payload_one = backend._body_for(_context("round-1"))
            assert payload_one is not None
            # Same body (different token): hash only, no payload re-pickle.
            hash_two, payload_two = backend._body_for(_context("round-2"))
            assert hash_two == hash_one
            assert payload_two is None
            assert BACKEND_STATS.context_skips >= 1
        finally:
            backend.close()


class TestWarmBackendBaseBookkeeping:
    def test_release_base_forgets_only_the_given_database(self, two_table_db):
        database = two_table_db.copy()
        signature = ("Emp", "Dept")
        snapshot = BaseSnapshot.capture(database, [signature])
        backend = WarmProcessPoolBackend(2)
        try:
            backend._ensure_base(snapshot, [signature])
            backend.release_base(two_table_db)  # a different database: no-op
            assert backend._snapshot is snapshot
            backend.release_base(database)
            assert backend._snapshot is None
        finally:
            backend.close()

    def test_a_new_base_bumps_the_version(self, two_table_db):
        signature = ("Emp", "Dept")
        backend = WarmProcessPoolBackend(2)
        try:
            first = BaseSnapshot.capture(two_table_db.copy(), [signature])
            backend._ensure_base(first, [signature])
            version = backend._version
            backend._ensure_base(first, [signature])  # same base: no bump
            assert backend._version == version
            backend._ensure_base(
                BaseSnapshot.capture(two_table_db.copy(), [signature]), [signature]
            )
            assert backend._version == version + 1
        finally:
            backend.close()

    def test_workers_below_two_are_rejected(self):
        with pytest.raises(ValueError):
            WarmProcessPoolBackend(1)

    def test_the_worker_count_is_the_only_knob(self):
        for knob in ("target_unit_seconds", "ewma_alpha", "mp_context", "use_shared_memory"):
            with pytest.raises(TypeError):
                WarmProcessPoolBackend(2, **{knob: None})
        backend = WarmProcessPoolBackend(2)
        try:
            # The cost model runs on the module defaults.
            assert backend.cost_model.alpha == 0.3
            assert backend.cost_model.target_unit_seconds == 0.02
            assert not backend.cost_model.seeded
        finally:
            backend.close()
