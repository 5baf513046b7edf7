"""Unit tests for the warm persistent worker runtime (protocol pieces).

Everything here runs driver-side without spinning up worker processes: the
cost model's unit sizing and the backend's versioned base bookkeeping
(``release_base``, the fork seed). Full sessions over live pools live in
``tests/integration/test_warm_pool_differential.py``.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import worker_runtime
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
            assert backend._version > version
        finally:
            backend.close()

    def test_versions_are_unique_across_pools(self, two_table_db):
        # Every pool forks from the one process-wide seed, so two pools must
        # never share a version: a worker seeded with the other pool's base
        # would otherwise accept this pool's tasks.
        signature = ("Emp", "Dept")
        first, second = WarmProcessPoolBackend(2), WarmProcessPoolBackend(2)
        try:
            first._ensure_base(BaseSnapshot.capture(two_table_db.copy(), [signature]), [signature])
            second._ensure_base(BaseSnapshot.capture(two_table_db.copy(), [signature]), [signature])
            assert first._version != second._version
            assert worker_runtime._FORK_SEED.version == second._version
        finally:
            first.close()
            second.close()

    @pytest.mark.parametrize("release", ["release_base", "close"])
    def test_a_released_base_is_not_pinned_by_the_fork_seed(self, two_table_db, release):
        signature = ("Emp", "Dept")
        database = two_table_db.copy()
        backend = WarmProcessPoolBackend(2)
        try:
            backend._ensure_base(BaseSnapshot.capture(database, [signature]), [signature])
            assert worker_runtime._FORK_SEED.snapshot.database is database
            if release == "release_base":
                backend.release_base(database)
            else:
                backend.close()
            alive = weakref.ref(database)
            del database
            gc.collect()
            assert alive() is None
        finally:
            backend.close()

    def test_release_base_keeps_a_seed_for_another_database(self, two_table_db):
        signature = ("Emp", "Dept")
        database = two_table_db.copy()
        backend = WarmProcessPoolBackend(2)
        try:
            backend._ensure_base(BaseSnapshot.capture(database, [signature]), [signature])
            backend.release_base(two_table_db)
            assert worker_runtime._FORK_SEED.snapshot.database is database
        finally:
            backend.close()
        assert worker_runtime._FORK_SEED is None

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
