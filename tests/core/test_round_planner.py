"""Unit tests for the RoundPlanner and its execution backends.

The serial backend is the differential oracle: the warm pool must produce
bit-identical attempt outcomes for any worker count and sharding, and its
workers must never perform a full join (the delta-only worker protocol).
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.core import round_planner
from repro.core.config import BACKEND_CHOICES, QFEConfig, backend_name
from repro.core.database_generator import DatabaseGenerator
from repro.core.execution_backend import (
    BACKEND_STATS,
    SerialBackend,
    create_backend,
    required_signatures,
    shard_attempts,
)
from repro.core.modification import ClassPair
from repro.core.round_planner import (
    PLAN_MEMO_LIMIT,
    PLAN_MEMO_STATS,
    RoundPlanner,
    candidate_pair_attempts,
)
from repro.core.tuple_class import TupleClass
from repro.core.worker_runtime import AttemptCostModel, WarmProcessPoolBackend
from repro.exceptions import DatabaseGenerationError
from repro.obs.trace import Tracer, set_tracer
from repro.relational.evaluator import BaseSnapshot, JoinCache
from repro.relational.join import JOIN_STATS


def _outcome_key(outcomes):
    return [
        (o.attempt_index, o.pairs, o.applied, o.distinguishes, o.signature,
         o.group_sizes, o.modification_count, o.modified_tuple_count,
         o.modified_relation_count, o.db_cost)
        for o in outcomes
    ]


@pytest.fixture(scope="module")
def warm_backend():
    backend = WarmProcessPoolBackend(2)
    yield backend
    backend.close()


# ----------------------------------------------------------------- sharding
class TestSharding:
    def _attempts(self, count):
        return [
            (ClassPair(TupleClass((i,)), TupleClass((i + 1,))),) for i in range(count)
        ]

    def test_units_are_contiguous_and_cover_all_attempts(self):
        attempts = self._attempts(10)
        units = shard_attempts(attempts, 3)
        assert [len(u) for u in units] == [4, 3, 3]
        flattened = [a for unit in units for a in unit.attempts]
        assert flattened == attempts
        assert [u.start for u in units] == [0, 4, 7]

    def test_unit_count_is_clamped(self):
        attempts = self._attempts(2)
        assert len(shard_attempts(attempts, 8)) == 2
        assert len(shard_attempts(attempts, 0)) == 1
        assert shard_attempts([], 4) == []

    def test_units_pickle(self):
        unit = shard_attempts(self._attempts(3), 1)[0]
        assert pickle.loads(pickle.dumps(unit)) == unit


# ----------------------------------------------------------------- snapshots
class TestBaseSnapshot:
    def test_restore_serves_joins_without_full_joins(self, employee_db):
        cache = JoinCache()
        signature = tuple(employee_db.table_names)
        snapshot = BaseSnapshot.capture(employee_db, [signature], join_cache=cache)
        restored = BaseSnapshot.from_bytes(snapshot.to_bytes())
        JOIN_STATS.reset()
        database, seeded = restored.restore()
        joined = seeded.join_for(database, signature)
        assert JOIN_STATS.full_joins == 0
        assert len(joined) == len(cache.join_for(employee_db, signature))

    def test_covers(self, employee_db):
        signature = tuple(employee_db.table_names)
        snapshot = BaseSnapshot.capture(employee_db, [signature])
        assert snapshot.covers([signature])
        assert not snapshot.covers([signature + ("Missing",)])


# ------------------------------------------------------------------ planning
class TestRoundPlanner:
    def test_plan_round_matches_database_generator(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        generation = planner.plan_round(employee_db, employee_result, employee_candidates)
        reference = DatabaseGenerator(QFEConfig()).generate(
            employee_db, employee_result, employee_candidates
        )
        assert generation.chosen_pairs == reference.chosen_pairs
        assert generation.fallback_attempts == reference.fallback_attempts
        assert [g.query_indexes for g in generation.partition.groups] == [
            g.query_indexes for g in reference.partition.groups
        ]
        for ours, theirs in zip(generation.partition.groups, reference.partition.groups):
            assert ours.result.bag_equal(theirs.result)

    def test_prepare_round_attempt_sequence(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        assert plan.attempts[0] == tuple(plan.selection.chosen_pairs)
        singles = plan.skyline.singles_ordered_by_balance()
        expected_tail = [(p,) for p in singles if (p,) != plan.selection.chosen_pairs]
        assert list(plan.attempts[1:]) == expected_tail

    def test_too_few_candidates_raise(self, employee_db, employee_result, employee_candidates):
        with pytest.raises(DatabaseGenerationError):
            RoundPlanner(QFEConfig()).plan_round(
                employee_db, employee_result, employee_candidates[:1]
            )

    def test_candidate_pair_attempts_cap_and_order(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        full = candidate_pair_attempts(plan.space)
        capped = candidate_pair_attempts(plan.space, max_pairs=3)
        assert len(capped) == 3
        assert full[:3] == capped
        assert all(len(attempt) == 1 for attempt in full)
        # Enumeration order is ascending edit cost, Algorithm 3's order.
        costs = [attempt[0].edit_cost for attempt in full]
        assert costs == sorted(costs)

    def test_serial_stop_at_first_stops_at_winner(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        outcomes = planner.execute(plan, stop_at_first=True)
        assert outcomes[-1].applied and outcomes[-1].distinguishes
        assert all(
            not (o.applied and o.distinguishes) for o in outcomes[:-1]
        )

    def test_serial_winner_materialization_is_reused_not_rebuilt(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        store: dict = {}
        outcomes = planner.execute(plan, stop_at_first=True, winner_store=store)
        winner = outcomes[-1]
        # The in-process backend deposits the winning materialization so
        # plan_round never builds the winner twice; the derived cache entry
        # stays registered for the finalize partition.
        assert store["attempt_index"] == winner.attempt_index
        assert tuple(store["materialization"].delta.relations)
        assert planner.join_cache.derived_link_count >= 1

    def test_serial_backend_rewarms_after_base_invalidation(
        self, employee_result, employee_candidates
    ):
        from repro.datasets import employee

        database = employee.build_database()
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(database, employee_result, employee_candidates)
        planner.execute(plan, stop_at_first=False)
        referenced = plan.context.referenced
        assert planner.join_cache.columnar_for(database, referenced).cached_term_count > 0
        # In-place mutation + the documented invalidate contract: the cache
        # rebuilds a cold join, and the serial backend must warm it again
        # rather than trusting its stale guard.
        planner.join_cache.invalidate(database)
        plan = planner.prepare_round(database, employee_result, employee_candidates)
        planner.execute(plan, stop_at_first=False)
        assert planner.join_cache.columnar_for(database, referenced).cached_term_count > 0


# ------------------------------------------------------------ prologue memo
def _count_skylines(monkeypatch) -> list:
    calls: list = []
    original = round_planner.skyline_stc_dtc_pairs

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(round_planner, "skyline_stc_dtc_pairs", counting)
    return calls


class TestPrologueMemo:
    def test_a_repeated_body_replays_the_plan(
        self, employee_db, employee_result, employee_candidates, monkeypatch
    ):
        skylines = _count_skylines(monkeypatch)
        planner = RoundPlanner(QFEConfig())
        spans: list = []
        previous = set_tracer(Tracer(spans))
        try:
            first = planner.prepare_round(employee_db, employee_result, employee_candidates)
            second = planner.prepare_round(employee_db, employee_result, employee_candidates)
        finally:
            set_tracer(previous)
        assert len(skylines) == 1
        assert (PLAN_MEMO_STATS.memo_misses, PLAN_MEMO_STATS.memo_hits) == (1, 1)
        assert second.body == first.body
        assert second.attempts == first.attempts
        assert second.space is first.space
        # A replayed round spent no time in Algorithms 3 and 4.
        assert second.skyline_seconds == second.selection_seconds == 0.0
        prepares = [span for span in spans if span["name"] == "round.prepare"]
        assert [span["attrs"]["memo_hit"] for span in prepares] == [False, True]

    def test_a_planner_with_a_custom_score_bypasses_the_memo(
        self, employee_db, employee_result, employee_candidates, monkeypatch
    ):
        skylines = _count_skylines(monkeypatch)
        join_cache = JoinCache()
        planner = RoundPlanner(
            QFEConfig(), score=lambda effect, cost: (cost.total,), join_cache=join_cache
        )
        for _ in range(2):
            planner.prepare_round(employee_db, employee_result, employee_candidates)
        assert len(skylines) == 2
        assert (PLAN_MEMO_STATS.memo_misses, PLAN_MEMO_STATS.memo_hits) == (0, 0)
        referenced = tuple(sorted({t for q in employee_candidates for t in q.tables}))
        assert not join_cache.memo_for(employee_db, referenced)
        # Nor does it read a memo another planner filled on the same join.
        RoundPlanner(QFEConfig(), join_cache=join_cache).prepare_round(
            employee_db, employee_result, employee_candidates
        )
        planner.prepare_round(employee_db, employee_result, employee_candidates)
        assert len(skylines) == 4
        assert PLAN_MEMO_STATS.memo_hits == 0

    def test_an_invalidated_base_misses(
        self, employee_result, employee_candidates, monkeypatch
    ):
        from repro.datasets import employee

        skylines = _count_skylines(monkeypatch)
        database = employee.build_database()
        planner = RoundPlanner(QFEConfig())
        before = planner.prepare_round(database, employee_result, employee_candidates)
        relation = database.relation("Employee")
        victim = relation.tuples[0]
        relation.update_value(
            victim.tuple_id, "salary", relation.value_of(victim, "salary") + 5000
        )
        planner.join_cache.invalidate(database)
        after = planner.prepare_round(database, employee_result, employee_candidates)
        # Same body, rebuilt join: the memo went with the old join.
        assert after.body == before.body
        assert len(skylines) == 2
        assert (PLAN_MEMO_STATS.memo_misses, PLAN_MEMO_STATS.memo_hits) == (2, 0)
        assert after.space is not before.space

    def test_a_ninth_body_evicts_the_oldest(
        self, employee_db, employee_result, employee_candidates
    ):
        assert PLAN_MEMO_LIMIT == 8
        join_cache = JoinCache()
        # Configs that differ only outside the prologue still make distinct
        # bodies: bodies match only when their pickles are byte-identical.
        planners = [
            RoundPlanner(QFEConfig(max_iterations=10 + index), join_cache=join_cache)
            for index in range(PLAN_MEMO_LIMIT + 1)
        ]
        for planner in planners:
            planner.prepare_round(employee_db, employee_result, employee_candidates)
        assert PLAN_MEMO_STATS.memo_misses == PLAN_MEMO_LIMIT + 1
        referenced = tuple(sorted({t for q in employee_candidates for t in q.tables}))
        assert len(join_cache.memo_for(employee_db, referenced)) == PLAN_MEMO_LIMIT
        planners[-1].prepare_round(employee_db, employee_result, employee_candidates)
        assert PLAN_MEMO_STATS.memo_hits == 1
        planners[0].prepare_round(employee_db, employee_result, employee_candidates)
        assert PLAN_MEMO_STATS.memo_hits == 1
        assert PLAN_MEMO_STATS.memo_misses == PLAN_MEMO_LIMIT + 2

    def test_the_memo_does_not_pin_the_base(self, employee_result, employee_candidates):
        from repro.core.feedback import WorstCaseSelector
        from repro.core.session import QFESession
        from repro.datasets import employee

        database = employee.build_database()
        join_cache = JoinCache()
        session = QFESession(
            database, employee_result, candidates=employee_candidates, join_cache=join_cache
        )
        session.run(WorstCaseSelector())
        assert PLAN_MEMO_STATS.memo_misses > 0
        alive = weakref.ref(database)
        del session, database
        gc.collect()
        # The join cache outlives the session (a service pair's does); the
        # memo it holds keeps only plans, never the database, so the base is
        # collected and its join and memo are evicted with it.
        assert alive() is None
        assert join_cache.cached_join_count == 0
        assert not join_cache._memos


# ------------------------------------------------------------------ backends
class TestBackendFactory:
    def test_each_name_maps_to_its_backend(self):
        assert isinstance(create_backend(4, "serial"), SerialBackend)
        pool = create_backend(0, "warm")
        try:
            assert isinstance(pool, WarmProcessPoolBackend)
            assert pool.workers == 2  # raised to the pool's minimum
        finally:
            pool.close()

    def test_auto_preserves_the_historical_worker_rule(self):
        for workers in (None, 0, 1):
            assert isinstance(create_backend(workers, "auto"), SerialBackend)
        pool = create_backend(3, "auto")
        try:
            assert isinstance(pool, WarmProcessPoolBackend)
            assert pool.workers == 3
        finally:
            pool.close()

    def test_unknown_name_is_rejected_with_the_choices(self):
        with pytest.raises(ValueError, match="serial"):
            create_backend(0, "bogus")
        for removed in ("sql", "process", "SQLite"):
            with pytest.raises(ValueError, match="auto, serial, warm"):
                backend_name(removed)
        assert backend_name(" Warm ") == "warm"
        assert BACKEND_CHOICES == ("auto", "serial", "warm")

    def test_config_validates_backend_at_construction(self):
        assert QFEConfig(backend="warm").backend == "warm"
        for bad in ("bogus", "sql", "process"):
            with pytest.raises(ValueError, match="backend"):
                QFEConfig(backend=bad)

    def test_backends_are_context_managers(self):
        with create_backend(0, "serial") as backend:
            assert backend.name == "serial"
        with create_backend(2, "warm") as backend:
            assert backend.name == "warm-pool"
        assert backend._executor is None


class TestBackends:
    def test_create_backend_mapping(self):
        assert isinstance(create_backend(None), SerialBackend)
        assert isinstance(create_backend(0), SerialBackend)
        assert isinstance(create_backend(1), SerialBackend)
        pool = create_backend(2)
        assert isinstance(pool, WarmProcessPoolBackend)
        assert pool.workers == 2
        pool.close()

    def test_parallel_outcomes_match_serial_with_zero_worker_joins(
        self, employee_db, employee_result, employee_candidates, warm_backend
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        serial = planner.execute(plan, stop_at_first=False)
        parallel = planner.execute(plan, stop_at_first=False, backend=warm_backend)
        assert _outcome_key(parallel) == _outcome_key(serial)
        assert all(o.full_joins == 0 for o in parallel)
        assert all(o.full_joins == 0 for o in serial)

    def test_parallel_sweep_matches_serial(
        self, employee_db, employee_result, employee_candidates, warm_backend
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        sweep = candidate_pair_attempts(plan.space, max_pairs=12)
        serial = planner.execute(plan, attempts=sweep, stop_at_first=False)
        parallel = planner.execute(
            plan, attempts=sweep, stop_at_first=False, backend=warm_backend
        )
        assert _outcome_key(parallel) == _outcome_key(serial)
        assert all(o.full_joins == 0 for o in parallel)

    def test_warm_outcomes_do_not_depend_on_unit_sizing(
        self, employee_db, employee_result, employee_candidates, warm_backend
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        sweep = candidate_pair_attempts(plan.space, max_pairs=12)
        assert len(sweep) > 2
        serial = planner.execute(plan, attempts=sweep, stop_at_first=False)
        # Seeded models at both extremes: one attempt per unit, and the
        # fewest units that still occupy both workers.
        fine = AttemptCostModel(target_unit_seconds=1e-9)
        fine.observe(attempts=1, seconds=1.0)
        coarse = AttemptCostModel(target_unit_seconds=1e9)
        coarse.observe(attempts=1, seconds=1e-6)
        assert fine.unit_count(len(sweep), 2) == len(sweep)
        assert coarse.unit_count(len(sweep), 2) == 2
        saved = warm_backend.cost_model
        dispatched = []
        try:
            for model in (fine, coarse):
                warm_backend.cost_model = model
                units_before = BACKEND_STATS.units_dispatched
                parallel = planner.execute(
                    plan, attempts=sweep, stop_at_first=False, backend=warm_backend
                )
                dispatched.append(BACKEND_STATS.units_dispatched - units_before)
                assert _outcome_key(parallel) == _outcome_key(serial)
        finally:
            warm_backend.cost_model = saved
        assert dispatched[0] >= len(sweep) > dispatched[1]

    @pytest.mark.parametrize("backend_name", ["serial", "warm"])
    def test_attempts_leave_the_base_untouched(
        self, employee_db, employee_result, employee_candidates, warm_backend, backend_name
    ):
        backend = warm_backend if backend_name == "warm" else SerialBackend()
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        referenced = plan.context.referenced
        queries = plan.context.queries

        def observe():
            tables = {
                name: employee_db.relation(name).rows() for name in employee_db.table_names
            }
            joined = planner.join_cache.join_for(employee_db, referenced).relation.rows()
            fingerprints = planner.join_cache.evaluate_batch(queries, employee_db).fingerprints
            return tables, joined, fingerprints

        before = observe()
        sweep = candidate_pair_attempts(plan.space, max_pairs=12)
        outcomes = planner.execute(plan, attempts=sweep, stop_at_first=False, backend=backend)
        assert any(o.applied for o in outcomes)
        # Every attempt modified a copy: the base tables, its cached join and
        # the masks the candidates evaluate through are exactly as before.
        assert observe() == before

    def test_stop_at_first_parallel_finds_the_serial_winner(
        self, employee_db, employee_result, employee_candidates, warm_backend
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        serial = planner.execute(plan, stop_at_first=True)
        parallel = planner.execute(plan, stop_at_first=True, backend=warm_backend)

        def winner(outcomes):
            return next(
                (o.attempt_index, o.pairs, o.signature)
                for o in outcomes
                if o.applied and o.distinguishes
            )

        assert winner(parallel) == winner(serial)

    def test_generator_with_workers_matches_serial_generation(
        self, employee_db, employee_result, employee_candidates
    ):
        serial = DatabaseGenerator(QFEConfig()).generate(
            employee_db, employee_result, employee_candidates
        )
        generator = DatabaseGenerator(QFEConfig(), workers=2)
        assert generator.backend.name == "warm-pool"
        try:
            parallel = generator.generate(employee_db, employee_result, employee_candidates)
        finally:
            generator.close()
        assert parallel.chosen_pairs == serial.chosen_pairs
        assert parallel.fallback_attempts == serial.fallback_attempts
        assert [g.query_indexes for g in parallel.partition.groups] == [
            g.query_indexes for g in serial.partition.groups
        ]
        for ours, theirs in zip(parallel.partition.groups, serial.partition.groups):
            assert ours.result.bag_equal(theirs.result)

    def test_backend_survives_close_and_reuse(
        self, employee_db, employee_result, employee_candidates
    ):
        backend = WarmProcessPoolBackend(2)
        planner = RoundPlanner(QFEConfig(), backend=backend)
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        first = planner.execute(plan, stop_at_first=False)
        planner.close()
        second = planner.execute(plan, stop_at_first=False)
        planner.close()
        assert _outcome_key(first) == _outcome_key(second)

    def test_round_context_requires_covered_signatures(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        signatures = required_signatures(plan.context)
        snapshot = planner._snapshot_for(employee_db, signatures)
        assert snapshot.covers(signatures)
        # Same base, same signatures: the memoized snapshot is reused.
        assert planner._snapshot_for(employee_db, signatures) is snapshot

    def test_snapshot_is_recaptured_after_base_invalidation(
        self, employee_result, employee_candidates
    ):
        from repro.datasets import employee

        database = employee.build_database()
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(database, employee_result, employee_candidates)
        signatures = required_signatures(plan.context)
        first = planner._snapshot_for(database, signatures)
        # Honouring the cache contract for in-place mutation of a live base:
        # invalidate() rebuilds the joins, so the memoized snapshot's joins
        # are stale and the next request must capture a fresh one.
        planner.join_cache.invalidate(database)
        second = planner._snapshot_for(database, signatures)
        assert second is not first
        assert planner._snapshot_for(database, signatures) is second

    def test_pool_reinstalls_after_in_place_base_mutation(
        self, employee_result, employee_candidates
    ):
        from repro.datasets import employee

        database = employee.build_database()
        backend = WarmProcessPoolBackend(2)
        planner = RoundPlanner(QFEConfig(), backend=backend)
        try:
            plan = planner.prepare_round(database, employee_result, employee_candidates)
            planner.execute(plan, stop_at_first=False)
            # Mutate the base in place and honour the cache contract.
            relation = database.relation("Employee")
            victim = relation.tuples[0]
            salary = relation.value_of(victim, "salary")
            # A large jump so the tuple crosses selection thresholds: a pool
            # still holding the stale snapshot would visibly diverge.
            relation.update_value(victim.tuple_id, "salary", salary + 5000)
            planner.join_cache.invalidate(database)
            plan = planner.prepare_round(database, employee_result, employee_candidates)
            serial = planner.execute(plan, stop_at_first=False, backend=SerialBackend())
            parallel = planner.execute(plan, stop_at_first=False)
            # The workers installed the post-mutation snapshot: their
            # outcomes match a fresh serial evaluation, not the stale state.
            assert _outcome_key(parallel) == _outcome_key(serial)
            assert all(o.full_joins == 0 for o in parallel)
        finally:
            planner.close()
