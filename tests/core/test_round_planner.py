"""Unit tests for the RoundPlanner: prologue, in-process search, prologue memo."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import round_planner
from repro.core.config import QFEConfig
from repro.core.database_generator import DatabaseGenerator
from repro.core.execution_backend import RoundSetup, ensure_base_masks_warm, evaluate_attempt
from repro.core.round_planner import PLAN_MEMO_LIMIT, PLAN_MEMO_STATS, RoundPlanner
from repro.exceptions import DatabaseGenerationError
from repro.obs.trace import Tracer, set_tracer
from repro.relational.evaluator import JoinCache
from repro.relational.join import JOIN_STATS


def _score_every_attempt(planner, plan) -> list:
    """Score every attempt as the search does, past the winner too."""
    setup = RoundSetup(
        context=plan.context,
        database=plan.original,
        space=plan.space,
        join_cache=planner.join_cache,
    )
    ensure_base_masks_warm(setup.database, setup.join_cache, setup.context)
    return [evaluate_attempt(setup, index, pairs) for index, pairs in enumerate(plan.attempts)]


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

    def test_serial_stop_at_first_stops_at_winner(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        outcomes = planner.execute(plan)
        assert outcomes[-1].applied and outcomes[-1].distinguishes
        assert all(
            not (o.applied and o.distinguishes) for o in outcomes[:-1]
        )

    def test_serial_winner_materialization_is_reused_not_rebuilt(
        self, employee_db, employee_result, employee_candidates
    ):
        from repro.core.partitioner import partition_signature

        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        store: dict = {}
        outcomes = planner.execute(plan, store)
        winner = outcomes[-1]
        # The in-process backend deposits the winning materialization so
        # plan_round never builds the winner twice; the derived cache entry
        # stays registered for the finalize partition.
        assert set(store) == {"materialization", "batch"}
        assert partition_signature(store["batch"].fingerprints) == winner.signature
        assert tuple(store["materialization"].delta.relations)
        assert planner.join_cache.derived_link_count >= 1

    def test_serial_backend_rewarms_after_base_invalidation(
        self, employee_result, employee_candidates
    ):
        from repro.datasets import employee

        database = employee.build_database()
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(database, employee_result, employee_candidates)
        planner.execute(plan)
        referenced = plan.context.referenced
        assert planner.join_cache.columnar_for(database, referenced).cached_term_count > 0
        # In-place mutation + the documented invalidate contract: the cache
        # rebuilds a cold join, and the serial backend must warm it again
        # rather than trusting its stale guard.
        planner.join_cache.invalidate(database)
        plan = planner.prepare_round(database, employee_result, employee_candidates)
        planner.execute(plan)
        assert planner.join_cache.columnar_for(database, referenced).cached_term_count > 0

    def test_execute_derives_every_attempt_in_process(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        joins_before, applies_before = JOIN_STATS.snapshot()
        planner.execute(plan)
        outcomes = _score_every_attempt(planner, plan)
        assert len(outcomes) == plan.attempt_count
        # Every attempt patches the warm base join; none re-joins cold.
        assert JOIN_STATS.full_joins == joins_before
        assert JOIN_STATS.delta_applies > applies_before

    def test_execute_scores_attempts_in_plan_order(
        self, employee_db, employee_result, employee_candidates, monkeypatch
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        # With no attempt splitting the candidates, the search visits all.
        _force_no_split(monkeypatch)
        outcomes = planner.execute(plan)
        assert [o.attempt_index for o in outcomes] == list(range(plan.attempt_count))
        assert [o.pairs for o in outcomes] == [tuple(a) for a in plan.attempts]

    def test_plan_round_materializes_the_winner_once(
        self, employee_db, employee_result, employee_candidates, monkeypatch
    ):
        from repro.core import execution_backend

        calls: list = []
        original = execution_backend.materialize_pairs

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(execution_backend, "materialize_pairs", counting)
        generation = RoundPlanner(QFEConfig()).plan_round(
            employee_db, employee_result, employee_candidates
        )
        # One materialization per attempt up to and including the winner;
        # finalize reuses the winner's instead of building it again.
        assert len(calls) == generation.fallback_attempts + 1
        assert tuple(calls[-1]) == generation.chosen_pairs

    def test_only_the_winner_keeps_its_derived_entry(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        outcomes = _score_every_attempt(planner, plan)
        # Scored without a winner sink, no attempt keeps its derived entry,
        # however many of them distinguish.
        assert sum(o.distinguishes for o in outcomes) > 1
        assert planner.join_cache.derived_link_count == 0
        store: dict = {}
        planner.execute(plan, store)
        assert planner.join_cache.derived_link_count == 1
        planner.join_cache.invalidate(store["materialization"].database)
        assert planner.join_cache.derived_link_count == 0

    def test_base_masks_are_warmed_once_per_join(
        self, employee_db, employee_result, employee_candidates, monkeypatch
    ):
        from repro.core import execution_backend

        warmed: list = []
        original = execution_backend.warm_base_masks

        def counting(*args, **kwargs):
            warmed.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(execution_backend, "warm_base_masks", counting)
        planner = RoundPlanner(QFEConfig(), join_cache=JoinCache())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        planner.execute(plan)
        planner.execute(plan)
        assert len(warmed) == 1
        # A fresh cache builds a new join object, which is warmed again.
        other = RoundPlanner(QFEConfig(), join_cache=JoinCache())
        other.execute(other.prepare_round(employee_db, employee_result, employee_candidates))
        assert len(warmed) == 2

    def test_the_search_span_reports_the_attempts(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        spans: list = []
        previous = set_tracer(Tracer(spans))
        try:
            plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
            planner.execute(plan)
        finally:
            set_tracer(previous)
        (search,) = [span for span in spans if span["name"] == "round.search"]
        assert search["attrs"] == {"attempts": plan.attempt_count}

    def test_attempts_leave_the_base_untouched(
        self, employee_db, employee_result, employee_candidates
    ):
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
        planner.execute(plan)
        outcomes = _score_every_attempt(planner, plan)
        assert any(o.applied for o in outcomes)
        # Every attempt modified a copy: the base tables, its cached join and
        # the masks the candidates evaluate through are exactly as before.
        assert observe() == before


# ------------------------------------------------------------------- search
def _force_no_split(monkeypatch, *, calls: int | None = None) -> None:
    """Make the first *calls* scored attempts (all when ``None``) split nothing."""
    from repro.core import execution_backend

    original = execution_backend.partition_signature
    seen: list = []

    def collapsing(fingerprints):
        seen.append(1)
        signature = original(fingerprints)
        if calls is None or len(seen) <= calls:
            return (0,) * len(signature)
        return signature

    monkeypatch.setattr(execution_backend, "partition_signature", collapsing)


class TestInProcessSearch:
    def test_the_search_is_the_attempt_prefix_up_to_the_winner(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        every = _score_every_attempt(planner, plan)
        winner = next(o for o in every if o.applied and o.distinguishes)
        assert planner.execute(plan) == every[: winner.attempt_index + 1]

    def test_outcomes_do_not_depend_on_a_warm_join_cache(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        cold = _score_every_attempt(planner, plan)
        # The same planner again (warm joins, masks and memo), then a planner
        # over a brand-new cache: the scorer keeps no state between runs.
        warm = _score_every_attempt(planner, plan)
        fresh = RoundPlanner(QFEConfig(), join_cache=JoinCache())
        other = _score_every_attempt(
            fresh, fresh.prepare_round(employee_db, employee_result, employee_candidates)
        )
        assert warm == cold
        assert other == cold

    def test_attempt_signatures_match_a_cold_evaluation(
        self, employee_db, employee_result, employee_candidates
    ):
        from repro.core.materialize import materialize_pairs
        from repro.core.partitioner import partition_signature

        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        outcomes = [o for o in _score_every_attempt(planner, plan) if o.applied]
        assert len(outcomes) > 1
        context = plan.context
        for outcome in outcomes:
            # Re-materialize the attempt and evaluate it over a fresh cache,
            # which joins D' from scratch instead of patching the base join.
            materialization = materialize_pairs(
                plan.space, outcome.pairs, employee_db, context.config
            )
            batch = JoinCache().evaluate_batch(
                context.queries,
                materialization.database,
                set_semantics=context.config.set_semantics,
                name=context.result_name,
            )
            assert partition_signature(batch.fingerprints) == outcome.signature
            assert materialization.modification_count == outcome.modification_count

    @pytest.mark.parametrize("beta", [1.0, 3.0])
    def test_outcome_counts_are_consistent(
        self, employee_db, employee_result, employee_candidates, beta
    ):
        planner = RoundPlanner(QFEConfig(beta=beta))
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        outcomes = _score_every_attempt(planner, plan)
        assert any(o.distinguishes for o in outcomes)
        for outcome in outcomes:
            assert outcome.db_cost == (
                outcome.modification_count + beta * outcome.modified_relation_count
            )
            if not outcome.applied:
                assert outcome.signature is None and not outcome.distinguishes
                continue
            assert len(outcome.signature) == len(employee_candidates)
            assert sum(outcome.group_sizes) == len(employee_candidates)
            assert list(outcome.group_sizes) == sorted(outcome.group_sizes, reverse=True)
            assert outcome.distinguishes == (len(outcome.group_sizes) > 1)

    def test_an_empty_attempt_is_not_applied(
        self, employee_db, employee_result, employee_candidates
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        store: dict = {}
        setup = RoundSetup(
            context=plan.context,
            database=employee_db,
            space=plan.space,
            join_cache=planner.join_cache,
            winner_store=store,
        )
        outcome = evaluate_attempt(setup, 0, ())
        assert not outcome.applied and not outcome.distinguishes
        assert (outcome.signature, outcome.group_sizes) == (None, ())
        assert outcome.modification_count == 0 and outcome.db_cost == 0
        assert store == {}
        assert planner.join_cache.derived_link_count == 0

    def test_a_mutated_base_scores_like_a_fresh_planner(
        self, employee_result, employee_candidates
    ):
        from repro.datasets import employee

        database = employee.build_database()
        planner = RoundPlanner(QFEConfig())
        before = _score_every_attempt(
            planner, planner.prepare_round(database, employee_result, employee_candidates)
        )
        relation = database.relation("Employee")
        victim = relation.tuples[0]
        # A large jump so the tuple crosses selection thresholds: a planner
        # still serving the stale join, masks or memo would visibly diverge.
        relation.update_value(
            victim.tuple_id, "salary", relation.value_of(victim, "salary") + 5000
        )
        planner.join_cache.invalidate(database)
        after = _score_every_attempt(
            planner, planner.prepare_round(database, employee_result, employee_candidates)
        )
        fresh = RoundPlanner(QFEConfig(), join_cache=JoinCache())
        reference = _score_every_attempt(
            fresh, fresh.prepare_round(database, employee_result, employee_candidates)
        )
        assert after == reference
        assert after != before

    def test_a_subset_that_splits_nothing_falls_back_to_the_next_single(
        self, employee_db, employee_result, employee_candidates, monkeypatch
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        assert plan.attempt_count > 1
        _force_no_split(monkeypatch, calls=1)
        generation = planner.plan_round(employee_db, employee_result, employee_candidates)
        # The concrete subset database split nothing, so Algorithm 2 moved on
        # to the best-balanced skyline single and finalized that one instead.
        assert generation.fallback_attempts == 1
        assert generation.chosen_pairs == plan.attempts[1]
        assert generation.chosen_cost is None
        assert len(generation.partition.groups) > 1
        # Only the winner's derived join stays registered.
        assert planner.join_cache.derived_link_count == 1

    def test_no_splitting_attempt_raises_and_pins_nothing(
        self, employee_db, employee_result, employee_candidates, monkeypatch
    ):
        planner = RoundPlanner(QFEConfig())
        plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
        _force_no_split(monkeypatch)
        with pytest.raises(
            DatabaseGenerationError,
            match=f"did not distinguish any candidates after {plan.attempt_count} attempts",
        ):
            planner.plan_round(employee_db, employee_result, employee_candidates)
        assert planner.join_cache.derived_link_count == 0


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

    def test_repeated_sessions_replay_plans_from_the_driver_memo(self, monkeypatch):
        """The steady-state contract: a repeat session replays every plan.

        The second identical session over one shared join cache must (a) stay
        bit-identical, (b) hit the prologue memo once per round, (c) never run
        Algorithm 3, and (d) perform **zero** full joins, since every join is
        already resident.
        """
        from repro.core.feedback import WorstCaseSelector
        from repro.core.session import QFESession
        from repro.experiments.runner import prepare_candidates
        from repro.qbo.config import QBOConfig
        from repro.service.checkpoint import session_transcript, transcript_json
        from repro.workloads import build_pair

        database, result, target = build_pair("Q2", 0.03)
        candidates, _ = prepare_candidates(
            database,
            result,
            target,
            qbo_config=QBOConfig(
                threshold_variants=2, max_terms_per_conjunct=3, max_candidates=16
            ),
            candidate_count=12,
        )
        join_cache = JoinCache()

        def run():
            session = QFESession(
                database,
                result,
                candidates=candidates,
                config=QFEConfig(delta_seconds=30.0),
                join_cache=join_cache,
            )
            # The worst-case selector never evaluates the target query against
            # each round's modified database (the oracle selector does, paying
            # one *selector-side* full join per round), so full-join counts
            # here isolate the engine's own behaviour.
            outcome = session.run(WorstCaseSelector())
            return transcript_json(session_transcript(session)), outcome.iteration_count

        first, rounds = run()
        assert rounds > 0
        assert PLAN_MEMO_STATS.memo_misses == rounds
        assert PLAN_MEMO_STATS.memo_hits == 0

        def no_skyline(*args, **kwargs):
            raise AssertionError("a memoized round ran Algorithm 3")

        monkeypatch.setattr(round_planner, "skyline_stc_dtc_pairs", no_skyline)
        joins_before = JOIN_STATS.full_joins
        second, _ = run()
        assert second == first
        assert PLAN_MEMO_STATS.memo_hits == rounds
        assert PLAN_MEMO_STATS.memo_misses == rounds
        assert JOIN_STATS.full_joins == joins_before
