"""Differential property suite for the delta-maintenance layer.

Seeded-random edit scripts — inserts, deletes and updates, including
FK-fanout rows, join-column rewrites and no-op updates — are applied to the
paper datasets, and the incrementally maintained state is held against a cold
rebuild from the modified database:

* ``JoinedRelation.apply_delta`` must equal ``foreign_key_join(D', ...)`` as a
  bag of joined rows, with a consistent join index;
* the copy-on-write ``ColumnarView.derive`` must be *bit-identical* to a view
  built fresh from the derived joined relation (same columns, same predicate
  masks);
* ``evaluate`` / ``evaluate_batch`` results and fingerprints on the derived
  state must equal the cold rebuild — and the row-at-a-time reference — for
  the paper workload queries Q1–Q6 and their mutated candidate variants.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import EvaluationError
from repro.qbo.mutation import mutate_candidates
from repro.relational.columnar import ColumnarView
from repro.relational.database import Database
from repro.relational.delta import TupleDelta
from repro.relational.evaluator import JoinCache, evaluate_batch, evaluate_on_join
from repro.relational.join import JOIN_STATS, full_join
from repro.relational.predicates import ComparisonOp, Conjunct, DNFPredicate, Term
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.workloads import build_pair
from tests.oracles.evaluator_reference import evaluate_on_join_reference

#: Tiny scale keeps the six workload pairs fast while exercising real data.
_SCALE = 0.03

_PAPER_WORKLOADS = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")

#: ``build_pair`` output shared across seeds (the pairs are read-only here).
_PAIR_CACHE: dict[str, tuple] = {}


def _workload_pair(name: str):
    if name not in _PAIR_CACHE:
        database, result, target = build_pair(name, _SCALE)
        queries = [target] + mutate_candidates(database, result, [target], limit=6)
        _PAIR_CACHE[name] = (database, result, queries)
    return _PAIR_CACHE[name]


def _mutated_value(rng: random.Random, relation, column_index: int, current):
    """A type-correct replacement value drawn from the column or perturbed."""
    column = [t.values[column_index] for t in relation.tuples]
    candidates = [v for v in column if v is not None]
    if candidates and rng.random() < 0.6:
        return rng.choice(candidates)
    if isinstance(current, bool):
        return not current
    if isinstance(current, int):
        return current + rng.choice([-7, -1, 1, 13])
    if isinstance(current, float):
        return current * 1.5 + rng.choice([-1.0, 0.5, 2.0])
    if isinstance(current, str):
        return current + "_x"
    return rng.choice(candidates) if candidates else current


def random_delta(
    database: Database, rng: random.Random, operations: int = 8
) -> tuple[Database, TupleDelta]:
    """Apply a seeded-random edit script to a copy of *database*, recording it.

    The mix includes plain attribute updates, no-op updates (recorded but
    changing nothing), join/FK-column rewrites (any column can be hit),
    deletions of rows with foreign-key fanout, and insertions cloned from
    existing rows so FK values stay joinable.
    """
    derived = database.copy()
    delta = TupleDelta()
    tables = list(derived.table_names)
    for _ in range(operations):
        table = rng.choice(tables)
        relation = derived.relation(table)
        if not len(relation):
            continue
        kind = rng.choice(["update", "update", "update", "noop", "insert", "delete"])
        if kind == "delete":
            victim = rng.choice(relation.tuples)
            relation.delete(victim.tuple_id)
            delta.record_delete(table, victim.tuple_id)
        elif kind == "insert":
            source = rng.choice(relation.tuples)
            values = list(source.values)
            column_index = rng.randrange(len(values))
            values[column_index] = _mutated_value(rng, relation, column_index, values[column_index])
            try:
                inserted = relation.insert(values)
            except Exception:
                inserted = relation.insert(list(source.values))
            delta.record_insert(table, inserted.tuple_id, inserted.values)
        else:
            victim = rng.choice(relation.tuples)
            values = list(victim.values)
            if kind == "update":
                column_index = rng.randrange(len(values))
                replacement = _mutated_value(rng, relation, column_index, values[column_index])
                try:
                    relation.replace_tuple(
                        victim.tuple_id,
                        values[:column_index] + [replacement] + values[column_index + 1 :],
                    )
                except Exception:
                    relation.replace_tuple(victim.tuple_id, values)
            else:
                relation.replace_tuple(victim.tuple_id, values)  # recorded no-op
            delta.record_update(table, victim.tuple_id, relation.tuple_by_id(victim.tuple_id).values)
    return derived, delta


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", _PAPER_WORKLOADS)
def test_apply_delta_matches_cold_rebuild_on_paper_workloads(name, seed):
    database, _, queries = _workload_pair(name)
    joined = full_join(database)
    evaluate_batch(queries, joined, database)  # warm the term masks that derive() shares

    derived_db, delta = random_delta(database, random.Random(seed))
    derived = joined.apply_delta(delta, database)
    cold = full_join(derived_db)

    # Joined rows agree with the cold rebuild as bags.
    assert derived.relation.bag_equal(cold.relation), f"{name}/seed {seed}: joined rows differ"
    assert len(derived) == len(cold)

    # The join index is consistent with the provenance it was derived from.
    for position, row_provenance in enumerate(derived.provenance):
        for table, tuple_id in row_provenance.items():
            assert position in derived.joined_positions_of(table, tuple_id)
            assert derived.fanout_of(table, tuple_id) >= 1

    # The copy-on-write columnar view is bit-identical to a fresh build.
    view = derived.columnar()
    fresh = ColumnarView(derived.relation)
    assert view.row_count == fresh.row_count == len(derived)
    for attribute in fresh.names:
        assert list(view.column(attribute)) == list(fresh.column(attribute)), (
            f"{name}/seed {seed}: column {attribute} differs from fresh build"
        )
    for query in queries:
        assert view.predicate_mask(query.predicate) == fresh.predicate_mask(query.predicate), (
            f"{name}/seed {seed}: patched mask differs for {query}"
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", _PAPER_WORKLOADS)
def test_delta_evaluation_matches_cold_and_reference(name, seed):
    database, _, queries = _workload_pair(name)
    joined = full_join(database)
    evaluate_batch(queries, joined, database)

    derived_db, delta = random_delta(database, random.Random(seed))
    derived = joined.apply_delta(delta, database)
    cold = full_join(derived_db)

    derived_batch = evaluate_batch(queries, derived, derived_db)
    cold_batch = evaluate_batch(queries, cold, derived_db)
    for query, derived_result, cold_result, derived_fp, cold_fp in zip(
        queries,
        derived_batch.results,
        cold_batch.results,
        derived_batch.fingerprints,
        cold_batch.fingerprints,
    ):
        assert derived_result.bag_equal(cold_result), f"{name}/seed {seed}: {query}"
        assert derived_fp == cold_fp, f"{name}/seed {seed}: fingerprint mismatch for {query}"
        reference = evaluate_on_join_reference(query, cold, derived_db)
        assert derived_result.bag_equal(reference)
        single = evaluate_on_join(query, derived, derived_db)
        assert single.bag_equal(reference)


@pytest.mark.parametrize("name", _PAPER_WORKLOADS)
def test_join_cache_derive_serves_derived_database(name):
    database, _, queries = _workload_pair(name)
    cache = JoinCache()
    referenced = sorted({table for query in queries for table in query.tables})
    cache.join_for(database, referenced).columnar()
    cache.evaluate_batch(queries, database)  # warm base masks

    derived_db, delta = random_delta(database, random.Random(7))
    JOIN_STATS.reset()
    cache.derive(database, delta, derived_db, referenced)
    assert JOIN_STATS.full_joins == 0, "derive must not rebuild the join cold"
    assert JOIN_STATS.delta_applies == 1

    through_cache = cache.evaluate_batch(queries, derived_db)
    cold_batch = JoinCache().evaluate_batch(queries, derived_db)
    for derived_fp, cold_fp in zip(through_cache.fingerprints, cold_batch.fingerprints):
        assert derived_fp == cold_fp


class TestDeltaErrorSemantics:
    """Patched masks must preserve the interpreter's short-circuit error rules."""

    def _erroring_query(self):
        # Second term raises on every string value it actually reaches.
        return SPJQuery(
            ["Emp"],
            ["Emp.ename"],
            DNFPredicate(
                (
                    Conjunct(
                        (
                            Term("Emp.salary", ComparisonOp.GT, 1000),  # false everywhere
                            Term("Emp.ename", ComparisonOp.LT, 10),  # would raise
                        )
                    ),
                )
            ),
        )

    def test_unreachable_error_stays_suppressed_after_patch(self, two_table_db):
        joined = full_join(two_table_db)
        query = self._erroring_query()
        evaluate_batch([query], joined, two_table_db)  # caches both term masks

        derived_db = two_table_db.copy()
        delta = TupleDelta()
        derived_db.relation("Emp").update_value(1, "salary", 58)  # Bo: still < 1000
        delta.record_update("Emp", 1, derived_db.relation("Emp").tuple_by_id(1).values)
        derived = joined.apply_delta(delta, two_table_db)

        reference = evaluate_on_join_reference(query, full_join(derived_db), derived_db)
        assert evaluate_on_join(query, derived, derived_db).bag_equal(reference)

    def test_error_surfaces_when_patched_row_reaches_term(self, two_table_db):
        joined = full_join(two_table_db)
        query = self._erroring_query()
        evaluate_batch([query], joined, two_table_db)

        derived_db = two_table_db.copy()
        delta = TupleDelta()
        derived_db.relation("Emp").update_value(0, "salary", 2000)  # Ann now passes term 1
        delta.record_update("Emp", 0, derived_db.relation("Emp").tuple_by_id(0).values)
        derived = joined.apply_delta(delta, two_table_db)

        with pytest.raises(EvaluationError):
            evaluate_on_join_reference(query, full_join(derived_db), derived_db)
        with pytest.raises(EvaluationError):
            evaluate_on_join(query, derived, derived_db)

    def test_error_clears_when_erroring_rows_removed(self, two_table_db):
        joined = full_join(two_table_db)
        query = SPJQuery(
            ["Emp"],
            ["Emp.eid"],
            DNFPredicate.from_terms([Term("Emp.senior", ComparisonOp.LT, "x")]),
        )
        view = joined.columnar()
        with pytest.raises(EvaluationError):
            view.predicate_mask(query.predicate)  # bools vs str: raises somewhere

        # Delete every Emp whose senior flag is a bool; only Ed (None) stays.
        derived_db = two_table_db.copy()
        delta = TupleDelta()
        for tuple_id in (0, 1, 2, 3):
            derived_db.relation("Emp").delete(tuple_id)
            delta.record_delete("Emp", tuple_id)
        derived = joined.apply_delta(delta, two_table_db)

        reference = evaluate_on_join_reference(query, full_join(derived_db), derived_db)
        assert evaluate_on_join(query, derived, derived_db).bag_equal(reference)

    # A derived entry must report what a cold view of the same rows reports:
    # the truth mask, the error mask and the first erroring row's message.
    _STRING_LT_INT = Term("v", ComparisonOp.LT, 10)

    def _derived_and_cold(self, values, patches, removed, appended, survivors):
        """The ``v < 10`` entry of the derived view and of a cold view of *survivors*."""
        term = self._STRING_LT_INT
        view = ColumnarView(Relation.from_rows("T", ["v"], [[v] for v in values]))
        view._term_entry(term)  # cache the entry derive patches
        derived = view.derive(patches, removed, appended)
        cold = ColumnarView(Relation.from_rows("T", ["v"], [[v] for v in survivors]))
        return [
            (mask, errors, None if error is None else str(error))
            for mask, errors, error in (derived._term_entry(term), cold._term_entry(term))
        ]

    def test_removing_the_first_erroring_row_reports_the_next(self):
        derived, cold = self._derived_and_cold(["Ann", "Bo", "Cy"], {}, [0], [], ["Bo", "Cy"])
        assert derived == cold == (0, 0b11, "cannot compare 'Bo' < 10")

    def test_patching_the_first_erroring_row_reports_its_new_value(self):
        derived, cold = self._derived_and_cold(
            ["Ann", "Bo", "Cy"], {0: {0: "Al"}}, [], [], ["Al", "Bo", "Cy"]
        )
        assert derived == cold == (0, 0b111, "cannot compare 'Al' < 10")

    def test_appended_erroring_rows_report_the_first_in_row_order(self):
        derived, cold = self._derived_and_cold(
            [None, None], {}, [], [["Dee"], ["Eve"]], [None, None, "Dee", "Eve"]
        )
        assert derived == cold == (0, 0b1100, "cannot compare 'Dee' < 10")

    def test_patching_away_every_error_clears_the_message(self):
        derived, cold = self._derived_and_cold(
            ["Ann", None, "Cy"], {0: {0: None}, 2: {0: None}}, [], [], [None, None, None]
        )
        assert derived == cold == (0, 0, None)


class TestColumnSharing:
    """Update-only deltas must share untouched state with the base instance."""

    def test_untouched_columns_and_masks_are_shared(self, two_table_db):
        joined = full_join(two_table_db)
        base_view = joined.columnar()
        salary_term = Term("Emp.salary", ComparisonOp.GT, 60)
        budget_term = Term("Dept.budget", ComparisonOp.GE, 80)
        base_view.term_mask(salary_term)
        base_view.term_mask(budget_term)

        derived_db = two_table_db.copy()
        delta = TupleDelta()
        derived_db.relation("Emp").update_value(3, "salary", 99)
        delta.record_update("Emp", 3, derived_db.relation("Emp").tuple_by_id(3).values)
        derived = joined.apply_delta(delta, two_table_db)
        derived_view = derived.columnar()

        # The untouched Dept.budget column (and its mask) is shared by
        # reference; the patched Emp.salary column is a fresh object.
        assert derived_view.column("Dept.budget") is base_view.column("Dept.budget")
        assert derived_view.column("Emp.salary") is not base_view.column("Emp.salary")
        assert derived_view.term_mask(budget_term) == base_view.term_mask(budget_term)
        assert derived_view.term_mask(salary_term) != base_view.term_mask(salary_term)
        # Provenance and join index are shared wholesale on the update-only path.
        assert derived.provenance is joined.provenance

    def test_update_only_contract_of_class_pairs(self):
        from repro.core.modification import ClassPair
        from repro.core.tuple_class import TupleClass

        pair = ClassPair(TupleClass((0,)), TupleClass((1,)))
        assert pair.is_update_only  # the contract JoinCache.derive relies on
