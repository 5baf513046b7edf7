"""Differential property suite for the delta-maintenance layer.

A round changes only non-key cells of existing tuples, so the seeded-random
deltas here are exactly that: attribute updates of non-key columns
(including tuples with foreign-key fanout) and no-op updates, applied to the
paper datasets. The incrementally maintained state is held against a cold
rebuild from the modified database:

* ``JoinedRelation.apply_delta`` must equal ``foreign_key_join(D', ...)``
  column for column, with the same base-tuple ids and a consistent join
  index;
* the copy-on-write ``ColumnarView.derive`` must be *bit-identical* to the
  cold rebuild's view (same columns, same predicate masks);
* ``evaluate`` / ``evaluate_batch`` results and fingerprints on the derived
  state must equal the cold rebuild — and the row-at-a-time reference — for
  the paper workload queries Q1–Q6 and their mutated candidate variants.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import EvaluationError, SchemaError
from repro.qbo.mutation import mutate_candidates
from repro.relational.database import Database
from repro.relational.delta import TupleDelta
from repro.relational.evaluator import JoinCache, evaluate_batch, evaluate_on_join
from repro.relational.join import JOIN_STATS, full_join
from repro.relational.predicates import ComparisonOp, Conjunct, DNFPredicate, Term
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.workloads import build_pair
from tests.columns import view_of
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


def _key_columns(database: Database, table: str) -> set[str]:
    """The primary-key and foreign-key columns of *table*, which no round changes."""
    schema = database.schema
    keys = set(schema.table(table).primary_key)
    for fk in schema.foreign_keys:
        if fk.child_table == table:
            keys.update(fk.child_columns)
        if fk.parent_table == table:
            keys.update(fk.parent_columns)
    return keys


def random_delta(
    database: Database, rng: random.Random, operations: int = 8
) -> tuple[Database, TupleDelta]:
    """Apply seeded-random non-key updates to a copy of *database*, recording them.

    The mix includes plain attribute updates of any non-key column (a tuple
    with foreign-key fanout changes every joined row it contributes to) and
    no-op updates (recorded but changing nothing).
    """
    derived = database.copy()
    delta = TupleDelta()
    tables = list(derived.table_names)
    for _ in range(operations):
        table = rng.choice(tables)
        relation = derived.relation(table)
        keys = _key_columns(derived, table)
        free = [i for i, name in enumerate(relation.schema.attribute_names) if name not in keys]
        if not len(relation) or not free:
            continue
        victim = rng.choice(relation.tuples)
        values = list(victim.values)
        if rng.random() < 0.75:
            column_index = rng.choice(free)
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

    # The copy-on-write view holds the cold rebuild's columns, cell for cell,
    # and the derived join its base-tuple ids.
    view, cold_view = derived.columnar(), cold.columnar()
    assert view.row_count == cold_view.row_count == len(derived)
    assert view.names == cold_view.names
    for attribute in cold_view.names:
        assert list(view.column(attribute)) == list(cold_view.column(attribute)), (
            f"{name}/seed {seed}: column {attribute} differs from the cold rebuild"
        )
    assert derived.tuple_ids == cold.tuple_ids, f"{name}/seed {seed}: ids differ"

    # The join index is consistent with the id columns.
    for table, ids in derived.tuple_ids.items():
        for position, tuple_id in enumerate(ids):
            assert position in derived.joined_positions_of(table, tuple_id)
            assert derived.fanout_of(table, tuple_id) >= 1

    # Patched masks equal the cold rebuild's.
    for query in queries:
        assert view.predicate_mask(query.predicate) == cold_view.predicate_mask(
            query.predicate
        ), f"{name}/seed {seed}: patched mask differs for {query}"


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
def test_join_cache_delta_evaluation_serves_the_derived_database(name):
    database, _, queries = _workload_pair(name)
    cache = JoinCache()
    cache.evaluate_batch(queries, database)  # warm base joins and masks

    derived_db, delta = random_delta(database, random.Random(7))
    JOIN_STATS.reset()
    through_cache = cache.evaluate_batch(queries, database, delta=delta)
    assert JOIN_STATS.full_joins == 0, "a delta must not rebuild the join cold"
    assert JOIN_STATS.delta_applies == len({query.join_signature for query in queries})

    cold_batch = JoinCache().evaluate_batch(queries, derived_db)
    for derived_fp, cold_fp in zip(through_cache.fingerprints, cold_batch.fingerprints):
        assert derived_fp == cold_fp


def test_a_join_column_update_is_refused(two_table_db):
    joined = full_join(two_table_db)
    derived_db = two_table_db.copy()
    delta = TupleDelta()
    derived_db.relation("Emp").update_value(0, "did", 2)  # Emp.did -> Dept.did
    delta.record_update("Emp", 0, derived_db.relation("Emp").tuple_by_id(0).values)
    with pytest.raises(SchemaError, match="join column"):
        joined.apply_delta(delta, two_table_db)


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

    def test_error_clears_when_erroring_rows_are_patched_away(self, two_table_db):
        joined = full_join(two_table_db)
        query = SPJQuery(
            ["Emp"],
            ["Emp.eid"],
            DNFPredicate.from_terms([Term("Emp.senior", ComparisonOp.LT, "x")]),
        )
        view = joined.columnar()
        with pytest.raises(EvaluationError):
            view.predicate_mask(query.predicate)  # bools vs str: raises somewhere

        # NULL every Emp senior flag that is a bool; Ed's was NULL already.
        derived_db = two_table_db.copy()
        delta = TupleDelta()
        for tuple_id in (0, 1, 2, 3):
            derived_db.relation("Emp").update_value(tuple_id, "senior", None)
            delta.record_update("Emp", tuple_id, derived_db.relation("Emp").tuple_by_id(tuple_id).values)
        derived = joined.apply_delta(delta, two_table_db)

        reference = evaluate_on_join_reference(query, full_join(derived_db), derived_db)
        assert evaluate_on_join(query, derived, derived_db).bag_equal(reference)

    # A derived entry must report what a cold view of the same rows reports:
    # the truth mask, the error mask and the first erroring row's message.
    _STRING_LT_INT = Term("v", ComparisonOp.LT, 10)

    def _derived_and_cold(self, values, patches):
        """The ``v < 10`` entry of the patched view and of a cold view of the same rows."""
        term = self._STRING_LT_INT
        view = view_of(Relation.from_rows("T", ["v"], [[v] for v in values]))
        view._term_entry(term)  # cache the entry derive patches
        derived = view.derive({position: {0: value} for position, value in patches.items()})
        patched = [patches.get(position, value) for position, value in enumerate(values)]
        cold = view_of(Relation.from_rows("T", ["v"], [[v] for v in patched]))
        return [
            (mask, errors, None if error is None else str(error))
            for mask, errors, error in (derived._term_entry(term), cold._term_entry(term))
        ]

    def test_patching_away_the_first_erroring_row_reports_the_next(self):
        derived, cold = self._derived_and_cold(["Ann", "Bo", "Cy"], {0: None})
        assert derived == cold == (0, 0b110, "cannot compare 'Bo' < 10")

    def test_patching_the_first_erroring_row_reports_its_new_value(self):
        derived, cold = self._derived_and_cold(["Ann", "Bo", "Cy"], {0: "Al"})
        assert derived == cold == (0, 0b111, "cannot compare 'Al' < 10")

    def test_patched_erroring_rows_report_the_first_in_row_order(self):
        derived, cold = self._derived_and_cold([None, None, None, None], {3: "Eve", 2: "Dee"})
        assert derived == cold == (0, 0b1100, "cannot compare 'Dee' < 10")

    def test_patching_away_every_error_clears_the_message(self):
        derived, cold = self._derived_and_cold(["Ann", None, "Cy"], {0: None, 2: None})
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
        # The id columns and join index are shared wholesale on the update-only path.
        assert derived.tuple_ids is joined.tuple_ids

    def test_updates_patch_only_their_own_tables_columns(self, chain_db):
        # Player's columns start after Team's two and Match's after Player's
        # three: each update must land in its own table's column.
        joined = full_join(chain_db)
        assert joined.tables == ("Team", "Player", "Match")
        base_view = joined.columnar()
        derived_db = chain_db.copy()
        delta = TupleDelta()
        derived_db.relation("Player").update_value(0, "rating", 9.0)  # two matches
        delta.record_update("Player", 0, derived_db.relation("Player").tuple_by_id(0).values)
        derived_db.relation("Match").update_value(2, "score", 5)
        delta.record_update("Match", 2, derived_db.relation("Match").tuple_by_id(2).values)
        derived_view = joined.apply_delta(delta, chain_db).columnar()

        patched = {
            name for name in base_view.names
            if derived_view.column(name) is not base_view.column(name)
        }
        assert patched == {"Player.rating", "Match.score"}
        assert derived_view.column("Player.rating") == (9.0, 9.0, 8.5)
        assert derived_view.column("Match.score") == (3, 1, 5)
        cold_view = full_join(derived_db).columnar()
        for name in cold_view.names:
            assert derived_view.column(name) == cold_view.column(name), name

    def test_derived_join_shares_schema_ids_and_join_index(self, chain_db):
        joined = full_join(chain_db)
        derived_db = chain_db.copy()
        delta = TupleDelta()
        derived_db.relation("Team").update_value(0, "city", "Bergen")
        delta.record_update("Team", 0, derived_db.relation("Team").tuple_by_id(0).values)
        derived = joined.apply_delta(delta, chain_db)

        assert derived.schema is joined.schema
        assert derived.tuple_ids is joined.tuple_ids
        assert derived._join_index is joined._join_index is not None
        assert derived.joined_positions_of("Team", 0) == (0, 1)
        assert derived.columnar().column("Team.city") == ("Bergen", "Bergen", "Lima")
