"""Lifecycle tests for the extended :class:`JoinCache`.

Covers superset-join reuse, the columnar view / term-mask cache riding along
with cached joins, batch evaluation through the cache, the id-keyed
invalidation contract for modified database copies, and evaluation on a
modified database given as its base plus a ``TupleDelta`` (``delta=``),
which patches the cached base join, caches nothing for the modified
database and equals a cold join of a copy the delta was applied to.
"""

from __future__ import annotations

from repro.relational.database import Database
from repro.relational.delta import TupleDelta
from repro.relational.evaluator import JoinCache, evaluate, result_fingerprint
from repro.relational.join import JOIN_STATS
from repro.relational.predicates import ComparisonOp, DNFPredicate, Term
from repro.relational.query import SPJQuery
from tests.columns import joined_rows
from tests.oracles.delta_reference import apply_tuple_delta


def _salary_query(threshold):
    return SPJQuery(
        ["Emp"], ["Emp.ename"],
        DNFPredicate.from_terms([Term("Emp.salary", ComparisonOp.GT, threshold)]),
    )


class TestJoinReuse:
    def test_superset_join_reused_across_table_orderings(self, two_table_db):
        cache = JoinCache()
        first = cache.join_for(two_table_db, ["Emp", "Dept"])
        second = cache.join_for(two_table_db, ["Dept", "Emp"])
        assert first is second
        assert cache.cached_join_count == 1

    def test_one_layout_per_key_whichever_order_asks_first(self, two_table_db):
        unsorted_first = JoinCache().join_for(two_table_db, ["Emp", "Dept"])
        sorted_first = JoinCache().join_for(two_table_db, ["Dept", "Emp"])
        assert unsorted_first.attribute_names == sorted_first.attribute_names
        assert unsorted_first.attribute_names[0].startswith("Dept.")
        assert joined_rows(unsorted_first) == joined_rows(sorted_first)

    def test_cold_builds_are_counted_and_delta_evaluations_are_not(self, two_table_db):
        cache = JoinCache()
        cache.join_for(two_table_db, ["Emp", "Dept"])
        cache.join_for(two_table_db, ["Dept", "Emp"])
        cache.join_for(two_table_db, ["Emp"])
        assert cache.joins_built == 2
        _, delta = _raise_salary(two_table_db)
        cache.evaluate(_salary_query(60), two_table_db, delta=delta)
        assert cache.joins_built == 2

    def test_distinct_table_sets_cached_separately(self, two_table_db):
        cache = JoinCache()
        cache.join_for(two_table_db, ["Emp"])
        cache.join_for(two_table_db, ["Emp", "Dept"])
        assert cache.cached_join_count == 2

    def test_database_copies_get_separate_entries(self, two_table_db):
        cache = JoinCache()
        copy = two_table_db.copy()
        cache.join_for(two_table_db, ["Emp"])
        cache.join_for(copy, ["Emp"])
        assert cache.cached_join_count == 2


class TestColumnarLifecycle:
    def test_columnar_view_rides_with_cached_join(self, two_table_db):
        cache = JoinCache()
        view = cache.join_for(two_table_db, ["Emp", "Dept"]).columnar()
        assert view is cache.join_for(two_table_db, ["Dept", "Emp"]).columnar()

    def test_term_masks_accumulate_across_evaluations(self, two_table_db):
        cache = JoinCache()
        cache.evaluate(_salary_query(60), two_table_db)
        view = cache.join_for(two_table_db, ["Emp"]).columnar()
        assert view.cached_term_count == 1
        cache.evaluate(_salary_query(60), two_table_db)  # cache hit
        assert view.cached_term_count == 1
        cache.evaluate(_salary_query(80), two_table_db)  # new distinct term
        assert view.cached_term_count == 2


class TestBatchThroughCache:
    def test_results_align_with_query_order_across_join_schemas(self, two_table_db):
        cache = JoinCache()
        single = _salary_query(60)
        joined = SPJQuery(
            ["Emp", "Dept"], ["Emp.ename"],
            DNFPredicate.from_terms([Term("Dept.budget", ComparisonOp.GE, 80)]),
        )
        batch = cache.evaluate_batch([joined, single, joined], two_table_db)
        assert len(batch) == 3
        assert batch.fingerprints[0] == batch.fingerprints[2]
        for query, result in zip([joined, single, joined], batch.results):
            assert result.bag_equal(evaluate(query, two_table_db))
        # one join per distinct signature
        assert cache.cached_join_count == 2

    def test_fingerprint_equality_matches_bag_equality(self):
        database, queries = _fingerprint_round()
        batch = JoinCache().evaluate_batch(queries, database)
        results = [evaluate(q, database) for q in queries]
        for a in range(len(queries)):
            for b in range(len(queries)):
                same_rows = results[a].bag_equal(results[b])
                assert (batch.fingerprints[a] == batch.fingerprints[b]) == same_rows, (a, b)
        fp = batch.fingerprints
        assert fp[1] == fp[2]  # different predicates, equal bags
        assert fp[3] != fp[4]  # 2^53 + 1 vs 2^53 stay apart
        assert fp[7] == fp[8]  # DISTINCT of a duplicate pair equals the single row
        assert fp[6] != fp[7]  # ...but the duplicate pair does not

    def test_set_fingerprint_equality_matches_set_equality(self):
        database, queries = _fingerprint_round()
        batch = JoinCache().evaluate_batch(queries, database, set_semantics=True)
        results = [evaluate(q, database) for q in queries]
        for a in range(len(queries)):
            for b in range(len(queries)):
                same_rows = results[a].set_equal(results[b])
                assert (batch.fingerprints[a] == batch.fingerprints[b]) == same_rows, (a, b)
        assert batch.fingerprints[6] == batch.fingerprints[7]
        assert batch.fingerprints[9] == batch.fingerprints[10]

    def test_every_query_carries_its_results_fingerprint(self):
        database, queries = _fingerprint_round()
        for set_semantics in (False, True):
            batch = JoinCache().evaluate_batch(queries, database, set_semantics=set_semantics)
            assert len(batch.fingerprints) == len(batch.results) == len(queries)
            for result, fingerprint in zip(batch.results, batch.fingerprints):
                assert fingerprint == result_fingerprint(result, set_semantics=set_semantics)

    def test_distinct_query_fingerprints_collapse_duplicates(self):
        database, queries = _fingerprint_round()
        # Same mask and projection, different DISTINCT flag: the batch must
        # not share one materialization between them.
        batch = JoinCache().evaluate_batch([queries[9], queries[10]], database)
        fp_plain, fp_distinct = batch.fingerprints
        assert fp_plain != fp_distinct
        assert dict(fp_plain)[("a",)] == 2
        assert dict(fp_distinct)[("a",)] == 1


def _fingerprint_round():
    """One table with NULLs, duplicates, 2^53 neighbours and an integer beyond
    the float range, plus a candidate batch whose results coincide in some
    pairs and differ in others."""
    big = 2**53
    database = Database.from_tables({
        "T": (
            ["i", "f", "s"],
            [[1, 1.5, "a"], [2, 2.5, "b"], [3, None, "a"],
             [big, 2.5, "c"], [big + 1, None, "c"], [2**1024, None, "d"]],
        )
    })

    def query(projection, term=None, distinct=False):
        predicate = DNFPredicate.from_terms([term]) if term else DNFPredicate.true()
        return SPJQuery(["T"], [projection], predicate, distinct=distinct)

    queries = [
        query("T.i", Term("T.f", ComparisonOp.GT, 1.0)),        # 0: 1, 2, big
        query("T.i", Term("T.s", ComparisonOp.EQ, "a")),        # 1: 1, 3
        query("T.i", Term("T.i", ComparisonOp.IN, (1, 3))),     # 2: 1, 3
        query("T.i", Term("T.i", ComparisonOp.GE, big + 1)),    # 3: big + 1, 2^1024
        query("T.i", Term("T.i", ComparisonOp.EQ, big)),        # 4: big
        query("T.f", Term("T.s", ComparisonOp.EQ, "c")),        # 5: 2.5, NULL
        query("T.f", Term("T.f", ComparisonOp.GT, 2.0)),        # 6: 2.5, 2.5
        query("T.f", Term("T.s", ComparisonOp.EQ, "b")),        # 7: 2.5
        query("T.f", Term("T.f", ComparisonOp.GT, 2.0), True),  # 8: 2.5
        query("T.s"),                                           # 9: a, b, a, c, c, d
        query("T.s", distinct=True),                            # 10: a, b, c, d
    ]
    return database, queries


class TestInvalidation:
    def test_invalidate_drops_only_that_databases_joins(self, two_table_db):
        cache = JoinCache()
        copy = two_table_db.copy()
        original_join = cache.join_for(two_table_db, ["Emp"])
        copy_join = cache.join_for(copy, ["Emp"])
        cache.invalidate(copy)
        assert cache.cached_join_count == 1
        assert cache.join_for(two_table_db, ["Emp"]) is original_join
        assert cache.join_for(copy, ["Emp"]) is not copy_join

    def test_modified_copy_is_stale_until_invalidated(self, two_table_db):
        cache = JoinCache()
        copy = two_table_db.copy()
        query = _salary_query(60)
        before = cache.evaluate(query, copy)
        assert sorted(r[0] for r in before.rows()) == ["Ann", "Cy", "Ed"]

        # In-place modification of a database whose join is cached: the cache
        # (keyed on identity) keeps serving the stale snapshot until told.
        copy.relation("Emp").update_value(3, "salary", 99)
        stale = cache.evaluate(query, copy)
        assert sorted(r[0] for r in stale.rows()) == ["Ann", "Cy", "Ed"]

        cache.invalidate(copy)
        fresh = cache.evaluate(query, copy)
        assert sorted(r[0] for r in fresh.rows()) == ["Ann", "Cy", "Di", "Ed"]

    def test_entries_evicted_when_database_is_garbage_collected(self, two_table_db):
        cache = JoinCache()
        copy = two_table_db.copy()
        cache.join_for(copy, ["Emp"])
        assert cache.cached_join_count == 1
        del copy  # finalizer fires on deallocation, before the id can recycle
        assert cache.cached_join_count == 0

    def test_clear_drops_everything(self, two_table_db):
        cache = JoinCache()
        cache.join_for(two_table_db, ["Emp"])
        cache.join_for(two_table_db.copy(), ["Emp"])
        cache.clear()
        assert cache.cached_join_count == 0


def _raise_salary(base, tuple_id=3, salary=99):
    """The update-only delta raising one salary of *base*, and its ``D'`` by copy."""
    delta = TupleDelta()
    row = list(base.relation("Emp").tuple_by_id(tuple_id).values)
    row[base.relation("Emp").schema.index_of("salary")] = salary
    delta.record_update("Emp", tuple_id, row)
    return apply_tuple_delta(base, delta), delta


class TestDeltaEvaluation:
    def test_a_delta_patches_the_base_join_instead_of_rejoining(self, two_table_db):
        cache = JoinCache()
        cache.join_for(two_table_db, ["Emp"])
        derived_db, delta = _raise_salary(two_table_db)
        JOIN_STATS.reset()
        result = cache.evaluate(_salary_query(60), two_table_db, delta=delta)
        assert JOIN_STATS.full_joins == 0 and JOIN_STATS.delta_applies == 1
        assert sorted(r[0] for r in result.rows()) == ["Ann", "Cy", "Di", "Ed"]
        assert result.bag_equal(evaluate(_salary_query(60), derived_db))  # cold join of D'
        # nothing is cached for D', and the base entry still serves D
        assert cache.cached_join_count == 1
        unchanged = cache.evaluate(_salary_query(60), two_table_db)
        assert sorted(r[0] for r in unchanged.rows()) == ["Ann", "Cy", "Ed"]

    def test_each_signature_patches_its_own_base_join(self, two_table_db):
        cache = JoinCache()
        derived_db, delta = _raise_salary(two_table_db)
        joined = SPJQuery(
            ["Emp", "Dept"], ["Emp.ename"],
            DNFPredicate.from_terms([Term("Emp.salary", ComparisonOp.GT, 60)]),
        )
        queries = [_salary_query(60), joined]
        JOIN_STATS.reset()
        batch = cache.evaluate_batch(queries, two_table_db, delta=delta)
        # one cold base join per signature, each patched once by the delta
        assert JOIN_STATS.full_joins == 2 and JOIN_STATS.delta_applies == 2
        assert cache.cached_join_count == 2
        cold = JoinCache().evaluate_batch(queries, derived_db)
        assert batch.fingerprints == cold.fingerprints
