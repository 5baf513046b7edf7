"""Unit tests for SPJ evaluation, result schemas and the join cache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import SchemaError, UnsupportedQueryError
from repro.relational.database import Database
from repro.relational.evaluator import (
    JoinCache,
    evaluate,
    evaluate_on_join,
    result_fingerprint,
    result_schema,
    results_equal,
)
from repro.relational.join import foreign_key_join, full_join
from repro.relational.predicates import ComparisonOp, Conjunct, DNFPredicate, Term
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation


class TestSingleTableEvaluation:
    def test_selection_and_projection(self, two_table_db, salary_query):
        result = evaluate(salary_query, two_table_db)
        assert sorted(row[0] for row in result.rows()) == ["Ann", "Cy", "Ed"]
        assert result.schema.attribute_names == ("Emp.ename",)

    def test_true_predicate_selects_all(self, two_table_db):
        query = SPJQuery(["Emp"], ["Emp.eid"])
        assert len(evaluate(query, two_table_db)) == 5

    def test_null_values_never_selected(self, two_table_db):
        query = SPJQuery(
            ["Emp"], ["Emp.ename"],
            DNFPredicate.from_terms([Term("Emp.senior", ComparisonOp.EQ, True)]),
        )
        assert sorted(r[0] for r in evaluate(query, two_table_db).rows()) == ["Ann", "Cy"]

    def test_bag_semantics_preserves_duplicates(self, two_table_db):
        query = SPJQuery(["Dept"], ["Dept.budget"])
        database = two_table_db.copy()
        database.relation("Dept").insert([4, "Extra", 100])
        result = evaluate(query, database)
        assert sorted(r[0] for r in result.rows()) == [60, 80, 100, 100]

    def test_distinct_removes_duplicates(self, two_table_db):
        database = two_table_db.copy()
        database.relation("Dept").insert([4, "Extra", 100])
        query = SPJQuery(["Dept"], ["Dept.budget"], distinct=True)
        assert len(evaluate(query, database)) == 3


class TestJoinEvaluation:
    def test_join_query(self, two_table_db, join_query):
        result = evaluate(join_query, two_table_db)
        names = sorted(row[0] for row in result.rows())
        assert names == ["Ann", "Bo", "Cy", "Ed"]

    def test_disjunctive_predicate(self, two_table_db):
        predicate = DNFPredicate(
            (
                Conjunct((Term("Dept.dname", ComparisonOp.EQ, "Service"),)),
                Conjunct((Term("Emp.salary", ComparisonOp.GE, 90),)),
            )
        )
        query = SPJQuery(["Emp", "Dept"], ["Emp.ename"], predicate)
        assert sorted(r[0] for r in evaluate(query, two_table_db).rows()) == ["Ann", "Di"]

    def test_evaluate_on_superset_join(self, two_table_db, salary_query):
        joined = full_join(two_table_db)
        result = evaluate_on_join(salary_query, joined, two_table_db)
        assert sorted(r[0] for r in result.rows()) == ["Ann", "Cy", "Ed"]

    def test_evaluate_on_join_missing_table(self, two_table_db, join_query):
        joined = foreign_key_join(two_table_db, ["Emp"])
        with pytest.raises(UnsupportedQueryError):
            evaluate_on_join(join_query, joined, two_table_db)


class TestQueryValidation:
    def test_unknown_projection_column(self, two_table_db):
        query = SPJQuery(["Emp"], ["Emp.nope"])
        with pytest.raises(SchemaError):
            evaluate(query, two_table_db)

    def test_unknown_selection_column(self, two_table_db):
        query = SPJQuery(
            ["Emp"], ["Emp.ename"],
            DNFPredicate.from_terms([Term("Emp.nope", ComparisonOp.EQ, 1)]),
        )
        with pytest.raises(SchemaError):
            evaluate(query, two_table_db)

    def test_disconnected_join_rejected(self):
        database = Database.from_tables({"A": (["x"], [[1]]), "B": (["y"], [[1]])})
        query = SPJQuery(["A", "B"], ["A.x"])
        with pytest.raises(UnsupportedQueryError):
            evaluate(query, database)


class TestResultHelpers:
    def test_result_schema_types(self, two_table_db, join_query):
        schema = result_schema(join_query, two_table_db)
        assert schema.attribute("Emp.ename").type.value == "string"

    def test_results_equal_modes(self, two_table_db):
        query = SPJQuery(["Dept"], ["Dept.budget"])
        left = evaluate(query, two_table_db)
        right = evaluate(query, two_table_db)
        assert results_equal(left, right)
        assert results_equal(left, right, set_semantics=True)

    def test_result_fingerprint_distinguishes_multiplicity(self, two_table_db):
        database = two_table_db.copy()
        query = SPJQuery(["Dept"], ["Dept.budget"])
        before = result_fingerprint(evaluate(query, database))
        database.relation("Dept").insert([4, "Extra", 100])
        after = result_fingerprint(evaluate(query, database))
        assert before != after

    def test_result_fingerprint_set_semantics(self, two_table_db):
        database = two_table_db.copy()
        query = SPJQuery(["Dept"], ["Dept.budget"])
        before = result_fingerprint(evaluate(query, database), set_semantics=True)
        database.relation("Dept").insert([4, "Extra", 100])
        after = result_fingerprint(evaluate(query, database), set_semantics=True)
        assert before == after  # 100 already existed

    def test_result_fingerprint_of_integers_beyond_the_float_range(self):
        huge = Relation.from_rows("R", ["x"], [[10**400], [1]])
        reordered = Relation.from_rows("R", ["x"], [[1], [10**400]])
        neighbour = Relation.from_rows("R", ["x"], [[10**400 + 1], [1]])
        for set_semantics in (False, True):
            fingerprint = result_fingerprint(huge, set_semantics=set_semantics)
            assert fingerprint == result_fingerprint(reordered, set_semantics=set_semantics)
            assert fingerprint != result_fingerprint(neighbour, set_semantics=set_semantics)

    def test_result_fingerprint_equates_equal_numbers_across_types(self):
        ints = Relation.from_rows("R", ["x"], [[1], [2], [2]])
        floats = Relation.from_rows("R", ["x"], [[2.0], [1.0], [2.0]])
        fewer = Relation.from_rows("R", ["x"], [[1.0], [2.0]])
        assert ints.bag_equal(floats)
        assert result_fingerprint(ints) == result_fingerprint(floats)
        assert result_fingerprint(ints) != result_fingerprint(fewer)
        assert result_fingerprint(ints, set_semantics=True) == result_fingerprint(
            fewer, set_semantics=True
        )


#: Cells around the float range's edges: NULL, 2^53 neighbours and 10^400.
_CELLS = st.sampled_from([None, 0, 1, -1, 2**53, 2**53 + 1, 10**400])
_ROWS = st.lists(st.tuples(_CELLS, st.sampled_from(["a", "b", None])), max_size=6)


class TestFingerprintProperties:
    @given(st.data())
    def test_fingerprint_equality_is_bag_and_set_equality(self, data):
        left_rows = data.draw(_ROWS)
        right_rows = data.draw(
            st.one_of(st.permutations(left_rows), st.just(left_rows + left_rows[:1]), _ROWS)
        )
        left = Relation.from_rows("R", ["x", "s"], left_rows)
        right = Relation.from_rows("R", ["x", "s"], right_rows)
        assert (result_fingerprint(left) == result_fingerprint(right)) == left.bag_equal(right)
        assert (
            result_fingerprint(left, set_semantics=True)
            == result_fingerprint(right, set_semantics=True)
        ) == left.set_equal(right)


class TestJoinCache:
    def test_cache_reuses_join(self, two_table_db, join_query, salary_query):
        cache = JoinCache()
        first = cache.join_for(two_table_db, join_query.tables)
        second = cache.join_for(two_table_db, reversed(join_query.tables))
        assert first is second
        result = cache.evaluate(join_query, two_table_db)
        assert len(result) == 4
        cache.clear()
        assert cache.join_for(two_table_db, join_query.tables) is not first
