"""Unit tests for the SQLite cross-validation backend."""

import pytest

from repro.exceptions import EvaluationError
from repro.relational.evaluator import evaluate
from repro.relational.predicates import ComparisonOp, DNFPredicate, Term
from repro.relational.query import SPJQuery
from repro.sql.sqlite_backend import SQLiteBackend, cross_check
from repro.workloads import scientific_queries


class TestSQLiteBackend:
    def test_execute_simple_query(self, two_table_db, salary_query):
        with SQLiteBackend(two_table_db) as backend:
            result = backend.execute(salary_query)
        assert sorted(r[0] for r in result.rows()) == ["Ann", "Cy", "Ed"]

    def test_execute_join_query(self, two_table_db, join_query):
        with SQLiteBackend(two_table_db) as backend:
            result = backend.execute(join_query)
        assert len(result) == 4

    def test_boolean_round_trip(self, two_table_db):
        query = SPJQuery(
            ["Emp"], ["Emp.senior"],
            DNFPredicate.from_terms([Term("Emp.senior", ComparisonOp.EQ, True)]),
        )
        with SQLiteBackend(two_table_db) as backend:
            values = {row[0] for row in backend.execute(query).rows()}
        assert values == {True}

    def test_invalid_sql_raises(self, two_table_db):
        with SQLiteBackend(two_table_db) as backend:
            with pytest.raises(EvaluationError):
                backend.execute_sql("SELECT definitely_not_a_column FROM Emp")

    def test_raw_sql(self, two_table_db):
        with SQLiteBackend(two_table_db) as backend:
            rows = backend.execute_sql('SELECT COUNT(*) FROM "Emp"')
        assert rows == [(5,)]


class TestCrossCheck:
    def test_cross_check_agrees_on_fixtures(self, two_table_db, salary_query, join_query):
        assert cross_check(salary_query, two_table_db)
        assert cross_check(join_query, two_table_db)

    def test_cross_check_workload_queries(self, scientific_db):
        # One mirror connection for the whole run, released deterministically.
        with SQLiteBackend(scientific_db) as backend:
            for query in scientific_queries().values():
                assert cross_check(query, scientific_db, backend=backend)

    def test_our_evaluator_matches_sqlite_with_nulls(self, two_table_db):
        query = SPJQuery(
            ["Emp"], ["Emp.ename"],
            DNFPredicate.from_terms([Term("Emp.senior", ComparisonOp.EQ, False)]),
        )
        ours = evaluate(query, two_table_db)
        with SQLiteBackend(two_table_db) as backend:
            theirs = backend.execute(query)
        assert ours.bag_equal(theirs)
