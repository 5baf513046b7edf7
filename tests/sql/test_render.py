"""Unit tests for SQL rendering (and parse → render → parse round trips)."""

from repro.relational.predicates import ComparisonOp, Conjunct, DNFPredicate, Term
from repro.relational.query import SPJQuery
from repro.sql.parser import parse_query
from repro.sql.render import render_predicate, render_query, render_value


class TestRenderValue:
    def test_literals(self):
        assert render_value(None) == "NULL"
        assert render_value(True) == "TRUE"
        assert render_value(False) == "FALSE"
        assert render_value(3) == "3"
        assert render_value(3.5) == "3.5"
        assert render_value("o'clock") == "'o''clock'"

    def test_floats_render_with_round_trip_precision(self):
        # Regression: "{:g}" kept 6 significant digits, so 0.1234567 rendered
        # as 0.123457 and the SQL disagreed with the in-memory evaluator.
        for value in (0.1234567, 1.0000001, 123456.789012345, 1e-7, -2.5e300):
            assert float(render_value(value)) == value, value
        assert render_value(0.1234567) == "0.1234567"

    def test_large_integers_render_exactly(self):
        assert render_value(2**53 + 1) == str(2**53 + 1)

    def test_infinities_render_as_sqlite_overflow_literals(self):
        assert render_value(float("inf")) == "9e999"
        assert render_value(float("-inf")) == "-9e999"


class TestFloatPrecisionOracleAgreement:
    """The rendered SQL must select exactly what the evaluator selects."""

    def _database(self):
        from repro.relational.database import Database

        rows = [[i, v] for i, v in enumerate(
            [0.1234567, 0.123457, 0.12345670000000001, 1.0000001, 1.0,
             123456.789012345, 123456.789012, 1e-7, 0.0]
        )]
        return Database.from_tables({"T": (["id", "x"], rows)})

    def test_equality_and_threshold_constants_agree_with_sqlite(self):
        from repro.relational.evaluator import evaluate
        from repro.sql.sqlite_backend import SQLiteBackend

        database = self._database()
        constants = [0.1234567, 0.12345670000000001, 1.0000001, 123456.789012345, 1e-7]
        ops = [ComparisonOp.EQ, ComparisonOp.NE, ComparisonOp.LT, ComparisonOp.GE]
        with SQLiteBackend(database) as backend:
            for constant in constants:
                for op in ops:
                    query = SPJQuery(
                        ["T"], ["T.id"], DNFPredicate.from_terms([Term("T.x", op, constant)])
                    )
                    ours = evaluate(query, database)
                    theirs = backend.execute(query)
                    assert ours.bag_equal(theirs), (op, constant, render_query(query))


class TestRenderPredicate:
    def test_true_predicate(self):
        assert render_predicate(DNFPredicate.true()) == "1 = 1"

    def test_conjunction(self):
        predicate = DNFPredicate.from_terms(
            [Term("T.a", ComparisonOp.GT, 1), Term("T.b", ComparisonOp.EQ, "x")]
        )
        text = render_predicate(predicate)
        assert '"T"."a" > 1' in text and "AND" in text

    def test_disjunction_parenthesized(self):
        predicate = DNFPredicate(
            (
                Conjunct((Term("T.a", ComparisonOp.EQ, 1),)),
                Conjunct((Term("T.a", ComparisonOp.EQ, 2),)),
            )
        )
        text = render_predicate(predicate)
        assert text.count("(") == 2 and "OR" in text

    def test_membership(self):
        text = render_predicate(
            DNFPredicate.from_terms([Term("T.a", ComparisonOp.NOT_IN, ("x", "y"))])
        )
        assert "NOT IN ('x', 'y')" in text

    def test_inequality_uses_sql_spelling(self):
        text = render_predicate(DNFPredicate.from_terms([Term("T.a", ComparisonOp.NE, 1)]))
        assert "<>" in text


class TestRenderQuery:
    def test_single_table(self, salary_query):
        sql = render_query(salary_query)
        assert sql.splitlines()[0] == 'SELECT "Emp"."ename"'
        assert 'FROM "Emp"' in sql
        assert 'WHERE "Emp"."salary" > 60' in sql

    def test_distinct(self):
        sql = render_query(SPJQuery(["T"], ["T.a"], distinct=True))
        assert sql.startswith("SELECT DISTINCT")

    def test_join_rendered_with_schema(self, two_table_db, join_query):
        sql = render_query(join_query, two_table_db.schema)
        assert "INNER JOIN" in sql
        assert '"Emp"."did" = "Dept"."did"' in sql

    def test_no_where_clause_for_true_predicate(self):
        sql = render_query(SPJQuery(["T"], ["T.a"]))
        assert "WHERE" not in sql


class TestRoundTrip:
    def test_parse_render_parse_fixed_point(self, two_table_db):
        sql = (
            "SELECT Emp.ename, Dept.dname FROM Emp INNER JOIN Dept ON Emp.did = Dept.did "
            "WHERE Emp.salary > 50 AND Dept.budget <= 100"
        )
        first = parse_query(sql, two_table_db.schema)
        rendered = render_query(first, two_table_db.schema)
        second = parse_query(rendered, two_table_db.schema)
        assert first == second

    def test_round_trip_with_disjunction(self, two_table_db):
        sql = "SELECT ename FROM Emp WHERE salary > 80 OR (senior = TRUE AND salary < 75)"
        first = parse_query(sql, two_table_db.schema)
        second = parse_query(render_query(first, two_table_db.schema), two_table_db.schema)
        assert first == second

    def test_round_trip_membership(self, two_table_db):
        sql = "SELECT ename FROM Emp WHERE did IN (1, 2)"
        first = parse_query(sql, two_table_db.schema)
        second = parse_query(render_query(first, two_table_db.schema), two_table_db.schema)
        assert first == second
