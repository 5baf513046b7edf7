"""Unit tests for SPJQuery value objects."""

import pytest

from repro.exceptions import SchemaError
from repro.relational.predicates import ComparisonOp, DNFPredicate, Term
from repro.relational.query import SPJQuery


class TestSPJQueryConstruction:
    def test_requires_tables_and_projection(self):
        with pytest.raises(SchemaError):
            SPJQuery([], ["T.a"])
        with pytest.raises(SchemaError):
            SPJQuery(["T"], [])

    def test_default_predicate_is_true(self):
        query = SPJQuery(["T"], ["T.a"])
        assert query.predicate.is_true
        assert query.distinct is False

    def test_join_signature_ignores_order(self):
        left = SPJQuery(["B", "A"], ["A.x"])
        right = SPJQuery(["A", "B"], ["A.x"])
        assert left.join_signature == right.join_signature

    def test_selection_attributes(self):
        query = SPJQuery(
            ["T"], ["T.a"],
            DNFPredicate.from_terms([Term("T.b", ComparisonOp.GT, 1), Term("T.c", ComparisonOp.EQ, 2)]),
        )
        assert query.selection_attributes() == ("T.b", "T.c")


class TestSPJQueryIdentity:
    def test_equality_is_semantic(self):
        predicate = DNFPredicate.from_terms(
            [Term("T.a", ComparisonOp.GT, 1), Term("T.b", ComparisonOp.EQ, 2)]
        )
        reordered = DNFPredicate.from_terms(
            [Term("T.b", ComparisonOp.EQ, 2), Term("T.a", ComparisonOp.GT, 1)]
        )
        assert SPJQuery(["T"], ["T.a"], predicate) == SPJQuery(["T"], ["T.a"], reordered)
        assert hash(SPJQuery(["T"], ["T.a"], predicate)) == hash(SPJQuery(["T"], ["T.a"], reordered))

    def test_distinct_changes_identity(self):
        base = SPJQuery(["T"], ["T.a"])
        assert base != base.with_distinct(True)

    def test_with_predicate_copy(self):
        base = SPJQuery(["T"], ["T.a"])
        modified = base.with_predicate(DNFPredicate.from_terms([Term("T.a", ComparisonOp.EQ, 1)]))
        assert base.predicate.is_true
        assert not modified.predicate.is_true
        assert modified.tables == base.tables


class TestSPJQueryValidation:
    def test_validate_ok(self, two_table_db, join_query):
        join_query.validate(two_table_db.schema)

    def test_validate_unknown_table(self, two_table_db):
        with pytest.raises(SchemaError):
            SPJQuery(["Nope"], ["Nope.a"]).validate(two_table_db.schema)

    def test_validate_unknown_projection(self, two_table_db):
        with pytest.raises(SchemaError):
            SPJQuery(["Emp"], ["Emp.nope"]).validate(two_table_db.schema)

    def test_validate_unknown_selection_attribute(self, two_table_db):
        query = SPJQuery(
            ["Emp"], ["Emp.ename"],
            DNFPredicate.from_terms([Term("Dept.budget", ComparisonOp.GT, 1)]),
        )
        with pytest.raises(SchemaError):
            query.validate(two_table_db.schema)

    def test_str_is_sql(self, salary_query):
        text = str(salary_query)
        assert text.startswith("SELECT")
        assert "WHERE" in text

