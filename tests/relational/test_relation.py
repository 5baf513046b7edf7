"""Unit tests for tuples and bag-semantics relations."""

import pytest

from repro.exceptions import SchemaError, TypeMismatchError
from repro.relational.relation import Relation, Tuple


class TestTuple:
    def test_replace_keeps_id(self):
        row = Tuple([1, 2, 3], tuple_id=7)
        updated = row.replace(1, 9)
        assert updated.values == (1, 9, 3)
        assert updated.tuple_id == 7
        assert row.values == (1, 2, 3)  # original untouched

    def test_equality_ignores_id_and_int_float(self):
        assert Tuple([1, "a"], 1) == Tuple([1.0, "a"], 99)
        assert Tuple([1], 1) != Tuple([2], 1)

    def test_hash_consistent_with_equality(self):
        assert hash(Tuple([1, "a"])) == hash(Tuple([1.0, "a"]))

    def test_project_and_iteration(self):
        row = Tuple([10, 20, 30])
        assert row.project([2, 0]) == (30, 10)
        assert list(row) == [10, 20, 30]
        assert row[1] == 20
        assert len(row) == 3


class TestRelationConstruction:
    def test_from_rows_infers_types(self):
        relation = Relation.from_rows("T", ["a", "b"], [[1, "x"], [2, "y"]])
        assert relation.schema.attribute("a").type.value == "integer"
        assert relation.schema.attribute("b").type.value == "string"
        assert len(relation) == 2

    def test_from_rows_rejects_ragged_rows(self):
        with pytest.raises(SchemaError):
            Relation.from_rows("T", ["a", "b"], [[1]])

    def test_from_dicts(self):
        relation = Relation.from_dicts("T", [{"a": 1, "b": "x"}, {"a": 2, "b": None}])
        assert relation.rows() == [(1, "x"), (2, None)]

    def test_from_dicts_requires_rows_or_columns(self):
        with pytest.raises(SchemaError):
            Relation.from_dicts("T", [])

    def test_insert_type_checked(self):
        relation = Relation.from_rows("T", ["a"], [[1]])
        with pytest.raises(TypeMismatchError):
            relation.insert(["not an int"])

    def test_insert_mapping(self):
        relation = Relation.from_rows("T", ["a", "b"], [[1, 2]])
        relation.insert({"b": 4, "a": 3})
        assert relation.rows()[-1] == (3, 4)

    def test_copy_is_deep(self):
        relation = Relation.from_rows("T", ["a"], [[1], [2]])
        clone = relation.copy()
        clone.update_value(0, "a", 99)
        assert relation.rows() == [(1,), (2,)]
        assert clone.rows() == [(99,), (2,)]


class TestRelationModification:
    def test_update_value(self):
        relation = Relation.from_rows("T", ["a", "b"], [[1, 2], [3, 4]])
        relation.update_value(1, "b", 9)
        assert relation.tuple_by_id(1).values == (3, 9)

    def test_update_unknown_tuple(self):
        relation = Relation.from_rows("T", ["a"], [[1]])
        with pytest.raises(SchemaError):
            relation.update_value(5, "a", 2)

    def test_delete(self):
        relation = Relation.from_rows("T", ["a"], [[1], [2]])
        removed = relation.delete(0)
        assert removed.values == (1,)
        assert len(relation) == 1
        with pytest.raises(SchemaError):
            relation.delete(0)

    def test_replace_tuple(self):
        relation = Relation.from_rows("T", ["a", "b"], [[1, 2]])
        relation.replace_tuple(0, [7, 8])
        assert relation.tuple_by_id(0).values == (7, 8)
        with pytest.raises(SchemaError):
            relation.replace_tuple(0, [1])

    def test_tuple_ids_are_stable(self):
        relation = Relation.from_rows("T", ["a"], [[1], [2], [3]])
        relation.delete(1)
        inserted = relation.insert([4])
        assert inserted.tuple_id == 3  # ids are never reused


class TestRelationAccessors:
    def test_column_and_active_domain(self):
        relation = Relation.from_rows("T", ["a", "b"], [[1, "x"], [2, "x"], [1, None]])
        assert relation.column("a") == [1, 2, 1]
        assert relation.active_domain("a") == [1, 2]
        assert relation.active_domain("b") == ["x"]

    def test_value_of(self):
        relation = Relation.from_rows("T", ["a", "b"], [[1, "x"]])
        assert relation.value_of(relation.tuples[0], "b") == "x"

    def test_to_dicts(self):
        relation = Relation.from_rows("T", ["a"], [[1]])
        assert relation.to_dicts() == [{"a": 1}]

    def test_select(self):
        relation = Relation.from_rows("T", ["a"], [[1], [2], [3]])
        selected = relation.select(lambda t: t.values[0] > 1)
        assert selected.rows() == [(2,), (3,)]
        assert len(relation) == 3

    def test_contains(self):
        relation = Relation.from_rows("T", ["a", "b"], [[1, "x"]])
        assert [1, "x"] in relation
        assert [1.0, "x"] in relation
        assert [2, "x"] not in relation

    def test_pretty_truncates(self):
        relation = Relation.from_rows("T", ["a"], [[i] for i in range(30)])
        text = relation.pretty(max_rows=5)
        assert "more rows" in text
        assert text.startswith("T")


class TestBagAndSetSemantics:
    def test_bag_equal_respects_duplicates(self):
        left = Relation.from_rows("T", ["a"], [[1], [1], [2]])
        right = Relation.from_rows("T", ["a"], [[1], [2], [1]])
        other = Relation.from_rows("T", ["a"], [[1], [2]])
        assert left.bag_equal(right)
        assert not left.bag_equal(other)

    def test_set_equal_ignores_duplicates(self):
        left = Relation.from_rows("T", ["a"], [[1], [1], [2]])
        other = Relation.from_rows("T", ["a"], [[1], [2]])
        assert left.set_equal(other)

    def test_int_float_rows_compare_equal(self):
        left = Relation.from_rows("T", ["a"], [[1]])
        right = Relation.from_rows("T", ["a"], [[1.0]])
        assert left.bag_equal(right)
