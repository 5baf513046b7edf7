"""Unit tests for schemas, keys and the foreign-key join graph."""

import pytest

from repro.exceptions import SchemaError
from repro.relational.schema import (
    Attribute,
    DatabaseSchema,
    ForeignKey,
    TableSchema,
    qualify,
    split_qualified,
)
from repro.relational.types import AttributeType


def _table(name, columns, pk=None):
    return TableSchema(name, [Attribute(c, AttributeType.INTEGER) for c in columns], primary_key=pk)


class TestQualify:
    def test_qualify_and_split(self):
        assert qualify("T", "a") == "T.a"
        assert split_qualified("T.a") == ("T", "a")
        assert split_qualified("a") == (None, "a")


class TestAttribute:
    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("", AttributeType.INTEGER)

    def test_rejects_bad_type(self):
        with pytest.raises(SchemaError):
            Attribute("a", "integer")  # type: ignore[arg-type]

    def test_renamed_keeps_type(self):
        attribute = Attribute("a", AttributeType.FLOAT, nullable=False)
        renamed = attribute.renamed("b")
        assert renamed.name == "b"
        assert renamed.type is AttributeType.FLOAT
        assert renamed.nullable is False


class TestTableSchema:
    def test_basic_accessors(self):
        table = _table("T", ["a", "b", "c"], pk=["a"])
        assert table.arity == 3
        assert table.attribute_names == ("a", "b", "c")
        assert table.index_of("b") == 1
        assert table.has_attribute("c")
        assert not table.has_attribute("z")
        assert table.qualified_names() == ("T.a", "T.b", "T.c")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            _table("T", ["a", "a"])

    def test_unknown_primary_key_rejected(self):
        with pytest.raises(SchemaError):
            _table("T", ["a"], pk=["z"])

    def test_missing_attribute_raises(self):
        table = _table("T", ["a"])
        with pytest.raises(SchemaError):
            table.attribute("z")
        with pytest.raises(SchemaError):
            table.index_of("z")

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("T", [])

    def test_equality_and_hash(self):
        assert _table("T", ["a", "b"]) == _table("T", ["a", "b"])
        assert hash(_table("T", ["a"])) == hash(_table("T", ["a"]))
        assert _table("T", ["a"]) != _table("T", ["b"])


class TestForeignKey:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(SchemaError):
            ForeignKey("A", ("x", "y"), "B", ("z",))

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            ForeignKey("A", (), "B", ())

    def test_name_and_pairs(self):
        fk = ForeignKey("A", ("x",), "B", ("y",))
        assert "A(x)->B(y)" == fk.name
        assert fk.column_pairs() == (("x", "y"),)


class TestDatabaseSchema:
    def _schema(self):
        return DatabaseSchema(
            [_table("A", ["id", "b_id"], pk=["id"]), _table("B", ["id"], pk=["id"]),
             _table("C", ["id"], pk=["id"])],
            [ForeignKey("A", ("b_id",), "B", ("id",))],
        )

    def test_duplicate_table_rejected(self):
        with pytest.raises(SchemaError):
            DatabaseSchema([_table("A", ["x"]), _table("A", ["y"])])

    def test_foreign_key_validation(self):
        with pytest.raises(SchemaError):
            DatabaseSchema([_table("A", ["x"])], [ForeignKey("A", ("x",), "Z", ("y",))])
        with pytest.raises(SchemaError):
            DatabaseSchema(
                [_table("A", ["x"]), _table("B", ["y"])],
                [ForeignKey("A", ("missing",), "B", ("y",))],
            )

    def test_lookups(self):
        schema = self._schema()
        assert schema.table_names == ("A", "B", "C")
        assert schema.has_table("A") and not schema.has_table("Z")
        with pytest.raises(SchemaError):
            schema.table("Z")
        assert len(schema.foreign_keys_between("A", "B")) == 1

    def test_resolve_attribute(self):
        schema = self._schema()
        assert schema.resolve_attribute("A.b_id") == ("A", "b_id")
        assert schema.resolve_attribute("b_id") == ("A", "b_id")
        with pytest.raises(SchemaError):
            schema.resolve_attribute("id")  # ambiguous across tables
        with pytest.raises(SchemaError):
            schema.resolve_attribute("missing")

    def test_join_connectivity(self):
        schema = self._schema()
        assert schema.is_join_connected(["A", "B"])
        assert not schema.is_join_connected(["A", "C"])
        assert schema.is_join_connected(["A"])
        assert not schema.is_join_connected([])

    def test_repeated_or_unknown_names_are_not_connected(self):
        schema = self._schema()
        assert schema.is_join_connected(["A", "A"]) is False
        assert schema.is_join_connected(["A", "B", "A"]) is False
        assert schema.is_join_connected(["Z"]) is False
        assert schema.is_join_connected(["A", "Z"]) is False

    def test_spanning_foreign_keys(self):
        schema = self._schema()
        assert len(schema.spanning_foreign_keys(["A", "B"])) == 1
        assert schema.spanning_foreign_keys(["A"]) == ()
        with pytest.raises(SchemaError):
            schema.spanning_foreign_keys(["A", "C"])
