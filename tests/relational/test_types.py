"""Unit tests for attribute types and value coercion."""

import math

import pytest

from repro.exceptions import TypeMismatchError
from repro.relational.types import (
    AttributeType,
    coerce_value,
    infer_type,
    is_numeric,
    python_type_of,
    value_sort_key,
    values_equal,
)


class TestAttributeType:
    def test_sql_names(self):
        assert AttributeType.INTEGER.sql_name == "INTEGER"
        assert AttributeType.FLOAT.sql_name == "REAL"
        assert AttributeType.STRING.sql_name == "TEXT"
        assert AttributeType.BOOLEAN.sql_name == "INTEGER"

    def test_is_numeric(self):
        assert is_numeric(AttributeType.INTEGER)
        assert is_numeric(AttributeType.FLOAT)
        assert not is_numeric(AttributeType.STRING)
        assert not is_numeric(AttributeType.BOOLEAN)

    def test_python_type_of(self):
        assert python_type_of(AttributeType.INTEGER) is int
        assert python_type_of(AttributeType.STRING) is str


class TestInferType:
    def test_infers_integer(self):
        assert infer_type([1, 2, None, 3]) is AttributeType.INTEGER

    def test_infers_float_from_mixed_numbers(self):
        assert infer_type([1, 2.5]) is AttributeType.FLOAT

    def test_infers_string_dominates(self):
        assert infer_type([1, "a", 2.0]) is AttributeType.STRING

    def test_infers_boolean(self):
        assert infer_type([True, False, None]) is AttributeType.BOOLEAN

    def test_all_none_defaults_to_string(self):
        assert infer_type([None, None]) is AttributeType.STRING


class TestCoerceValue:
    def test_none_allowed_when_nullable(self):
        assert coerce_value(None, AttributeType.INTEGER) is None

    def test_none_rejected_when_not_nullable(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(None, AttributeType.INTEGER, nullable=False)

    def test_integer_accepts_integral_float(self):
        assert coerce_value(3.0, AttributeType.INTEGER) == 3

    def test_integer_rejects_fractional_float(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(3.5, AttributeType.INTEGER)

    def test_float_accepts_int(self):
        assert coerce_value(3, AttributeType.FLOAT) == 3.0
        assert isinstance(coerce_value(3, AttributeType.FLOAT), float)

    def test_float_rejects_nan(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(math.nan, AttributeType.FLOAT)

    def test_float_rejects_an_int_beyond_the_float_range(self):
        with pytest.raises(TypeMismatchError, match="beyond the float range"):
            coerce_value(10**400, AttributeType.FLOAT)
        with pytest.raises(TypeMismatchError):
            coerce_value(-(10**400), AttributeType.FLOAT)

    def test_an_inferred_float_column_rejects_it_by_name(self):
        from repro.relational.database import Database

        rows = [[0, 10**400, "a"], [1, 5, "b"], [2, 7.5, "c"]]
        with pytest.raises(TypeMismatchError, match=r"^T\.x: "):
            Database.from_tables({"T": (["id", "x", "name"], rows)})

    def test_boolean_not_accepted_as_integer(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(True, AttributeType.INTEGER)

    def test_boolean_from_zero_one(self):
        assert coerce_value(1, AttributeType.BOOLEAN) is True
        assert coerce_value(0, AttributeType.BOOLEAN) is False

    def test_boolean_rejects_other_ints(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(2, AttributeType.BOOLEAN)

    def test_string_rejects_numbers(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(5, AttributeType.STRING)


class TestValueHelpers:
    def test_values_equal_null_only_equals_null(self):
        assert values_equal(None, None)
        assert not values_equal(None, 0)
        assert not values_equal("", None)

    def test_values_equal_numeric_cross_type(self):
        assert values_equal(1, 1.0)
        assert not values_equal(1, 2)

    def test_values_equal_bool_vs_int(self):
        assert values_equal(True, True)
        assert not values_equal(True, 2)

    def test_sort_key_total_order(self):
        values = ["b", None, 3, True, 1.5, "a"]
        ordered = sorted(values, key=value_sort_key)
        assert ordered[0] is None
        assert ordered[-1] == "b"
