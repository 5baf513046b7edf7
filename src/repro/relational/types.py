"""Attribute types and value coercion for the in-memory relational engine.

The engine supports the small set of scalar types that the QFE paper's
workloads need: integers, floating-point numbers, strings and booleans. Every
attribute additionally admits ``None`` (SQL ``NULL``) unless declared
``nullable=False`` at the schema level.

The module also provides helpers used throughout the library:

* :func:`coerce_value` — validate/convert a Python value to an attribute type;
* :func:`is_numeric` — whether a type supports ordered interval reasoning
  (used by the tuple-class domain partitioner);
* :func:`value_sort_key` — a total order over possibly-``None`` values so that
  relations can be printed and diffed deterministically.
"""

from __future__ import annotations

import enum
import math
from typing import Any

from repro.exceptions import TypeMismatchError

__all__ = [
    "AttributeType",
    "coerce_value",
    "is_numeric",
    "python_type_of",
    "infer_type",
    "value_sort_key",
    "values_equal",
    "canonical_value",
    "float_literal",
    "long_int_hex",
    "exact_repr",
]


class AttributeType(enum.Enum):
    """Scalar types supported by the relational engine."""

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    BOOLEAN = "boolean"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def sql_name(self) -> str:
        """The SQLite column affinity used when exporting to SQL."""
        return {
            AttributeType.INTEGER: "INTEGER",
            AttributeType.FLOAT: "REAL",
            AttributeType.STRING: "TEXT",
            AttributeType.BOOLEAN: "INTEGER",
        }[self]


_NUMERIC_TYPES = frozenset({AttributeType.INTEGER, AttributeType.FLOAT})


def is_numeric(attribute_type: AttributeType) -> bool:
    """Return ``True`` when the type supports ordered (interval) reasoning."""
    return attribute_type in _NUMERIC_TYPES


def python_type_of(attribute_type: AttributeType) -> type:
    """Return the canonical Python type for an :class:`AttributeType`."""
    return {
        AttributeType.INTEGER: int,
        AttributeType.FLOAT: float,
        AttributeType.STRING: str,
        AttributeType.BOOLEAN: bool,
    }[attribute_type]


def infer_type(values: list[Any]) -> AttributeType:
    """Infer an :class:`AttributeType` from a sample of Python values.

    ``None`` values are ignored. Preference order: boolean, integer, float,
    string; a mix of integers and floats infers ``FLOAT``; anything else
    infers ``STRING``.
    """
    seen_int = seen_float = seen_bool = seen_str = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            seen_bool = True
        elif isinstance(value, int):
            seen_int = True
        elif isinstance(value, float):
            seen_float = True
        else:
            seen_str = True
    if seen_str:
        return AttributeType.STRING
    if seen_float:
        return AttributeType.FLOAT
    if seen_int:
        return AttributeType.INTEGER
    if seen_bool:
        return AttributeType.BOOLEAN
    return AttributeType.STRING


def coerce_value(value: Any, attribute_type: AttributeType, *, nullable: bool = True) -> Any:
    """Validate *value* against *attribute_type* and return the stored form.

    Raises :class:`TypeMismatchError` when the value cannot be represented by
    the type. Integers are accepted for ``FLOAT`` attributes (and converted)
    unless they lie beyond the float range; booleans are only accepted for
    ``BOOLEAN`` attributes to avoid the classic ``bool``-is-an-``int``
    surprise.
    """
    if value is None:
        if not nullable:
            raise TypeMismatchError("NULL is not allowed for a non-nullable attribute")
        return None

    if attribute_type is AttributeType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise TypeMismatchError(f"expected boolean, got {value!r}")

    if isinstance(value, bool):
        raise TypeMismatchError(
            f"boolean value {value!r} is not valid for a {attribute_type.value} attribute"
        )

    if attribute_type is AttributeType.INTEGER:
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeMismatchError(f"expected integer, got {value!r}")

    if attribute_type is AttributeType.FLOAT:
        if isinstance(value, (int, float)):
            try:
                as_float = float(value)
            except OverflowError:
                raise TypeMismatchError("integer is beyond the float range") from None
            if math.isnan(as_float):
                raise TypeMismatchError("NaN is not a valid attribute value")
            return as_float
        raise TypeMismatchError(f"expected float, got {value!r}")

    if attribute_type is AttributeType.STRING:
        if isinstance(value, str):
            return value
        raise TypeMismatchError(f"expected string, got {value!r}")

    raise TypeMismatchError(f"unsupported attribute type {attribute_type!r}")  # pragma: no cover


def values_equal(left: Any, right: Any) -> bool:
    """Value equality used by the engine (NULL equals only NULL).

    Numeric comparisons rely on Python's exact cross-type ``==`` (an ``int``
    and a ``float`` compare by their true mathematical values), never on a
    ``float()`` round-trip: converting an integer ≥ 2^53 to a double loses
    precision, which would make distinct large integers compare equal.
    """
    if left is None or right is None:
        return left is None and right is None
    return left == right


def canonical_value(value: Any) -> Any:
    """The canonical stored form of a value for hashing/multiset keys.

    Equal numeric values must share one canonical representation so that bag
    semantics treats ``1`` and ``1.0`` as the same row value. Integral finite
    floats collapse onto the (exactly equal) ``int``; everything else —
    including arbitrarily large integers, which a ``float()`` round-trip
    would corrupt above 2^53 — is preserved exactly. Booleans pass through
    unchanged (Python already hashes ``True`` consistently with ``1``).
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def float_literal(value: float) -> str:
    """Render a float with full round-trip precision (for SQL and display).

    ``repr`` emits the shortest string that parses back to the exact same
    double, so the SQL shipped to an oracle backend selects exactly the rows
    the in-memory evaluator selects — ``"{:g}"``-style 6-significant-digit
    formatting silently changes constants like ``0.1234567``. Infinities are
    rendered as the out-of-range literals SQLite evaluates to ``±Inf``.
    """
    if math.isinf(value):
        return "9e999" if value > 0 else "-9e999"
    return repr(value)


def long_int_hex(value: Any) -> str | None:
    """``hex(value)`` (exact at any size) for an int with more decimal digits
    than ``sys.get_int_max_str_digits()`` lets ``str`` write, else ``None``."""
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            return hex(value)
    return None


def exact_repr(value: Any) -> str:
    """``repr(value)``, exact at any size: an int :func:`long_int_hex`
    writes, alone or inside a tuple, renders in hex."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, tuple):
            inner = ", ".join(map(exact_repr, value))
            return f"({inner},)" if len(value) == 1 else f"({inner})"
        return long_int_hex(value) or repr(value)


def value_sort_key(value: Any) -> tuple:
    """A total-order sort key over heterogeneous, possibly-NULL values.

    NULLs sort first, then booleans, then numbers, then strings. This is only
    used for deterministic presentation (printing, diffing), never for query
    semantics.
    """
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        # Exact cross-type ordering: no float() round-trip, so distinct huge
        # integers (≥ 2^53) never collapse onto one sort position.
        return (2, value)
    return (3, str(value))
