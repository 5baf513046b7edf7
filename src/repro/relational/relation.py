"""Relation instances: immutable tuples and bags of tuples.

QFE reasons about *bags* (the paper's default duplicate-preserving semantics,
Section 5) as well as sets (Section 6.1). :class:`Relation` therefore stores
an ordered list of :class:`Tuple` values and offers both bag-equality
(multiset comparison) and set-equality.

Tuples are immutable; modifications produce new tuples. Every tuple carries a
stable ``tuple_id`` assigned by the containing relation, which the edit model
and the QFE delta presentation use to describe "tuple 3 of Employee had its
salary changed" in a way users can follow.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import SchemaError, TypeMismatchError
from repro.relational.schema import Attribute, TableSchema
from repro.relational.types import (
    canonical_value,
    coerce_value,
    infer_type,
    value_sort_key,
    values_equal,
)

__all__ = ["Tuple", "Relation"]


class Tuple:
    """An immutable row of a relation.

    Values are stored in the order of the owning schema's attributes. The
    tuple does not know its schema; the containing :class:`Relation` provides
    name-based access through :meth:`Relation.value_of`.
    """

    __slots__ = ("values", "tuple_id")

    def __init__(self, values: Sequence[Any], tuple_id: int | None = None) -> None:
        self.values: tuple[Any, ...] = tuple(values)
        self.tuple_id = tuple_id

    def replace(self, index: int, value: Any) -> "Tuple":
        """Return a copy with the value at *index* replaced (same tuple_id)."""
        new_values = list(self.values)
        new_values[index] = value
        return Tuple(new_values, self.tuple_id)

    def project(self, indexes: Sequence[int]) -> tuple[Any, ...]:
        """Return the values at the given positional indexes."""
        return tuple(self.values[i] for i in indexes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        if len(self.values) != len(other.values):
            return False
        return all(values_equal(a, b) for a, b in zip(self.values, other.values))

    def __hash__(self) -> int:
        # canonical_value collapses equal numerics (1 vs 1.0) without the
        # precision loss of a float() round-trip, keeping the hash consistent
        # with the exact equality above even for integers ≥ 2^53.
        return hash(tuple(canonical_value(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tuple({list(self.values)!r}, id={self.tuple_id})"


class Relation:
    """A named bag of tuples conforming to a :class:`TableSchema`."""

    def __init__(self, schema: TableSchema, rows: Iterable[Sequence[Any] | Mapping[str, Any]] = ()) -> None:
        self.schema = schema
        self._tuples: list[Tuple] = []
        self._next_id = 0
        for row in rows:
            self.insert(row)

    # ----------------------------------------------------------- construction
    @classmethod
    def from_rows(
        cls,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]],
        *,
        primary_key: Sequence[str] | None = None,
    ) -> "Relation":
        """Build a relation from raw rows, inferring attribute types."""
        materialized = [list(row) for row in rows]
        for row in materialized:
            if len(row) != len(columns):
                raise SchemaError(
                    f"row {row!r} has {len(row)} values but {len(columns)} columns were declared"
                )
        attributes = []
        for i, column in enumerate(columns):
            attributes.append(Attribute(column, infer_type([row[i] for row in materialized])))
        schema = TableSchema(name, attributes, primary_key=primary_key)
        return cls(schema, materialized)

    @classmethod
    def from_dicts(
        cls,
        name: str,
        rows: Sequence[Mapping[str, Any]],
        *,
        columns: Sequence[str] | None = None,
        primary_key: Sequence[str] | None = None,
    ) -> "Relation":
        """Build a relation from a list of dictionaries, inferring types."""
        if columns is None:
            if not rows:
                raise SchemaError("cannot infer columns from an empty list of dicts")
            columns = list(rows[0].keys())
        raw_rows = [[row.get(column) for column in columns] for row in rows]
        return cls.from_rows(name, columns, raw_rows, primary_key=primary_key)

    def copy(self) -> "Relation":
        """A deep copy preserving tuple ids."""
        clone = Relation(self.schema)
        clone._tuples = [Tuple(t.values, t.tuple_id) for t in self._tuples]
        clone._next_id = self._next_id
        return clone

    # ----------------------------------------------------------- modification
    def insert(self, row: Sequence[Any] | Mapping[str, Any]) -> Tuple:
        """Insert a row (sequence in attribute order, or mapping by name)."""
        if isinstance(row, Mapping):
            values = [row.get(name) for name in self.schema.attribute_names]
        else:
            values = list(row)
            if len(values) != self.schema.arity:
                raise SchemaError(
                    f"row has {len(values)} values but table {self.schema.name!r} "
                    f"has arity {self.schema.arity}"
                )
        coerced = []
        for attribute, value in zip(self.schema.attributes, values):
            try:
                coerced.append(coerce_value(value, attribute.type, nullable=attribute.nullable))
            except TypeMismatchError as exc:
                raise TypeMismatchError(
                    f"{self.schema.name}.{attribute.name}: {exc}"
                ) from None
        new_tuple = Tuple(coerced, self._next_id)
        self._next_id += 1
        self._tuples.append(new_tuple)
        return new_tuple

    def extend_raw(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append pre-validated rows without per-cell type coercion.

        Fast path for the columnar evaluator: projected values copied
        verbatim out of an already-coerced relation conform to the output
        schema by construction, so re-coercing every cell is pure overhead.
        Callers must guarantee the rows match the schema's arity and types.
        """
        tuples = self._tuples
        next_id = self._next_id
        for row in rows:
            tuples.append(Tuple(row, next_id))
            next_id += 1
        self._next_id = next_id

    def delete(self, tuple_id: int) -> Tuple:
        """Remove and return the tuple with the given id."""
        for i, existing in enumerate(self._tuples):
            if existing.tuple_id == tuple_id:
                return self._tuples.pop(i)
        raise SchemaError(f"relation {self.schema.name!r} has no tuple with id {tuple_id}")

    def update_value(self, tuple_id: int, attribute: str, value: Any) -> Tuple:
        """Replace one attribute value of the identified tuple; returns the new tuple."""
        index = self.schema.index_of(attribute)
        declared = self.schema.attribute(attribute)
        coerced = coerce_value(value, declared.type, nullable=declared.nullable)
        for i, existing in enumerate(self._tuples):
            if existing.tuple_id == tuple_id:
                updated = existing.replace(index, coerced)
                self._tuples[i] = updated
                return updated
        raise SchemaError(f"relation {self.schema.name!r} has no tuple with id {tuple_id}")

    def replace_tuple(self, tuple_id: int, row: Sequence[Any]) -> Tuple:
        """Replace the identified tuple's values entirely (keeping its id)."""
        if len(row) != self.schema.arity:
            raise SchemaError("replacement row has wrong arity")
        coerced = [
            coerce_value(value, attribute.type, nullable=attribute.nullable)
            for attribute, value in zip(self.schema.attributes, row)
        ]
        for i, existing in enumerate(self._tuples):
            if existing.tuple_id == tuple_id:
                updated = Tuple(coerced, tuple_id)
                self._tuples[i] = updated
                return updated
        raise SchemaError(f"relation {self.schema.name!r} has no tuple with id {tuple_id}")

    # ----------------------------------------------------------------- access
    @property
    def name(self) -> str:
        """The relation's (table's) name."""
        return self.schema.name

    @property
    def tuples(self) -> tuple[Tuple, ...]:
        """All tuples in insertion order."""
        return tuple(self._tuples)

    def tuple_by_id(self, tuple_id: int) -> Tuple:
        """The tuple with the given id (raises :class:`SchemaError` if absent)."""
        for existing in self._tuples:
            if existing.tuple_id == tuple_id:
                return existing
        raise SchemaError(f"relation {self.schema.name!r} has no tuple with id {tuple_id}")

    def value_of(self, row: Tuple, attribute: str) -> Any:
        """The value of *attribute* in *row* (by name)."""
        return row.values[self.schema.index_of(attribute)]

    def column(self, attribute: str) -> list[Any]:
        """All values of *attribute*, in tuple order."""
        index = self.schema.index_of(attribute)
        return [t.values[index] for t in self._tuples]

    def active_domain(self, attribute: str) -> list[Any]:
        """The distinct non-NULL values of *attribute*, deterministically ordered."""
        distinct = {v for v in self.column(attribute) if v is not None}
        return sorted(distinct, key=value_sort_key)

    def rows(self) -> list[tuple[Any, ...]]:
        """Raw value tuples (without ids), in insertion order."""
        return [t.values for t in self._tuples]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by attribute name."""
        names = self.schema.attribute_names
        return [dict(zip(names, t.values)) for t in self._tuples]

    def select(self, predicate: Callable[[Tuple], bool]) -> "Relation":
        """A new relation containing the tuples satisfying *predicate*."""
        result = Relation(self.schema)
        for t in self._tuples:
            if predicate(t):
                result._tuples.append(Tuple(t.values, result._next_id))
                result._next_id += 1
        return result

    # -------------------------------------------------------------- equality
    def bag_of_rows(self) -> Counter:
        """A multiset of the raw value rows (the paper's bag semantics)."""
        return Counter(self._normalize_row(t.values) for t in self._tuples)

    def set_of_rows(self) -> frozenset:
        """The set of distinct raw value rows (Section 6.1 set semantics)."""
        return frozenset(self._normalize_row(t.values) for t in self._tuples)

    @staticmethod
    def _normalize_row(values: tuple[Any, ...]) -> tuple[Any, ...]:
        # Exact canonicalization: 1 and 1.0 share one multiset key, while
        # distinct integers ≥ 2^53 (which a float() round-trip would merge)
        # stay distinct — bag equality must never equate different rows.
        return tuple(canonical_value(v) for v in values)

    def bag_equal(self, other: "Relation") -> bool:
        """Multiset equality of rows (column order must match)."""
        return self.bag_of_rows() == other.bag_of_rows()

    def set_equal(self, other: "Relation") -> bool:
        """Set equality of rows (duplicates ignored)."""
        return self.set_of_rows() == other.set_of_rows()

    # ---------------------------------------------------------------- dunder
    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __contains__(self, row: Sequence[Any]) -> bool:
        target = self._normalize_row(tuple(row))
        return target in self.bag_of_rows()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.schema.name}, {len(self)} tuples)"

    def pretty(self, *, max_rows: int | None = 20) -> str:
        """A fixed-width text rendering of the relation (for examples and deltas)."""
        names = list(self.schema.attribute_names)
        rows = [[_format_value(v) for v in t.values] for t in self._tuples]
        if max_rows is not None and len(rows) > max_rows:
            shown = rows[:max_rows]
            truncated = len(rows) - max_rows
        else:
            shown = rows
            truncated = 0
        widths = [len(n) for n in names]
        for row in shown:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(n.ljust(widths[i]) for i, n in enumerate(names))
        separator = "-+-".join("-" * w for w in widths)
        lines = [self.schema.name, header, separator]
        for row in shown:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if truncated:
            lines.append(f"... ({truncated} more rows)")
        return "\n".join(lines)


def _format_value(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
