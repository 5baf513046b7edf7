"""Schema objects: attributes, table schemas, keys and database schemas.

The QFE paper assumes databases with explicit (or inferred) foreign-key
relationships because its Database Generator reasons over the foreign-key
join of all relations and uses join indexes to track side effects of base
tuple modifications (Section 5.4.1). The schema layer therefore models:

* :class:`Attribute` — a named, typed column;
* :class:`TableSchema` — an ordered list of attributes plus an optional
  primary key;
* :class:`ForeignKey` — a (child table, child columns) → (parent table,
  parent columns) reference;
* :class:`DatabaseSchema` — the collection of table schemas and foreign keys,
  answering the foreign-key *join graph* questions (connectivity, a spanning
  tree) that the QBO join enumerator and the foreign-key join ask.

Qualified attribute names use the ``table.column`` convention, which is also
how joined relations name their columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.exceptions import SchemaError
from repro.relational.types import AttributeType

__all__ = [
    "Attribute",
    "TableSchema",
    "ForeignKey",
    "DatabaseSchema",
    "qualify",
    "split_qualified",
]


def qualify(table: str, column: str) -> str:
    """Return the qualified name ``table.column``."""
    return f"{table}.{column}"


def split_qualified(name: str) -> tuple[str | None, str]:
    """Split a possibly-qualified attribute name into ``(table, column)``.

    Unqualified names return ``(None, name)``.
    """
    if "." in name:
        table, column = name.split(".", 1)
        return table, column
    return None, name


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation."""

    name: str
    type: AttributeType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if not isinstance(self.type, AttributeType):
            raise SchemaError(f"attribute {self.name!r} has invalid type {self.type!r}")

    def renamed(self, new_name: str) -> "Attribute":
        """Return a copy of this attribute with a different name."""
        return Attribute(new_name, self.type, self.nullable)


class TableSchema:
    """An ordered collection of attributes with an optional primary key."""

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute],
        *,
        primary_key: Iterable[str] | None = None,
    ) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.attributes: tuple[Attribute, ...] = tuple(attributes)
        if not self.attributes:
            raise SchemaError(f"table {name!r} must have at least one attribute")
        names = [attribute.name for attribute in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate attribute names")
        self._by_name = {attribute.name: attribute for attribute in self.attributes}
        self._index = {attribute.name: i for i, attribute in enumerate(self.attributes)}
        self.primary_key: tuple[str, ...] = tuple(primary_key or ())
        for column in self.primary_key:
            if column not in self._by_name:
                raise SchemaError(
                    f"primary key column {column!r} is not an attribute of table {name!r}"
                )

    # ------------------------------------------------------------------ access
    @property
    def attribute_names(self) -> tuple[str, ...]:
        """The attribute names in declaration order."""
        return tuple(attribute.name for attribute in self.attributes)

    @property
    def arity(self) -> int:
        """The number of attributes (the edit cost of inserting/deleting a tuple)."""
        return len(self.attributes)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute named *name* (raises :class:`SchemaError` if absent)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no attribute {name!r}") from None

    def has_attribute(self, name: str) -> bool:
        """Whether an attribute with this name exists."""
        return name in self._by_name

    def index_of(self, name: str) -> int:
        """Positional index of the attribute named *name*."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no attribute {name!r}") from None

    def qualified_names(self) -> tuple[str, ...]:
        """All attribute names qualified with this table's name."""
        return tuple(qualify(self.name, attribute.name) for attribute in self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.primary_key == other.primary_key
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes, self.primary_key))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        columns = ", ".join(f"{a.name}:{a.type.value}" for a in self.attributes)
        return f"TableSchema({self.name}: {columns})"


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key reference from child columns to parent columns."""

    child_table: str
    child_columns: tuple[str, ...]
    parent_table: str
    parent_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.child_columns) != len(self.parent_columns):
            raise SchemaError("foreign key must reference the same number of columns")
        if not self.child_columns:
            raise SchemaError("foreign key must reference at least one column")

    @property
    def name(self) -> str:
        """A readable identifier for the foreign key."""
        child = ",".join(self.child_columns)
        parent = ",".join(self.parent_columns)
        return f"{self.child_table}({child})->{self.parent_table}({parent})"

    def column_pairs(self) -> tuple[tuple[str, str], ...]:
        """``(child_column, parent_column)`` pairs."""
        return tuple(zip(self.child_columns, self.parent_columns))


class DatabaseSchema:
    """The schema of a database: tables and foreign keys.

    The *foreign-key join graph* is undirected: its nodes are table names and
    its edges are foreign keys. Both the QBO join enumerator (Section 4) and
    the QFE full foreign-key join (Section 5) traverse it, through
    :meth:`is_join_connected` (a breadth-first search) and
    :meth:`spanning_foreign_keys` (a union-find Kruskal): plain Python ports
    of networkx's ``is_connected`` and Kruskal ``minimum_spanning_tree``,
    edge order included. The spanning tree's order sets the foreign-key
    join's attach order, and with it the joined row order.
    """

    def __init__(
        self,
        tables: Iterable[TableSchema],
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> None:
        self.tables: dict[str, TableSchema] = {}
        for table in tables:
            if table.name in self.tables:
                raise SchemaError(f"duplicate table name {table.name!r}")
            self.tables[table.name] = table
        self.foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys)
        for fk in self.foreign_keys:
            self._validate_foreign_key(fk)

    def _validate_foreign_key(self, fk: ForeignKey) -> None:
        if fk.child_table not in self.tables:
            raise SchemaError(f"foreign key references unknown child table {fk.child_table!r}")
        if fk.parent_table not in self.tables:
            raise SchemaError(f"foreign key references unknown parent table {fk.parent_table!r}")
        child = self.tables[fk.child_table]
        parent = self.tables[fk.parent_table]
        for child_column, parent_column in fk.column_pairs():
            if not child.has_attribute(child_column):
                raise SchemaError(
                    f"foreign key column {child_column!r} missing from {fk.child_table!r}"
                )
            if not parent.has_attribute(parent_column):
                raise SchemaError(
                    f"foreign key column {parent_column!r} missing from {fk.parent_table!r}"
                )

    # ------------------------------------------------------------------ access
    @property
    def table_names(self) -> tuple[str, ...]:
        """Names of all tables in declaration order."""
        return tuple(self.tables)

    def table(self, name: str) -> TableSchema:
        """The table schema named *name* (raises :class:`SchemaError` if absent)."""
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"database has no table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name in self.tables

    def foreign_keys_between(self, left: str, right: str) -> tuple[ForeignKey, ...]:
        """Foreign keys connecting the two tables, in either direction."""
        return tuple(
            fk
            for fk in self.foreign_keys
            if {fk.child_table, fk.parent_table} == {left, right}
        )

    def resolve_attribute(self, name: str) -> tuple[str, str]:
        """Resolve a possibly-qualified attribute name to ``(table, column)``.

        Unqualified names are resolved by searching all tables; ambiguity or
        absence raises :class:`SchemaError`.
        """
        table, column = split_qualified(name)
        if table is not None:
            self.table(table).attribute(column)
            return table, column
        owners = [t.name for t in self.tables.values() if t.has_attribute(column)]
        if not owners:
            raise SchemaError(f"no table has an attribute named {column!r}")
        if len(owners) > 1:
            raise SchemaError(
                f"attribute {column!r} is ambiguous between tables {sorted(owners)}"
            )
        return owners[0], column

    # ------------------------------------------------------------- join graph
    def is_join_connected(self, table_names: Iterable[str]) -> bool:
        """Whether the given tables form a connected subgraph of the join graph.

        The names must be distinct known tables: a repeated or unknown name
        makes the answer ``False``, as does an empty list.
        """
        names = list(table_names)
        nodes = set(names)
        if not names or len(nodes) != len(names) or not nodes <= self.tables.keys():
            return False
        neighbours: dict[str, set[str]] = {name: set() for name in names}
        for fk in self.foreign_keys:
            if fk.child_table in nodes and fk.parent_table in nodes:
                neighbours[fk.child_table].add(fk.parent_table)
                neighbours[fk.parent_table].add(fk.child_table)
        reached = [names[0]]
        for table in reached:  # a breadth-first search: the list is its queue
            for neighbour in neighbours[table].difference(reached):
                reached.append(neighbour)
        return len(reached) == len(nodes)

    def spanning_foreign_keys(self, table_names: Iterable[str]) -> tuple[ForeignKey, ...]:
        """A set of foreign keys forming a spanning tree over *table_names*.

        Kruskal's algorithm with unit weights walks the tables' adjacency
        edges in ``networkx.Graph.edges()`` order (each table in first-seen
        order, its neighbours in the order their edges were added) and keeps
        an edge that joins two components. The tree's edges come back in the
        same walk order over the tree, and each edge stands for the first
        schema foreign key between its two tables. Raises
        :class:`SchemaError` when the tables are not join-connected.
        """
        names = list(dict.fromkeys(table_names))
        if not self.is_join_connected(names):
            raise SchemaError(f"tables {names} are not connected by foreign keys")
        if len(names) <= 1:
            return ()
        adjacency: dict[str, list[str]] = {}
        for left in names:
            for right in names:
                if left < right and self.foreign_keys_between(left, right):
                    adjacency.setdefault(left, []).append(right)
                    adjacency.setdefault(right, []).append(left)
        component = {name: name for name in names}

        def find(name: str) -> str:
            while component[name] != name:
                component[name] = component[component[name]]
                name = component[name]
            return name

        tree: dict[str, list[str]] = {name: [] for name in adjacency}
        for left, right in _edges(adjacency):
            left_root, right_root = find(left), find(right)
            if left_root != right_root:
                component[left_root] = right_root
                tree[left].append(right)
                tree[right].append(left)
        return tuple(self.foreign_keys_between(left, right)[0] for left, right in _edges(tree))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return self.tables == other.tables and set(self.foreign_keys) == set(other.foreign_keys)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DatabaseSchema(tables={list(self.tables)}, foreign_keys={len(self.foreign_keys)})"


def _edges(adjacency: dict[str, list[str]]) -> Iterator[tuple[str, str]]:
    """Each undirected edge once, in ``networkx.Graph.edges()`` order.

    Nodes are walked in insertion order and each yields its neighbours in
    insertion order, skipping the nodes already walked.
    """
    walked: set[str] = set()
    for node, neighbours in adjacency.items():
        for neighbour in neighbours:
            if neighbour not in walked:
                yield node, neighbour
        walked.add(node)
