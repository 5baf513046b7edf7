"""Foreign-key joins: columns, base-tuple ids and join indexes.

The QFE Database Generator operates over ``T``, the foreign-key join of the
database's relations (Section 5), and uses a *join index* per foreign key to
track which joined rows are affected when a single base tuple is modified
(Section 5.4.1). :class:`JoinedRelation` bundles:

* the joined schema, whose columns carry qualified ``table.column`` names;
* the joined rows, stored once, column by column, in a
  :class:`~repro.relational.columnar.ColumnarView`;
* one id column per table: ``tuple_ids[table][i]`` is the base ``tuple_id``
  joined row ``i`` took from ``table``;
* the inverse join index: ``(table, tuple_id) → joined row positions``,
  built on first use.

Joins are performed along a spanning tree of the schema's foreign-key graph,
which is how the paper's workloads (a chain of 2 and a chain/star of 3
relations) compose.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Sequence

from repro.exceptions import SchemaError
from repro.obs.registry import RegistryStats
from repro.relational.columnar import ColumnarView
from repro.relational.database import Database
from repro.relational.relation import Relation, Tuple
from repro.relational.schema import Attribute, ForeignKey, TableSchema, qualify
from repro.relational.types import values_equal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (delta imports nothing here)
    from repro.relational.delta import TupleDelta

__all__ = ["JoinedRelation", "JoinMaintenanceStats", "JOIN_STATS", "foreign_key_join", "full_join"]


class JoinMaintenanceStats(RegistryStats):
    """Process-wide counters instrumenting join construction vs maintenance.

    ``full_joins`` counts cold :func:`foreign_key_join` materializations;
    ``delta_applies`` counts incremental :meth:`JoinedRelation.apply_delta`
    derivations. The benchmark regression guard pins the delta-derive
    evaluation path to *zero* full rebuilds, so a silent fallback to cold
    behaviour fails a fast test instead of only showing up as a slow bench.

    Registry-backed: the values live in ``qfe_join_*`` counters of the
    process-wide metrics registry, so the Prometheus endpoint sees them.
    Count with :meth:`~repro.obs.registry.RegistryStats.add`, which is
    atomic; ``JOIN_STATS.full_joins += 1`` reads, then sets, and loses
    increments made by other threads in between.
    """

    _PREFIX = "qfe_join"
    _FIELDS = ("full_joins", "delta_applies")
    _HELP = {
        "full_joins": "Cold foreign-key join materializations.",
        "delta_applies": "Incremental join derivations via apply_delta.",
    }

    def snapshot(self) -> tuple[int, int]:
        """``(full_joins, delta_applies)`` at this moment."""
        return (self.full_joins, self.delta_applies)


#: Module-level instrumentation shared by all joins in the process.
JOIN_STATS = JoinMaintenanceStats()


@dataclass
class JoinedRelation:
    """A materialized foreign-key join: its columns, base-tuple ids and join index."""

    schema: TableSchema
    tables: tuple[str, ...]
    foreign_keys: tuple[ForeignKey, ...]
    tuple_ids: dict[str, tuple[int, ...]]
    view: ColumnarView

    def __post_init__(self) -> None:
        # The inverse join index is built on first use: candidate generation
        # reads only columns, never base-tuple positions.
        self._join_index: dict[tuple[str, int], list[int]] | None = None
        self._base_rows: dict[str, dict[int, tuple[Any, ...]]] = {}

    # ----------------------------------------------------------------- access
    def columnar(self) -> ColumnarView:
        """The join's columns and their shared term-mask cache."""
        return self.view

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Qualified column names of the joined relation."""
        return self.schema.attribute_names

    def __len__(self) -> int:
        return self.view.row_count

    def base_tuple_of(self, position: int, table: str) -> int:
        """The base ``tuple_id`` in *table* that produced joined row *position*."""
        try:
            return self.tuple_ids[table][position]
        except KeyError:
            raise SchemaError(f"table {table!r} does not participate in this join") from None

    def _positions_index(self) -> dict[tuple[str, int], list[int]]:
        """``(table, tuple_id) -> joined row positions``, built once from the id columns."""
        if self._join_index is None:
            index: dict[tuple[str, int], list[int]] = {}
            for table, ids in self.tuple_ids.items():
                for position, tuple_id in enumerate(ids):
                    index.setdefault((table, tuple_id), []).append(position)
            self._join_index = index
        return self._join_index

    def joined_positions_of(self, table: str, tuple_id: int) -> tuple[int, ...]:
        """All joined row positions derived from the given base tuple (join index)."""
        return tuple(self._positions_index().get((table, tuple_id), ()))

    def fanout_of(self, table: str, tuple_id: int) -> int:
        """How many joined rows a base tuple contributes to (its side-effect width)."""
        return len(self._positions_index().get((table, tuple_id), ()))

    # ---------------------------------------------------------- delta support
    def _join_column_positions(self, database: Database, table: str) -> tuple[int, ...]:
        """Positions (within *table*'s own schema) of its spanning-FK join columns."""
        schema = database.schema.table(table)
        columns: set[str] = set()
        for fk in self.foreign_keys:
            if fk.child_table == table:
                columns.update(fk.child_columns)
            if fk.parent_table == table:
                columns.update(fk.parent_columns)
        return tuple(sorted(schema.index_of(c) for c in columns))

    def _base_row_map(self, database: Database, table: str) -> dict[int, tuple[Any, ...]]:
        """``tuple_id -> values`` over *table*'s base contents, memoized.

        The map reflects the base instance this join was materialized from
        (which delta application never mutates), so it is built once per
        table and amortized across every delta applied to this join —
        keeping each application O(|Δ|) after the first.
        """
        rows = self._base_rows.get(table)
        if rows is None:
            rows = {t.tuple_id: t.values for t in database.relation(table).tuples}
            self._base_rows[table] = rows
        return rows

    def apply_delta(self, delta: "TupleDelta", database: Database) -> "JoinedRelation":
        """Derive the join of the delta-modified database by patching this one.

        *database* must be the **base** instance this join was materialized
        from; *delta* describes how the derived database differs from it. The
        result equals ``foreign_key_join(derived_database, self.tables)``,
        row for row: each update patches the cells of the joined rows the join
        index attributes to its tuple, and the derived join shares its schema,
        id columns and join index with this one.

        A delta only ever changes non-key cells, so no joined row appears or
        disappears; an update that changes a spanning foreign-key join column
        is refused with :class:`SchemaError`. Updates of tables outside this
        join cannot affect it and are ignored.

        The derived view (columns and cached term masks) is patched
        copy-on-write, see
        :meth:`~repro.relational.columnar.ColumnarView.derive`.
        """
        JOIN_STATS.add(delta_applies=1)
        self._positions_index()  # built here so every derived join shares it
        patches: dict[int, dict[int, Any]] = {}
        end = 0  # each table's columns start where the previous table's end
        for table in self.tables:
            start, end = end, end + database.schema.table(table).arity
            updates = delta.updates_for(table)
            if not updates:
                continue
            base_rows = self._base_row_map(database, table)
            join_positions = self._join_column_positions(database, table)
            for tuple_id, new_values in updates.items():
                old_values = base_rows.get(tuple_id)
                if old_values is None:
                    raise SchemaError(f"delta updates unknown tuple {tuple_id} of {table!r}")
                changed_cells = {
                    start + index: new
                    for index, (old, new) in enumerate(zip(old_values, new_values))
                    if not values_equal(old, new)
                }
                if not changed_cells:
                    continue  # no-op update
                if any(start + p in changed_cells for p in join_positions):
                    raise SchemaError(
                        f"delta changes a join column of tuple {tuple_id} of {table!r}; "
                        "only non-key cells may change"
                    )
                for position in self.joined_positions_of(table, tuple_id):
                    patches.setdefault(position, {}).update(changed_cells)
        derived = JoinedRelation(
            self.schema, self.tables, self.foreign_keys, self.tuple_ids, self.view.derive(patches)
        )
        derived._join_index = self._join_index
        return derived


def _joined_schema(name: str, database: Database, tables: Sequence[str]) -> TableSchema:
    attributes: list[Attribute] = []
    for table in tables:
        for attribute in database.schema.table(table).attributes:
            attributes.append(attribute.renamed(qualify(table, attribute.name)))
    return TableSchema(name, attributes)


def foreign_key_join(database: Database, tables: Sequence[str]) -> JoinedRelation:
    """Materialize the foreign-key join of *tables* in join-graph order.

    The join follows a spanning tree of foreign keys connecting the tables; a
    single table yields a trivially joined relation. Raises
    :class:`SchemaError` if the tables are not connected by foreign keys.
    Joined rows are the base rows' value tuples concatenated, so every cell
    is the base relation's already-coerced value; join keys compare raw
    values (exact for integers beyond 2^53).
    """
    JOIN_STATS.add(full_joins=1)
    ordered = list(dict.fromkeys(tables))
    if not ordered:
        raise SchemaError("cannot join an empty list of tables")
    for table in ordered:
        database.schema.table(table)
    spanning = database.schema.spanning_foreign_keys(ordered)
    schema = _joined_schema("_JOIN_".join(ordered), database, ordered)

    # Start with the first table, then repeatedly attach a table connected by
    # a spanning foreign key to the already-joined set. Rows are value tuples
    # in attach order, and so are their base-tuple ids; ``offsets`` is where
    # each attached table's columns start.
    first_relation = database.relation(ordered[0])
    rows: list[tuple[Any, ...]] = [t.values for t in first_relation.tuples]
    row_ids: list[tuple[int, ...]] = [(t.tuple_id,) for t in first_relation.tuples]
    offsets = {ordered[0]: 0}
    width = first_relation.schema.arity
    remaining_fks = list(spanning)
    while len(offsets) < len(ordered):
        for fk in remaining_fks:
            if fk.child_table in offsets and fk.parent_table not in offsets:
                new_table, existing_table = fk.parent_table, fk.child_table
                pairs = [(parent, child) for child, parent in fk.column_pairs()]
            elif fk.parent_table in offsets and fk.child_table not in offsets:
                new_table, existing_table = fk.child_table, fk.parent_table
                pairs = [(child, parent) for child, parent in fk.column_pairs()]
            else:
                continue
            break
        else:  # pragma: no cover - guarded by is_join_connected
            raise SchemaError(f"tables {ordered} are not connected by foreign keys")
        existing = database.schema.table(existing_table)
        key_positions = [offsets[existing_table] + existing.index_of(c) for _, c in pairs]
        new_relation = database.relation(new_table)
        rows, row_ids = _attach_table(
            rows, row_ids, key_positions, new_relation, [new for new, _ in pairs]
        )
        offsets[new_table] = width
        width += new_relation.schema.arity
        remaining_fks.remove(fk)

    attached = list(offsets)
    if attached != ordered:
        # Attached in another order than declared: permute every row once.
        arity = {table: database.schema.table(table).arity for table in ordered}
        pick = itemgetter(*(offsets[t] + i for t in ordered for i in range(arity[t])))
        rows = [pick(row) for row in rows]
    id_columns = dict(zip(attached, zip(*row_ids))) if row_ids else dict.fromkeys(attached, ())
    return JoinedRelation(
        schema=schema,
        tables=tuple(ordered),
        foreign_keys=tuple(spanning),
        tuple_ids={table: id_columns[table] for table in ordered},
        view=ColumnarView(schema.attribute_names, rows),
    )


def _attach_table(
    rows: list[tuple[Any, ...]],
    row_ids: list[tuple[int, ...]],
    key_positions: Sequence[int],
    new_relation: Relation,
    new_columns: Sequence[str],
) -> tuple[list[tuple[Any, ...]], list[tuple[int, ...]]]:
    """Equi-join the accumulated rows with *new_relation* along the FK columns.

    ``row[key_positions[i]]`` must equal the new table's ``new_columns[i]``;
    a NULL key part matches nothing. Each joined row's id tuple is extended
    by the matched base tuple's ``tuple_id``.
    """
    new_key = itemgetter(*(new_relation.schema.index_of(c) for c in new_columns))
    row_key = itemgetter(*key_positions)
    single = len(key_positions) == 1
    index: dict[Any, list[Tuple]] = {}
    for base_tuple in new_relation.tuples:
        key = new_key(base_tuple.values)
        if (key is None) if single else (None in key):
            continue
        index.setdefault(key, []).append(base_tuple)

    joined_rows: list[tuple[Any, ...]] = []
    joined_ids: list[tuple[int, ...]] = []
    for row, ids in zip(rows, row_ids):
        # A key with a NULL part is never indexed, so it finds no match.
        for match in index.get(row_key(row), ()):
            joined_rows.append(row + match.values)
            joined_ids.append(ids + (match.tuple_id,))
    return joined_rows, joined_ids


def full_join(database: Database) -> JoinedRelation:
    """The foreign-key join of *all* relations in the database (the paper's ``T``)."""
    return foreign_key_join(database, database.table_names)
