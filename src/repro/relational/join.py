"""Foreign-key joins with provenance and join indexes.

The QFE Database Generator operates over ``T``, the foreign-key join of the
database's relations (Section 5), and uses a *join index* per foreign key to
track which joined rows are affected when a single base tuple is modified
(Section 5.4.1). :class:`JoinedRelation` bundles:

* the joined :class:`~repro.relational.relation.Relation` whose columns carry
  qualified ``table.column`` names;
* per-row *provenance*: for every joined row, the base ``tuple_id`` it took
  from each participating table;
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
    """A materialized foreign-key join with provenance and a join index."""

    relation: Relation
    tables: tuple[str, ...]
    foreign_keys: tuple[ForeignKey, ...]
    provenance: list[dict[str, int]]

    def __post_init__(self) -> None:
        # The inverse join index is built on first use: candidate generation
        # reads only rows and columns, never base-tuple positions.
        self._join_index: dict[tuple[str, int], list[int]] | None = None
        self._columnar = None
        self._base_rows: dict[str, dict[int, tuple[Any, ...]]] = {}
        self._column_offsets: dict[str, int] | None = None

    # --------------------------------------------------------------- columnar
    def columnar(self):
        """The (lazily built, memoized) columnar view of the joined relation.

        The view snapshots the joined tuples and carries the shared term-mask
        cache; call :meth:`invalidate_columnar` if the joined relation is ever
        mutated after the view was built.
        """
        if self._columnar is None:
            from repro.relational.columnar import ColumnarView  # avoid import cycle

            self._columnar = ColumnarView(self.relation)
        return self._columnar

    def invalidate_columnar(self) -> None:
        """Drop the memoized columnar view (and its term-mask cache)."""
        self._columnar = None

    # ----------------------------------------------------------------- access
    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Qualified column names of the joined relation."""
        return self.relation.schema.attribute_names

    def __len__(self) -> int:
        return len(self.relation)

    def base_tuple_of(self, position: int, table: str) -> int:
        """The base ``tuple_id`` in *table* that produced joined row *position*."""
        try:
            return self.provenance[position][table]
        except KeyError:
            raise SchemaError(f"table {table!r} does not participate in this join") from None

    def _positions_index(self) -> dict[tuple[str, int], list[int]]:
        """``(table, tuple_id) -> joined row positions``, built once from the provenance."""
        if self._join_index is None:
            index: dict[tuple[str, int], list[int]] = {}
            for position, row_provenance in enumerate(self.provenance):
                for table, tuple_id in row_provenance.items():
                    index.setdefault((table, tuple_id), []).append(position)
            self._join_index = index
        return self._join_index

    def joined_positions_of(self, table: str, tuple_id: int) -> tuple[int, ...]:
        """All joined row positions derived from the given base tuple (join index)."""
        return tuple(self._positions_index().get((table, tuple_id), ()))

    def fanout_of(self, table: str, tuple_id: int) -> int:
        """How many joined rows a base tuple contributes to (its side-effect width)."""
        return len(self._positions_index().get((table, tuple_id), ()))

    def owning_table_of(self, qualified_attribute: str) -> str:
        """The base table owning a qualified joined column."""
        table, _, _ = qualified_attribute.partition(".")
        if table not in self.tables:
            raise SchemaError(f"attribute {qualified_attribute!r} is not part of this join")
        return table

    # ---------------------------------------------------------- delta support
    def _offsets(self) -> dict[str, int]:
        """Start position of each table's columns within the joined schema."""
        if self._column_offsets is None:
            offsets: dict[str, int] = {}
            position = 0
            for table in self.tables:
                offsets[table] = position
                prefix = f"{table}."
                position += sum(1 for name in self.attribute_names if name.startswith(prefix))
            self._column_offsets = offsets
        return self._column_offsets

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
        row for row: each update patches the joined rows the join index
        attributes to its tuple in place, and the derived join shares every
        untouched tuple, the provenance and the join index with this one.

        A delta only ever changes non-key cells, so no joined row appears or
        disappears; an update that changes a spanning foreign-key join column
        is refused with :class:`SchemaError`. Updates of tables outside this
        join cannot affect it and are ignored.

        The columnar view (columns and cached term masks) is derived
        copy-on-write alongside, see
        :meth:`~repro.relational.columnar.ColumnarView.derive`.
        """
        JOIN_STATS.add(delta_applies=1)
        self._positions_index()  # built here so every derived join shares it
        offsets = self._offsets()
        patches: dict[int, dict[int, Any]] = {}
        for table in self.tables:
            updates = delta.updates_for(table)
            if not updates:
                continue
            base_rows = self._base_row_map(database, table)
            join_positions = self._join_column_positions(database, table)
            offset = offsets[table]
            for tuple_id, new_values in updates.items():
                old_values = base_rows.get(tuple_id)
                if old_values is None:
                    raise SchemaError(f"delta updates unknown tuple {tuple_id} of {table!r}")
                changed_cells = {
                    offset + index: new
                    for index, (old, new) in enumerate(zip(old_values, new_values))
                    if not values_equal(old, new)
                }
                if not changed_cells:
                    continue  # no-op update
                if any(offset + p in changed_cells for p in join_positions):
                    raise SchemaError(
                        f"delta changes a join column of tuple {tuple_id} of {table!r}; "
                        "only non-key cells may change"
                    )
                for position in self.joined_positions_of(table, tuple_id):
                    patches.setdefault(position, {}).update(changed_cells)
        return self._build_derived(patches)

    def _build_derived(self, patches: dict[int, dict[int, Any]]) -> "JoinedRelation":
        new_tuples = list(self.relation.tuples)
        for position, cells in patches.items():
            values = list(new_tuples[position].values)
            for index, value in cells.items():
                values[index] = value
            new_tuples[position] = Tuple(values, new_tuples[position].tuple_id)

        derived = JoinedRelation.__new__(JoinedRelation)
        derived.relation = Relation.adopt_tuples(self.relation.schema, new_tuples)
        derived.tables = self.tables
        derived.foreign_keys = self.foreign_keys
        derived.provenance = self.provenance
        derived._join_index = self._join_index
        derived._base_rows = {}
        derived._column_offsets = self._column_offsets

        # Derive the columnar view copy-on-write from the base view; building
        # the base view here is amortized — the cache shares it across every
        # delta derived from this join.
        derived._columnar = self.columnar().derive(patches)
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
    # in attach order; ``offsets`` is where each attached table's columns start.
    first_relation = database.relation(ordered[0])
    rows: list[tuple[Any, ...]] = [t.values for t in first_relation.tuples]
    provenance: list[dict[str, int]] = [{ordered[0]: t.tuple_id} for t in first_relation.tuples]
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
        rows, provenance = _attach_table(
            rows, provenance, key_positions, new_relation, new_table, [new for new, _ in pairs]
        )
        offsets[new_table] = width
        width += new_relation.schema.arity
        remaining_fks.remove(fk)

    if list(offsets) != ordered:
        # Attached in another order than declared: permute every row once.
        arity = {table: database.schema.table(table).arity for table in ordered}
        pick = itemgetter(*(offsets[t] + i for t in ordered for i in range(arity[t])))
        rows = [pick(row) for row in rows]
    relation = Relation(schema)
    relation.extend_raw(rows)
    return JoinedRelation(
        relation=relation,
        tables=tuple(ordered),
        foreign_keys=tuple(spanning),
        provenance=provenance,
    )


def _attach_table(
    rows: list[tuple[Any, ...]],
    provenance: list[dict[str, int]],
    key_positions: Sequence[int],
    new_relation: Relation,
    new_table: str,
    new_columns: Sequence[str],
) -> tuple[list[tuple[Any, ...]], list[dict[str, int]]]:
    """Equi-join the accumulated rows with *new_relation* along the FK columns.

    ``row[key_positions[i]]`` must equal the new table's ``new_columns[i]``;
    a NULL key part matches nothing.
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
    joined_provenance: list[dict[str, int]] = []
    for row, row_provenance in zip(rows, provenance):
        # A key with a NULL part is never indexed, so it finds no match.
        for match in index.get(row_key(row), ()):
            joined_rows.append(row + match.values)
            joined_provenance.append({**row_provenance, new_table: match.tuple_id})
    return joined_rows, joined_provenance


def full_join(database: Database) -> JoinedRelation:
    """The foreign-key join of *all* relations in the database (the paper's ``T``)."""
    return foreign_key_join(database, database.table_names)
