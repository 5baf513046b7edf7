"""Foreign-key joins with provenance and join indexes.

The QFE Database Generator operates over ``T``, the foreign-key join of the
database's relations (Section 5), and uses a *join index* per foreign key to
track which joined rows are affected when a single base tuple is modified
(Section 5.4.1). :class:`JoinedRelation` bundles:

* the joined :class:`~repro.relational.relation.Relation` whose columns carry
  qualified ``table.column`` names;
* per-row *provenance*: for every joined row, the base ``tuple_id`` it took
  from each participating table;
* the inverse join index: ``(table, tuple_id) → joined row positions``.

Joins are performed along a spanning tree of the schema's foreign-key graph,
which is how the paper's workloads (a chain of 2 and a chain/star of 3
relations) compose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

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
    process-wide metrics registry, so the Prometheus endpoint sees them —
    while every historical call site (``JOIN_STATS.full_joins += 1``) keeps
    working unchanged.
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
        self._join_index: dict[tuple[str, int], list[int]] = {}
        for position, row_provenance in enumerate(self.provenance):
            for table, tuple_id in row_provenance.items():
                self._join_index.setdefault((table, tuple_id), []).append(position)
        self._columnar = None
        self._attach_indexes: dict[tuple[str, tuple[str, ...]], dict[tuple, list]] = {}
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

    def row_as_mapping(self, position: int) -> dict[str, Any]:
        """Joined row at *position* as a mapping from qualified name to value."""
        names = self.relation.schema.attribute_names
        return dict(zip(names, self.relation.tuples[position].values))

    def rows_as_mappings(self) -> list[dict[str, Any]]:
        """All joined rows as mappings (used by predicate evaluation)."""
        names = self.relation.schema.attribute_names
        return [dict(zip(names, t.values)) for t in self.relation.tuples]

    def base_tuple_of(self, position: int, table: str) -> int:
        """The base ``tuple_id`` in *table* that produced joined row *position*."""
        try:
            return self.provenance[position][table]
        except KeyError:
            raise SchemaError(f"table {table!r} does not participate in this join") from None

    def joined_positions_of(self, table: str, tuple_id: int) -> tuple[int, ...]:
        """All joined row positions derived from the given base tuple (join index)."""
        return tuple(self._join_index.get((table, tuple_id), ()))

    def fanout_of(self, table: str, tuple_id: int) -> int:
        """How many joined rows a base tuple contributes to (its side-effect width)."""
        return len(self._join_index.get((table, tuple_id), ()))

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

    def _attach_index(
        self, database: Database, table: str, column_positions: tuple[int, ...]
    ) -> dict[tuple, list[tuple[int, tuple[Any, ...]]]]:
        """``join key -> [(tuple_id, values)]`` over *table*'s base contents.

        Built lazily once per ``(table, key columns)`` and memoized on the
        joined relation, so repeated delta applications against the same base
        pay O(|Δ|) lookups, not O(|table|) rebuilds. *database* must be the
        instance this join was materialized from.
        """
        cache_key = (table, column_positions)
        index = self._attach_indexes.get(cache_key)
        if index is None:
            index = {}
            for base_tuple in database.relation(table).tuples:
                key = tuple(_norm(base_tuple.values[p]) for p in column_positions)
                if any(part is None for part in key):
                    continue
                index.setdefault(key, []).append((base_tuple.tuple_id, base_tuple.values))
            self._attach_indexes[cache_key] = index
        return index

    def _base_row_map(self, database: Database, table: str) -> dict[int, tuple[Any, ...]]:
        """``tuple_id -> values`` over *table*'s base contents, memoized.

        Like the attach indexes, the map reflects the base instance this join
        was materialized from (which delta application never mutates), so it
        is built once per table and amortized across every delta applied to
        this join — keeping each application O(|Δ|) after the first.
        """
        rows = self._base_rows.get(table)
        if rows is None:
            rows = {t.tuple_id: t.values for t in database.relation(table).tuples}
            self._base_rows[table] = rows
        return rows

    def _seed_plan(
        self, database: Database, seed_table: str
    ) -> list[tuple[str, tuple[int, ...], str, tuple[int, ...]]]:
        """BFS attach order from *seed_table* over the spanning foreign keys.

        Each step is ``(covered_table, covered key positions, new_table, new
        key positions)`` with positions local to the respective table schema;
        following the steps extends a single seed tuple to full joined rows.
        """
        adjacency: dict[str, list[tuple[str, list[tuple[str, str]]]]] = {t: [] for t in self.tables}
        for fk in self.foreign_keys:
            pairs = list(fk.column_pairs())  # (child_column, parent_column)
            adjacency[fk.child_table].append(
                (fk.parent_table, [(child, parent) for child, parent in pairs])
            )
            adjacency[fk.parent_table].append(
                (fk.child_table, [(parent, child) for child, parent in pairs])
            )
        plan: list[tuple[str, tuple[int, ...], str, tuple[int, ...]]] = []
        covered = {seed_table}
        frontier = [seed_table]
        while frontier:
            source = frontier.pop(0)
            source_schema = database.schema.table(source)
            for destination, pairs in adjacency[source]:
                if destination in covered:
                    continue
                destination_schema = database.schema.table(destination)
                plan.append(
                    (
                        source,
                        tuple(source_schema.index_of(s) for s, _ in pairs),
                        destination,
                        tuple(destination_schema.index_of(d) for _, d in pairs),
                    )
                )
                covered.add(destination)
                frontier.append(destination)
        return plan

    def apply_delta(self, delta: "TupleDelta", database: Database) -> "JoinedRelation":
        """Derive the join of the delta-modified database by patching this one.

        *database* must be the **base** instance this join was materialized
        from; *delta* describes how the derived database differs from it. The
        result equals ``foreign_key_join(derived_database, self.tables)`` up
        to row order, but is computed incrementally:

        * updates that leave every join column untouched patch the affected
          joined rows in place (via the join index), sharing all untouched
          tuples, the provenance and the join index with the base;
        * deletes (and the removal side of join-column rewrites) drop exactly
          the joined rows the join index attributes to the tuple;
        * inserts (and the re-insertion side of join-column rewrites) expand
          a single seed tuple along the spanning foreign-key tree, looking up
          matches through memoized base-side attach indexes adjusted by the
          delta — fanout-aware and O(|Δ| · fanout), never a full re-join.

        The columnar view (columns and cached term masks) is derived
        copy-on-write alongside, see
        :meth:`~repro.relational.columnar.ColumnarView.derive`.
        """
        JOIN_STATS.delta_applies += 1
        offsets = self._offsets()
        patches: dict[int, dict[int, Any]] = {}
        removed: set[int] = set()
        pending: dict[str, list[tuple[int, tuple[Any, ...]]]] = {t: [] for t in self.tables}
        deleted_ids: dict[str, set[int]] = {t: set() for t in self.tables}
        rewritten_ids: dict[str, set[int]] = {t: set() for t in self.tables}
        visible_updates: dict[str, dict[int, tuple[Any, ...]]] = {t: {} for t in self.tables}

        # Phase 1 — classify the delta per participating table. Ops on tables
        # outside this join cannot affect it and are ignored.
        for table in self.tables:
            deletes = delta.deletes_for(table)
            updates = delta.updates_for(table)
            inserts = delta.inserts_for(table)
            if not deletes and not updates and not inserts:
                continue
            base_rows = self._base_row_map(database, table)
            join_positions = self._join_column_positions(database, table)
            for tuple_id in deletes:
                if tuple_id not in base_rows:
                    raise SchemaError(
                        f"delta deletes unknown tuple {tuple_id} of {table!r}"
                    )
                deleted_ids[table].add(tuple_id)
                removed.update(self.joined_positions_of(table, tuple_id))
            for tuple_id, new_values in updates.items():
                old_values = base_rows.get(tuple_id)
                if old_values is None:
                    raise SchemaError(
                        f"delta updates unknown tuple {tuple_id} of {table!r}"
                    )
                if any(
                    not values_equal(old_values[p], new_values[p]) for p in join_positions
                ):
                    # Join-column rewrite: the tuple leaves its current joined
                    # rows and re-attaches wherever its new key matches.
                    rewritten_ids[table].add(tuple_id)
                    removed.update(self.joined_positions_of(table, tuple_id))
                    pending[table].append((tuple_id, tuple(new_values)))
                    continue
                visible_updates[table][tuple_id] = tuple(new_values)
                offset = offsets[table]
                changed_cells = {
                    offset + index: new
                    for index, (old, new) in enumerate(zip(old_values, new_values))
                    if not values_equal(old, new)
                }
                if not changed_cells:
                    continue  # no-op update
                for position in self.joined_positions_of(table, tuple_id):
                    patches.setdefault(position, {}).update(changed_cells)
            for tuple_id, values in inserts.items():
                pending[table].append((tuple_id, tuple(values)))

        # Phase 2 — expand pending (re)insertions into new joined rows. Tables
        # are processed in join order; a table's own pending tuples only become
        # visible to *later* tables' expansions, so each new combination of
        # fresh tuples is produced exactly once.
        appended_rows: list[tuple[Any, ...]] = []
        appended_provenance: list[dict[str, int]] = []
        extra_visible: dict[str, list[tuple[int, tuple[Any, ...]]]] = {t: [] for t in self.tables}

        def visible_matches(
            table: str, column_positions: tuple[int, ...], key: tuple
        ) -> list[tuple[int, tuple[Any, ...]]]:
            matches: list[tuple[int, tuple[Any, ...]]] = []
            for tuple_id, values in self._attach_index(database, table, column_positions).get(key, ()):
                if tuple_id in deleted_ids[table] or tuple_id in rewritten_ids[table]:
                    continue
                updated = visible_updates[table].get(tuple_id)
                matches.append((tuple_id, updated if updated is not None else values))
            for tuple_id, values in extra_visible[table]:
                candidate_key = tuple(_norm(values[p]) for p in column_positions)
                if candidate_key == key:
                    matches.append((tuple_id, values))
            return matches

        for table in self.tables:
            if not pending[table]:
                continue
            plan = self._seed_plan(database, table)
            for tuple_id, values in pending[table]:
                partials: list[dict[str, tuple[int, tuple[Any, ...]]]] = [
                    {table: (tuple_id, values)}
                ]
                for source, source_positions, destination, destination_positions in plan:
                    expanded: list[dict[str, tuple[int, tuple[Any, ...]]]] = []
                    for partial in partials:
                        _, source_values = partial[source]
                        key = tuple(_norm(source_values[p]) for p in source_positions)
                        if any(part is None for part in key):
                            continue
                        for match in visible_matches(destination, destination_positions, key):
                            extended = dict(partial)
                            extended[destination] = match
                            expanded.append(extended)
                    partials = expanded
                    if not partials:
                        break
                for partial in partials:
                    row: list[Any] = []
                    provenance: dict[str, int] = {}
                    for member in self.tables:
                        member_id, member_values = partial[member]
                        row.extend(member_values)
                        provenance[member] = member_id
                    appended_rows.append(tuple(row))
                    appended_provenance.append(provenance)
            extra_visible[table].extend(pending[table])

        # Phase 3 — assemble the derived joined relation and columnar view.
        return self._build_derived(patches, removed, appended_rows, appended_provenance)

    def _build_derived(
        self,
        patches: dict[int, dict[int, Any]],
        removed: set[int],
        appended_rows: list[tuple[Any, ...]],
        appended_provenance: list[dict[str, int]],
    ) -> "JoinedRelation":
        base_tuples = self.relation.tuples
        structural = bool(removed or appended_rows)
        if not structural:
            new_tuples = list(base_tuples)
            for position, cells in patches.items():
                values = list(new_tuples[position].values)
                for index, value in cells.items():
                    values[index] = value
                new_tuples[position] = Tuple(values, new_tuples[position].tuple_id)
            provenance = self.provenance
            join_index = self._join_index
        else:
            new_tuples = []
            provenance = []
            next_id = 0
            for position, base_tuple in enumerate(base_tuples):
                if position in removed:
                    continue
                cells = patches.get(position)
                if cells:
                    values = list(base_tuple.values)
                    for index, value in cells.items():
                        values[index] = value
                    base_tuple = Tuple(values, base_tuple.tuple_id)
                new_tuples.append(base_tuple)
                provenance.append(self.provenance[position])
                if base_tuple.tuple_id is not None:
                    next_id = max(next_id, base_tuple.tuple_id + 1)
            for row, row_provenance in zip(appended_rows, appended_provenance):
                new_tuples.append(Tuple(row, next_id))
                provenance.append(row_provenance)
                next_id += 1
            join_index = None

        derived = JoinedRelation.__new__(JoinedRelation)
        derived.relation = Relation.adopt_tuples(self.relation.schema, new_tuples)
        derived.tables = self.tables
        derived.foreign_keys = self.foreign_keys
        derived.provenance = provenance
        if join_index is not None:
            derived._join_index = join_index
        else:
            derived._join_index = {}
            for position, row_provenance in enumerate(provenance):
                for table, tuple_id in row_provenance.items():
                    derived._join_index.setdefault((table, tuple_id), []).append(position)
        derived._attach_indexes = {}
        derived._base_rows = {}
        derived._column_offsets = self._column_offsets

        # Derive the columnar view copy-on-write from the base view; building
        # the base view here is amortized — the cache shares it across every
        # delta derived from this join.
        removed_ascending = sorted(removed)
        derived._columnar = self.columnar().derive(patches, removed_ascending, appended_rows)
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
    """
    JOIN_STATS.full_joins += 1
    ordered = list(dict.fromkeys(tables))
    if not ordered:
        raise SchemaError("cannot join an empty list of tables")
    for table in ordered:
        database.schema.table(table)
    spanning = database.schema.spanning_foreign_keys(ordered)
    join_name = "_JOIN_".join(ordered)
    schema = _joined_schema(join_name, database, ordered)

    # Start with the first table, then repeatedly attach a table connected by
    # a spanning foreign key to the already-joined set.
    joined_tables: list[str] = [ordered[0]]
    rows: list[dict[str, Any]] = []
    provenance: list[dict[str, int]] = []
    first_relation = database.relation(ordered[0])
    for base_tuple in first_relation.tuples:
        row = {
            qualify(ordered[0], name): value
            for name, value in zip(first_relation.schema.attribute_names, base_tuple.values)
        }
        rows.append(row)
        provenance.append({ordered[0]: base_tuple.tuple_id})

    remaining_fks = list(spanning)
    while len(joined_tables) < len(ordered):
        progressed = False
        for fk in list(remaining_fks):
            if fk.child_table in joined_tables and fk.parent_table not in joined_tables:
                new_table, existing_table, pairs = (
                    fk.parent_table,
                    fk.child_table,
                    [(parent, child) for child, parent in fk.column_pairs()],
                )
            elif fk.parent_table in joined_tables and fk.child_table not in joined_tables:
                new_table, existing_table, pairs = (
                    fk.child_table,
                    fk.parent_table,
                    [(child, parent) for child, parent in fk.column_pairs()],
                )
            else:
                continue
            rows, provenance = _attach_table(
                database, rows, provenance, existing_table, new_table, pairs
            )
            joined_tables.append(new_table)
            remaining_fks.remove(fk)
            progressed = True
            break
        if not progressed:  # pragma: no cover - guarded by is_join_connected
            raise SchemaError(f"tables {ordered} are not connected by foreign keys")

    relation = Relation(schema)
    ordered_names = schema.attribute_names
    for row in rows:
        relation.insert([row.get(name) for name in ordered_names])
    return JoinedRelation(
        relation=relation,
        tables=tuple(ordered),
        foreign_keys=tuple(spanning),
        provenance=provenance,
    )


def _attach_table(
    database: Database,
    rows: list[dict[str, Any]],
    provenance: list[dict[str, int]],
    existing_table: str,
    new_table: str,
    column_pairs: Iterable[tuple[str, str]],
) -> tuple[list[dict[str, Any]], list[dict[str, int]]]:
    """Equi-join the accumulated rows with *new_table* along the FK columns.

    ``column_pairs`` maps new-table columns to existing-table columns.
    """
    new_relation = database.relation(new_table)
    pairs = list(column_pairs)
    new_columns = [pair[0] for pair in pairs]
    existing_qualified = [qualify(existing_table, pair[1]) for pair in pairs]

    index: dict[tuple, list[Tuple]] = {}
    column_positions = [new_relation.schema.index_of(c) for c in new_columns]
    for base_tuple in new_relation.tuples:
        key = tuple(_norm(base_tuple.values[p]) for p in column_positions)
        if any(part is None for part in key):
            continue
        index.setdefault(key, []).append(base_tuple)

    attribute_names = new_relation.schema.attribute_names
    joined_rows: list[dict[str, Any]] = []
    joined_provenance: list[dict[str, int]] = []
    for row, row_provenance in zip(rows, provenance):
        key = tuple(_norm(row.get(name)) for name in existing_qualified)
        if any(part is None for part in key):
            continue
        for match in index.get(key, ()):
            combined = dict(row)
            for name, value in zip(attribute_names, match.values):
                combined[qualify(new_table, name)] = value
            joined_rows.append(combined)
            new_provenance = dict(row_provenance)
            new_provenance[new_table] = match.tuple_id
            joined_provenance.append(new_provenance)
    return joined_rows, joined_provenance


def _norm(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    return value


def full_join(database: Database) -> JoinedRelation:
    """The foreign-key join of *all* relations in the database (the paper's ``T``)."""
    return foreign_key_join(database, database.table_names)
