"""Materialize class-pair modifications into the ``TupleDelta`` of ``D'``.

A class pair ``(s, d)`` is abstract: "move some tuple from class ``s`` to
class ``d``". Materialization picks a concrete joined row in ``s``, maps each
changed selection attribute back to the owning base relation through the
join's base-tuple ids, chooses a concrete destination value from the
destination domain subset, and stages the change as an update of that base
tuple. The original database is only read: ``D'`` is ``D`` plus the recorded
:class:`~repro.relational.delta.TupleDelta`, and nothing copies ``D``.

Concrete choices follow the paper's preferences:

* modifications with **no side effects** are preferred — the chosen base
  tuple should contribute to exactly one joined row (Section 5.4.1);
* realistic values are preferred — destination subsets expose active-domain
  representative values before synthesized ones (the Olston-inspired
  philosophy of Section 1);
* primary-key and foreign-key columns are never modified, so ``D'`` keeps
  every key constraint ``D`` satisfies (Section 6.3) without re-checking the
  database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Container, Sequence

from repro.core.config import QFEConfig
from repro.core.modification import ClassPair
from repro.core.tuple_class import TupleClassSpace
from repro.exceptions import TypeMismatchError
from repro.relational.database import Database
from repro.relational.delta import TupleDelta
from repro.relational.types import AttributeType, coerce_value, values_equal

__all__ = ["AppliedModification", "MaterializationResult", "materialize_pairs"]


@dataclass(frozen=True)
class AppliedModification:
    """One concrete base-table cell change of ``D'``.

    ``new_value`` is the chosen value; the delta's row holds it coerced to
    the column's type.
    """

    table: str
    tuple_id: int
    column: str
    old_value: Any
    new_value: Any
    joined_positions: tuple[int, ...]

    @property
    def has_side_effects(self) -> bool:
        """Whether the change affects more than one joined row (Section 5.4.1)."""
        return len(self.joined_positions) > 1

    def describe(self) -> str:
        """A one-line description of the change."""
        return (
            f"{self.table}[id={self.tuple_id}].{self.column}: "
            f"{self.old_value!r} -> {self.new_value!r}"
        )


@dataclass
class MaterializationResult:
    """``D'`` as its :class:`~repro.relational.delta.TupleDelta` over ``D``,
    plus a record of every applied / skipped change.

    ``delta`` holds one update of non-key cells per modified base tuple.
    Candidate evaluation on ``D'`` patches the original database's cached
    join with it (``JoinCache.evaluate_batch(..., delta=...)``) and the
    Result Feedback module presents ``Δ(D, D')`` from it
    (:func:`~repro.relational.delta.database_delta`).
    """

    applied: list[AppliedModification] = field(default_factory=list)
    skipped_pairs: list[ClassPair] = field(default_factory=list)
    delta: TupleDelta = field(default_factory=TupleDelta)


def _protected_columns(database: Database, table: str) -> set[str]:
    schema = database.schema
    protected = set(schema.table(table).primary_key)
    for fk in schema.foreign_keys:
        if fk.child_table == table:
            protected.update(fk.child_columns)
        if fk.parent_table == table:
            protected.update(fk.parent_columns)
    return protected


def _candidate_rows_for_pair(
    space: TupleClassSpace,
    pair: ClassPair,
    used_base_tuples: Container[tuple[str, int]],
    prefer_no_side_effects: bool,
) -> list[int]:
    """Joined-row positions that could realize the pair, best candidates first."""
    joined = space.joined
    changed = space.changed_attributes(pair.source, pair.destination)
    candidates: list[tuple[tuple, int]] = []
    for position in space.rows_in_class(pair.source):
        fanouts = []
        conflict = False
        for attribute in changed:
            table = attribute.partition(".")[0]
            tuple_id = joined.base_tuple_of(position, table)
            if (table, tuple_id) in used_base_tuples:
                conflict = True
                break
            fanouts.append(joined.fanout_of(table, tuple_id))
        if conflict:
            continue
        max_fanout = max(fanouts) if fanouts else 1
        sort_key = (max_fanout, position) if prefer_no_side_effects else (0, position)
        candidates.append((sort_key, position))
    candidates.sort()
    return [position for _, position in candidates]


def _destination_values(
    space: TupleClassSpace,
    pair: ClassPair,
    current_value: Any,
    slot: int,
    column_type: AttributeType | None = None,
) -> list[Any]:
    """Candidate new values for one changed slot, preferred values first.

    Synthesized representatives of numeric domain blocks can be fractional;
    when the base column is integer-typed such a value is converted to the
    nearest integers that still fall in the destination block, so the
    modification remains type-correct.
    """
    attribute = space.selection_attributes[slot]
    partition = space.partitions[attribute]
    destination_index = pair.destination.subset_indexes[slot]
    subset = partition.subset(destination_index)
    values: list[Any] = []
    for value in subset.representatives:
        if values_equal(value, current_value):
            continue
        if (
            column_type is AttributeType.INTEGER
            and isinstance(value, float)
            and not float(value).is_integer()
        ):
            for rounded in (int(value), int(value) + 1):
                if (
                    partition.subset_of_value(rounded) == destination_index
                    and not values_equal(rounded, current_value)
                    and rounded not in values
                ):
                    values.append(rounded)
            continue
        values.append(value)
    return values


def materialize_pairs(
    space: TupleClassSpace,
    pairs: Sequence[ClassPair],
    original: Database,
    config: QFEConfig,
) -> MaterializationResult:
    """Stage a set of class pairs as the ``TupleDelta`` that turns *original* into ``D'``.

    *original* is only read. Pairs that cannot be realized (a changed key
    column, no available source row, no type-correct destination value) are
    recorded in ``skipped_pairs`` rather than failing the whole
    materialization.
    """
    result = MaterializationResult()
    # (table, tuple_id) -> the tuple's row in D', in first-change order. A
    # staged tuple is never chosen again, so every other row is the base row.
    staged: dict[tuple[str, int], list[Any]] = {}

    for pair in pairs:
        changed_attributes = space.changed_attributes(pair.source, pair.destination)
        # A pair that changes a key column is unrealizable.
        if any(
            column in _protected_columns(original, table)
            for table, _, column in (a.partition(".") for a in changed_attributes)
        ):
            result.skipped_pairs.append(pair)
            continue

        applied_for_pair = _try_materialize_single_pair(space, pair, original, staged, config)
        if applied_for_pair is None:
            result.skipped_pairs.append(pair)
            continue
        result.applied.extend(applied_for_pair)

    for (table, tuple_id), row in staged.items():
        result.delta.record_update(table, tuple_id, row)
    return result


def _try_materialize_single_pair(
    space: TupleClassSpace,
    pair: ClassPair,
    original: Database,
    staged: dict[tuple[str, int], list[Any]],
    config: QFEConfig,
) -> list[AppliedModification] | None:
    """Try candidate rows/values for one pair; stage its changes on success."""
    joined = space.joined
    candidate_rows = _candidate_rows_for_pair(space, pair, staged, config.prefer_no_side_effects)
    for position in candidate_rows:
        planned: list[AppliedModification] = []
        rows: dict[tuple[str, int], list[Any]] = {}
        for slot in pair.changed_slots():
            attribute = space.selection_attributes[slot]
            table, _, column = attribute.partition(".")
            tuple_id = joined.base_tuple_of(position, table)
            relation = original.relation(table)
            row = relation.tuple_by_id(tuple_id).values
            index = relation.schema.index_of(column)
            declared = relation.schema.attributes[index]
            values = _destination_values(space, pair, row[index], slot, declared.type)
            if not values:
                break
            # A value that does not fit its column's type skips this row.
            try:
                stored = coerce_value(values[0], declared.type, nullable=declared.nullable)
            except TypeMismatchError:
                break
            planned.append(
                AppliedModification(
                    table=table,
                    tuple_id=tuple_id,
                    column=column,
                    old_value=row[index],
                    new_value=values[0],
                    joined_positions=joined.joined_positions_of(table, tuple_id),
                )
            )
            rows.setdefault((table, tuple_id), list(row))[index] = stored
        else:
            staged.update(rows)
            return planned
    return None
