"""Materialize class-pair modifications into a concrete modified database ``D'``.

A class pair ``(s, d)`` is abstract: "move some tuple from class ``s`` to
class ``d``". Materialization picks a concrete joined row in ``s``, maps each
changed selection attribute back to the owning base relation through the
join's base-tuple ids, chooses a concrete destination value from the
destination domain subset, and applies the change to a copy of the original
database.

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
from typing import Any, Sequence

from repro.core.config import QFEConfig
from repro.core.modification import ClassPair
from repro.core.tuple_class import TupleClassSpace
from repro.exceptions import TypeMismatchError
from repro.relational.database import Database
from repro.relational.delta import TupleDelta
from repro.relational.types import AttributeType, values_equal

__all__ = ["AppliedModification", "MaterializationResult", "materialize_pairs"]


@dataclass(frozen=True)
class AppliedModification:
    """One concrete base-table cell change applied to the modified database."""

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
    """The modified database plus a record of every applied / skipped change.

    ``delta`` is the :class:`~repro.relational.delta.TupleDelta` recorded
    while ``D'`` was constructed: one update of non-key cells per modified
    base tuple. The Database Generator hands it to
    :meth:`~repro.relational.evaluator.JoinCache.derive`, so candidate
    evaluation on ``D'`` patches the original database's cached join instead
    of rebuilding it, and the Result Feedback module presents ``Δ(D, D')``
    from it (:func:`~repro.relational.delta.database_delta`).
    """

    database: Database
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
    used_base_tuples: set[tuple[str, int]],
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
    """Apply a set of class pairs to a copy of *original*, returning ``D'``.

    Pairs that cannot be realized (a changed key column, no available source
    row, no type-correct destination value) are recorded in ``skipped_pairs``
    rather than failing the whole materialization.
    """
    modified = original.copy()
    result = MaterializationResult(database=modified)
    used_base_tuples: set[tuple[str, int]] = set()
    joined = space.joined

    for pair in pairs:
        changed_slots = pair.changed_slots()
        changed_attributes = space.changed_attributes(pair.source, pair.destination)
        # A pair that changes a key column is unrealizable.
        if any(
            column in _protected_columns(original, table)
            for table, _, column in (a.partition(".") for a in changed_attributes)
        ):
            result.skipped_pairs.append(pair)
            continue

        applied_for_pair = _try_materialize_single_pair(
            space, pair, changed_slots, modified, used_base_tuples, config, joined
        )
        if applied_for_pair is None:
            result.skipped_pairs.append(pair)
            continue
        for modification in applied_for_pair:
            result.applied.append(modification)
            used_base_tuples.add((modification.table, modification.tuple_id))

    # Record the structured tuple delta of everything that stuck (rolled-back
    # attempts never reach ``result.applied``): one update per distinct
    # modified base tuple, carrying its final value row in ``D'``.
    for table, tuple_id in dict.fromkeys((m.table, m.tuple_id) for m in result.applied):
        result.delta.record_update(
            table, tuple_id, modified.relation(table).tuple_by_id(tuple_id).values
        )
    return result


def _try_materialize_single_pair(
    space: TupleClassSpace,
    pair: ClassPair,
    changed_slots: tuple[int, ...],
    modified: Database,
    used_base_tuples: set[tuple[str, int]],
    config: QFEConfig,
    joined,
) -> list[AppliedModification] | None:
    """Try candidate rows/values for one pair; mutate *modified* on success."""
    candidate_rows = _candidate_rows_for_pair(
        space, pair, used_base_tuples, config.prefer_no_side_effects
    )
    for position in candidate_rows:
        planned: list[AppliedModification] = []
        feasible = True
        for slot in changed_slots:
            attribute = space.selection_attributes[slot]
            table, _, column = attribute.partition(".")
            tuple_id = joined.base_tuple_of(position, table)
            relation = modified.relation(table)
            current_value = relation.value_of(relation.tuple_by_id(tuple_id), column)
            column_type = relation.schema.attribute(column).type
            values = _destination_values(space, pair, current_value, slot, column_type)
            if not values:
                feasible = False
                break
            planned.append(
                AppliedModification(
                    table=table,
                    tuple_id=tuple_id,
                    column=column,
                    old_value=current_value,
                    new_value=values[0],
                    joined_positions=joined.joined_positions_of(table, tuple_id),
                )
            )
        if not feasible:
            continue

        # Apply, rolling back if a value does not fit its column's type.
        applied_so_far: list[AppliedModification] = []
        type_error = False
        for modification in planned:
            try:
                modified.relation(modification.table).update_value(
                    modification.tuple_id, modification.column, modification.new_value
                )
            except TypeMismatchError:
                type_error = True
                break
            applied_so_far.append(modification)
        if type_error:
            for modification in applied_so_far:
                modified.relation(modification.table).update_value(
                    modification.tuple_id, modification.column, modification.old_value
                )
            continue
        return planned
    return None
