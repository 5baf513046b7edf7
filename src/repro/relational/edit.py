"""The relation edit model of Section 3: edit operations and ``minEdit``.

The paper quantifies the difference between two instances of a relation by
the minimum cost of transforming one into the other using three operations:

* **E1** — modify one attribute value of a tuple (cost 1);
* **E2** — insert a new tuple (cost = relation arity);
* **E3** — delete a tuple (cost = relation arity).

``minEdit(T, T')`` is therefore a minimum-cost assignment problem: each tuple
of ``T`` is either matched to a tuple of ``T'`` (paying one per differing
attribute) or deleted; unmatched tuples of ``T'`` are inserted. We solve it
exactly on a square cost matrix padded with delete/insert costs, with
:func:`min_cost_assignment`: a pure-Python port of the shortest augmenting
path solver behind ``scipy.optimize.linear_sum_assignment`` (Crouse's LAPJV
variant), tie rule included, so it picks the same optimal assignment.

``minEdit(D, D')`` over whole databases is the sum over modified relations
(Section 3). The Result Feedback module presents ``Δ(R, R_i)`` as the
concrete script :func:`min_edit_script` finds; ``Δ(D, D')`` is read off the
recorded tuple delta instead (:func:`repro.relational.delta.database_delta`),
as the same :class:`EditOperation` values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Sequence

from repro.relational.relation import Relation, Tuple
from repro.relational.types import exact_repr, values_equal

__all__ = [
    "EditKind",
    "EditOperation",
    "EditScript",
    "tuple_distance",
    "min_cost_assignment",
    "cell_edits",
    "min_edit_relation",
    "min_edit_script",
]


class EditKind(enum.Enum):
    """The three edit operations of Section 3."""

    MODIFY = "modify"  # E1
    INSERT = "insert"  # E2
    DELETE = "delete"  # E3


@dataclass(frozen=True)
class EditOperation:
    """One edit step transforming a source relation towards a target relation."""

    kind: EditKind
    relation: str
    attribute: str | None = None
    old_value: Any = None
    new_value: Any = None
    source_row: tuple | None = None
    target_row: tuple | None = None
    cost: int = 1

    def describe(self) -> str:
        """A one-line human-readable description (used in delta presentations)."""
        if self.kind is EditKind.MODIFY:
            return (
                f"{self.relation}: change {self.attribute} from "
                f"{exact_repr(self.old_value)} to {exact_repr(self.new_value)} "
                f"in row {exact_repr(self.source_row)}"
            )
        if self.kind is EditKind.INSERT:
            return f"{self.relation}: insert row {exact_repr(self.target_row)}"
        return f"{self.relation}: delete row {exact_repr(self.source_row)}"


@dataclass(frozen=True)
class EditScript:
    """An ordered list of edit operations with its total cost."""

    operations: tuple[EditOperation, ...]

    @property
    def cost(self) -> int:
        """The total edit cost (the paper's ``minEdit`` value when minimal)."""
        return sum(op.cost for op in self.operations)

    @property
    def modification_count(self) -> int:
        """Number of E1 (attribute modification) operations."""
        return sum(1 for op in self.operations if op.kind is EditKind.MODIFY)

    def describe(self) -> list[str]:
        """Human-readable lines for every operation."""
        return [op.describe() for op in self.operations]

    def __len__(self) -> int:
        return len(self.operations)


def tuple_distance(left: Tuple | tuple, right: Tuple | tuple) -> int:
    """Number of attribute positions where the two rows differ (E1 cost)."""
    left_values = left.values if isinstance(left, Tuple) else tuple(left)
    right_values = right.values if isinstance(right, Tuple) else tuple(right)
    if len(left_values) != len(right_values):
        raise ValueError("tuple_distance requires rows of equal arity")
    return sum(0 if values_equal(a, b) else 1 for a, b in zip(left_values, right_values))


def min_cost_assignment(cost: Sequence[Sequence[int]]) -> list[int]:
    """A minimum-cost perfect matching of a square cost matrix: each row's column.

    A port of the shortest augmenting path algorithm that
    ``scipy.optimize.linear_sum_assignment`` runs (D. F. Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 2016): rows
    are added one at a time, each by a Dijkstra search over reduced costs
    from that row to an unassigned column, followed by a dual update and the
    augmentation. The column scan order and the tie rule are scipy's: columns
    are scanned from the last one down, and on an equal reduced cost an
    unassigned column wins, so equal-cost optima resolve the same way. On
    integer costs both compute exactly (scipy's doubles hold them exactly),
    so both take the same steps.
    """
    size = len(cost)
    row_potential = [0] * size
    column_potential = [0] * size
    column_of_row = [-1] * size
    row_of_column = [-1] * size
    path = [-1] * size
    for current_row in range(size):
        shortest = [math.inf] * size
        row_seen = [False] * size
        column_seen = [False] * size
        remaining = list(range(size - 1, -1, -1))
        min_value = 0
        row = current_row
        sink = -1
        while sink == -1:
            row_seen[row] = True
            costs, potential = cost[row], row_potential[row]
            index, lowest = -1, math.inf
            for position, column in enumerate(remaining):
                reduced = min_value + costs[column] - potential - column_potential[column]
                if reduced < shortest[column]:
                    path[column] = row
                    shortest[column] = reduced
                if shortest[column] < lowest or (
                    shortest[column] == lowest and row_of_column[column] == -1
                ):
                    lowest = shortest[column]
                    index = position
            min_value = lowest
            column = remaining[index]
            if row_of_column[column] == -1:
                sink = column
            else:
                row = row_of_column[column]
            column_seen[column] = True
            remaining[index] = remaining[-1]
            remaining.pop()

        row_potential[current_row] += min_value
        for row in range(size):
            if row_seen[row] and row != current_row:
                row_potential[row] += min_value - shortest[column_of_row[row]]
        for column in range(size):
            if column_seen[column]:
                column_potential[column] -= min_value - shortest[column]

        column = sink
        while True:
            row = path[column]
            row_of_column[column] = row
            column_of_row[row], column = column, column_of_row[row]
            if row == current_row:
                break
    return column_of_row


def _assignment(source: Relation, target: Relation) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Solve the minimum-cost matching between source and target tuples.

    Returns ``(matched_pairs, deleted_source_indexes, inserted_target_indexes)``
    where matched pairs are index pairs into the relations' tuple lists.

    Identical rows are matched greedily at zero cost first (always part of an
    optimal solution for this cost structure), so the cubic assignment step
    only runs on the usually tiny symmetric difference — QFE's modified
    databases differ from the original in a handful of tuples.
    """
    matched, source_indexes, target_indexes = _match_identical_rows(source, target)

    arity = source.schema.arity
    source_rows = [source.tuples[i].values for i in source_indexes]
    target_rows = [target.tuples[j].values for j in target_indexes]
    n_source, n_target = len(source_rows), len(target_rows)
    if n_source == 0 and n_target == 0:
        return matched, [], []

    # Padded square matrix: matching a source row to a "phantom" column means
    # deleting it (cost = arity); matching a phantom row to a target column
    # means inserting it (cost = arity); phantom-to-phantom costs nothing.
    cost = [
        [tuple_distance(source_row, target_row) for target_row in target_rows] + [arity] * n_source
        for source_row in source_rows
    ]
    cost += [[arity] * n_target + [0] * n_source for _ in range(n_target)]

    deleted: list[int] = []
    inserted: list[int] = []
    for i, j in enumerate(min_cost_assignment(cost)):
        if i < n_source and j < n_target:
            # Matching at a cost >= arity is never cheaper than delete+insert,
            # and delete+insert is the more faithful description of the change.
            if cost[i][j] >= 2 * arity:
                deleted.append(source_indexes[i])
                inserted.append(target_indexes[j])
            else:
                matched.append((source_indexes[i], target_indexes[j]))
        elif i < n_source:
            deleted.append(source_indexes[i])
        elif j < n_target:
            inserted.append(target_indexes[j])
    return matched, deleted, inserted


def _match_identical_rows(
    source: Relation, target: Relation
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Greedily pair up identical rows; return the pairs and the leftover indexes.

    Rows are bucketed by their stored value tuples. Python's ``==`` and
    ``hash`` already treat ``1``, ``1.0`` and ``True`` (and ``-0.0`` and
    ``0``) as one key and keep integers beyond 2^53 apart from the floats
    near them, exactly as :func:`~repro.relational.types.canonical_value`
    keys do, so no cell needs canonicalizing to find its match.
    """
    target_buckets: dict[tuple, list[int]] = {}
    for j, row in enumerate(target.tuples):
        target_buckets.setdefault(row.values, []).append(j)

    matched: list[tuple[int, int]] = []
    leftover_source: list[int] = []
    consumed_targets: set[int] = set()
    for i, row in enumerate(source.tuples):
        bucket = target_buckets.get(row.values)
        if bucket:
            j = bucket.pop()
            matched.append((i, j))
            consumed_targets.add(j)
        else:
            leftover_source.append(i)
    leftover_target = [j for j in range(len(target.tuples)) if j not in consumed_targets]
    return matched, leftover_source, leftover_target


def cell_edits(
    relation: str, attribute_names: tuple[str, ...], source_row: tuple, target_row: tuple
) -> list[EditOperation]:
    """The E1 operations turning *source_row* into *target_row*, in attribute order."""
    return [
        EditOperation(
            kind=EditKind.MODIFY,
            relation=relation,
            attribute=attribute_names[position],
            old_value=old,
            new_value=new,
            source_row=source_row,
            target_row=target_row,
            cost=1,
        )
        for position, (old, new) in enumerate(zip(source_row, target_row))
        if not values_equal(old, new)
    ]


def min_edit_relation(source: Relation, target: Relation) -> int:
    """``minEdit(T, T')`` — the minimum edit cost between two relation instances."""
    return min_edit_script(source, target).cost


def min_edit_script(source: Relation, target: Relation) -> EditScript:
    """A minimum-cost edit script transforming *source* into *target*."""
    if source.schema.arity != target.schema.arity:
        raise ValueError("min_edit_script requires relations of equal arity")
    arity = source.schema.arity
    matched, deleted, inserted = _assignment(source, target)
    operations: list[EditOperation] = []
    attribute_names = source.schema.attribute_names
    source_tuples = source.tuples
    target_tuples = target.tuples
    for i, j in matched:
        operations.extend(
            cell_edits(
                source.schema.name, attribute_names, source_tuples[i].values, target_tuples[j].values
            )
        )
    for i in deleted:
        operations.append(
            EditOperation(
                kind=EditKind.DELETE,
                relation=source.schema.name,
                source_row=source_tuples[i].values,
                cost=arity,
            )
        )
    for j in inserted:
        operations.append(
            EditOperation(
                kind=EditKind.INSERT,
                relation=source.schema.name,
                target_row=target_tuples[j].values,
                cost=arity,
            )
        )
    return EditScript(tuple(operations))
