"""Database deltas: the recorded ``TupleDelta`` and the presented diffs.

QFE changes a database only by E1 edits to non-key cells of existing tuples
(Sections 5 and 6.3), and records that change once, as a :class:`TupleDelta`:
one update per modified base tuple, keyed by ``tuple_id`` and carrying the
tuple's full new value row. Every consumer reads that record:

* the incremental view-maintenance layer
  (:meth:`~repro.relational.join.JoinedRelation.apply_delta`, reached through
  ``JoinCache.evaluate``/``evaluate_batch`` with ``delta=``) patches a cached
  join and its columnar term masks instead of building a join of ``D'``.
  The copy-on-write contract is column-deep: an untouched column of the
  derived view *is* the base column tuple, and its cached masks are shared
  with it; only the columns a delta touches are copied and their masks
  patched — see :meth:`~repro.relational.columnar.ColumnarView.derive`;
* the *presentation* of Section 2 — instead of showing the entire modified
  database ``D'`` and the candidate results ``R_1..R_k``, the Result Feedback
  module shows their differences from the original pair ``(D, R)`` as edit
  scripts (:class:`DatabaseDelta`, :class:`ResultDelta`).
  :func:`database_delta` reads ``Δ(D, D')`` off the recorded updates;
  ``Δ(R, R_i)`` has no tuple ids, so :func:`result_delta` solves ``minEdit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.relational.database import Database
from repro.relational.edit import EditOperation, EditScript, cell_edits, min_edit_script
from repro.relational.relation import Relation

__all__ = [
    "RelationDelta",
    "DatabaseDelta",
    "ResultDelta",
    "TupleDelta",
    "database_delta",
    "result_delta",
]


@dataclass(frozen=True)
class RelationDelta:
    """The edit script from one relation instance to another."""

    relation_name: str
    script: EditScript

    @property
    def cost(self) -> int:
        """The minimum edit cost between the two instances."""
        return self.script.cost

    def describe(self) -> list[str]:
        """One line per edit operation."""
        return self.script.describe()


@dataclass(frozen=True)
class DatabaseDelta:
    """The differences ``Δ(D, D')`` between the original and a modified database."""

    relation_deltas: tuple[RelationDelta, ...]

    @property
    def cost(self) -> int:
        """``minEdit(D, D')``: total edit cost over all modified relations."""
        return sum(delta.cost for delta in self.relation_deltas)

    @property
    def modified_relation_count(self) -> int:
        """The ``n`` of Equation (3): how many relations were modified."""
        return len(self.relation_deltas)

    @property
    def modified_tuple_count(self) -> int:
        """The ``µ`` of Section 3: number of distinct modified/inserted/deleted tuples.

        The cells of one modified tuple share its ``(source_row, target_row)``
        pair, so two tuples with equal values in ``D`` that change differently
        count twice.
        """
        total = 0
        for delta in self.relation_deltas:
            total += len({(op.kind, op.source_row, op.target_row) for op in delta.script.operations})
        return total

    def describe(self) -> list[str]:
        """Readable lines describing every change, grouped by relation."""
        lines: list[str] = []
        for delta in self.relation_deltas:
            lines.extend(delta.describe())
        if not lines:
            lines.append("(no database changes)")
        return lines

    def pretty(self) -> str:
        """A text block of the database changes."""
        return "\n".join(self.describe())


@dataclass(frozen=True)
class ResultDelta:
    """The differences ``Δ(R, R_i)`` between the original result and a candidate result."""

    script: EditScript

    @property
    def cost(self) -> int:
        """``minEdit(R, R_i)``."""
        return self.script.cost

    def describe(self) -> list[str]:
        """Readable lines describing the result changes."""
        lines = self.script.describe()
        if not lines:
            lines.append("(result unchanged)")
        return lines

    def pretty(self) -> str:
        """A text block of the result changes."""
        return "\n".join(self.describe())


# --------------------------------------------------------------- TupleDelta
class TupleDelta:
    """The recorded change from a base database ``D`` to a modified ``D'``.

    ``D'`` is ``D`` plus this delta: it differs from ``D`` only in non-key
    cells of existing tuples, addressed by ``tuple_id``. The delta holds one update per modified tuple: its full
    new value row, so a consumer can patch a materialized join of ``D``.
    Recording the same tuple again replaces its row.
    """

    __slots__ = ("_updates",)

    def __init__(self) -> None:
        self._updates: dict[str, dict[int, tuple[Any, ...]]] = {}

    def record_update(self, relation: str, tuple_id: int, new_values: Sequence[Any]) -> None:
        """Record the new full value row of an existing tuple."""
        self._updates.setdefault(relation, {})[tuple_id] = tuple(new_values)

    def updates_for(self, relation: str) -> dict[int, tuple[Any, ...]]:
        """``{tuple_id: new values}`` of tuples updated in *relation*."""
        return dict(self._updates.get(relation, {}))

    @property
    def relations(self) -> tuple[str, ...]:
        """Names of relations touched by the delta, deterministically ordered."""
        return tuple(sorted(name for name, rows in self._updates.items() if rows))

    @property
    def is_empty(self) -> bool:
        """Whether the delta records no update."""
        return not self.relations

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{name}: ~{len(self._updates[name])}" for name in self.relations]
        return f"TupleDelta({'; '.join(parts) or 'empty'})"


def database_delta(original: Database, delta: TupleDelta) -> DatabaseDelta:
    """``Δ(D, D')`` read off the recorded updates that turn *original* into ``D'``.

    One E1 operation per changed cell, in attribute order, for each updated
    tuple in the relation's tuple order; relations are taken in
    ``original.table_names`` order and a relation with no changed cell is
    omitted. The work is one pass over the ids of each touched relation plus
    O(|Δ|) operations; no row of ``D'`` is read. Tuples are aligned by id
    instead of by the assignment :func:`min_edit_script` solves; the two
    agree on QFE's deltas, and ``min_edit_script`` is the reference this
    function is tested against.
    """
    deltas = []
    for name in original.table_names:
        updates = delta.updates_for(name)
        if not updates:
            continue
        attribute_names = original.relation(name).schema.attribute_names
        operations: list[EditOperation] = []
        for base_tuple in original.relation(name).tuples:
            target_row = updates.get(base_tuple.tuple_id)
            if target_row is not None:
                operations.extend(cell_edits(name, attribute_names, base_tuple.values, target_row))
        if operations:
            deltas.append(RelationDelta(name, EditScript(tuple(operations))))
    return DatabaseDelta(tuple(deltas))


def result_delta(original: Relation, candidate: Relation) -> ResultDelta:
    """Compute ``Δ(R, R_i)`` as a minimum edit script between result instances."""
    return ResultDelta(min_edit_script(original, candidate))
