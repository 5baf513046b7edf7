"""Database deltas: presentation diffs and the structured ``TupleDelta``.

Two kinds of delta live here:

* the *presentation* deltas of Section 2 — instead of presenting the entire
  modified database ``D'`` and the candidate results ``R_1..R_k``, the Result
  Feedback module presents their differences from the original pair
  ``(D, R)`` as edit scripts (:class:`DatabaseDelta`, :class:`ResultDelta`);
* the *maintenance* delta :class:`TupleDelta` — a structured record of
  tuple-level inserts, deletes and updates keyed by ``tuple_id``, which the
  incremental view-maintenance layer
  (:meth:`~repro.relational.join.JoinedRelation.apply_delta`,
  :meth:`~repro.relational.evaluator.JoinCache.derive`) uses to patch a
  cached join and its columnar term masks in O(|Δ|) instead of rebuilding
  them from ``D'`` in O(|D|). The copy-on-write contract is column-deep: an
  untouched column of the derived view *is* the base column tuple, and its
  cached masks are shared with it; only the columns a delta touches are
  copied and their masks patched — see
  :meth:`~repro.relational.columnar.ColumnarView.derive`.

A :class:`TupleDelta` can be recorded directly while a modified database is
constructed (how :func:`~repro.core.materialize.materialize_pairs` produces
it), diffed from two id-aligned database instances (:meth:`TupleDelta.between`),
or derived from a Section 3 :class:`~repro.relational.edit.EditScript`
(:func:`~repro.relational.edit.delta_from_edit_script`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.exceptions import SchemaError
from repro.relational.database import Database
from repro.relational.edit import EditKind, EditScript, min_edit_script, modified_relation_names
from repro.relational.relation import Relation
from repro.relational.types import values_equal

__all__ = [
    "RelationDelta",
    "DatabaseDelta",
    "ResultDelta",
    "TupleDelta",
    "database_delta",
    "result_delta",
    "delta_from_edit_script",
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
        """The ``µ`` of Section 3: number of distinct modified/inserted/deleted tuples."""
        total = 0
        for delta in self.relation_deltas:
            rows = set()
            for op in delta.script.operations:
                rows.add((op.kind, op.source_row if op.source_row is not None else op.target_row))
            total += len(rows)
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
    """Tuple-level inserts/deletes/updates per relation, keyed by ``tuple_id``.

    The delta describes how a derived database ``D'`` differs from a base
    database ``D`` whose tuple ids it shares (``D'`` is always constructed
    from a copy of ``D``, which preserves ids). Updates and inserts carry the
    tuple's *full* new value row, so a consumer can patch a materialized join
    without consulting ``D'`` itself.

    Recording coalesces ops per ``(relation, tuple_id)``: an update of an
    inserted tuple folds into the insert, a delete of an inserted tuple
    cancels it, an update of an updated tuple replaces the recorded values,
    and a delete of an updated tuple becomes a plain delete.
    """

    __slots__ = ("_inserts", "_deletes", "_updates")

    def __init__(self) -> None:
        self._inserts: dict[str, dict[int, tuple[Any, ...]]] = {}
        self._deletes: dict[str, set[int]] = {}
        self._updates: dict[str, dict[int, tuple[Any, ...]]] = {}

    # -------------------------------------------------------------- recording
    def record_insert(self, relation: str, tuple_id: int, values: Sequence[Any]) -> None:
        """Record the insertion of a new tuple (its id as assigned by ``D'``)."""
        self._inserts.setdefault(relation, {})[tuple_id] = tuple(values)
        self._deletes.get(relation, set()).discard(tuple_id)

    def record_delete(self, relation: str, tuple_id: int) -> None:
        """Record the deletion of a base tuple (cancels a pending insert/update)."""
        inserts = self._inserts.get(relation)
        if inserts and tuple_id in inserts:
            del inserts[tuple_id]
            return
        updates = self._updates.get(relation)
        if updates:
            updates.pop(tuple_id, None)
        self._deletes.setdefault(relation, set()).add(tuple_id)

    def record_update(self, relation: str, tuple_id: int, new_values: Sequence[Any]) -> None:
        """Record the new full value row of an existing tuple."""
        inserts = self._inserts.get(relation)
        if inserts and tuple_id in inserts:
            inserts[tuple_id] = tuple(new_values)
            return
        self._updates.setdefault(relation, {})[tuple_id] = tuple(new_values)

    # ---------------------------------------------------------------- access
    def inserts_for(self, relation: str) -> dict[int, tuple[Any, ...]]:
        """``{tuple_id: values}`` of tuples inserted into *relation* (insertion order)."""
        return dict(self._inserts.get(relation, {}))

    def deletes_for(self, relation: str) -> frozenset[int]:
        """Ids of tuples deleted from *relation*."""
        return frozenset(self._deletes.get(relation, ()))

    def updates_for(self, relation: str) -> dict[int, tuple[Any, ...]]:
        """``{tuple_id: new values}`` of tuples updated in *relation*."""
        return dict(self._updates.get(relation, {}))

    @property
    def relations(self) -> tuple[str, ...]:
        """Names of relations touched by the delta, deterministically ordered."""
        touched = set(self._inserts) | set(self._deletes) | set(self._updates)
        return tuple(sorted(name for name in touched if self._touches(name)))

    def _touches(self, relation: str) -> bool:
        return bool(
            self._inserts.get(relation)
            or self._deletes.get(relation)
            or self._updates.get(relation)
        )

    @property
    def is_empty(self) -> bool:
        """Whether the delta records no effective change."""
        return not self.relations

    @property
    def is_update_only(self) -> bool:
        """Whether the delta consists purely of in-place tuple updates.

        QFE's class-pair materialization only ever performs E1 attribute
        modifications (never E2/E3), so the deltas it records are always
        update-only — the precondition for the cheapest join-maintenance path.
        """
        return not any(self._inserts.values()) and not any(self._deletes.values())

    @property
    def op_count(self) -> int:
        """Total number of recorded tuple-level operations."""
        return sum(len(v) for v in self._inserts.values()) + sum(
            len(v) for v in self._deletes.values()
        ) + sum(len(v) for v in self._updates.values())

    def operations(self) -> Iterator[tuple[str, str, int, tuple[Any, ...] | None]]:
        """Iterate ``(kind, relation, tuple_id, values)`` over all recorded ops."""
        for relation, rows in self._inserts.items():
            for tuple_id, values in rows.items():
                yield ("insert", relation, tuple_id, values)
        for relation, ids in self._deletes.items():
            for tuple_id in sorted(ids):
                yield ("delete", relation, tuple_id, None)
        for relation, rows in self._updates.items():
            for tuple_id, values in rows.items():
                yield ("update", relation, tuple_id, values)

    # ------------------------------------------------------------ derivation
    @classmethod
    def between(cls, base: Database, derived: Database) -> "TupleDelta":
        """Diff two id-aligned database instances into a delta.

        Tuples are matched by ``tuple_id`` per relation (the natural alignment
        for a ``D'`` built from ``D.copy()``): ids present in both with
        differing values become updates, ids only in *base* become deletes,
        ids only in *derived* become inserts.
        """
        delta = cls()
        for name in base.table_names:
            base_rows = {t.tuple_id: t.values for t in base.relation(name).tuples}
            derived_rows = {t.tuple_id: t.values for t in derived.relation(name).tuples}
            for tuple_id, values in derived_rows.items():
                old = base_rows.get(tuple_id)
                if old is None:
                    delta.record_insert(name, tuple_id, values)
                elif not _rows_equal(old, values):
                    delta.record_update(name, tuple_id, values)
            for tuple_id in base_rows:
                if tuple_id not in derived_rows:
                    delta.record_delete(name, tuple_id)
        return delta

    def apply_to(self, database: Database) -> Database:
        """Apply the delta in place to *database* (a copy of the base) and return it.

        Inserts are appended in recording order; because relation ids are
        assigned sequentially, replaying a delta onto a fresh copy of the same
        base reproduces the tuple ids the delta was recorded with.
        """
        for relation_name, rows in self._updates.items():
            relation = database.relation(relation_name)
            for tuple_id, values in rows.items():
                relation.replace_tuple(tuple_id, values)
        for relation_name, ids in self._deletes.items():
            relation = database.relation(relation_name)
            for tuple_id in sorted(ids):
                relation.delete(tuple_id)
        for relation_name, rows in self._inserts.items():
            relation = database.relation(relation_name)
            for tuple_id, values in rows.items():
                inserted = relation.insert(values)
                if inserted.tuple_id != tuple_id:
                    raise SchemaError(
                        f"replaying delta onto {relation_name!r} assigned tuple id "
                        f"{inserted.tuple_id}, but the delta recorded {tuple_id}; "
                        "the database is not a fresh copy of the delta's base"
                    )
        return database

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for relation in self.relations:
            parts.append(
                f"{relation}: +{len(self._inserts.get(relation, {}))} "
                f"-{len(self._deletes.get(relation, set()))} "
                f"~{len(self._updates.get(relation, {}))}"
            )
        return f"TupleDelta({'; '.join(parts) or 'empty'})"


def _rows_equal(left: Sequence[Any], right: Sequence[Any]) -> bool:
    return len(left) == len(right) and all(
        values_equal(a, b) for a, b in zip(left, right)
    )


def delta_from_edit_script(base: Relation, script: EditScript) -> TupleDelta:
    """Resolve a Section 3 edit script against *base* into a :class:`TupleDelta`.

    Edit operations carry row *values*; this resolves them to concrete tuple
    ids by matching each MODIFY/DELETE source row to a not-yet-consumed tuple
    of *base* with equal values. Inserted tuples receive the ids *base* would
    assign on replay (``next_tuple_id`` onward), so
    ``delta.apply_to(copy_of_base_database)`` reproduces the script's target.
    """
    delta = TupleDelta()
    name = base.schema.name
    consumed: set[int] = set()

    def resolve(row_values: Sequence[Any]) -> int:
        for candidate in base.tuples:
            if candidate.tuple_id in consumed:
                continue
            if _rows_equal(candidate.values, tuple(row_values)):
                consumed.add(candidate.tuple_id)
                return candidate.tuple_id
        raise SchemaError(
            f"edit script row {tuple(row_values)!r} does not match any unconsumed "
            f"tuple of relation {name!r}"
        )

    next_insert_id = base.next_tuple_id
    for kind, source_row, target_row in script.row_changes():
        if kind is EditKind.MODIFY:
            delta.record_update(name, resolve(source_row), tuple(target_row))
        elif kind is EditKind.DELETE:
            delta.record_delete(name, resolve(source_row))
        else:
            delta.record_insert(name, next_insert_id, tuple(target_row))
            next_insert_id += 1
    return delta


def database_delta(original: Database, modified: Database) -> DatabaseDelta:
    """Compute ``Δ(D, D')`` as per-relation minimum edit scripts."""
    deltas = []
    for name in modified_relation_names(original, modified):
        script = min_edit_script(original.relation(name), modified.relation(name))
        deltas.append(RelationDelta(name, script))
    return DatabaseDelta(tuple(deltas))


def result_delta(original: Relation, candidate: Relation) -> ResultDelta:
    """Compute ``Δ(R, R_i)`` as a minimum edit script between result instances."""
    return ResultDelta(min_edit_script(original, candidate))
