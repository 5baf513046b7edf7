"""Reference integrity-constraint checks (Section 6.3).

A valid database has unique, non-NULL primary-key values, and every non-NULL
foreign-key value references an existing parent row. QFE never checks this
while it runs: materialization changes only non-key cells, so a modified
database ``D'`` is valid whenever ``D`` is. The tests use these whole-database
checks to assert that every dataset is valid and that every presented ``D'``
stays valid.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import ForeignKeyViolation, PrimaryKeyViolation
from repro.relational.database import Database
from repro.relational.schema import ForeignKey

__all__ = [
    "check_primary_keys",
    "check_foreign_keys",
    "validate_database",
    "constraint_violations",
    "modification_is_valid",
]


def _normalize(value: Any) -> Any:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    return value


def check_primary_keys(database: Database) -> list[str]:
    """Return a violation message per duplicated or NULL primary-key value."""
    violations: list[str] = []
    for table_name, relation in database.relations.items():
        primary_key = relation.schema.primary_key
        if not primary_key:
            continue
        positions = [relation.schema.index_of(column) for column in primary_key]
        seen: dict[tuple, int] = {}
        for row in relation.tuples:
            key = tuple(_normalize(row.values[p]) for p in positions)
            if any(part is None for part in key):
                violations.append(
                    f"{table_name}: NULL in primary key {primary_key} for row {row.values!r}"
                )
                continue
            if key in seen:
                violations.append(
                    f"{table_name}: duplicate primary key {key!r} (rows {seen[key]} and {row.tuple_id})"
                )
            else:
                seen[key] = row.tuple_id
    return violations


def check_foreign_keys(database: Database) -> list[str]:
    """Return a violation message per dangling non-null foreign-key value."""
    violations: list[str] = []
    for fk in database.schema.foreign_keys:
        violations.extend(_check_one_foreign_key(database, fk))
    return violations


def _check_one_foreign_key(database: Database, fk: ForeignKey) -> list[str]:
    child = database.relation(fk.child_table)
    parent = database.relation(fk.parent_table)
    child_positions = [child.schema.index_of(c) for c in fk.child_columns]
    parent_positions = [parent.schema.index_of(c) for c in fk.parent_columns]
    parent_keys = {
        tuple(_normalize(row.values[p]) for p in parent_positions) for row in parent.tuples
    }
    violations = []
    for row in child.tuples:
        key = tuple(_normalize(row.values[p]) for p in child_positions)
        if any(part is None for part in key):
            continue  # NULL foreign keys are allowed
        if key not in parent_keys:
            violations.append(
                f"{fk.name}: child row {row.values!r} references missing parent key {key!r}"
            )
    return violations


def constraint_violations(database: Database) -> list[str]:
    """All primary-key and foreign-key violations in the database."""
    return check_primary_keys(database) + check_foreign_keys(database)


def validate_database(database: Database) -> None:
    """Raise on the first integrity violation (primary keys first, then foreign keys)."""
    pk_violations = check_primary_keys(database)
    if pk_violations:
        raise PrimaryKeyViolation(pk_violations[0])
    fk_violations = check_foreign_keys(database)
    if fk_violations:
        raise ForeignKeyViolation(fk_violations[0])


def modification_is_valid(database: Database) -> bool:
    """Whether the database satisfies all declared integrity constraints."""
    return not constraint_violations(database)
