"""SQLite cross-validation backend.

The paper's prototype ran its workloads against MySQL. We substitute the
standard library's :mod:`sqlite3`: the backend loads a
:class:`~repro.relational.database.Database` into an in-memory SQLite
database, executes rendered SQL and returns the result as a
:class:`~repro.relational.relation.Relation`. The test suite uses it to
cross-check our pure-Python evaluator against an independent SQL engine on
every workload query, which is how we gain confidence that the substrate the
QFE algorithms run on is faithful.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Iterable

from repro.exceptions import EvaluationError
from repro.relational.database import Database
from repro.relational.evaluator import result_schema
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.relational.schema import TableSchema
from repro.relational.types import AttributeType
from repro.sql.render import render_query

__all__ = ["SQLiteBackend", "cross_check"]


class SQLiteBackend:
    """Execute library queries against an in-memory SQLite copy of a database."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._connection = sqlite3.connect(":memory:")
        self._load()

    # ------------------------------------------------------------------ setup
    def _load(self) -> None:
        cursor = self._connection.cursor()
        for relation in self._database:
            cursor.execute(self._create_table_sql(relation.schema))
            placeholders = ", ".join("?" for _ in relation.schema.attributes)
            insert_sql = f'INSERT INTO "{relation.name}" VALUES ({placeholders})'
            cursor.executemany(insert_sql, [self._encode_row(row) for row in relation.rows()])
        self._connection.commit()

    @staticmethod
    def _create_table_sql(schema: TableSchema) -> str:
        columns = ", ".join(
            f'"{attribute.name}" {attribute.type.sql_name}' for attribute in schema.attributes
        )
        return f'CREATE TABLE "{schema.name}" ({columns})'

    @staticmethod
    def _encode_row(row: Iterable[Any]) -> tuple:
        return tuple(int(v) if isinstance(v, bool) else v for v in row)

    # -------------------------------------------------------------- execution
    def execute_sql(self, sql: str) -> list[tuple]:
        """Run raw SQL and return the fetched rows."""
        try:
            cursor = self._connection.execute(sql)
        except sqlite3.Error as exc:
            raise EvaluationError(f"SQLite rejected the query: {exc}\n{sql}") from exc
        return [tuple(row) for row in cursor.fetchall()]

    def execute(self, query: SPJQuery, *, name: str = "Result") -> Relation:
        """Execute a query object and return its result as a :class:`Relation`."""
        schema = result_schema(query, self._database, name=name)
        column_types = [a.type for a in schema.attributes]
        rows = self.execute_sql(render_query(query, self._database.schema))
        result = Relation(schema)
        for row in rows:
            result.insert([self._decode_value(v, t) for v, t in zip(row, column_types)])
        return result

    @staticmethod
    def _decode_value(value: Any, attribute_type: AttributeType) -> Any:
        if value is None:
            return None
        if attribute_type is AttributeType.BOOLEAN:
            return bool(value)
        if attribute_type is AttributeType.FLOAT:
            return float(value)
        if attribute_type is AttributeType.INTEGER and isinstance(value, float) and value.is_integer():
            return int(value)
        return value

    def close(self) -> None:
        """Close the underlying SQLite connection."""
        self._connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def cross_check(
    query: SPJQuery,
    database: Database,
    *,
    backend: SQLiteBackend | None = None,
) -> bool:
    """Whether our evaluator and SQLite agree on the query's result (bag equality).

    Pass a *backend* already loaded with *database* to cross-check a whole
    run of queries against one mirror connection instead of rebuilding the
    SQLite copy per call; without one, a fresh backend is created and closed
    deterministically around the single check.
    """
    from repro.relational.evaluator import evaluate

    ours = evaluate(query, database)
    if backend is not None:
        theirs = backend.execute(query)
    else:
        with SQLiteBackend(database) as owned:
            theirs = owned.execute(query)
    return ours.bag_equal(theirs)
