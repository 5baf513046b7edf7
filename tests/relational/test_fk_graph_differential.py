"""Differential tests: the foreign-key graph queries against networkx.

On random schemas with cycles, parallel foreign keys (both directions) and
self-referencing foreign keys, queried with repeated and unknown table
names, ``is_join_connected``, ``spanning_foreign_keys`` (its order included:
it sets the foreign-key join's attach order) and ``enumerate_join_schemas``
must answer exactly as their networkx-based references.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("networkx")

from repro.exceptions import SchemaError  # noqa: E402
from repro.qbo.config import QBOConfig  # noqa: E402
from repro.qbo.join_enumeration import enumerate_join_schemas  # noqa: E402
from repro.relational.schema import (  # noqa: E402
    Attribute,
    DatabaseSchema,
    ForeignKey,
    TableSchema,
)
from repro.relational.types import AttributeType  # noqa: E402
from tests.oracles.fk_graph_reference import (  # noqa: E402
    enumerate_join_schemas_reference,
    is_join_connected_reference,
    spanning_foreign_keys_reference,
)

_COLUMNS = ("id", "a", "b")
_NAMES = ("A", "B", "C", "D", "E", "F", "G", "H")


def _random_schema(rng: random.Random) -> DatabaseSchema:
    names = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
    tables = [
        TableSchema(name, [Attribute(column, AttributeType.INTEGER) for column in _COLUMNS])
        for name in names
    ]
    foreign_keys = []
    for _ in range(rng.randint(0, 2 * len(names))):
        # Self references and repeated pairs (in either direction, on any
        # columns, even an exact duplicate) are all allowed.
        child, parent = rng.choice(names), rng.choice(names)
        foreign_keys.append(
            ForeignKey(child, (rng.choice(_COLUMNS),), parent, (rng.choice(_COLUMNS),))
        )
        if rng.random() < 0.2:
            foreign_keys.append(foreign_keys[-1])
    return DatabaseSchema(tables, foreign_keys)


def _random_query(rng: random.Random, schema: DatabaseSchema) -> list[str]:
    """Table names with repeats, plus two names no table has."""
    pool = list(schema.table_names) + ["Z", "a"]
    return [rng.choice(pool) for _ in range(rng.randint(0, 6))]


def _spanning_or_error(spanning, names):
    try:
        return spanning(names)
    except SchemaError:
        return SchemaError


class TestForeignKeyGraphMatchesNetworkx:
    def test_is_join_connected(self):
        rng = random.Random(11)
        for _ in range(400):
            schema = _random_schema(rng)
            for _ in range(20):
                names = _random_query(rng, schema)
                assert schema.is_join_connected(names) == is_join_connected_reference(
                    schema, names
                ), (schema.foreign_keys, names)

    def test_every_subset_of_a_schema(self):
        rng = random.Random(12)
        for _ in range(60):
            schema = _random_schema(rng)
            tables = schema.table_names
            for mask in range(1 << len(tables)):
                names = [table for bit, table in enumerate(tables) if mask >> bit & 1]
                rng.shuffle(names)
                assert schema.is_join_connected(names) == is_join_connected_reference(
                    schema, names
                )

    def test_spanning_foreign_keys_and_their_order(self):
        rng = random.Random(13)
        for _ in range(400):
            schema = _random_schema(rng)
            for _ in range(20):
                names = _random_query(rng, schema)
                if rng.random() < 0.5:
                    # Mostly-connected queries: a shuffled run of every table.
                    names = rng.sample(schema.table_names, len(schema.table_names))
                expected = _spanning_or_error(
                    lambda tables: spanning_foreign_keys_reference(schema, tables), names
                )
                actual = _spanning_or_error(schema.spanning_foreign_keys, names)
                assert actual == expected, (schema.foreign_keys, names)

    def test_enumerate_join_schemas(self):
        rng = random.Random(14)
        for _ in range(150):
            schema = _random_schema(rng)
            config = QBOConfig(max_join_relations=rng.randint(1, 5))
            assert enumerate_join_schemas(schema, config) == enumerate_join_schemas_reference(
                schema, config
            )
