"""Join-schema enumeration over the foreign-key graph.

Candidate queries join a *connected* subset of the database's relations along
foreign keys (Section 4). This module enumerates those subsets in increasing
size up to the configured maximum, deterministically ordered, keeping those
:meth:`DatabaseSchema.is_join_connected` accepts.
"""

from __future__ import annotations

from itertools import combinations

from repro.qbo.config import QBOConfig
from repro.relational.schema import DatabaseSchema

__all__ = ["enumerate_join_schemas"]


def enumerate_join_schemas(schema: DatabaseSchema, config: QBOConfig) -> list[tuple[str, ...]]:
    """All connected table subsets of size 1..``max_join_relations``.

    Subsets are returned smallest-first (cheaper joins are tried before wider
    ones) and alphabetically within a size for determinism.
    """
    tables = sorted(schema.table_names)
    max_size = min(config.max_join_relations, len(tables))
    return [
        subset
        for size in range(1, max_size + 1)
        for subset in combinations(tables, size)
        if schema.is_join_connected(subset)
    ]
