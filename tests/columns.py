"""Row-wise readings of column-major joins, and fresh views of relations.

A :class:`~repro.relational.join.JoinedRelation` stores its rows only as the
columns of its :class:`~repro.relational.columnar.ColumnarView`; tests that
compare joined rows read them back through these helpers.
"""

from __future__ import annotations

from typing import Any

from repro.relational.columnar import ColumnarView
from repro.relational.relation import Relation


def joined_rows(joined) -> list[tuple[Any, ...]]:
    """The join's rows as value tuples, in row order."""
    view = joined.columnar()
    return list(zip(*(view.column(name) for name in view.names)))


def joined_dicts(joined) -> list[dict[str, Any]]:
    """The join's rows as ``{qualified column: value}`` dicts, in row order."""
    names = joined.attribute_names
    return [dict(zip(names, row)) for row in joined_rows(joined)]


def view_of(relation: Relation) -> ColumnarView:
    """A fresh view (no cached masks) of a relation's rows."""
    return ColumnarView(relation.schema.attribute_names, relation.rows())
