"""Projection inference: map result columns to joined columns.

Given the example result ``R`` and a candidate join schema's materialized
join, this module enumerates plausible projection lists — ordered choices of
joined columns, one per result column — filtered by cheap necessary
conditions (type compatibility and value containment) before the expensive
row-labeling step runs.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Iterable

from repro.qbo.config import QBOConfig
from repro.relational.join import JoinedRelation
from repro.relational.relation import Relation
from repro.relational.types import AttributeType, is_numeric

__all__ = ["candidate_projections"]


def _value_set(values: Iterable[Any]) -> set:
    # Raw values: ``==`` and ``hash`` already equate 1, 1.0 and True, and
    # stay exact for integers beyond 2^53.
    domain = set(values)
    domain.discard(None)
    return domain


def _types_compatible(result_type: AttributeType, joined_type: AttributeType) -> bool:
    if result_type == joined_type:
        return True
    return is_numeric(result_type) and is_numeric(joined_type)


def _name_matches(result_column: str, joined_column: str) -> bool:
    _, _, unqualified = joined_column.partition(".")
    return result_column.lower() in (joined_column.lower(), unqualified.lower())


def candidate_projections(
    joined: JoinedRelation,
    result: Relation,
    config: QBOConfig,
) -> list[tuple[str, ...]]:
    """Plausible projection lists (qualified joined columns) for the result.

    For every result column we collect joined columns of a compatible type
    whose active domain contains every value the result column needs. When
    ``config.match_columns_by_name`` is set and some candidates match the
    result column's name, only those are kept (the common case for SQLShare
    users who keep column names). The cartesian product across result columns
    is capped at ``config.max_projection_mappings``.
    """
    view = joined.columnar()
    domains: dict[str, set] = {}  # joined column -> its non-NULL values, built on demand
    per_column_candidates: list[list[str]] = []
    for result_attribute in result.schema.attributes:
        needed_values = _value_set(result.column(result_attribute.name))
        matches: list[str] = []
        for joined_attribute in joined.schema.attributes:
            if not _types_compatible(result_attribute.type, joined_attribute.type):
                continue
            name = joined_attribute.name
            available = domains.get(name)
            if available is None:
                available = domains[name] = _value_set(view.column(name))
            if not needed_values <= available:
                continue
            matches.append(name)
        if config.match_columns_by_name:
            named = [m for m in matches if _name_matches(result_attribute.name, m)]
            if named:
                matches = named
        if not matches:
            return []
        per_column_candidates.append(matches)

    projections: list[tuple[str, ...]] = []
    for combination in product(*per_column_candidates):
        if len(set(combination)) != len(combination):
            continue  # the same joined column cannot feed two result columns
        projections.append(tuple(combination))
        if len(projections) >= config.max_projection_mappings:
            break
    return projections
