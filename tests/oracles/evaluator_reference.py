"""Row-at-a-time evaluation: the oracle for the columnar engine.

:func:`evaluate_on_join_reference` interprets the DNF predicate on a
``name -> value`` mapping per joined row, exactly as the original evaluator
did; :func:`term_entry_reference` applies one compiled term to a column row
by row; :func:`pack_bools_reference` packs flags with per-chunk shifts.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.exceptions import EvaluationError
from repro.relational.database import Database
from repro.relational.evaluator import _check_join_covers, _normalize, result_schema
from repro.relational.join import JoinedRelation
from repro.relational.predicates import Term, compile_term
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation

__all__ = ["evaluate_on_join_reference", "term_entry_reference", "pack_bools_reference"]


def evaluate_on_join_reference(
    query: SPJQuery, joined: JoinedRelation, database: Database, *, name: str = "Result"
) -> Relation:
    """What :func:`~repro.relational.evaluator.evaluate_on_join` must return."""
    _check_join_covers(query, joined)
    output = Relation(result_schema(query, database, name=name))
    names = joined.relation.schema.attribute_names
    projection_positions = [joined.relation.schema.index_of(a) for a in query.projection]
    seen: set[tuple] = set()
    for row_tuple in joined.relation.tuples:
        if not query.predicate.evaluate_row(dict(zip(names, row_tuple.values))):
            continue
        projected = tuple(row_tuple.values[p] for p in projection_positions)
        if query.distinct:
            key = _normalize(projected)
            if key in seen:
                continue
            seen.add(key)
        output.insert(projected)
    return output


def term_entry_reference(values: Sequence[Any], term: Term) -> tuple[int, int, str | None]:
    """What ``ColumnarView._term_entry`` must hold for a column of *values*.

    ``(truth mask, error mask, message)``: the message is the first erroring
    row's, in row order.
    """
    test = compile_term(term)
    truth, errors, message = [], [], None
    for value in values:
        try:
            truth.append(test(value))
            errors.append(False)
        except EvaluationError as exc:
            truth.append(False)
            errors.append(True)
            message = message if message is not None else str(exc)
    return pack_bools_reference(truth), pack_bools_reference(errors), message


def pack_bools_reference(flags: Sequence[Any], chunk: int = 256) -> int:
    """What :func:`~repro.relational.columnar.pack_bools` must return."""
    mask = 0
    for start in range(0, len(flags), chunk):
        bits = 0
        for offset, flag in enumerate(flags[start : start + chunk]):
            if flag:
                bits |= 1 << offset
        mask |= bits << start
    return mask
