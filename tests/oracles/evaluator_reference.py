"""Row-at-a-time evaluation: the oracle for the compiled terms and the columnar engine.

:func:`evaluate_value_reference` and :func:`evaluate_row_reference` are the
term interpreter the library evaluated predicates with before every term went
through :func:`~repro.relational.predicates.compile_term`: one verdict per
value, and a DNF predicate interpreted on a ``name -> value`` mapping per
row. :func:`evaluate_on_join_reference` runs that interpreter over every
joined row; :func:`term_entry_reference` applies one compiled term to a
column row by row; :func:`pack_bools_reference` packs flags with per-chunk
shifts.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.exceptions import EvaluationError
from repro.relational.database import Database
from repro.relational.evaluator import _check_join_covers, _normalize, result_schema
from repro.relational.join import JoinedRelation
from repro.relational.predicates import ComparisonOp, Conjunct, DNFPredicate, Term, compile_term
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from tests.columns import joined_rows

__all__ = [
    "evaluate_value_reference",
    "evaluate_row_reference",
    "evaluate_on_join_reference",
    "term_entry_reference",
    "pack_bools_reference",
]


def evaluate_value_reference(term: Term, value: Any) -> bool:
    """Whether *term* holds for one attribute value.

    NULL never satisfies any comparison (SQL three-valued logic collapsed
    to "not selected", which is the behaviour of ``WHERE``).
    """
    if value is None:
        return False
    if term.op is ComparisonOp.IN:
        return any(value == c for c in term.constant)
    if term.op is ComparisonOp.NOT_IN:
        return not any(value == c for c in term.constant)
    if term.op is ComparisonOp.EQ:
        return value == term.constant
    if term.op is ComparisonOp.NE:
        return not value == term.constant
    left = value
    right = term.constant
    try:
        if term.op is ComparisonOp.LT:
            return left < right
        if term.op is ComparisonOp.LE:
            return left <= right
        if term.op is ComparisonOp.GT:
            return left > right
        if term.op is ComparisonOp.GE:
            return left >= right
    except TypeError as exc:
        raise EvaluationError(
            f"cannot compare {value!r} {term.op.value} {term.constant!r}"
        ) from exc
    raise EvaluationError(f"unsupported operator {term.op!r}")  # pragma: no cover


def _evaluate_term_row(term: Term, row: Mapping[str, Any]) -> bool:
    if term.attribute not in row:
        raise EvaluationError(f"row has no attribute {term.attribute!r}")
    return evaluate_value_reference(term, row[term.attribute])


def evaluate_row_reference(predicate: DNFPredicate | Conjunct, row: Mapping[str, Any]) -> bool:
    """Whether a predicate (or one conjunct) holds for a ``name -> value`` row.

    A conjunct holds when every term does (an empty one always holds); a
    predicate when any conjunct does (the empty disjunction always holds).
    Terms and conjuncts are tried left to right and stop at the first
    verdict, so an evaluation error surfaces only where it is reached.
    """
    if isinstance(predicate, Conjunct):
        return all(_evaluate_term_row(term, row) for term in predicate.terms)
    if not predicate.conjuncts:
        return True
    return any(evaluate_row_reference(conjunct, row) for conjunct in predicate.conjuncts)


def evaluate_on_join_reference(
    query: SPJQuery, joined: JoinedRelation, database: Database, *, name: str = "Result"
) -> Relation:
    """What :func:`~repro.relational.evaluator.evaluate_on_join` must return."""
    _check_join_covers(query, joined)
    output = Relation(result_schema(query, database, name=name))
    names = joined.attribute_names
    projection_positions = [joined.schema.index_of(a) for a in query.projection]
    seen: set[tuple] = set()
    for values in joined_rows(joined):
        if not evaluate_row_reference(query.predicate, dict(zip(names, values))):
            continue
        projected = tuple(values[p] for p in projection_positions)
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
