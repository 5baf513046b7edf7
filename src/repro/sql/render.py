"""Render query objects to SQL text.

The generated SQL targets the SQLite dialect (double-quoted identifiers,
``<>`` inequality). Joins are rendered as explicit ``INNER JOIN ... ON``
clauses along the schema's foreign keys when a
:class:`~repro.relational.schema.DatabaseSchema` is provided, and as a
comma-separated ``FROM`` list with ``WHERE`` join conditions otherwise.
This is the SQL a QFE user would take away once their target query has been
identified.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.relational.predicates import ComparisonOp, Conjunct, DNFPredicate, Term
from repro.relational.query import SPJQuery
from repro.relational.schema import DatabaseSchema, qualify
from repro.relational.types import exact_repr, float_literal

__all__ = [
    "render_query",
    "render_predicate",
    "render_value",
    "render_identifier",
    "render_from_clause",
    "OP_SQL",
]


def render_value(value: Any) -> str:
    """Render a constant as a SQL literal.

    Floats are rendered with full ``repr`` round-trip precision: SQLite
    parses the literal back to the bit-identical double, so the SQL sent to
    the oracle backend selects exactly the rows the in-memory evaluator
    selects. (``"{:g}"`` — 6 significant digits — silently rewrote constants
    like ``0.1234567`` to ``0.123457``, making the two engines disagree.)
    """
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        return float_literal(value)
    return exact_repr(value) if isinstance(value, int) else str(value)


def render_identifier(name: str) -> str:
    """Render a (possibly ``table.column``-qualified) identifier, quoted."""
    table, _, column = name.partition(".")
    if column:
        return f'"{table}"."{column}"'
    return f'"{table}"'


#: SQL operator text per comparison operator.
OP_SQL = {
    ComparisonOp.EQ: "=",
    ComparisonOp.NE: "<>",
    ComparisonOp.LT: "<",
    ComparisonOp.LE: "<=",
    ComparisonOp.GT: ">",
    ComparisonOp.GE: ">=",
}


def _render_term(term: Term) -> str:
    identifier = render_identifier(term.attribute)
    if term.op is ComparisonOp.IN or term.op is ComparisonOp.NOT_IN:
        values = ", ".join(render_value(v) for v in term.constant)
        keyword = "IN" if term.op is ComparisonOp.IN else "NOT IN"
        return f"{identifier} {keyword} ({values})"
    return f"{identifier} {OP_SQL[term.op]} {render_value(term.constant)}"


def _render_conjunct(conjunct: Conjunct) -> str:
    if not conjunct.terms:
        return "1 = 1"
    return " AND ".join(_render_term(term) for term in conjunct.terms)


def render_predicate(predicate: DNFPredicate) -> str:
    """Render a DNF predicate as a SQL boolean expression."""
    if predicate.is_true:
        return "1 = 1"
    if len(predicate.conjuncts) == 1:
        return _render_conjunct(predicate.conjuncts[0])
    return " OR ".join(f"({_render_conjunct(c)})" for c in predicate.conjuncts)


def render_from_clause(tables: Sequence[str], schema: DatabaseSchema | None) -> str:
    """The FROM clause joining *tables* along the schema's foreign keys.

    With a schema, multi-table joins are rendered as explicit ``INNER JOIN
    ... ON`` clauses along a spanning tree of the foreign-key graph — the
    exact join :func:`~repro.relational.join.foreign_key_join` materializes,
    which is what lets the SQLite oracle reproduce the evaluator's joined-row
    multiplicities. Without a schema the caller gets a plain
    comma-separated table list (single-table queries only, in practice).
    """
    tables = list(tables)
    if len(tables) == 1 or schema is None:
        # Without a schema we cannot know the join columns; the caller is
        # expected to pass the schema for multi-table queries.
        return ", ".join(f'"{t}"' for t in tables)

    spanning = schema.spanning_foreign_keys(tables)
    joined = [tables[0]]
    clause = f'"{tables[0]}"'
    remaining = list(spanning)
    while remaining:
        progressed = False
        for fk in list(remaining):
            if fk.child_table in joined and fk.parent_table not in joined:
                new_table = fk.parent_table
            elif fk.parent_table in joined and fk.child_table not in joined:
                new_table = fk.child_table
            else:
                continue
            conditions = " AND ".join(
                f"{render_identifier(qualify(fk.child_table, child))} = "
                f"{render_identifier(qualify(fk.parent_table, parent))}"
                for child, parent in fk.column_pairs()
            )
            clause += f'\n  INNER JOIN "{new_table}" ON {conditions}'
            joined.append(new_table)
            remaining.remove(fk)
            progressed = True
            break
        if not progressed:  # pragma: no cover - schema guarantees connectivity
            break
    return clause


def render_query(query: SPJQuery, schema: DatabaseSchema | None = None) -> str:
    """Render an SPJ query as a SQL SELECT statement."""
    select_kind = "SELECT DISTINCT" if query.distinct else "SELECT"
    projection = ", ".join(render_identifier(a) for a in query.projection)
    from_clause = render_from_clause(query.tables, schema)
    lines = [f"{select_kind} {projection}", f"FROM {from_clause}"]
    if not query.predicate.is_true:
        lines.append("WHERE " + render_predicate(query.predicate))
    return "\n".join(lines)

