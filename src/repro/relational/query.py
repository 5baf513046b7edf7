"""Query objects: select-project-join (SPJ) queries.

The paper's candidate queries are SPJ queries ``π_ℓ(σ_p(J))`` where ``J`` is
a foreign-key join of a subset of the database relations, ``ℓ`` a projection
list over ``J``'s qualified attributes and ``p`` a DNF selection predicate
(Section 4).

Queries are immutable value objects. They do not evaluate themselves — the
:mod:`repro.relational.evaluator` module executes them on a
:class:`~repro.relational.database.Database` (or on a pre-joined relation,
which is how the QFE inner loops avoid recomputing the join).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import SchemaError, UnsupportedQueryError
from repro.relational.predicates import DNFPredicate
from repro.relational.schema import DatabaseSchema

__all__ = ["SPJQuery"]


@dataclass(frozen=True)
class SPJQuery:
    """A select-project-join query ``π_ℓ(σ_p(⋈ tables))``.

    Attributes
    ----------
    tables:
        The relations participating in the foreign-key join, in join order.
    projection:
        Qualified attribute names (``table.column``) projected, in output order.
    predicate:
        The DNF selection predicate over qualified attribute names.
    distinct:
        ``False`` (default) for the paper's duplicate-preserving bag semantics,
        ``True`` for set semantics (Section 6.1).
    """

    tables: tuple[str, ...]
    projection: tuple[str, ...]
    predicate: DNFPredicate = field(default_factory=DNFPredicate.true)
    distinct: bool = False

    def __init__(
        self,
        tables: Iterable[str],
        projection: Iterable[str],
        predicate: DNFPredicate | None = None,
        *,
        distinct: bool = False,
    ) -> None:
        object.__setattr__(self, "tables", tuple(tables))
        object.__setattr__(self, "projection", tuple(projection))
        object.__setattr__(self, "predicate", predicate if predicate is not None else DNFPredicate.true())
        object.__setattr__(self, "distinct", distinct)
        if not self.tables:
            raise SchemaError("an SPJ query must reference at least one table")
        if not self.projection:
            raise SchemaError("an SPJ query must project at least one attribute")

    # -------------------------------------------------------------- structure
    @property
    def join_signature(self) -> tuple[str, ...]:
        """The sorted tuple of joined tables (the query's join schema identity)."""
        return tuple(sorted(self.tables))

    def selection_attributes(self) -> tuple[str, ...]:
        """Qualified attributes mentioned in the selection predicate."""
        return self.predicate.attributes()

    def validate(self, schema: DatabaseSchema) -> None:
        """Check that tables, projection and predicate attributes exist and join.

        Raises :class:`SchemaError` / :class:`UnsupportedQueryError` otherwise.
        """
        for table in self.tables:
            schema.table(table)
        if not schema.is_join_connected(self.tables):
            raise UnsupportedQueryError(
                f"tables {list(self.tables)} are not connected by foreign keys"
            )
        known = set()
        for table in self.tables:
            known.update(schema.table(table).qualified_names())
        for attribute in self.projection:
            if attribute not in known:
                raise SchemaError(f"projected attribute {attribute!r} is not in the join")
        for attribute in self.selection_attributes():
            if attribute not in known:
                raise SchemaError(f"selection attribute {attribute!r} is not in the join")

    def with_predicate(self, predicate: DNFPredicate) -> "SPJQuery":
        """A copy of this query with a different selection predicate."""
        return SPJQuery(self.tables, self.projection, predicate, distinct=self.distinct)

    def with_distinct(self, distinct: bool = True) -> "SPJQuery":
        """A copy of this query with set (``DISTINCT``) semantics toggled."""
        return SPJQuery(self.tables, self.projection, self.predicate, distinct=distinct)

    # -------------------------------------------------------------- identity
    def canonical_key(self) -> tuple:
        """A hashable identity used to deduplicate candidate queries."""
        return (
            self.join_signature,
            self.projection,
            self.predicate.canonical_key(),
            self.distinct,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SPJQuery):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __str__(self) -> str:
        from repro.sql.render import render_query  # local import to avoid a cycle

        return render_query(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SPJQuery(tables={list(self.tables)}, projection={list(self.projection)}, "
            f"predicate={self.predicate}, distinct={self.distinct})"
        )

