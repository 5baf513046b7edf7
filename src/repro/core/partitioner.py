"""Partition candidate queries by their results on a (modified) database.

At each QFE iteration the surviving candidates ``QC'`` are partitioned into
result-equivalence classes on the newly generated database ``D'``: two
queries land in the same class exactly when they produce the same result on
``D'`` (Section 2). This module computes that partition by exact *batch*
evaluation: all candidates sharing a join schema are evaluated in one columnar
pass over the cached join (:meth:`~repro.relational.evaluator.JoinCache.evaluate_batch`),
with term masks, result materialization and fingerprints shared between
candidates. The per-class results the Result Feedback module presents come
straight from the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.relational.database import Database
from repro.relational.evaluator import JoinCache
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation

__all__ = [
    "QueryGroup",
    "QueryPartition",
    "partition_queries",
    "partition_from_batch",
    "partition_signature",
]


def partition_signature(fingerprints: Sequence[object]) -> tuple[int, ...]:
    """Canonical group ids induced by per-query result fingerprints.

    Queries with equal fingerprints share a group id; ids are assigned by
    first occurrence in query order, so the signature is a pure function of
    the fingerprint sequence — two evaluations of the same candidate
    modification produce the identical signature, which is what lets the
    round planner rank attempts without keeping their result relations.
    """
    ids: dict[object, int] = {}
    return tuple(ids.setdefault(fingerprint, len(ids)) for fingerprint in fingerprints)


@dataclass(frozen=True)
class QueryGroup:
    """One result-equivalence class: the queries and their common result."""

    query_indexes: tuple[int, ...]
    queries: tuple[SPJQuery, ...]
    result: Relation

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class QueryPartition:
    """The full partition of a candidate set induced by one database instance."""

    groups: tuple[QueryGroup, ...]

    @property
    def group_count(self) -> int:
        """The number of distinct results (the ``k`` shown to the user)."""
        return len(self.groups)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """Sizes of the groups, largest first."""
        return tuple(sorted((len(group) for group in self.groups), reverse=True))

    @property
    def distinguishes(self) -> bool:
        """Whether the database tells at least two candidates apart."""
        return self.group_count > 1

    def largest_group(self) -> QueryGroup:
        """The group with the most queries (worst-case user feedback picks this)."""
        return max(self.groups, key=lambda group: (len(group), -self.groups.index(group)))

    def group_containing(self, query: SPJQuery) -> QueryGroup | None:
        """The group containing *query* (by query equality), if any."""
        for group in self.groups:
            if any(candidate == query for candidate in group.queries):
                return group
        return None


def partition_queries(
    queries: Sequence[SPJQuery],
    database: Database,
    *,
    set_semantics: bool = False,
    result_name: str = "Result",
    join_cache: JoinCache | None = None,
) -> QueryPartition:
    """Group *queries* by their (bag or set) results on *database*.

    All candidates are evaluated in one batch per join schema: the columnar
    engine evaluates each distinct selection term once per join and
    fingerprints each distinct result once, instead of paying per candidate.
    """
    cache = join_cache or JoinCache()
    batch = cache.evaluate_batch(
        queries, database, set_semantics=set_semantics, name=result_name
    )
    return partition_from_batch(queries, batch)


def partition_from_batch(queries: Sequence[SPJQuery], batch) -> QueryPartition:
    """Group *queries* by the fingerprints of an existing batch evaluation.

    Exposed so a caller that already evaluated the batch (e.g. the round
    planner scoring the winning attempt) can build the partition without
    re-evaluating; :func:`partition_queries` is this plus the evaluation.
    """
    signature = partition_signature(batch.fingerprints)
    buckets: dict[int, list[int]] = {}
    results: dict[int, Relation] = {}
    for index, group_id in enumerate(signature):
        if group_id not in buckets:
            buckets[group_id] = []
            results[group_id] = batch.results[index]
        buckets[group_id].append(index)
    groups = []
    for group_id, indexes in buckets.items():
        groups.append(
            QueryGroup(
                query_indexes=tuple(indexes),
                queries=tuple(queries[i] for i in indexes),
                result=results[group_id],
            )
        )
    ordered = tuple(sorted(groups, key=lambda group: (-len(group), group.query_indexes)))
    return QueryPartition(ordered)
