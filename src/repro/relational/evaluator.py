"""Query evaluation for SPJ and SPJU queries.

The evaluator executes queries against a :class:`~repro.relational.database.Database`
by materializing the foreign-key join of the query's tables and then applying
the selection predicate and the projection. For the QFE inner loops — which
evaluate many candidate queries over the *same* join — the evaluator also
accepts a pre-joined :class:`~repro.relational.join.JoinedRelation` so the
join is computed once per database instance.

Execution is columnar and late-materialized: predicates are compiled into
column-wise mask evaluators (:mod:`repro.relational.columnar`), distinct
selection terms are evaluated once per join and cached as bitmasks, and each
candidate only pays for combining cached masks plus gathering its selected
rows. :func:`evaluate_batch` evaluates a whole candidate set in a single pass
over the join, sharing term masks *and* deduplicating result materialization
and fingerprinting between candidates that select identical rows.

Bag semantics (duplicate-preserving) is the default, matching the paper's
Section 5 assumption; ``distinct=True`` on a query switches to set semantics
(Section 6.1).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.exceptions import UnsupportedQueryError
from repro.obs.trace import get_tracer
from repro.relational.columnar import ColumnarView, mask_positions
from repro.relational.database import Database
from repro.relational.join import JoinedRelation, foreign_key_join
from repro.relational.query import SPJQuery, SPJUQuery
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, TableSchema
from repro.relational.types import canonical_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.delta import TupleDelta

__all__ = [
    "evaluate",
    "evaluate_on_join",
    "evaluate_batch",
    "BatchEvaluation",
    "result_schema",
    "results_equal",
    "result_fingerprint",
    "JoinCache",
]


def result_schema(query: SPJQuery, database: Database, *, name: str = "Result") -> TableSchema:
    """The schema of the query's output relation (qualified projection names)."""
    attributes: list[Attribute] = []
    for qualified in query.projection:
        table, _, column = qualified.partition(".")
        declared = database.schema.table(table).attribute(column)
        attributes.append(Attribute(qualified, declared.type, declared.nullable))
    return TableSchema(name, attributes)


def evaluate(query: SPJQuery | SPJUQuery, database: Database, *, name: str = "Result") -> Relation:
    """Execute *query* on *database* and return its result relation."""
    if isinstance(query, SPJUQuery):
        return _evaluate_union(query, database, name=name)
    query.validate(database.schema)
    joined = foreign_key_join(database, query.tables)
    return evaluate_on_join(query, joined, database, name=name)


def _check_join_covers(query: SPJQuery, joined: JoinedRelation) -> None:
    missing = set(query.tables) - set(joined.tables)
    if missing:
        raise UnsupportedQueryError(
            f"pre-joined relation lacks tables {sorted(missing)} required by the query"
        )


def evaluate_on_join(
    query: SPJQuery,
    joined: JoinedRelation,
    database: Database,
    *,
    name: str = "Result",
    columnar: ColumnarView | None = None,
) -> Relation:
    """Execute an SPJ query against a pre-materialized join of its tables.

    The join must cover every table the query references (a superset join is
    allowed, which is how QFE evaluates all candidates over the single full
    foreign-key join ``T``). Execution is columnar: the selection predicate is
    evaluated column-wise into a row mask (shared term masks are cached on the
    join's :class:`~repro.relational.columnar.ColumnarView`) and only the
    selected rows are materialized.
    """
    _check_join_covers(query, joined)
    schema = result_schema(query, database, name=name)
    projection_positions = [joined.relation.schema.index_of(a) for a in query.projection]
    view = columnar if columnar is not None else joined.columnar()
    mask = view.predicate_mask(query.predicate)
    return _materialize_selection(view, mask, projection_positions, schema, query.distinct)


def _materialize_selection(
    view: ColumnarView,
    mask: int,
    projection_positions: Sequence[int],
    schema: TableSchema,
    distinct: bool,
) -> Relation:
    output = Relation(schema)
    rows = view.gather(mask, projection_positions)
    if distinct:
        rows = _distinct_rows(rows)
    # Projected values are verbatim copies of already-coerced stored values,
    # so the raw append path is safe (and skips per-cell coercion).
    output.extend_raw(rows)
    return output


@dataclass(frozen=True)
class BatchEvaluation:
    """Results (and optional fingerprints) of evaluating many candidates at once.

    ``results[i]`` / ``fingerprints[i]`` correspond to the *i*-th query passed
    to :func:`evaluate_batch`. Candidates that select identical rows under the
    same projection share one :class:`Relation` instance and one fingerprint —
    callers must treat the result relations as read-only.
    """

    results: tuple[Relation, ...]
    fingerprints: tuple[Any, ...] | None

    def __len__(self) -> int:
        return len(self.results)


def evaluate_batch(
    queries: Sequence[SPJQuery],
    joined: JoinedRelation,
    database: Database,
    *,
    set_semantics: bool = False,
    name: str = "Result",
    with_fingerprints: bool = True,
    columnar: ColumnarView | None = None,
) -> BatchEvaluation:
    """Evaluate all *queries* over one pre-materialized join in a single pass.

    Term masks are shared across candidates through the join's columnar view,
    and candidates whose (selection mask, projection, distinct) coincide share
    the materialized result and its fingerprint — so a batch of ``q`` queries
    with ``t`` distinct terms and ``g`` distinct results costs ``O(t)`` column
    scans plus ``O(g)`` result materializations, not ``O(q)`` of each.
    """
    view = columnar if columnar is not None else joined.columnar()
    join_schema = joined.relation.schema
    results: list[Relation] = []
    fingerprints: list[Any] = []
    shared: dict[tuple, tuple[Relation, Any]] = {}
    for query in queries:
        _check_join_covers(query, joined)
        projection_positions = tuple(join_schema.index_of(a) for a in query.projection)
        mask = view.predicate_mask(query.predicate)
        key = (mask, projection_positions, query.distinct)
        cached = shared.get(key)
        if cached is None:
            result = _materialize_selection(
                view,
                mask,
                projection_positions,
                result_schema(query, database, name=name),
                query.distinct,
            )
            fingerprint = (
                result_fingerprint(result, set_semantics=set_semantics)
                if with_fingerprints
                else None
            )
            cached = (result, fingerprint)
            shared[key] = cached
        results.append(cached[0])
        fingerprints.append(cached[1])
    return BatchEvaluation(
        results=tuple(results),
        fingerprints=tuple(fingerprints) if with_fingerprints else None,
    )


def _evaluate_union(query: SPJUQuery, database: Database, *, name: str) -> Relation:
    query.validate(database.schema)
    first = evaluate(query.branches[0], database, name=name)
    output = Relation(first.schema)
    seen: set[tuple] = set()
    for branch in query.branches:
        branch_result = evaluate(branch, database, name=name)
        for row in branch_result.rows():
            if query.distinct:
                key = _normalize(row)
                if key in seen:
                    continue
                seen.add(key)
            output.insert(row)
    return output


def _normalize(row: Iterable[Any]) -> tuple:
    # Exact canonical form for DISTINCT deduplication: equal numerics share a
    # key without the precision loss of a float() round-trip (distinct
    # integers ≥ 2^53 must never dedup onto one row).
    return tuple(canonical_value(v) for v in row)


def _distinct_rows(rows: list[tuple[Any, ...]]) -> list[tuple[Any, ...]]:
    seen: set[tuple] = set()
    unique: list[tuple[Any, ...]] = []
    for row in rows:
        key = _normalize(row)
        if key in seen:
            continue
        seen.add(key)
        unique.append(row)
    return unique


def results_equal(left: Relation, right: Relation, *, set_semantics: bool = False) -> bool:
    """Whether two result relations are equal under bag (default) or set semantics."""
    if set_semantics:
        return left.set_equal(right)
    return left.bag_equal(right)


def result_fingerprint(result: Relation, *, set_semantics: bool = False) -> frozenset | tuple:
    """A hashable fingerprint of a result used to group equivalent candidate queries.

    Fingerprint equality is exactly bag (resp. set) equality of the results:
    the bag fingerprint is the multiset of normalized rows under a total,
    content-only ordering, so equal bags always produce equal fingerprints
    regardless of row order.
    """
    if set_semantics:
        return result.set_of_rows()
    return tuple(
        sorted(
            result.bag_of_rows().items(),
            key=lambda item: (tuple(map(_sort_key, item[0])), repr(item[0])),
        )
    )


def _sort_key(value: Any) -> tuple:
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, str(int(value)))
    if isinstance(value, (int, float)):
        return (2, f"{float(value):030.10f}")
    return (3, str(value))


class JoinCache:
    """Caches materialized joins — and their columnar views — per database.

    QFE evaluates every surviving candidate on each newly generated modified
    database; candidates share at most a handful of distinct join schemas, so
    caching the join per database instance removes the dominant recomputation.
    Each cached :class:`JoinedRelation` lazily carries a
    :class:`~repro.relational.columnar.ColumnarView` whose term-mask cache is
    shared by every candidate evaluated through the cache.

    The cache is keyed on ``id(database)``. A weakref finalizer evicts all of
    a database's entries the moment the instance is garbage-collected, so a
    recycled id can never alias a dead database's joins — a long-lived cache
    (e.g. on a reused :class:`~repro.core.round_planner.RoundPlanner`) stays
    correct across many database instances. What the cache cannot see
    is *in-place modification* of a live database it holds joins for; call
    :meth:`invalidate` in that case and the stale join and its columnar view
    are dropped together (QFE itself always works on fresh copies).

    **Delta derivation.** :meth:`derive` registers a modified copy ``D'`` as
    a delta-derived child of its base ``D``. Any join subsequently requested
    for ``D'`` is produced by patching the base's cached join through
    :meth:`JoinedRelation.apply_delta` — sharing unmodified tuples, columns
    and term masks copy-on-write — instead of re-joining ``D'`` from scratch.
    Derived entries are evicted together with their base: invalidating or
    garbage-collecting ``D`` drops every entry derived from it (the derived
    state was patched out of the base entry, so it must not outlive it).

    **Memos.** :meth:`memo_for` hands out a small store held with one join
    entry; the round planner keeps its prologue memo there. It lives exactly
    as long as the entry: :meth:`invalidate`, :meth:`clear` and the
    garbage-collection finalizer drop it together with the join.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[int, tuple[str, ...]], JoinedRelation] = {}
        self._memos: dict[tuple[int, tuple[str, ...]], OrderedDict] = {}
        self._finalizers: dict[int, weakref.finalize] = {}
        #: derived database id -> (base database id, weakref to base, delta)
        self._links: dict[int, tuple[int, weakref.ref, Any]] = {}
        #: base database id -> ids of databases derived from it
        self._children: dict[int, set[int]] = {}

    def join_for(self, database: Database, tables: Iterable[str]) -> JoinedRelation:
        """Return (and memoize) the foreign-key join of *tables* on *database*.

        For a database registered through :meth:`derive`, the join is derived
        incrementally from the base database's cached join instead of being
        rebuilt cold.
        """
        key = (id(database), tuple(sorted(tables)))
        if key not in self._cache:
            self._cache[key] = self._build_entry(database, tables)
            self._watch(database)
        return self._cache[key]

    def memo_for(self, database: Database, tables: Iterable[str]) -> OrderedDict:
        """The memo held with the cached join of *tables* on *database*.

        Built (empty) on first use, together with the join entry if needed.
        The cache never reads it; it only ties the memo's lifetime to the
        join's, so a memo can never outlive — or be served for — a rebuilt
        join.
        """
        key = (id(database), tuple(sorted(tables)))
        self.join_for(database, tables)
        return self._memos.setdefault(key, OrderedDict())

    def _build_entry(self, database: Database, tables: Iterable[str]) -> JoinedRelation:
        link = self._links.get(id(database))
        if link is not None:
            _, base_ref, delta = link
            base = base_ref()
            if base is not None:
                return self.join_for(base, tables).apply_delta(delta, base)
        return foreign_key_join(database, list(tables))

    def derive(
        self,
        base: Database,
        delta: "TupleDelta",
        derived: Database,
        tables: Iterable[str] | None = None,
    ) -> JoinedRelation | None:
        """Register *derived* as the delta-modified copy of *base*.

        Every join the cache later serves for *derived* is patched out of the
        corresponding (cached, possibly warm) join of *base* via
        :meth:`JoinedRelation.apply_delta`, per join signature on demand.
        When *tables* is given the entry for that signature is derived
        eagerly and returned. The lifetime of derived entries is tied to the
        base: :meth:`invalidate` on (or garbage collection of) *base* evicts
        them, and the link itself dies with either database.
        """
        base_id, derived_id = id(base), id(derived)
        if base_id == derived_id:
            raise ValueError("cannot derive a database from itself")
        with get_tracer().span("join.derive", eager=tables is not None):
            self._links[derived_id] = (base_id, weakref.ref(base), delta)
            self._children.setdefault(base_id, set()).add(derived_id)
            self._watch(base)
            self._watch(derived)
            if tables is not None:
                return self.join_for(derived, tables)
            return None

    def _watch(self, database: Database) -> None:
        """Evict the database's entries when it is deallocated (id-reuse guard)."""
        database_id = id(database)
        if database_id in self._finalizers:
            return
        cache_ref = weakref.ref(self)  # the finalizer must not keep the cache alive

        def evict(database_id: int = database_id) -> None:
            cache = cache_ref()
            if cache is not None:
                cache._drop(database_id)

        self._finalizers[database_id] = weakref.finalize(database, evict)

    def _drop(self, database_id: int) -> None:
        finalizer = self._finalizers.pop(database_id, None)
        if finalizer is not None:
            finalizer.detach()
        # Sever the derived-from link if this database was itself derived.
        link = self._links.pop(database_id, None)
        if link is not None:
            siblings = self._children.get(link[0])
            if siblings is not None:
                siblings.discard(database_id)
                if not siblings:
                    del self._children[link[0]]
        # Derived entries were patched out of this database's entries (sharing
        # columns and masks copy-on-write); evict them alongside their base.
        for child_id in self._children.pop(database_id, ()):
            self._drop(child_id)
        stale = [key for key in self._cache if key[0] == database_id]
        for key in stale:
            self._cache.pop(key).invalidate_columnar()
            self._memos.pop(key, None)

    def columnar_for(self, database: Database, tables: Iterable[str]) -> ColumnarView:
        """The columnar view (with shared term-mask cache) of a cached join."""
        return self.join_for(database, tables).columnar()

    def evaluate(self, query: SPJQuery, database: Database, *, name: str = "Result") -> Relation:
        """Evaluate an SPJ query using the cached join for its table set."""
        query.validate(database.schema)
        joined = self.join_for(database, query.tables)
        return evaluate_on_join(query, joined, database, name=name)

    def evaluate_batch(
        self,
        queries: Sequence[SPJQuery],
        database: Database,
        *,
        set_semantics: bool = False,
        name: str = "Result",
        with_fingerprints: bool = True,
    ) -> BatchEvaluation:
        """Evaluate all *queries* on *database*, one shared pass per join schema.

        Queries are grouped by their join signature; each group is evaluated
        through :func:`evaluate_batch` over the cached join, so term masks,
        result materialization and fingerprints are shared within each group.
        Results come back in the order of *queries*.
        """
        results: list[Relation | None] = [None] * len(queries)
        fingerprints: list[Any] = [None] * len(queries)
        by_signature: dict[tuple[str, ...], list[int]] = {}
        for index, query in enumerate(queries):
            query.validate(database.schema)
            by_signature.setdefault(query.join_signature, []).append(index)
        for signature, indexes in by_signature.items():
            joined = self.join_for(database, signature)
            batch = evaluate_batch(
                [queries[i] for i in indexes],
                joined,
                database,
                set_semantics=set_semantics,
                name=name,
                with_fingerprints=with_fingerprints,
            )
            for local, index in enumerate(indexes):
                results[index] = batch.results[local]
                if with_fingerprints:
                    fingerprints[index] = batch.fingerprints[local]
        return BatchEvaluation(
            results=tuple(results),  # type: ignore[arg-type]
            fingerprints=tuple(fingerprints) if with_fingerprints else None,
        )

    def invalidate(self, database: Database) -> None:
        """Drop every cached join (and columnar view) of *database*.

        Must be called when a database instance that joins were cached for is
        modified in place, so later evaluations rebuild from the new contents.
        Entries delta-derived *from* this database are evicted with it — they
        share patched state with the base entries and must not outlive them.
        (Deallocation is handled automatically by a weakref finalizer.)
        """
        self._drop(id(database))

    @property
    def cached_join_count(self) -> int:
        """Number of joins currently cached (diagnostics and tests)."""
        return len(self._cache)

    @property
    def derived_link_count(self) -> int:
        """Number of live delta-derivation links (diagnostics and tests)."""
        return len(self._links)

    def clear(self) -> None:
        """Drop all cached joins and delta-derivation links."""
        for finalizer in self._finalizers.values():
            finalizer.detach()
        self._finalizers.clear()
        self._cache.clear()
        self._memos.clear()
        self._links.clear()
        self._children.clear()
