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
and fingerprinting between candidates that select identical rows. The
original row-at-a-time implementation is retained as
:func:`evaluate_on_join_reference` — the oracle the differential tests hold
the columnar engine against.

Bag semantics (duplicate-preserving) is the default, matching the paper's
Section 5 assumption; ``distinct=True`` on a query switches to set semantics
(Section 6.1).
"""

from __future__ import annotations

import pickle
import threading
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
    "evaluate_on_join_reference",
    "evaluate_batch",
    "BatchEvaluation",
    "result_schema",
    "results_equal",
    "result_fingerprint",
    "BaseSnapshot",
    "SharedSnapshotCache",
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


def evaluate_on_join_reference(
    query: SPJQuery,
    joined: JoinedRelation,
    database: Database,
    *,
    name: str = "Result",
) -> Relation:
    """Row-at-a-time reference implementation of :func:`evaluate_on_join`.

    Kept as the oracle for differential tests of the columnar engine: it
    builds a ``name -> value`` mapping per joined row and interprets the DNF
    predicate on it, exactly as the original evaluator did.
    """
    _check_join_covers(query, joined)
    schema = result_schema(query, database, name=name)
    output = Relation(schema)
    names = joined.relation.schema.attribute_names
    projection_positions = [joined.relation.schema.index_of(a) for a in query.projection]
    predicate = query.predicate
    seen: set[tuple] = set()
    for row_tuple in joined.relation.tuples:
        row = dict(zip(names, row_tuple.values))
        if not predicate.evaluate_row(row):
            continue
        projected = tuple(row_tuple.values[p] for p in projection_positions)
        if query.distinct:
            key = _normalize(projected)
            if key in seen:
                continue
            seen.add(key)
        output.insert(projected)
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


@dataclass
class BaseSnapshot:
    """A picklable snapshot of a base database and its materialized joins.

    The warm worker pool captures the session's base database ``D`` — plus
    the foreign-key join (and provenance) of every join signature the
    surviving candidates reference — exactly once and installs it in each
    worker process (fork-inherited or pickled). Every worker
    :meth:`restore`\\ s it into a
    private :class:`JoinCache` seeded with the same join objects the driver
    holds. Workers then evaluate candidate modifications purely by applying
    :class:`~repro.relational.delta.TupleDelta`\\ s against the seeded joins
    (:meth:`JoinCache.derive`), so no worker ever performs a full
    :func:`foreign_key_join` — a property pinned by
    :data:`~repro.relational.join.JOIN_STATS`.

    Pickling drops every non-picklable memo along the way (compiled term
    tests, cached term masks, join indexes, and the columnar views — whose
    typed buffers, zone maps and sorted term indexes are rebuilt lazily on
    rehydration — see ``JoinedRelation.__getstate__`` and
    ``ColumnarView.__getstate__``), so a snapshot round-trips through
    ``pickle`` by construction.
    """

    database: Database
    joins: dict[tuple[str, ...], JoinedRelation]

    @staticmethod
    def _key(tables: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(tables))

    @classmethod
    def capture(
        cls,
        database: Database,
        signatures: Iterable[Iterable[str]],
        *,
        join_cache: "JoinCache | None" = None,
    ) -> "BaseSnapshot":
        """Snapshot *database* with the joins for every given table signature.

        Joins come from *join_cache* when given (warm driver-side entries are
        reused, cold ones are built and cached for the driver too), otherwise
        from a throwaway cache.
        """
        cache = join_cache if join_cache is not None else JoinCache()
        joins: dict[tuple[str, ...], JoinedRelation] = {}
        for signature in signatures:
            key = cls._key(signature)
            if key and key not in joins:
                joins[key] = cache.join_for(database, key)
        return cls(database=database, joins=joins)

    @property
    def signatures(self) -> tuple[tuple[str, ...], ...]:
        """The join signatures the snapshot covers, deterministically ordered."""
        return tuple(sorted(self.joins))

    def covers(self, signatures: Iterable[Iterable[str]]) -> bool:
        """Whether every given signature has a snapshotted join."""
        return all(self._key(signature) in self.joins for signature in signatures)

    def restore(self) -> tuple[Database, "JoinCache"]:
        """Seed a fresh :class:`JoinCache` with the snapshotted joins.

        Returns the (worker-local, post-unpickling) database instance and the
        seeded cache; serving any snapshotted signature — or deriving a
        modified database from it — performs zero full joins.
        """
        cache = JoinCache()
        for signature, joined in self.joins.items():
            cache.adopt(self.database, signature, joined)
        return self.database, cache

    def to_bytes(self) -> bytes:
        """Pickle the snapshot (the payload broadcast to worker processes)."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BaseSnapshot":
        """Unpickle a snapshot previously produced by :meth:`to_bytes`."""
        snapshot = pickle.loads(payload)
        if not isinstance(snapshot, cls):
            raise TypeError(f"payload does not contain a {cls.__name__}")
        return snapshot

class SharedSnapshotCache:
    """Memoizes one :class:`BaseSnapshot` per live base database.

    A single QFE session re-captures its base snapshot only when the base
    state changes; a *service* hosting many sessions over the same example
    database must additionally share the captured snapshot **across**
    sessions, or every session switch would re-broadcast a fresh (identical)
    snapshot to the shared worker pool. This cache provides that sharing:
    sessions whose round planners hold the same cache — and evaluate against
    the same base database instance — receive the *same snapshot object*,
    which is exactly the identity the
    :class:`~repro.core.worker_runtime.WarmProcessPoolBackend` keys its
    install-once base version on.

    A memoized snapshot is reused only while it is *current*:

    * it was captured from the same live database instance (weakref-guarded,
      so a recycled ``id`` can never alias a dead database's snapshot);
    * it covers every requested join signature; and
    * it holds the very join objects the given :class:`JoinCache` currently
      serves — if the caller mutated the base in place and honoured the cache
      contract (``join_cache.invalidate``), the cache rebuilt fresh joins and
      the stale snapshot is dropped, forcing a re-capture (and, downstream, a
      re-broadcast to any worker pool).

    When a new signature set extends a still-current snapshot, the union of
    old and new signatures is captured so sessions with different candidate
    sets over one base never thrash each other's entry. All operations are
    thread-safe: the service layer proposes rounds from multiple sessions
    concurrently.

    Lifetime contract: a memoized snapshot strongly references its base
    database (it must — the snapshot is the picklable broadcast payload), so
    an entry **pins the base alive** until :meth:`evict` or :meth:`clear` is
    called. A cache owned by one planner simply dies with it; a long-lived
    shared cache (the session service) must evict alongside whatever
    base-lifetime bookkeeping it keeps — the
    :class:`~repro.service.manager.SessionManager` evicts a pair's snapshot
    when it prunes the pair. Because entries hold their database alive, a
    recycled ``id`` can never alias a dead database's snapshot.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._snapshots: dict[int, BaseSnapshot] = {}

    def _is_current(
        self,
        snapshot: BaseSnapshot | None,
        database: Database,
        signatures: Sequence[tuple[str, ...]],
        join_cache: "JoinCache",
    ) -> bool:
        if snapshot is None or snapshot.database is not database:
            return False
        if not snapshot.covers(signatures):
            return False
        return all(
            join_cache.join_for(database, signature)
            is snapshot.joins[BaseSnapshot._key(signature)]
            for signature in signatures
        )

    def snapshot_for(
        self,
        database: Database,
        signatures: Sequence[Iterable[str]],
        join_cache: "JoinCache",
    ) -> BaseSnapshot:
        """The memoized (or freshly captured) snapshot covering *signatures*."""
        keys = tuple(BaseSnapshot._key(signature) for signature in signatures)
        with self._lock:
            database_id = id(database)
            snapshot = self._snapshots.get(database_id)
            if self._is_current(snapshot, database, keys, join_cache):
                return snapshot
            capture_keys = set(keys)
            if snapshot is not None and snapshot.database is database:
                # Joins still identity-current for the *old* coverage are kept
                # so alternating signature sets extend instead of thrash.
                capture_keys.update(
                    key
                    for key in snapshot.signatures
                    if self._is_current(snapshot, database, (key,), join_cache)
                )
            snapshot = BaseSnapshot.capture(
                database, sorted(capture_keys), join_cache=join_cache
            )
            self._snapshots[database_id] = snapshot
            return snapshot

    def evict(self, database: Database) -> bool:
        """Drop the memoized snapshot of *database*; returns whether one existed.

        Required whenever a long-lived shared cache stops serving a base
        database (the entry would otherwise pin the database — and its
        joins — alive forever).
        """
        with self._lock:
            return self._snapshots.pop(id(database), None) is not None

    @property
    def snapshot_count(self) -> int:
        """Number of live memoized snapshots (diagnostics and tests)."""
        with self._lock:
            return len(self._snapshots)

    def clear(self) -> None:
        """Drop every memoized snapshot."""
        with self._lock:
            self._snapshots.clear()


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
    (e.g. on a reused :class:`~repro.core.database_generator.DatabaseGenerator`)
    stays correct across many database instances. What the cache cannot see
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

    def adopt(self, database: Database, tables: Iterable[str], joined: JoinedRelation) -> None:
        """Seed the cache with an externally materialized join for *database*.

        Used when rehydrating a :class:`BaseSnapshot` in a worker process:
        the snapshotted join is installed directly under its signature, so a
        later :meth:`join_for` (or a delta derivation hanging off it) never
        pays a full join. The usual finalizer-based eviction applies.
        """
        key = (id(database), tuple(sorted(tables)))
        self._cache[key] = joined
        self._memos.pop(key, None)
        self._watch(database)

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

    def memory_report(self) -> dict:
        """Aggregate storage footprint of every cached join's columnar view.

        Only views that were already built are counted — reporting never
        forces a build — and a join adopted under several cache keys is
        counted once. The per-view entries carry the join signature plus the
        :meth:`~repro.relational.columnar.ColumnarView.memory_report`
        breakdown, so sessions (and the scenario sweep) can attribute the
        resident typed-buffer bytes to the joins that own them.
        """
        views: list[dict] = []
        seen: set[int] = set()
        for (database_id, signature), joined in sorted(
            self._cache.items(), key=lambda item: (item[0][1], item[0][0])
        ):
            if id(joined) in seen:
                continue
            seen.add(id(joined))
            report = joined.columnar_memory_report()
            if report is None:
                continue
            views.append({"signature": list(signature), **report})
        total_bytes = sum(view["total_bytes"] for view in views)
        total_rows = sum(view["row_count"] for view in views)
        return {
            "view_count": len(views),
            "total_bytes": total_bytes,
            "joined_rows": total_rows,
            "bytes_per_joined_row": (total_bytes / total_rows) if total_rows else None,
            "views": views,
        }

    def clear(self) -> None:
        """Drop all cached joins and delta-derivation links."""
        for finalizer in self._finalizers.values():
            finalizer.detach()
        self._finalizers.clear()
        self._cache.clear()
        self._memos.clear()
        self._links.clear()
        self._children.clear()
