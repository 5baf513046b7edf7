"""Execution backends for the round planner's candidate-modification search.

Every QFE round scores a deterministic sequence of *attempts* — candidate
class-pair sets, the Algorithm 4 subset first, then the skyline singles in
balance order — by concretely materializing each attempt against the base
database and computing the exact candidate-query partition it induces. The
:class:`~repro.core.round_planner.RoundPlanner` plans the round (the
prologue) on the driver for every backend; this module defines the backend
interface that scores the planned attempts, the attempt payloads and the
serial substrate:

* :class:`SerialBackend` evaluates attempts in order, in process, against the
  driver's own join cache. It is the differential oracle.
* :class:`~repro.core.worker_runtime.WarmProcessPoolBackend` (the one
  parallel backend) shards attempts into contiguous :class:`WorkUnit`\\ s
  over persistent workers holding a
  :class:`~repro.relational.evaluator.BaseSnapshot` replica, and merges
  their outcomes back in attempt order.

Determinism contract: attempt evaluation is a pure function of
``(base database, round context, attempt)`` — materialization, delta
application and fingerprinting contain no randomness — and outcomes are
merged by ascending attempt index, so the winning attempt is independent of
worker count, scheduling order and sharding.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.config import BACKEND_CHOICES, QFEConfig, backend_name
from repro.obs.registry import RegistryStats
from repro.core.materialize import materialize_pairs
from repro.core.modification import ClassPair
from repro.core.partitioner import partition_signature
from repro.core.tuple_class import TupleClassSpace
from repro.relational.database import Database
from repro.relational.evaluator import BaseSnapshot, JoinCache
from repro.relational.join import JOIN_STATS
from repro.relational.query import SPJQuery

__all__ = [
    "BACKEND_STATS",
    "RoundContext",
    "WorkUnit",
    "AttemptOutcome",
    "RoundRuntime",
    "RoundSetup",
    "ExecutionBackend",
    "SerialBackend",
    "BACKEND_CHOICES",
    "backend_name",
    "create_backend",
    "shard_attempts",
    "required_signatures",
    "build_round_runtime",
    "evaluate_attempt",
]

Attempt = tuple[ClassPair, ...]


class BackendStats(RegistryStats):
    """Process-wide counters for the warm pool's state shipping and workers.

    Registry-backed (``qfe_backend_*``): increments made inside worker
    processes (installs, attempt timings) ride back to the driver with each
    reply's counter deltas and merge commutatively, so the totals are
    scheduling-independent. ``bytes_shipped`` counts what the driver puts on
    the wire: base installs plus the pickled round body every work unit
    carries.
    """

    _PREFIX = "qfe_backend"
    _FIELDS = (
        "bytes_shipped",
        "snapshot_installs",
        "worker_resyncs",
        "pool_rebuilds",
        "units_dispatched",
        "attempts_evaluated",
        "attempt_micros",
    )
    _HELP = {
        "bytes_shipped": "Driver-side state bytes put on the wire (installs, round bodies).",
        "snapshot_installs": "Full base installs performed by workers (fork-seeded installs included).",
        "worker_resyncs": "need-sync replies answered with an authoritative install.",
        "pool_rebuilds": "Worker pools rebuilt after a crash (BrokenProcessPool).",
        "units_dispatched": "Work units dispatched to warm workers.",
        "attempts_evaluated": "Attempts evaluated by warm workers.",
        "attempt_micros": "Microseconds warm workers spent evaluating attempts.",
    }


BACKEND_STATS = BackendStats()


# --------------------------------------------------------------------- payloads
@dataclass(frozen=True)
class RoundContext:
    """The picklable per-round description every backend evaluates against.

    Together with the base database it is everything a worker needs to
    rebuild the tuple-class space and score attempts. Its pickle is the
    round *body*: the planner makes it once per round, keys its prologue
    memo on it, and every warm work unit carries those bytes.
    """

    queries: tuple[SPJQuery, ...]
    config: QFEConfig
    referenced: tuple[str, ...]
    result_name: str
    result_arity: int = 0


@dataclass(frozen=True)
class WorkUnit:
    """A contiguous shard of the round's attempt sequence."""

    index: int
    start: int
    attempts: tuple[Attempt, ...]

    def __len__(self) -> int:
        return len(self.attempts)


@dataclass(frozen=True)
class AttemptOutcome:
    """The compact, picklable result of concretely scoring one attempt.

    Workers return these instead of materialized databases or result
    relations: the partition signature (canonical group id per query, see
    :func:`~repro.core.partitioner.partition_signature`) plus the
    modification counts are enough for the driver to rank attempts and
    re-materialize only the winner. ``full_joins`` reports how many full
    join materializations the evaluation performed — the delta-only worker
    protocol requires it to be zero.
    """

    attempt_index: int
    pairs: Attempt
    applied: bool
    distinguishes: bool
    signature: tuple[int, ...] | None
    group_sizes: tuple[int, ...]
    modification_count: int
    modified_tuple_count: int
    modified_relation_count: int
    side_effect_count: int
    skipped_pair_count: int
    db_cost: float
    full_joins: int


@dataclass
class RoundRuntime:
    """The state attempts are evaluated against (driver- or worker-side)."""

    database: Database
    space: TupleClassSpace
    join_cache: JoinCache


@dataclass
class RoundSetup:
    """Everything a backend needs to run one round's attempts.

    ``context`` is the picklable part and ``body`` its pickle (made once per
    round by the planner); ``database``/``space``/``join_cache`` are the
    driver-local live objects the serial backend evaluates against;
    ``snapshot_provider`` lazily captures (and memoizes, planner-side) the
    :class:`BaseSnapshot` the warm pool installs in its workers.

    ``winner_store`` is an optional driver-local sink: an in-process backend
    that concretely scored the winning attempt may deposit the winner's
    :class:`MaterializationResult` (keys ``attempt_index`` and
    ``materialization``, with the derived cache entry left registered) so
    the planner's finalize step reuses it instead of re-materializing.
    Remote backends ignore it — their workers only ship compact outcomes.
    """

    context: RoundContext
    body: bytes
    database: Database
    space: TupleClassSpace
    join_cache: JoinCache
    snapshot_provider: Callable[[], BaseSnapshot]
    winner_store: dict | None = None


# --------------------------------------------------------------------- sharding
def shard_attempts(attempts: Sequence[Attempt], unit_count: int) -> list[WorkUnit]:
    """Split *attempts* into at most *unit_count* contiguous, balanced work units.

    Units preserve attempt order (unit ``i`` holds a contiguous slice that
    starts where unit ``i-1`` ended) and differ in size by at most one, so
    merging unit results by unit index reproduces the serial attempt order
    exactly — the invariant behind backend-independent winners.
    """
    total = len(attempts)
    if total == 0:
        return []
    unit_count = max(1, min(unit_count, total))
    base_size, remainder = divmod(total, unit_count)
    units: list[WorkUnit] = []
    start = 0
    for index in range(unit_count):
        size = base_size + (1 if index < remainder else 0)
        units.append(
            WorkUnit(
                index=index,
                start=start,
                attempts=tuple(tuple(attempt) for attempt in attempts[start : start + size]),
            )
        )
        start += size
    return units


def required_signatures(context: RoundContext) -> tuple[tuple[str, ...], ...]:
    """All join signatures a backend must be able to serve for the round."""
    signatures = {tuple(sorted(context.referenced))}
    for query in context.queries:
        signatures.add(tuple(sorted(query.join_signature)))
    return tuple(sorted(signatures))


# ------------------------------------------------------------------- evaluation
def build_round_runtime(
    database: Database, join_cache: JoinCache, context: RoundContext
) -> RoundRuntime:
    """Build (and warm) the evaluation state for one round.

    The tuple-class space is reconstructed from the cached join of the
    referenced tables — deterministic, so worker-side spaces match the
    driver's bit for bit. The base joins for every query signature are then
    warmed (at most once per live join instance, across rounds) so each
    attempt's delta-derived view patches cached term masks in O(|Δ|)
    instead of rebuilding them.
    """
    joined = join_cache.join_for(database, context.referenced)
    space = TupleClassSpace(joined, context.queries)
    ensure_base_masks_warm(database, join_cache, context)
    return RoundRuntime(database=database, space=space, join_cache=join_cache)


def warm_base_masks(database: Database, join_cache: JoinCache, context: RoundContext) -> None:
    """Evaluate the candidate batch once on the base to populate term masks."""
    join_cache.evaluate_batch(
        context.queries,
        database,
        set_semantics=context.config.set_semantics,
        name=context.result_name,
        with_fingerprints=False,
    )


# Base joins whose term masks were already warmed, tracked process-wide by
# join-object identity via weakrefs: a join served by a long-lived cache
# (driver or worker) is warmed once across all rounds — later rounds'
# candidates are (near-)subsets of the first round's, and a genuinely new
# term just builds lazily on the derived view as it always did — while a
# rebuilt join (``join_cache.invalidate`` after an in-place base mutation)
# is a new object and is warmed again. Dead or id-recycled joins can never
# satisfy the guard.
_WARMED_BASE_JOINS: dict[int, weakref.ref] = {}


def ensure_base_masks_warm(
    database: Database, join_cache: JoinCache, context: RoundContext
) -> None:
    """Warm the base term masks at most once per live join instance."""
    joined = join_cache.join_for(database, context.referenced)
    ref = _WARMED_BASE_JOINS.get(id(joined))
    if ref is not None and ref() is joined:
        return
    warm_base_masks(database, join_cache, context)
    for key, stale in list(_WARMED_BASE_JOINS.items()):
        if stale() is None:
            del _WARMED_BASE_JOINS[key]
    _WARMED_BASE_JOINS[id(joined)] = weakref.ref(joined)


def evaluate_attempt(
    runtime: RoundRuntime,
    context: RoundContext,
    attempt_index: int,
    pairs: Attempt,
    winner_store: dict | None = None,
) -> AttemptOutcome:
    """Concretely score one attempt: materialize, delta-derive, partition.

    The attempt's class pairs are materialized against a copy of the base
    database; the recorded update-only delta then patches the cached base
    join (via :meth:`JoinCache.derive`), the candidates are batch-evaluated
    on the derived state, and only the canonical partition signature plus
    modification counts survive. The derived cache entry is released before
    returning so a long shard never pins more than one candidate database —
    except when *winner_store* is given and the attempt wins (applied and
    distinguishing): then the materialization is deposited there with its
    derived entry kept registered, so an in-process caller can finalize the
    round without repeating the materialization.
    """
    config = context.config
    joins_before = JOIN_STATS.full_joins
    materialization = materialize_pairs(runtime.space, pairs, runtime.database, config)
    applied = bool(materialization.applied)
    signature: tuple[int, ...] | None = None
    group_sizes: tuple[int, ...] = ()
    distinguishes = False
    if applied:
        delta = materialization.delta
        if delta.is_update_only and not delta.is_empty:
            runtime.join_cache.derive(runtime.database, delta, materialization.database)
        try:
            batch = runtime.join_cache.evaluate_batch(
                context.queries,
                materialization.database,
                set_semantics=config.set_semantics,
                name=context.result_name,
            )
            signature = partition_signature(batch.fingerprints)
        except BaseException:
            runtime.join_cache.invalidate(materialization.database)
            raise
        sizes: dict[int, int] = {}
        for group_id in signature:
            sizes[group_id] = sizes.get(group_id, 0) + 1
        group_sizes = tuple(sorted(sizes.values(), reverse=True))
        distinguishes = len(sizes) > 1
        if winner_store is not None and distinguishes:
            winner_store["attempt_index"] = attempt_index
            winner_store["materialization"] = materialization
            winner_store["batch"] = batch
        else:
            runtime.join_cache.invalidate(materialization.database)
    return AttemptOutcome(
        attempt_index=attempt_index,
        pairs=tuple(pairs),
        applied=applied,
        distinguishes=distinguishes,
        signature=signature,
        group_sizes=group_sizes,
        modification_count=materialization.modification_count,
        modified_tuple_count=materialization.modified_tuple_count,
        modified_relation_count=materialization.modified_relation_count,
        side_effect_count=materialization.side_effect_count,
        skipped_pair_count=len(materialization.skipped_pairs),
        db_cost=materialization.modification_count
        + config.beta * materialization.modified_relation_count,
        full_joins=JOIN_STATS.full_joins - joins_before,
    )


# --------------------------------------------------------------------- backends
class ExecutionBackend(ABC):
    """Pluggable substrate the round planner runs attempt evaluation on."""

    name: str = "abstract"

    @abstractmethod
    def run_attempts(
        self, setup: RoundSetup, attempts: Sequence[Attempt], *, stop_at_first: bool
    ) -> list[AttemptOutcome]:
        """Score *attempts* and return their outcomes in ascending attempt order.

        With ``stop_at_first`` the backend may stop scheduling new work once
        an applied-and-distinguishing outcome is known, but the returned list
        must still contain every outcome for attempts preceding the winner.
        """

    def close(self) -> None:
        """Release any resources (worker pools); the backend stays reusable."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process, in-order evaluation — the differential oracle."""

    name = "serial"

    def run_attempts(
        self, setup: RoundSetup, attempts: Sequence[Attempt], *, stop_at_first: bool
    ) -> list[AttemptOutcome]:
        runtime = RoundRuntime(
            database=setup.database, space=setup.space, join_cache=setup.join_cache
        )
        # Warm once per live join instance (shared guard with the worker
        # path); every attempt below then derives cached masks in O(|Δ|).
        ensure_base_masks_warm(runtime.database, runtime.join_cache, setup.context)
        outcomes: list[AttemptOutcome] = []
        # The winner sink is only honoured in stop-at-first mode, where the
        # first winning attempt ends the loop — an exhaustive sweep could
        # find many winners and must not pin their databases.
        winner_store = setup.winner_store if stop_at_first else None
        for attempt_index, pairs in enumerate(attempts):
            outcome = evaluate_attempt(
                runtime, setup.context, attempt_index, pairs, winner_store
            )
            outcomes.append(outcome)
            if stop_at_first and outcome.applied and outcome.distinguishes:
                break
        return outcomes


def create_backend(workers: int | None, backend: str = "auto") -> ExecutionBackend:
    """The backend for a worker count and backend name.

    ``auto`` runs serial for ``0``/``1`` workers and the warm pool otherwise.
    An explicit name always wins: ``serial`` ignores the worker count, while
    ``warm`` raises it to the pool's minimum of two when needed.
    """
    name = backend_name(backend)
    if name == "serial" or (name == "auto" and (workers is None or workers <= 1)):
        return SerialBackend()
    # Imported lazily: worker_runtime imports this module at load time.
    from repro.core.worker_runtime import WarmProcessPoolBackend

    return WarmProcessPoolBackend(max(2, workers or 0))
