"""The Round Planner: one QFE iteration's candidate-modification search.

Each iteration of Algorithm 1 must produce a modified database ``D'`` that
distinguishes the surviving candidate queries. The planner decomposes that
round into three phases:

1. **Prologue (driver).** Materialize/reuse the cached foreign-key join of
   the referenced tables, build the tuple-class space, run Algorithm 3
   (skyline enumeration) and Algorithm 4 (subset selection) over the shared
   pair-set simulator, and lay out the deterministic *attempt sequence*: the
   selected subset first, then every skyline pair singly in balance order —
   exactly the fallback order the serial generator always used.
2. **Candidate-modification search (execution backend).** Score attempts by
   concrete materialization + delta-derived partitioning until one
   distinguishes. The serial backend runs this in process; the warm pool
   shards the attempts over persistent workers that hold a snapshot of the
   base state and return compact ``(pairs, partition signature, cost)``
   outcomes. Merging is by attempt index, so the winning
   attempt — and therefore the whole session transcript — is bit-identical
   for every backend and worker count.
3. **Finalize (driver).** Re-materialize only the winning attempt locally
   (materialization is deterministic, so this reproduces the exact database
   the winning outcome scored), derive the cached join, and compute the full
   partition with result relations for the feedback round.

:class:`~repro.core.database_generator.DatabaseGenerator` remains the public
Algorithm 2 entry point; it is now a thin shell over this planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Sequence

from repro.core.config import QFEConfig
from repro.core.cost_model import CostBreakdown
from repro.core.execution_backend import (
    Attempt,
    AttemptOutcome,
    ExecutionBackend,
    RoundContext,
    RoundRequest,
    RoundSetup,
    SerialBackend,
    required_signatures,
)
from repro.core.materialize import MaterializationResult, materialize_pairs
from repro.core.modification import ClassPair, PairSetSimulator
from repro.core.partitioner import QueryPartition, partition_from_batch, partition_queries
from repro.core.skyline import SkylineResult, skyline_stc_dtc_pairs
from repro.core.subset_selection import ScoreFunction, SubsetSelectionResult, pick_stc_dtc_subset
from repro.core.timing import Stopwatch
from repro.core.tuple_class import TupleClassSpace
from repro.exceptions import DatabaseGenerationError
from repro.obs.trace import get_tracer
from repro.relational.database import Database
from repro.relational.evaluator import BaseSnapshot, JoinCache, SharedSnapshotCache
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation

__all__ = [
    "DatabaseGenerationResult",
    "RoundPlan",
    "RoundPlanner",
    "PrologueResult",
    "compute_prologue",
    "candidate_pair_attempts",
]

#: Process-wide source of unique round tokens (worker runtimes key on them).
_ROUND_TOKENS = count()


@dataclass
class DatabaseGenerationResult:
    """The modified database of one iteration plus all per-step diagnostics."""

    database: Database
    partition: QueryPartition
    materialization: MaterializationResult
    skyline: SkylineResult
    selection: SubsetSelectionResult
    chosen_pairs: tuple[ClassPair, ...]
    chosen_cost: CostBreakdown | None
    skyline_seconds: float
    selection_seconds: float
    materialize_seconds: float
    fallback_attempts: int = 0

    @property
    def total_seconds(self) -> float:
        """Combined Database Generator time for the iteration."""
        return self.skyline_seconds + self.selection_seconds + self.materialize_seconds


@dataclass
class RoundPlan:
    """The prologue's output: everything the search phase needs, plus diagnostics."""

    context: RoundContext
    original: Database
    result: Relation
    space: TupleClassSpace
    simulator: PairSetSimulator
    skyline: SkylineResult
    selection: SubsetSelectionResult
    attempts: tuple[Attempt, ...]
    skyline_seconds: float
    selection_seconds: float

    @property
    def attempt_count(self) -> int:
        """How many candidate modifications the search phase may score."""
        return len(self.attempts)


def candidate_pair_attempts(
    space: TupleClassSpace, *, max_pairs: int | None = None
) -> tuple[Attempt, ...]:
    """The (STC, DTC) candidate space as single-pair attempts, enumeration order.

    Follows Algorithm 3's deterministic order exactly — ascending edit cost,
    then sorted source classes, then destination choices — optionally capped
    at *max_pairs* (the space grows combinatorially with the number of
    selection attributes, so unbounded concrete scoring is rarely feasible).
    This is the round planner's heavy sweep workload: Algorithm 3 only ever
    scores these pairs through the tuple-class *abstraction*; scoring a
    bounded prefix concretely (exact materialization + exact partition) is
    what the process-parallel backend makes affordable.
    """
    attempts: list[Attempt] = []
    source_classes = space.source_tuple_classes()
    for modified_slots in range(1, space.attribute_count + 1):
        for source in source_classes:
            for destination in space.destination_classes(source, modified_slots):
                attempts.append((ClassPair(source, destination),))
                if max_pairs is not None and len(attempts) >= max_pairs:
                    return tuple(attempts)
    return tuple(attempts)


@dataclass
class PrologueResult:
    """Output of the round prologue (Algorithms 3 + 4 over the shared join).

    Produced by :func:`compute_prologue` — on the driver by
    :meth:`RoundPlanner.prepare_round`, or inside a warm worker process when
    a round-planning backend runs the prologue remotely. Both sides run the
    identical deterministic code over identical state (the worker's joins are
    snapshot replicas of the driver's), so the attempt sequence — and hence
    the session transcript — is independent of where the prologue ran.
    """

    space: TupleClassSpace
    simulator: PairSetSimulator
    skyline: SkylineResult
    selection: SubsetSelectionResult
    attempts: tuple[Attempt, ...]
    skyline_seconds: float
    selection_seconds: float


def compute_prologue(
    database: Database,
    join_cache: JoinCache,
    context: RoundContext,
    *,
    score: ScoreFunction | None = None,
) -> PrologueResult:
    """Run one round's prologue: join → tuple-class space → skyline → subset.

    Pure function of ``(database, cached joins, context)`` plus the optional
    score override: materializes/reuses the referenced join, builds the
    tuple-class space, runs Algorithm 3 and Algorithm 4, and lays out the
    deterministic attempt sequence (chosen subset first, then the skyline
    singles by balance). Raises :class:`DatabaseGenerationError` with the
    exact historical messages on every dead end, so callers on either side of
    a process boundary surface identical failures.
    """
    config = context.config
    queries = context.queries
    referenced = context.referenced
    try:
        joined = join_cache.join_for(database, referenced)
        # Pre-warm the per-query signatures too: partitioning (driver- or
        # worker-side) groups candidates by their own join signature, and
        # a warm base entry is what keeps every candidate evaluation on
        # the O(|Δ|) delta-derived path.
        for query in queries:
            join_cache.join_for(database, query.join_signature)
    except DatabaseGenerationError:
        raise
    except Exception as exc:
        raise DatabaseGenerationError(
            f"cannot materialize the join of {list(referenced)}: {exc}"
        ) from exc
    space = TupleClassSpace(joined, queries)
    if space.attribute_count == 0:
        raise DatabaseGenerationError(
            "candidate queries have no selection predicates to distinguish"
        )
    result_arity = context.result_arity
    simulator = PairSetSimulator(space, result_arity=result_arity)

    watch = Stopwatch()
    skyline = skyline_stc_dtc_pairs(
        space, config, result_arity=result_arity, simulator=simulator
    )
    skyline_seconds = watch.restart()
    if not skyline.pairs:
        raise DatabaseGenerationError("Algorithm 3 found no distinguishing tuple-class pairs")

    selection = pick_stc_dtc_subset(
        space,
        skyline.pairs,
        config,
        result_arity=result_arity,
        most_balanced_binary_x=skyline.most_balanced_binary_x,
        score=score,
        simulator=simulator,
    )
    selection_seconds = watch.restart()
    if not selection.found:
        raise DatabaseGenerationError("Algorithm 4 found no distinguishing pair subset")

    # Attempt sequence: the chosen subset first; if the concrete database
    # fails to split the candidates (side effects, value collisions), fall
    # back to the skyline pairs singly, ordered by single-pair balance.
    attempts: list[Attempt] = [tuple(selection.chosen_pairs)]
    attempts.extend(
        (pair,)
        for pair in skyline.singles_ordered_by_balance()
        if (pair,) != selection.chosen_pairs
    )
    return PrologueResult(
        space=space,
        simulator=simulator,
        skyline=skyline,
        selection=selection,
        attempts=tuple(attempts),
        skyline_seconds=skyline_seconds,
        selection_seconds=selection_seconds,
    )


@dataclass(frozen=True)
class _RemoteSkylineSummary:
    """Stand-in for :class:`SkylineResult` when the prologue ran remotely.

    A round-planning backend ships back only the scalar the session's round
    stats read (``pair_count``); the full pair list stays worker-side. The
    count is computed by the identical Algorithm 3 code on replicated state,
    so transcripts stay bit-identical to the driver-side prologue.
    """

    pair_count: int


@dataclass(frozen=True)
class _RemoteSelectionSummary:
    """Stand-in for :class:`SubsetSelectionResult` after a remote prologue."""

    found: bool
    chosen_pairs: tuple[ClassPair, ...]
    chosen_cost: CostBreakdown | None


@dataclass(frozen=True)
class _RemoteMaterializationSummary:
    """Stand-in for :class:`MaterializationResult` after a remote search.

    ``database`` is the driver-side replay of the winner's shipped
    :class:`~repro.relational.delta.TupleDelta` onto a copy of the base —
    byte-identical to the worker's materialized database because delta
    replay is exact (tuple ids included). The scalar counts are the worker's
    measurements of the same deterministic materialization.
    """

    database: Database
    delta: object
    modification_count: int
    modified_tuple_count: int
    modified_relation_count: int
    side_effect_count: int
    skipped_pair_count: int


class RoundPlanner:
    """Plan one feedback round over a pluggable execution backend.

    The planner owns the session-wide join cache (base joins and their term
    masks stay warm across rounds) and, for parallel backends, the memoized
    :class:`BaseSnapshot` broadcast to workers — captured once per base
    database and re-captured only if a later round references a join
    signature the snapshot does not cover (candidate replenishment never
    changes table sets in practice, so this is a cold-path guard).
    """

    def __init__(
        self,
        config: QFEConfig | None = None,
        *,
        score: ScoreFunction | None = None,
        join_cache: JoinCache | None = None,
        backend: ExecutionBackend | None = None,
        snapshot_cache: SharedSnapshotCache | None = None,
    ) -> None:
        self.config = config or QFEConfig()
        self.score = score
        self.join_cache = join_cache if join_cache is not None else JoinCache()
        self.backend = backend if backend is not None else SerialBackend()
        # Snapshot memoization lives in a SharedSnapshotCache: private by
        # default (one planner, one session — the pre-service behaviour), or
        # injected by the session service so that many sessions over the same
        # base database share one snapshot object — and therefore one
        # broadcast — on a shared worker pool. Currency (same live database,
        # covered signatures, identity-same joins as the driver cache) is
        # checked by the cache; an in-place base mutation followed by
        # ``join_cache.invalidate`` still forces a re-capture and a pool
        # re-broadcast exactly as before.
        self.snapshot_cache = (
            snapshot_cache if snapshot_cache is not None else SharedSnapshotCache()
        )

    def close(self) -> None:
        """Release backend resources (worker pools); the planner stays usable."""
        self.backend.close()

    def memory_report(self) -> dict:
        """Resident storage footprint of the session's cached joins.

        Delegates to :meth:`~repro.relational.evaluator.JoinCache.\
        memory_report`: per cached join, the typed-column (or boxed-object)
        bytes of its built columnar view, plus the bytes-per-joined-row
        aggregate. Never forces a view build, so calling it between rounds is
        free — the service layer and the scenario sweep use it to report the
        engine's in-memory footprint alongside timings.
        """
        return self.join_cache.memory_report()

    # ------------------------------------------------------------- snapshotting
    def _snapshot_for(
        self, database: Database, signatures: Sequence[tuple[str, ...]]
    ) -> BaseSnapshot:
        return self.snapshot_cache.snapshot_for(database, signatures, self.join_cache)

    # ---------------------------------------------------------------- prologue
    def prepare_round(
        self,
        original: Database,
        result: Relation,
        queries: Sequence[SPJQuery],
    ) -> RoundPlan:
        """Run the driver-side prologue and lay out the attempt sequence."""
        if len(queries) < 2:
            raise DatabaseGenerationError("need at least two candidate queries to distinguish")
        with get_tracer().span("round.prepare", candidates=len(queries)):
            return self._prepare_round(original, result, queries)

    def _context_for(
        self, result: Relation, queries: tuple[SPJQuery, ...]
    ) -> RoundContext:
        # Join only the relations the candidates actually reference (Section 5
        # assumes a shared join schema; this also keeps databases with
        # unrelated extra tables usable).
        referenced = tuple(sorted({table for query in queries for table in query.tables}))
        return RoundContext(
            token=f"round-{next(_ROUND_TOKENS)}",
            queries=queries,
            config=self.config,
            referenced=referenced,
            result_name=result.schema.name,
            result_arity=result.schema.arity,
        )

    def _prepare_round(
        self,
        original: Database,
        result: Relation,
        queries: Sequence[SPJQuery],
    ) -> RoundPlan:
        context = self._context_for(result, tuple(queries))
        prologue = compute_prologue(original, self.join_cache, context, score=self.score)
        return RoundPlan(
            context=context,
            original=original,
            result=result,
            space=prologue.space,
            simulator=prologue.simulator,
            skyline=prologue.skyline,
            selection=prologue.selection,
            attempts=prologue.attempts,
            skyline_seconds=prologue.skyline_seconds,
            selection_seconds=prologue.selection_seconds,
        )

    # ------------------------------------------------------------------ search
    def execute(
        self,
        plan: RoundPlan,
        *,
        attempts: Sequence[Attempt] | None = None,
        stop_at_first: bool = True,
        backend: ExecutionBackend | None = None,
        winner_store: dict | None = None,
    ) -> list[AttemptOutcome]:
        """Score the plan's attempts (or an explicit attempt sequence) on a backend."""
        active = backend if backend is not None else self.backend
        setup = RoundSetup(
            context=plan.context,
            database=plan.original,
            space=plan.space,
            join_cache=self.join_cache,
            snapshot_provider=lambda: self._snapshot_for(
                plan.original, required_signatures(plan.context)
            ),
            winner_store=winner_store,
        )
        chosen = plan.attempts if attempts is None else tuple(attempts)
        with get_tracer().span(
            "round.search", backend=active.name, attempts=len(chosen)
        ):
            return active.run_attempts(setup, chosen, stop_at_first=stop_at_first)

    def score_candidates(
        self,
        original: Database,
        result: Relation,
        queries: Sequence[SPJQuery],
    ) -> list[AttemptOutcome]:
        """Exhaustively score every fallback attempt of one round.

        Unlike :meth:`plan_round` this never stops early — it is a
        diagnostic: the exact concrete effect of the Algorithm 4 subset and
        every skyline single, serially or fanned out.
        """
        plan = self.prepare_round(original, result, queries)
        return self.execute(plan, stop_at_first=False)

    def score_candidate_space(
        self,
        original: Database,
        result: Relation,
        queries: Sequence[SPJQuery],
        *,
        max_pairs: int | None = 192,
    ) -> list[AttemptOutcome]:
        """Concretely score a bounded prefix of the full (STC, DTC) space.

        Algorithm 3 enumerates thousands of class pairs per round but only
        scores them through the tuple-class abstraction; this sweep
        materializes each of the first *max_pairs* pairs for real and
        computes its exact partition signature — the workload the
        ``round-planner`` benchmark group measures serial vs the warm pool.
        """
        plan = self.prepare_round(original, result, queries)
        attempts = candidate_pair_attempts(plan.space, max_pairs=max_pairs)
        return self.execute(plan, attempts=attempts, stop_at_first=False)

    # ---------------------------------------------------------------- finalize
    def plan_round(
        self,
        original: Database,
        result: Relation,
        queries: Sequence[SPJQuery],
    ) -> DatabaseGenerationResult:
        """Produce ``D'`` distinguishing *queries*; raises if no modification helps."""
        # A round-planning backend (``plans_rounds``) runs the whole round —
        # prologue included — on its warm workers; only compact summaries,
        # outcomes and the winner's delta + batch cross the process boundary.
        # A custom score function cannot be shipped (it may close over
        # arbitrary driver state), so those planners keep the driver-side
        # prologue and the backend's classic ``run_attempts`` interface.
        if getattr(self.backend, "plans_rounds", False) and self.score is None:
            return self._plan_round_remote(original, result, tuple(queries))
        plan = self.prepare_round(original, result, queries)
        watch = Stopwatch()
        winner_store: dict = {}
        outcomes = self.execute(plan, stop_at_first=True, winner_store=winner_store)
        winner: AttemptOutcome | None = None
        for outcome in outcomes:
            if outcome.applied and outcome.distinguishes:
                winner = outcome
                break
        if winner is None:
            last_error = "no class pair could be materialized"
            if outcomes and outcomes[-1].applied:
                last_error = "materialized database did not distinguish any candidates"
            raise DatabaseGenerationError(
                f"could not generate a distinguishing database: {last_error} "
                f"after {len(outcomes)} attempts"
            )

        # An in-process backend deposits the winning materialization and its
        # batch evaluation (with the derived cache entry still registered)
        # so the winner is built and evaluated exactly once. A remote
        # backend only ships compact outcomes, so the winner is
        # re-materialized here — materialization is a deterministic function
        # of (space, pairs, config), so this reproduces exactly the database
        # the winning outcome scored.
        with get_tracer().span("round.materialize", attempt=winner.attempt_index):
            materialization = batch = None
            if winner_store.get("attempt_index") == winner.attempt_index:
                materialization = winner_store.get("materialization")
                batch = winner_store.get("batch")
            if materialization is None:
                materialization = materialize_pairs(
                    plan.space, winner.pairs, original, self.config
                )
                if materialization.delta.is_update_only and not materialization.delta.is_empty:
                    self.join_cache.derive(
                        original, materialization.delta, materialization.database
                    )
            if batch is not None:
                partition = partition_from_batch(plan.context.queries, batch)
            else:
                partition = partition_queries(
                    plan.context.queries,
                    materialization.database,
                    set_semantics=self.config.set_semantics,
                    result_name=plan.context.result_name,
                    join_cache=self.join_cache,
                )
            if not partition.distinguishes:  # pragma: no cover - determinism guard
                raise DatabaseGenerationError(
                    "winning attempt no longer distinguishes on re-materialization; "
                    "attempt evaluation is expected to be deterministic"
                )
        materialize_seconds = watch.elapsed()
        chosen_pairs = tuple(winner.pairs)
        return DatabaseGenerationResult(
            database=materialization.database,
            partition=partition,
            materialization=materialization,
            skyline=plan.skyline,
            selection=plan.selection,
            chosen_pairs=chosen_pairs,
            chosen_cost=(
                plan.selection.chosen_cost
                if chosen_pairs == plan.selection.chosen_pairs
                else None
            ),
            skyline_seconds=plan.skyline_seconds,
            selection_seconds=plan.selection_seconds,
            materialize_seconds=materialize_seconds,
            fallback_attempts=winner.attempt_index,
        )

    def _plan_round_remote(
        self,
        original: Database,
        result: Relation,
        queries: tuple[SPJQuery, ...],
    ) -> DatabaseGenerationResult:
        """One whole round on a round-planning backend (warm worker pool).

        The prologue (Algorithm 3 + 4), the candidate-modification search and
        the winner's evaluation all run worker-side against the replicated
        base; the driver ships a content-hashed round body, receives compact
        outcomes plus the winner's delta + batch, and finalizes by replaying
        the delta onto a copy of the base — the same deterministic database
        the worker scored, without re-materializing or re-evaluating
        anything driver-side.
        """
        if len(queries) < 2:
            raise DatabaseGenerationError("need at least two candidate queries to distinguish")
        context = self._context_for(result, queries)
        request = RoundRequest(
            context=context,
            database=original,
            join_cache=self.join_cache,
            snapshot_provider=lambda: self._snapshot_for(
                original, required_signatures(context)
            ),
        )
        with get_tracer().span("round.search", backend=self.backend.name):
            remote = self.backend.run_round(request)
        watch = Stopwatch()
        winner: AttemptOutcome | None = None
        for outcome in remote.outcomes:
            if outcome.applied and outcome.distinguishes:
                winner = outcome
                break
        if winner is None:
            last_error = "no class pair could be materialized"
            if remote.outcomes and remote.outcomes[-1].applied:
                last_error = "materialized database did not distinguish any candidates"
            raise DatabaseGenerationError(
                f"could not generate a distinguishing database: {last_error} "
                f"after {len(remote.outcomes)} attempts"
            )
        payload = remote.winner
        with get_tracer().span("round.materialize", attempt=winner.attempt_index):
            if payload is None or payload.attempt_index != winner.attempt_index:
                # pragma: no cover - backend contract violation
                raise DatabaseGenerationError(
                    "round-planning backend returned no finalize payload "
                    "for the winning attempt"
                )
            derived = original.copy()
            payload.delta.apply_to(derived)
            partition = partition_from_batch(context.queries, payload.batch)
            if not partition.distinguishes:  # pragma: no cover - determinism guard
                raise DatabaseGenerationError(
                    "winning attempt no longer distinguishes on re-materialization; "
                    "attempt evaluation is expected to be deterministic"
                )
        materialize_seconds = watch.elapsed()
        chosen_pairs = tuple(winner.pairs)
        plan = remote.plan
        plan_chosen = tuple(plan.chosen_pairs)
        return DatabaseGenerationResult(
            database=derived,
            partition=partition,
            materialization=_RemoteMaterializationSummary(
                database=derived,
                delta=payload.delta,
                modification_count=payload.modification_count,
                modified_tuple_count=payload.modified_tuple_count,
                modified_relation_count=payload.modified_relation_count,
                side_effect_count=payload.side_effect_count,
                skipped_pair_count=payload.skipped_pair_count,
            ),
            skyline=_RemoteSkylineSummary(pair_count=plan.skyline_pair_count),
            selection=_RemoteSelectionSummary(
                found=True, chosen_pairs=plan_chosen, chosen_cost=plan.chosen_cost
            ),
            chosen_pairs=chosen_pairs,
            chosen_cost=plan.chosen_cost if chosen_pairs == plan_chosen else None,
            skyline_seconds=plan.skyline_seconds,
            selection_seconds=plan.selection_seconds,
            materialize_seconds=materialize_seconds,
            fallback_attempts=winner.attempt_index,
        )
