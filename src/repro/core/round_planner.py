"""The Round Planner: one QFE iteration's candidate-modification search.

Each iteration of Algorithm 1 must produce a modified database ``D'`` that
distinguishes the surviving candidate queries. The planner decomposes that
round into three phases:

1. **Prologue (driver, every backend).** :meth:`RoundPlanner.prepare_round`
   is the only place a round is planned: materialize/reuse the cached
   foreign-key join of the referenced tables, build the tuple-class space,
   run Algorithm 3 (skyline enumeration) and Algorithm 4 (subset selection)
   over a shared pair-set simulator, and lay out the deterministic *attempt
   sequence*: the selected subset first, then every skyline pair singly in
   balance order — exactly the fallback order the serial generator always
   used. A repeated round body replays its prologue from a small memo held
   with the base join's :class:`~repro.relational.evaluator.JoinCache` entry
   (see :meth:`RoundPlanner.prepare_round`).
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

import pickle
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.core.config import QFEConfig
from repro.core.cost_model import CostBreakdown
from repro.core.execution_backend import (
    Attempt,
    AttemptOutcome,
    ExecutionBackend,
    RoundContext,
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
from repro.obs.registry import RegistryStats
from repro.obs.trace import get_tracer
from repro.relational.database import Database
from repro.relational.evaluator import BaseSnapshot, JoinCache, SharedSnapshotCache
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation

__all__ = [
    "DatabaseGenerationResult",
    "PLAN_MEMO_LIMIT",
    "PLAN_MEMO_STATS",
    "RoundPlan",
    "RoundPlanner",
    "candidate_pair_attempts",
]

#: Prologues one base join's memo keeps; the least recently used goes first.
PLAN_MEMO_LIMIT = 8


class PlanMemoStats(RegistryStats):
    """Driver-side prologue memo counters (``qfe_plan_memo_*``)."""

    _PREFIX = "qfe_plan"
    _FIELDS = ("memo_hits", "memo_misses")
    _HELP = {
        "memo_hits": "Rounds whose prologue was replayed from the driver-side memo.",
        "memo_misses": "Rounds whose prologue was computed and memoized.",
    }


PLAN_MEMO_STATS = PlanMemoStats()


class _Prologue(NamedTuple):
    """One memo entry: a round's planning output, never its database."""

    space: TupleClassSpace
    skyline: SkylineResult
    selection: SubsetSelectionResult
    attempts: tuple[Attempt, ...]


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
    """The prologue's output: everything the search phase needs, plus diagnostics.

    ``body`` is the pickled ``context`` — made once per round, it keys the
    prologue memo and is the payload every warm work unit carries.
    """

    context: RoundContext
    body: bytes
    original: Database
    result: Relation
    space: TupleClassSpace
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


class RoundPlanner:
    """Plan one feedback round over a pluggable execution backend.

    The planner owns the session-wide join cache (base joins, their term
    masks and the prologue memo stay warm across rounds; a shared cache
    extends that across sessions) and, for parallel backends, the memoized
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
        """Plan one round: join → tuple-class space → skyline → subset → attempts.

        The only place a round is planned, for every backend. The prologue is
        a deterministic function of the base join it reads and the round
        body, so a memo held with that join's :class:`JoinCache` entry
        replays a repeated body — a second user of a service pair, a re-run
        session — without re-running Algorithms 3 and 4. Bodies match only
        when their pickles are byte-identical. A replayed round reports 0.0 s
        for both algorithms (the time actually spent) and ``memo_hit`` on its
        ``round.prepare`` span. A planner with a custom ``score`` neither
        reads nor writes the memo.
        """
        if len(queries) < 2:
            raise DatabaseGenerationError("need at least two candidate queries to distinguish")
        with get_tracer().span("round.prepare", candidates=len(queries)) as span:
            return self._prepare_round(original, result, tuple(queries), span)

    def _context_for(
        self, result: Relation, queries: tuple[SPJQuery, ...]
    ) -> RoundContext:
        # Join only the relations the candidates actually reference (Section 5
        # assumes a shared join schema; this also keeps databases with
        # unrelated extra tables usable).
        referenced = tuple(sorted({table for query in queries for table in query.tables}))
        return RoundContext(
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
        queries: tuple[SPJQuery, ...],
        span,
    ) -> RoundPlan:
        context = self._context_for(result, queries)
        body = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        referenced = context.referenced
        try:
            joined = self.join_cache.join_for(original, referenced)
            # Pre-warm the per-query signatures too: partitioning (driver- or
            # worker-side) groups candidates by their own join signature, and
            # a warm base entry is what keeps every candidate evaluation on
            # the O(|Δ|) delta-derived path.
            for query in queries:
                self.join_cache.join_for(original, query.join_signature)
        except DatabaseGenerationError:
            raise
        except Exception as exc:
            raise DatabaseGenerationError(
                f"cannot materialize the join of {list(referenced)}: {exc}"
            ) from exc

        # A custom score may close over arbitrary driver state, so its
        # prologue is neither replayed nor kept.
        memo = self.join_cache.memo_for(original, referenced) if self.score is None else None
        prologue = memo.get(body) if memo is not None else None
        skyline_seconds = selection_seconds = 0.0
        if memo is not None:
            span.set(memo_hit=prologue is not None)
        if prologue is not None:
            memo.move_to_end(body)
            PLAN_MEMO_STATS.memo_hits += 1
        else:
            space = TupleClassSpace(joined, queries)
            if space.attribute_count == 0:
                raise DatabaseGenerationError(
                    "candidate queries have no selection predicates to distinguish"
                )
            result_arity = context.result_arity
            simulator = PairSetSimulator(space, result_arity=result_arity)

            watch = Stopwatch()
            skyline = skyline_stc_dtc_pairs(
                space, self.config, result_arity=result_arity, simulator=simulator
            )
            skyline_seconds = watch.restart()
            if not skyline.pairs:
                raise DatabaseGenerationError(
                    "Algorithm 3 found no distinguishing tuple-class pairs"
                )

            selection = pick_stc_dtc_subset(
                space,
                skyline.pairs,
                self.config,
                result_arity=result_arity,
                most_balanced_binary_x=skyline.most_balanced_binary_x,
                score=self.score,
                simulator=simulator,
            )
            selection_seconds = watch.restart()
            if not selection.found:
                raise DatabaseGenerationError("Algorithm 4 found no distinguishing pair subset")

            # Attempt sequence: the chosen subset first; if the concrete
            # database fails to split the candidates (side effects, value
            # collisions), fall back to the skyline pairs singly, ordered by
            # single-pair balance.
            attempts: list[Attempt] = [tuple(selection.chosen_pairs)]
            attempts.extend(
                (pair,)
                for pair in skyline.singles_ordered_by_balance()
                if (pair,) != selection.chosen_pairs
            )
            prologue = _Prologue(space, skyline, selection, tuple(attempts))
            if memo is not None:
                PLAN_MEMO_STATS.memo_misses += 1
                memo[body] = prologue
                while len(memo) > PLAN_MEMO_LIMIT:
                    memo.popitem(last=False)
        return RoundPlan(
            context=context,
            body=body,
            original=original,
            result=result,
            space=prologue.space,
            skyline=prologue.skyline,
            selection=prologue.selection,
            attempts=prologue.attempts,
            skyline_seconds=skyline_seconds,
            selection_seconds=selection_seconds,
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
            body=plan.body,
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
        # so the winner is built and evaluated exactly once. The warm pool
        # only ships compact outcomes, so the winner is re-materialized here
        # — materialization is a deterministic function of (space, pairs,
        # config), so this reproduces exactly the database the winning
        # outcome scored.
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
