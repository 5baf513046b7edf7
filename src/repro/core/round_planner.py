"""The Round Planner: one QFE iteration of Algorithm 2, the Database Generator.

Each iteration of Algorithm 1 must produce a modified database ``D'`` that
distinguishes the surviving candidate queries. :meth:`RoundPlanner.plan_round`
is the only path a round takes, in three phases:

1. **Prologue.** :meth:`RoundPlanner.prepare_round` plans the round:
   materialize/reuse the cached foreign-key join of the referenced tables,
   build the tuple-class space, run Algorithm 3 (skyline enumeration) and
   Algorithm 4 (subset selection) over a shared pair-set simulator, and lay
   out the deterministic *attempt sequence*: the selected subset first, then
   every skyline pair singly in balance order. A repeated round body
   replays its prologue from a small memo held with the base join's
   :class:`~repro.relational.evaluator.JoinCache` entry.
2. **Candidate-modification search.** Score attempts in order, in process
   (:class:`~repro.core.execution_backend.SerialBackend`), by concrete
   materialization into a ``TupleDelta`` and partitioning on the base join
   patched by it, until one distinguishes.
3. **Finalize.** Build the full partition with result relations for the
   feedback round from the winner's batch evaluation, which the winning
   outcome carries with its materialization.

Every timing the round reports is a span duration (:mod:`repro.obs.trace`):
Algorithm 3 is ``round.skyline`` and Algorithm 4 ``round.subset``, both
inside ``round.prepare`` next to the tuple-class space's ``round.space``;
the database-modification step is ``round.search`` (one ``round.attempt``
per scored attempt) plus ``round.materialize``. A computed prologue tags
those spans with its figures and adds them to the ``qfe_prologue_*``
counters and ``qfe_skyline_truncations``, once per round. ``round.prepare``
carries ``replay``: whether a resumed session is re-planning the round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.core.config import QFEConfig
from repro.core.cost_model import CostBreakdown
from repro.core.execution_backend import Attempt, SerialBackend
from repro.core.materialize import MaterializationResult
from repro.core.modification import ClassPair, PairSetSimulator
from repro.core.partitioner import QueryPartition, partition_from_batch
from repro.core.skyline import SkylineResult, skyline_stc_dtc_pairs
from repro.core.subset_selection import ScoreFunction, SubsetSelectionResult, pick_stc_dtc_subset
from repro.core.tuple_class import TupleClassSpace
from repro.exceptions import DatabaseGenerationError
from repro.obs.registry import REGISTRY, RegistryStats
from repro.obs.trace import get_tracer
from repro.relational.database import Database
from repro.relational.evaluator import JoinCache
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.relational.types import exact_repr

# Module attributes this module does not call: the per-layer benchmark
# (perfbench/layers.py) wraps ``round_planner.materialize_pairs`` and
# ``round_planner.partition_queries`` by name.
from repro.core.materialize import materialize_pairs  # noqa: E402,F401
from repro.core.partitioner import partition_queries  # noqa: E402,F401

__all__ = [
    "DatabaseGenerationResult",
    "PLAN_MEMO_LIMIT",
    "PLAN_MEMO_STATS",
    "PROLOGUE_STATS",
    "SKYLINE_TRUNCATIONS",
    "RoundPlan",
    "RoundPlanner",
]

#: Prologues one base join's memo keeps; the least recently used goes first.
PLAN_MEMO_LIMIT = 8


class PlanMemoStats(RegistryStats):
    """Driver-side prologue memo counters (``qfe_plan_memo_*``)."""

    _PREFIX = "qfe_plan"
    _FIELDS = ("memo_hits", "memo_misses")
    _HELP = {
        "memo_hits": "Rounds whose prologue was replayed from the prologue memo.",
        "memo_misses": "Rounds whose prologue was computed and memoized.",
    }


PLAN_MEMO_STATS = PlanMemoStats()


class PrologueStats(RegistryStats):
    """Work of the computed prologues (``qfe_prologue_*``), added once per round."""

    _PREFIX = "qfe_prologue"
    _FIELDS = ("source_classes", "enumerated_pairs", "reaction_keys", "effects")
    _HELP = {
        "source_classes": "Source tuple classes of the rounds' tuple-class spaces.",
        "enumerated_pairs": "(STC, DTC) pairs Algorithm 3 enumerated.",
        "reaction_keys": "Distinct pair reactions among the enumerated pairs.",
        "effects": "Pair-set effects Algorithm 4 built.",
    }


PROLOGUE_STATS = PrologueStats()

#: Skyline enumerations that ended early, labelled by what ended them
#: (``SkylineResult.truncated_by``: ``time``, δ's pair budget, or ``cap``).
SKYLINE_TRUNCATIONS = REGISTRY.counter(
    "qfe_skyline_truncations",
    "Skyline enumerations ended early, by what ended them (time: delta's pair budget; cap).",
    labels=("by",),
)


class _Prologue(NamedTuple):
    """One memo entry: a round's planning output, never its database."""

    space: TupleClassSpace
    skyline: SkylineResult
    selection: SubsetSelectionResult
    attempts: tuple[Attempt, ...]


@dataclass
class DatabaseGenerationResult:
    """One iteration's modification plus all per-step diagnostics.

    ``D'`` is the base database plus ``materialization.delta``.
    """

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

    ``body`` is an exact text of the round's queries, config, referenced
    tables and result name and arity — made once per round, it keys the
    prologue memo.
    """

    queries: tuple[SPJQuery, ...]
    config: QFEConfig
    referenced: tuple[str, ...]
    result_name: str
    body: str
    original: Database
    space: TupleClassSpace
    skyline: SkylineResult
    selection: SubsetSelectionResult
    attempts: tuple[Attempt, ...]
    skyline_seconds: float
    selection_seconds: float


class RoundPlanner:
    """Plan and score one feedback round.

    The planner owns the session-wide join cache: base joins, their term
    masks and the prologue memo stay warm across rounds, and a shared cache
    extends that across sessions.
    """

    def __init__(
        self,
        config: QFEConfig | None = None,
        *,
        score: ScoreFunction | None = None,
        join_cache: JoinCache | None = None,
    ) -> None:
        self.config = config or QFEConfig()
        self.score = score
        self.join_cache = join_cache if join_cache is not None else JoinCache()
        #: (STC, DTC) pairs Algorithm 3 enumerated for the last round
        #: prepared, memoized or not (0 when the round failed before it).
        self.enumerated_pairs = 0

    # ---------------------------------------------------------------- prologue
    def prepare_round(
        self,
        original: Database,
        result: Relation,
        queries: Sequence[SPJQuery],
        *,
        replay: bool = False,
    ) -> RoundPlan:
        """Plan one round: join → tuple-class space → skyline → subset → attempts.

        The only place a round is planned. The prologue is a deterministic
        function of the base join it reads and the round body, so a memo
        held with that join's :class:`JoinCache` entry
        replays a repeated body — a second user of a service pair, a re-run
        session, a resumed one — without re-running Algorithms 3 and 4.
        Bodies match only when their texts are identical, which keeps ``1``,
        ``1.0`` and ``True`` apart. A replayed round opens neither
        the ``round.skyline`` nor the ``round.subset`` span, so it reports
        0.0 s for both algorithms (the time actually spent), and sets
        ``memo_hit`` on its ``round.prepare`` span. A planner with a custom
        ``score`` neither reads nor writes the memo. A ``replay`` (a resumed
        session re-planning a round it planned before) is planned exactly like
        a live round, but a prologue it computes is kept only where it evicts
        no entry, and its ``round.prepare`` span carries ``replay=True``.
        """
        if len(queries) < 2:
            raise DatabaseGenerationError("need at least two candidate queries to distinguish")
        self.enumerated_pairs = 0
        with get_tracer().span("round.prepare", candidates=len(queries), replay=replay) as span:
            return self._prepare_round(original, result, tuple(queries), span, replay)

    def _prepare_round(
        self,
        original: Database,
        result: Relation,
        queries: tuple[SPJQuery, ...],
        span,
        replay: bool,
    ) -> RoundPlan:
        # Join only the relations the candidates actually reference (Section 5
        # assumes a shared join schema; this also keeps databases with
        # unrelated extra tables usable).
        referenced = tuple(sorted({table for query in queries for table in query.tables}))
        result_name, result_arity = result.schema.name, result.schema.arity
        # An exact text of the round's inputs: equal for equal values, whichever
        # objects they share (candidates decoded from a checkpoint match).
        shapes = tuple(
            (query.tables, query.projection, query.distinct)
            + tuple(
                tuple((term.attribute, term.op.value, term.constant) for term in conjunct.terms)
                for conjunct in query.predicate.conjuncts
            )
            for query in queries
        )
        body = exact_repr((shapes, repr(self.config), referenced, result_name, result_arity))
        try:
            joined = self.join_cache.join_for(original, referenced)
            # Pre-warm the per-query signatures too: partitioning groups
            # candidates by their own join signature, and a warm base entry
            # is what keeps every attempt's evaluation an O(|Δ|) patch.
            for query in queries:
                self.join_cache.join_for(original, query.join_signature)
        except DatabaseGenerationError:
            raise
        except Exception as exc:
            raise DatabaseGenerationError(
                f"cannot materialize the join of {list(referenced)}: {exc}"
            ) from exc

        # A custom score may close over arbitrary caller state, so its
        # prologue is neither replayed nor kept.
        memo = self.join_cache.memo_for(original, referenced) if self.score is None else None
        prologue = memo.get(body) if memo is not None else None
        skyline_seconds = selection_seconds = 0.0
        if memo is not None:
            span.set(memo_hit=prologue is not None)
        if prologue is not None:
            memo.move_to_end(body)
            PLAN_MEMO_STATS.add(memo_hits=1)
            self.enumerated_pairs = prologue.skyline.enumerated_pairs
        else:
            tracer = get_tracer()
            # Span attributes are set before each span closes: a file sink
            # writes the span as it closes.
            with tracer.span("round.space") as space_span:
                space = TupleClassSpace(joined, queries)
                source_classes = len(space.source_tuple_classes())
                space_span.set(source_classes=source_classes, attributes=space.attribute_count)
            PROLOGUE_STATS.add(source_classes=source_classes)
            if space.attribute_count == 0:
                raise DatabaseGenerationError(
                    "candidate queries have no selection predicates to distinguish"
                )
            simulator = PairSetSimulator(space, result_arity=result_arity)

            with tracer.span("round.skyline") as skyline_span:
                skyline = skyline_stc_dtc_pairs(
                    space,
                    self.config,
                    result_arity=result_arity,
                    simulator=simulator,
                )
                skyline_span.set(
                    enumerated_pairs=skyline.enumerated_pairs,
                    reaction_keys=skyline.reaction_keys,
                    pairs=skyline.pair_count,
                    truncated_by=skyline.truncated_by,
                )
            skyline_seconds = skyline_span.duration_s
            self.enumerated_pairs = skyline.enumerated_pairs
            PROLOGUE_STATS.add(
                enumerated_pairs=skyline.enumerated_pairs, reaction_keys=skyline.reaction_keys
            )
            if skyline.truncated_by is not None:
                SKYLINE_TRUNCATIONS.inc(by=skyline.truncated_by)
            if not skyline.pairs:
                raise DatabaseGenerationError(
                    "Algorithm 3 found no distinguishing tuple-class pairs"
                )

            with tracer.span("round.subset") as subset_span:
                selection = pick_stc_dtc_subset(
                    space,
                    skyline.pairs,
                    self.config,
                    result_arity=result_arity,
                    most_balanced_binary_x=skyline.most_balanced_binary_x,
                    score=self.score,
                    simulator=simulator,
                )
                subset_span.set(
                    sets_evaluated=selection.sets_evaluated, effects_built=selection.effects_built
                )
            selection_seconds = subset_span.duration_s
            PROLOGUE_STATS.add(effects=selection.effects_built)
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
                PLAN_MEMO_STATS.add(memo_misses=1)
                if memo.setdefault(body, prologue) is prologue and replay:
                    memo.move_to_end(body, last=False)  # a replay only fills free room
                while len(memo) > PLAN_MEMO_LIMIT:
                    memo.popitem(last=False)
        return RoundPlan(
            queries=queries,
            config=self.config,
            referenced=referenced,
            result_name=result_name,
            body=body,
            original=original,
            space=prologue.space,
            skyline=prologue.skyline,
            selection=prologue.selection,
            attempts=prologue.attempts,
            skyline_seconds=skyline_seconds,
            selection_seconds=selection_seconds,
        )

    # ------------------------------------------------------------------- round
    def plan_round(
        self,
        original: Database,
        result: Relation,
        queries: Sequence[SPJQuery],
        *,
        replay: bool = False,
    ) -> DatabaseGenerationResult:
        """Produce the ``D'`` (as a delta over *original*) distinguishing *queries*;
        raises if no modification helps."""
        plan = self.prepare_round(original, result, queries, replay=replay)
        tracer = get_tracer()
        with tracer.span("round.search", attempts=len(plan.attempts)) as search_span:
            outcomes = SerialBackend().run_attempts(plan, self.join_cache)
        winner = outcomes[-1]
        if not winner.distinguishes:
            last_error = "no class pair could be materialized"
            if winner.applied:
                last_error = "materialized database did not distinguish any candidates"
            raise DatabaseGenerationError(
                f"could not generate a distinguishing database: {last_error} "
                f"after {len(outcomes)} attempts"
            )

        # The winner carries its materialization and batch evaluation, so it
        # is built and evaluated exactly once.
        with tracer.span("round.materialize", attempt=winner.attempt_index) as finalize_span:
            partition = partition_from_batch(plan.queries, winner.batch)
        chosen_pairs = tuple(winner.pairs)
        return DatabaseGenerationResult(
            partition=partition,
            materialization=winner.materialization,
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
            materialize_seconds=search_span.duration_s + finalize_span.duration_s,
            fallback_attempts=winner.attempt_index,
        )
