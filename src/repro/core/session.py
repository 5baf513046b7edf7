"""Algorithm 1: the end-to-end QFE interaction loop, as a resumable state machine.

:class:`QFESession` drives the whole approach for one example pair ``(D, R)``.
The paper's user study shows human response time dominating per-iteration wall
clock (92.4 % on average), so the session core is *inverted*: instead of a
blocking ``run(selector)`` loop that pins a process while a user thinks, the
session exposes two explicit steps:

* :meth:`QFESession.propose` runs one round of Algorithm 2 —
  :meth:`~repro.core.round_planner.RoundPlanner.plan_round` — and returns a
  :class:`PendingRound`: the feedback presentation plus the candidate
  partition, with no selector anywhere in sight. ``None`` means the
  session is finished (converged, exhausted, or out of iterations).
* :meth:`QFESession.submit` applies the user's choice for the pending round
  and returns a :class:`StepResult`, recording the
  :class:`IterationRecord` and shrinking the surviving candidate set (or
  replenishing it on :data:`~repro.core.feedback.NONE_OF_THE_ABOVE`).

Between the two calls the session is *suspended*, and its inputs plus
:attr:`QFESession.log`, the calls that changed it, are all it is:
:meth:`QFESession.replay` re-applies a log to a fresh session, checking
that each call reproduces its entry, which is how
:mod:`repro.service.checkpoint` resumes sessions. The blocking
:meth:`QFESession.run` wraps propose/submit with identical transcripts.

Every iteration is recorded as an :class:`IterationRecord` carrying exactly
the quantities the paper's Table 1 reports (candidate count, subset count,
skyline pair count, execution time, dbCost, resultCost, avgResultCost) plus
the finer-grained timings behind Tables 4 and 7. Every timing is the
duration of a span (:mod:`repro.obs.trace`): ``execution_seconds`` is the
round's ``session.propose`` span and ``query_generation_seconds`` the
``qbo.generate`` span, whether or not a trace sink is installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import QFEConfig
from repro.core.feedback import NONE_OF_THE_ABOVE, FeedbackRound, ResultSelector, build_feedback_round
from repro.core.partitioner import QueryPartition
from repro.core.round_planner import DatabaseGenerationResult, RoundPlanner
from repro.core.subset_selection import ScoreFunction
from repro.exceptions import DatabaseGenerationError, FeedbackError, QFESessionError
from repro.obs.trace import get_tracer
from repro.qbo.config import QBOConfig
from repro.qbo.generator import QueryGenerator
from repro.qbo.mutation import expand_candidate_set
from repro.relational.database import Database
from repro.relational.evaluator import JoinCache
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation

__all__ = [
    "IterationRecord",
    "SessionResult",
    "PendingRound",
    "StepResult",
    "QFESession",
]


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration statistics (one row of the paper's Table 1).

    ``db_cost`` and the three modification counts are read off the round's
    presented ``Δ(D, D')``.
    """

    iteration: int
    candidate_count: int
    subset_count: int
    skyline_pair_count: int
    execution_seconds: float
    skyline_seconds: float
    selection_seconds: float
    materialize_seconds: float
    db_cost: float
    result_cost: float
    modified_attribute_count: int
    modified_relation_count: int
    modified_tuple_count: int
    chosen_option: int
    remaining_candidates: int

    @property
    def avg_result_cost(self) -> float:
        """``resultCost / k`` — the per-result modification cost shown in Table 1."""
        if self.subset_count == 0:
            return 0.0
        return self.result_cost / self.subset_count

    @property
    def modification_cost(self) -> float:
        """Database plus result modification cost of the round."""
        return self.db_cost + self.result_cost


@dataclass
class SessionResult:
    """The outcome of a full QFE session."""

    identified_query: SPJQuery | None
    remaining_queries: tuple[SPJQuery, ...]
    iterations: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    exhausted: bool = False
    query_generation_seconds: float = 0.0
    initial_candidate_count: int = 0

    @property
    def iteration_count(self) -> int:
        """Number of feedback rounds the user went through."""
        return len(self.iterations)

    @property
    def total_seconds(self) -> float:
        """Query generation plus all per-iteration execution time.

        Every summand is a span duration on the monotonic clock
        (:mod:`repro.obs.trace`), never the wall clock, so clock
        adjustments cannot corrupt the total.
        """
        return self.query_generation_seconds + sum(r.execution_seconds for r in self.iterations)

    @property
    def total_modification_cost(self) -> float:
        """Sum of database and result modification costs over all rounds."""
        return sum(record.modification_cost for record in self.iterations)

    @property
    def total_db_cost(self) -> float:
        """Sum of dbCost over all rounds."""
        return sum(record.db_cost for record in self.iterations)

    @property
    def total_result_cost(self) -> float:
        """Sum of resultCost over all rounds."""
        return sum(record.result_cost for record in self.iterations)


@dataclass
class PendingRound:
    """One proposed feedback round awaiting the user's choice.

    The presentation (:class:`~repro.core.feedback.FeedbackRound`), the
    candidate partition the choice indexes into, and the Database
    Generator's result behind the eventual :class:`IterationRecord`.
    """

    iteration: int
    candidate_count: int
    round: FeedbackRound
    partition: QueryPartition
    generation: DatabaseGenerationResult
    execution_seconds: float

    @property
    def option_count(self) -> int:
        """How many distinct results the round offers."""
        return self.round.option_count


@dataclass(frozen=True)
class StepResult:
    """The session's reaction to one submitted choice."""

    status: str  # "chosen" | "replenished" | "converged"
    record: IterationRecord | None
    remaining_candidates: int
    done: bool


class QFESession:
    """Drive Algorithm 1 for one example database–result pair.

    The session is a resumable state machine: :meth:`propose` produces the
    next :class:`PendingRound` (or ``None`` when finished), :meth:`submit`
    applies a choice. :meth:`run` wraps the two into the classic blocking
    loop. :attr:`log` records every call that changed the session, and
    :meth:`replay` re-applies such a log to a fresh session.

    Resource ownership: by default the session owns its
    :class:`~repro.relational.evaluator.JoinCache` and clears it in
    :meth:`close` — which is idempotent, exception-safe, and also invoked by
    ``__del__`` and the context-manager protocol. A service multiplexing
    many sessions passes a shared ``join_cache`` instead; the session then
    never clears it.
    """

    def __init__(
        self,
        database: Database,
        result: Relation,
        *,
        candidates: Sequence[SPJQuery] | None = None,
        config: QFEConfig | None = None,
        qbo_config: QBOConfig | None = None,
        score: ScoreFunction | None = None,
        join_cache: JoinCache | None = None,
    ) -> None:
        self.database = database
        self.result = result
        self.config = config or QFEConfig()
        self.qbo_config = qbo_config or QBOConfig()
        self._provided_candidates = list(candidates) if candidates is not None else None
        #: The given candidates, else the generated ones once the session starts.
        self.initial_candidates = self._provided_candidates
        # One join cache for the whole session: the original database's
        # foreign-key join (and its columnar term masks) is built once and
        # reused by candidate generation, every iteration's round planning
        # and candidate replenishment. Each iteration's D' is that base plus
        # a TupleDelta, evaluated on the cached join patched by the delta, so
        # no iteration after the first pays a cold join or term-mask build.
        # The session never mutates or copies ``self.database``.
        # A shared cache (service mode) extends the same property across
        # sessions over the same base database.
        self._owns_join_cache = join_cache is None
        self.join_cache = join_cache if join_cache is not None else JoinCache()
        self._planner = RoundPlanner(self.config, score=score, join_cache=self.join_cache)
        self.last_rounds: list[FeedbackRound] = []
        self._result = SessionResult(identified_query=None, remaining_queries=())
        self._candidates: list[SPJQuery] | None = None
        self._iteration = 0
        self._pending: PendingRound | None = None
        self._done = False
        #: Every call that changed the session, in order: ``("round", n)`` for
        #: a planned round (one that exhausts the session included) whose
        #: Algorithm 3 enumerated *n* (STC, DTC) pairs, ``("finish",)`` for a
        #: propose that finished without planning, ``("choose", c)`` for a choice.
        self.log: list[tuple] = []

    # ----------------------------------------------------------------- status
    @property
    def done(self) -> bool:
        """Whether the interaction loop has finished."""
        return self._done

    @property
    def status(self) -> str:
        """``new`` | ``active`` | ``awaiting-choice`` | ``converged`` | ``exhausted`` | ``stalled``."""
        if self._done:
            if self._result.converged:
                return "converged"
            if self._result.exhausted:
                return "exhausted"
            return "stalled"
        if self._pending is not None:
            return "awaiting-choice"
        if self._candidates is None:
            return "new"
        return "active"

    @property
    def outcome(self) -> SessionResult:
        """The session result accumulated so far (final once :attr:`done`)."""
        return self._result

    @property
    def pending_round(self) -> PendingRound | None:
        """The proposed round awaiting a choice, if any."""
        return self._pending

    @property
    def candidates(self) -> list[SPJQuery] | None:
        """The surviving candidate queries (``None`` before the session starts)."""
        return self._candidates

    @property
    def remaining_candidates(self) -> int:
        """Number of surviving candidate queries (0 before the session starts)."""
        return len(self._candidates) if self._candidates is not None else 0

    # -------------------------------------------------------------- candidates
    def _initial_candidates(self, session: SessionResult) -> list[SPJQuery]:
        if self._provided_candidates is not None:
            session.query_generation_seconds = 0.0
            return list(self._provided_candidates)
        with get_tracer().span("qbo.generate") as span:
            generator = QueryGenerator(self.qbo_config)
            candidates = generator.generate(
                self.database,
                self.result,
                set_semantics=self.config.set_semantics,
                join_cache=self.join_cache,
            )
            report = generator.last_report
            span.set(
                join_schemas=report.join_schemas_tried,
                joins_built=report.joins_built,
                candidates=len(candidates),
            )
        session.query_generation_seconds = span.duration_s
        return candidates

    def _replenish_candidates(self, current: list[SPJQuery]) -> list[SPJQuery]:
        """Section 2's escape hatch: generate additional candidates on demand."""
        expanded = expand_candidate_set(
            self.database,
            self.result,
            current,
            target_size=len(current) * 2 + 5,
            set_semantics=self.config.set_semantics,
            join_cache=self.join_cache,
        )
        return expanded

    def _ensure_started(self) -> list[SPJQuery]:
        if self._candidates is None:
            candidates = self._initial_candidates(self._result)
            if not candidates:
                raise QFESessionError("no candidate queries available for the example pair")
            self._result.initial_candidate_count = len(candidates)
            self.initial_candidates = list(candidates)
            self._candidates = list(candidates)
        return self._candidates

    def _finalize(self) -> SessionResult:
        candidates = self._candidates or []
        self._result.remaining_queries = tuple(candidates)
        if len(candidates) == 1:
            self._result.identified_query = candidates[0]
            self._result.converged = True
        self._done = True
        return self._result

    # ------------------------------------------------------------ state machine
    def propose(self) -> PendingRound | None:
        """Run one round of Algorithm 2 and return the presentation to judge.

        Idempotent while a round is pending (the same :class:`PendingRound`
        comes back until :meth:`submit` consumes it). Returns ``None`` when
        the session is finished — because a single candidate remains, the
        surviving candidates cannot be distinguished (``exhausted``), or the
        iteration budget ran out — at which point :attr:`outcome` is final.
        """
        return self._propose()

    def _propose(self, *, replay: bool = False, plan: bool = True) -> PendingRound | None:
        if self._pending is not None:
            return self._pending
        if self._done:
            return None
        candidates = self._ensure_started()
        if len(candidates) <= 1 or self._iteration >= self.config.max_iterations:
            self.log.append(("finish",))
            self._finalize()
            return None
        if not plan:
            raise QFESessionError("the session would plan a round, not finish")

        self._iteration += 1
        tracer = get_tracer()
        with tracer.span(
            "session.propose", iteration=self._iteration, candidates=len(candidates)
        ) as propose_span:
            try:
                generation = self._planner.plan_round(
                    self.database, self.result, candidates, replay=replay
                )
            except DatabaseGenerationError:
                generation = None
            self.log.append(("round", self._planner.enumerated_pairs))
            if generation is None:
                # The remaining candidates cannot be distinguished by any
                # modification within budget; report them all.
                self._result.exhausted = True
                self._finalize()
                return None

            with tracer.span("round.present"):
                round_ = build_feedback_round(
                    self._iteration,
                    self.database,
                    self.result,
                    generation.materialization,
                    generation.partition,
                )
            self.last_rounds.append(round_)
        self._pending = PendingRound(
            iteration=self._iteration,
            candidate_count=len(candidates),
            round=round_,
            partition=generation.partition,
            generation=generation,
            execution_seconds=propose_span.duration_s,
        )
        return self._pending

    def submit(self, choice: int) -> StepResult:
        """Apply the user's choice for the pending round.

        ``choice`` is a 0-based option index, or
        :data:`~repro.core.feedback.NONE_OF_THE_ABOVE` to reject every
        presented result (which replenishes the candidate set and re-plans).
        An out-of-range choice raises :class:`~repro.exceptions.FeedbackError`
        and *keeps the round pending*, so an interactive caller — or a service
        fielding a bad request — can simply retry.
        """
        if self._done:
            raise QFESessionError("the session has already finished")
        pending = self._pending
        if pending is None:
            raise QFESessionError("no pending round: call propose() first")
        candidates = self._candidates or []

        with get_tracer().span(
            "session.submit", iteration=pending.iteration, choice=choice
        ):
            if choice == NONE_OF_THE_ABOVE:
                replenished = self._replenish_candidates(candidates)
                if len(replenished) == len(candidates):
                    raise FeedbackError(
                        "user rejected every presented result and no further candidate "
                        "queries could be generated"
                    )
                self._candidates = replenished
                self._pending = None
                self.log.append(("choose", choice))
                return StepResult(
                    status="replenished",
                    record=None,
                    remaining_candidates=len(replenished),
                    done=False,
                )

            if not 0 <= choice < pending.partition.group_count:
                raise FeedbackError(f"selector returned invalid option index {choice}")

            chosen_group = pending.partition.groups[choice]
            record = self._record_iteration(pending, choice, chosen_group.queries)
            self._result.iterations.append(record)
            self._candidates = list(chosen_group.queries)
            self._pending = None
            self.log.append(("choose", choice))
            if len(self._candidates) == 1:
                self._finalize()
                return StepResult(
                    status="converged", record=record, remaining_candidates=1, done=True
                )
            return StepResult(
                status="chosen",
                record=record,
                remaining_candidates=len(self._candidates),
                done=False,
            )

    def reset(self) -> None:
        """Discard all interaction state; the next round starts from scratch."""
        self._result = SessionResult(identified_query=None, remaining_queries=())
        self._candidates = None
        self._iteration = 0
        self._pending = None
        self._done = False
        self.last_rounds = []
        self.log = []

    def replay(self, log: Sequence[Sequence]) -> None:
        """Re-apply a recorded :attr:`log` to this fresh session.

        A round is planned exactly as it was live (Algorithm 3 reads no
        clock), so its logged pair count is checked, not obeyed. Raises
        :class:`~repro.exceptions.QFESessionError` at the first entry the
        calls do not reproduce.
        """
        for position, entry in enumerate(map(tuple, log)):
            kind, *args = entry
            count = args[0] if len(args) == 1 and type(args[0]) is int else None
            if kind == "round" and count is not None:
                self._propose(replay=True)
            elif kind == "choose" and count is not None:
                self.submit(count)
            elif entry == ("finish",):
                self._propose(plan=False)
            if self.log[position:] != [entry]:
                raise QFESessionError(f"log entry {position}, {entry!r}, does not replay")

    # --------------------------------------------------------------------- run
    def run(self, selector: ResultSelector) -> SessionResult:
        """Execute the full interaction loop with the given result selector.

        A thin wrapper over :meth:`propose`/:meth:`submit` — transcripts are
        identical to driving the state machine by hand. Always starts from
        the initial candidate set (repeated calls re-run the session).
        """
        self.reset()
        while True:
            pending = self.propose()
            if pending is None:
                break
            choice = selector.select(pending.round, pending.partition)
            self.submit(choice)
        return self._result

    # ------------------------------------------------------------------ close
    def close(self) -> None:
        """Release the session's cached joins.

        Idempotent and exception-safe: clears the join cache, but only when
        this session owns it — a shared service cache is left untouched.
        Safe to call twice, from ``__del__``, and from the context-manager
        protocol; the session itself stays usable (a later round lazily
        rebuilds what it needs).
        """
        # getattr-guarded: __del__ may run on a partially constructed session.
        join_cache = getattr(self, "join_cache", None)
        if join_cache is not None and getattr(self, "_owns_join_cache", False):
            join_cache.clear()

    def __enter__(self) -> "QFESession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent timing
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ stats
    def _record_iteration(
        self,
        pending: PendingRound,
        choice: int,
        chosen_queries: Sequence[SPJQuery],
    ) -> IterationRecord:
        round_ = pending.round
        generation = pending.generation
        db_delta = round_.database_delta
        db_cost = db_delta.cost + self.config.beta * db_delta.modified_relation_count
        result_cost = float(sum(option.delta.cost for option in round_.options))
        return IterationRecord(
            iteration=pending.iteration,
            candidate_count=pending.candidate_count,
            subset_count=pending.partition.group_count,
            skyline_pair_count=generation.skyline.pair_count,
            execution_seconds=pending.execution_seconds,
            skyline_seconds=generation.skyline_seconds,
            selection_seconds=generation.selection_seconds,
            materialize_seconds=generation.materialize_seconds,
            db_cost=float(db_cost),
            result_cost=result_cost,
            modified_attribute_count=sum(
                delta.script.modification_count for delta in db_delta.relation_deltas
            ),
            modified_relation_count=db_delta.modified_relation_count,
            modified_tuple_count=db_delta.modified_tuple_count,
            chosen_option=choice,
            remaining_candidates=len(chosen_queries),
        )
