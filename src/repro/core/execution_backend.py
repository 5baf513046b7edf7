"""In-process scoring of a round's candidate modifications.

Every QFE round scores a deterministic sequence of *attempts* — candidate
class-pair sets, the Algorithm 4 subset first, then the skyline singles in
balance order — by concretely materializing each attempt against the base
database and computing the exact candidate-query partition it induces. The
:class:`~repro.core.round_planner.RoundPlanner` plans the round into a
:class:`~repro.core.round_planner.RoundPlan`; :class:`SerialBackend` scores
the plan's attempts in order, in process, against the planner's join cache
and stops at the first one that distinguishes the candidates. That winning
:class:`AttemptOutcome` carries its materialization (``D'`` as a
``TupleDelta`` over the base) and batch evaluation, so the planner
finalizes the round without scoring it twice.

Attempt evaluation is a pure function of ``(base database, round plan,
attempt)`` — materialization, delta application and fingerprinting contain
no randomness — so the winning attempt, and with it the whole session
transcript, is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.materialize import MaterializationResult, materialize_pairs
from repro.core.modification import ClassPair
from repro.core.partitioner import partition_signature
from repro.obs.trace import get_tracer
from repro.relational.evaluator import BatchEvaluation, JoinCache

if TYPE_CHECKING:
    from repro.core.round_planner import RoundPlan

__all__ = [
    "AttemptOutcome",
    "SerialBackend",
    "evaluate_attempt",
]

Attempt = tuple[ClassPair, ...]


@dataclass(frozen=True)
class AttemptOutcome:
    """The result of concretely scoring one attempt.

    Only a winning attempt (applied and distinguishing) carries its
    ``materialization`` and ``batch`` evaluation.
    """

    attempt_index: int
    pairs: Attempt
    applied: bool
    distinguishes: bool
    materialization: MaterializationResult | None = None
    batch: BatchEvaluation | None = None


def evaluate_attempt(
    plan: RoundPlan, join_cache: JoinCache, attempt_index: int, pairs: Attempt
) -> AttemptOutcome:
    """Concretely score one attempt: materialize its delta, evaluate, partition.

    The attempt's class pairs are staged as a ``TupleDelta`` over the
    read-only base database; the candidates are then batch-evaluated on the
    cached base join patched by that delta.
    """
    database, config = plan.original, plan.config
    materialization = materialize_pairs(plan.space, pairs, database, config)
    if not materialization.applied:
        return AttemptOutcome(attempt_index, pairs, applied=False, distinguishes=False)
    batch = join_cache.evaluate_batch(
        plan.queries,
        database,
        delta=materialization.delta,
        set_semantics=config.set_semantics,
        name=plan.result_name,
    )
    if len(set(partition_signature(batch.fingerprints))) <= 1:
        return AttemptOutcome(attempt_index, pairs, applied=True, distinguishes=False)
    return AttemptOutcome(
        attempt_index,
        pairs,
        applied=True,
        distinguishes=True,
        materialization=materialization,
        batch=batch,
    )


class SerialBackend:
    """In-process, in-order attempt evaluation."""

    def run_attempts(self, plan: RoundPlan, join_cache: JoinCache) -> list[AttemptOutcome]:
        """Score the plan's attempts in order up to the round's winner, the
        first applied and distinguishing one, and return their outcomes.

        Each scored attempt is one ``round.attempt`` span: a fallback past
        attempt 0 changes the transcript, so every attempt tried is visible.
        """
        # Build the candidates' term masks on their base views (a no-op for
        # every term a view already caches), so each attempt below derives
        # its masks in O(|Δ|).
        for query in plan.queries:
            join_cache.join_for(plan.original, query.join_signature).columnar().predicate_mask(
                query.predicate
            )
        tracer = get_tracer()
        outcomes: list[AttemptOutcome] = []
        for attempt_index, pairs in enumerate(plan.attempts):
            with tracer.span("round.attempt", attempt=attempt_index, pairs=len(pairs)) as span:
                outcome = evaluate_attempt(plan, join_cache, attempt_index, pairs)
                span.set(applied=outcome.applied, distinguishes=outcome.distinguishes)
            outcomes.append(outcome)
            if outcome.distinguishes:
                break
        return outcomes
