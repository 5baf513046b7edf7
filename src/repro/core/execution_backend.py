"""In-process scoring of a round's candidate modifications.

Every QFE round scores a deterministic sequence of *attempts* — candidate
class-pair sets, the Algorithm 4 subset first, then the skyline singles in
balance order — by concretely materializing each attempt against the base
database and computing the exact candidate-query partition it induces. The
:class:`~repro.core.round_planner.RoundPlanner` plans the round (the
prologue); this module holds the per-round payloads and
:class:`SerialBackend`, which scores the planned attempts in order, in
process, against the planner's join cache.

Attempt evaluation is a pure function of ``(base database, round context,
attempt)`` — materialization, delta application and fingerprinting contain
no randomness — so the winning attempt, and with it the whole session
transcript, is deterministic.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

from repro.core.config import QFEConfig
from repro.core.materialize import materialize_pairs
from repro.core.modification import ClassPair
from repro.core.partitioner import partition_signature
from repro.core.tuple_class import TupleClassSpace
from repro.relational.database import Database
from repro.relational.evaluator import JoinCache
from repro.relational.query import SPJQuery

__all__ = [
    "RoundContext",
    "AttemptOutcome",
    "RoundSetup",
    "SerialBackend",
    "evaluate_attempt",
]

Attempt = tuple[ClassPair, ...]


# --------------------------------------------------------------------- payloads
@dataclass(frozen=True)
class RoundContext:
    """The picklable per-round description attempts are evaluated against.

    Its pickle is the round *body*: the planner makes it once per round and
    keys its prologue memo on it.
    """

    queries: tuple[SPJQuery, ...]
    config: QFEConfig
    referenced: tuple[str, ...]
    result_name: str
    result_arity: int = 0


@dataclass(frozen=True)
class AttemptOutcome:
    """The compact result of concretely scoring one attempt.

    The partition signature (canonical group id per query, see
    :func:`~repro.core.partitioner.partition_signature`) plus the
    modification counts are enough to rank attempts; only the winner's
    materialization is kept (see :class:`RoundSetup`).
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


@dataclass
class RoundSetup:
    """Everything needed to score one round's attempts.

    ``winner_store`` is an optional sink: when a winning attempt is scored,
    its :class:`MaterializationResult` and batch evaluation are deposited
    there (keys ``materialization`` and ``batch``, with the derived cache
    entry left registered) so the planner's finalize step reuses them
    instead of re-materializing. Without it every attempt's derived entry is
    released.
    """

    context: RoundContext
    database: Database
    space: TupleClassSpace
    join_cache: JoinCache
    winner_store: dict | None = None


# ------------------------------------------------------------------- evaluation
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
# join-object identity via weakrefs: a join served by a long-lived cache is
# warmed once across all rounds — later rounds' candidates are
# (near-)subsets of the first round's, and a genuinely new term just builds
# lazily on the derived view as it always did — while a rebuilt join
# (``join_cache.invalidate`` after an in-place base mutation) is a new object
# and is warmed again. Dead or id-recycled joins can never satisfy the guard.
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


def evaluate_attempt(setup: RoundSetup, attempt_index: int, pairs: Attempt) -> AttemptOutcome:
    """Concretely score one attempt: materialize, delta-derive, partition.

    The attempt's class pairs are materialized against a copy of the base
    database; the recorded update-only delta then patches the cached base
    join (via :meth:`JoinCache.derive`), the candidates are batch-evaluated
    on the derived state, and only the canonical partition signature plus
    modification counts survive. The derived cache entry is released before
    returning so a long attempt sequence never pins more than one candidate
    database — except when the attempt wins (applied and distinguishing) and
    ``setup.winner_store`` is set: then the materialization is deposited
    there with its derived entry kept registered, so the caller can finalize
    the round without repeating the materialization.
    """
    context, join_cache, database = setup.context, setup.join_cache, setup.database
    winner_store = setup.winner_store
    config = context.config
    materialization = materialize_pairs(setup.space, pairs, database, config)
    applied = bool(materialization.applied)
    signature: tuple[int, ...] | None = None
    group_sizes: tuple[int, ...] = ()
    distinguishes = False
    if applied:
        delta = materialization.delta
        if delta.is_update_only and not delta.is_empty:
            join_cache.derive(database, delta, materialization.database)
        try:
            batch = join_cache.evaluate_batch(
                context.queries,
                materialization.database,
                set_semantics=config.set_semantics,
                name=context.result_name,
            )
            signature = partition_signature(batch.fingerprints)
        except BaseException:
            join_cache.invalidate(materialization.database)
            raise
        sizes: dict[int, int] = {}
        for group_id in signature:
            sizes[group_id] = sizes.get(group_id, 0) + 1
        group_sizes = tuple(sorted(sizes.values(), reverse=True))
        distinguishes = len(sizes) > 1
        if winner_store is not None and distinguishes:
            winner_store["materialization"] = materialization
            winner_store["batch"] = batch
        else:
            join_cache.invalidate(materialization.database)
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
    )


class SerialBackend:
    """In-process, in-order attempt evaluation."""

    def run_attempts(
        self, setup: RoundSetup, attempts: Sequence[Attempt]
    ) -> list[AttemptOutcome]:
        """Score *attempts* in order up to the round's winner, the first
        applied and distinguishing one, and return their outcomes."""
        # Warm once per live join instance; every attempt below then derives
        # cached masks in O(|Δ|).
        ensure_base_masks_warm(setup.database, setup.join_cache, setup.context)
        outcomes: list[AttemptOutcome] = []
        for attempt_index, pairs in enumerate(attempts):
            outcome = evaluate_attempt(setup, attempt_index, pairs)
            outcomes.append(outcome)
            if outcome.applied and outcome.distinguishes:
                break
        return outcomes
