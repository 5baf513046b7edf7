"""Warm persistent worker runtime: the one parallel execution backend.

:class:`WarmProcessPoolBackend` runs rounds on a pool of child processes
that live for the whole session (and, on a shared service pool, across
sessions) and hold *versioned* base state:

* **Install once.** Each worker owns a resident
  :class:`~repro.relational.evaluator.BaseSnapshot` (database + joins +
  columnar views). The install is free under ``fork`` (the snapshot is
  inherited copy-on-write) and one pickle otherwise. A QFE session never
  mutates its base, so within a session no base bytes are shipped at all.

* **Versioned lazy sync.** Every task carries the driver's base version. A
  worker that does not hold that version replies ``need-sync`` and the
  driver resubmits the task with an authoritative install payload. A new
  base (another service pair, a pool rebuild) therefore needs no global
  barrier and no pool teardown.

* **Round planning in the worker.** A round-planning backend
  (``plans_rounds``) receives only a content-hashed round *body* (queries +
  config, token stripped); the worker runs the prologue
  (:func:`~repro.core.round_planner.compute_prologue` — the exact driver
  code) against its resident joins and keeps the result in a content-keyed
  plan cache. A repeated round body — resumed sessions, repeated pairs on a
  shared service pool — is a **warm hit**: no context bytes shipped, no
  skyline/selection recomputed anywhere. The worker ships back compact attempt
  specs, outcomes, and the winner's delta + batch; the driver replays the
  delta to finalize. Prologue, evaluation and merge order are all
  deterministic, so transcripts stay bit-identical to serial.

* **Cost-model work units.** Units are sized from a measured per-attempt
  EWMA (:class:`AttemptCostModel`), seeded by round 1 and updated from
  per-unit timings merged back with the worker counter deltas
  (``qfe_backend_attempt_micros`` / ``qfe_backend_attempts_evaluated``).

Everything observable lives in :data:`BACKEND_STATS` (``qfe_backend_*``
registry counters — e.g. ``qfe_backend_bytes_shipped``,
``qfe_backend_warm_hits``), so worker-side increments merge into the driver
registry exactly like the columnar and join stats do.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, NamedTuple, Sequence

import multiprocessing

from repro.core.execution_backend import (
    BACKEND_STATS,
    Attempt,
    AttemptOutcome,
    ExecutionBackend,
    RoundContext,
    RoundRequest,
    RoundRuntime,
    RoundSetup,
    WorkUnit,
    build_round_runtime,
    context_body_payload,
    ensure_base_masks_warm,
    evaluate_attempt,
    required_signatures,
    shard_attempts,
)
from repro.exceptions import DatabaseGenerationError
from repro.obs.registry import REGISTRY, register_worker_stats_participant
from repro.obs.trace import get_tracer
from repro.relational.evaluator import BaseSnapshot, JoinCache

__all__ = [
    "BACKEND_STATS",
    "AttemptCostModel",
    "WarmProcessPoolBackend",
    "RemoteRound",
    "RemotePlan",
    "RemoteWinner",
]

#: Weight of the newest per-attempt sample in the cost model's EWMA.
_EWMA_ALPHA = 0.3
#: Estimated seconds of work a cost-model-sized unit should carry.
_TARGET_UNIT_SECONDS = 0.02


# ------------------------------------------------------------------ cost model
class AttemptCostModel:
    """EWMA estimate of per-attempt seconds, driving work-unit sizing.

    Seeded by the first round's measured unit timings; before any
    observation, :meth:`unit_count` falls back to fixed
    ``workers × 2`` oversharding. Afterwards a unit is sized to
    ``target_unit_seconds`` of estimated work — long enough to amortize task
    dispatch, short enough that early-stop waste and stragglers stay bounded
    — clamped so a round with enough attempts always occupies every worker.
    """

    def __init__(
        self,
        *,
        alpha: float = _EWMA_ALPHA,
        target_unit_seconds: float = _TARGET_UNIT_SECONDS,
        default_attempt_seconds: float = 0.005,
    ) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        if target_unit_seconds <= 0.0:
            raise ValueError("target_unit_seconds must be positive")
        self.alpha = alpha
        self.target_unit_seconds = target_unit_seconds
        self.default_attempt_seconds = default_attempt_seconds
        self._ewma: float | None = None
        self.observations = 0

    @property
    def seeded(self) -> bool:
        return self._ewma is not None

    @property
    def attempt_seconds(self) -> float:
        """Current per-attempt estimate (the default before any observation)."""
        return self._ewma if self._ewma is not None else self.default_attempt_seconds

    def observe(self, attempts: int, seconds: float) -> None:
        """Fold one measured unit (attempt count, wall seconds) into the EWMA."""
        if attempts <= 0 or seconds < 0.0:
            return
        sample = seconds / attempts
        if self._ewma is None:
            self._ewma = sample
        else:
            self._ewma = self.alpha * sample + (1.0 - self.alpha) * self._ewma
        self.observations += 1

    def unit_count(self, total_attempts: int, workers: int) -> int:
        """How many units to shard *total_attempts* into for *workers*."""
        if total_attempts <= 0:
            return 0
        if self._ewma is None:
            # Round 1: no measurements yet — fixed oversharding.
            return min(total_attempts, workers * 2)
        per_unit = max(1, round(self.target_unit_seconds / max(self._ewma, 1e-9)))
        count = -(-total_attempts // per_unit)  # ceil
        return max(min(workers, total_attempts), min(count, total_attempts))


# ------------------------------------------------------------- wire dataclasses
@dataclass(frozen=True)
class _Install:
    """Authoritative full base install: the pickled snapshot."""

    version: int
    snapshot_bytes: bytes


@dataclass(frozen=True)
class _PlanTask:
    version: int
    token: str
    body_hash: str
    body: bytes | None
    sync: _Install | None = None  # attached on a need-sync resubmit


@dataclass(frozen=True)
class _RunTask:
    version: int
    token: str
    body_hash: str
    body: bytes | None
    unit: WorkUnit
    stop_at_first: bool
    sync: _Install | None = None  # attached on a need-sync resubmit


@dataclass(frozen=True)
class _NeedSync:
    """Worker does not hold the task's base version (ship an install)."""

    counter_deltas: dict


@dataclass(frozen=True)
class _NeedContext:
    """Worker lacks the round body for the task's hash (ship the bytes)."""

    body_hash: str
    counter_deltas: dict


@dataclass(frozen=True)
class RemoteWinner:
    """The winning attempt's finalize payload, shipped from the worker.

    ``delta`` replays onto a copy of the driver's base to reproduce the exact
    modified database (tuple ids included — see
    :meth:`~repro.relational.delta.TupleDelta.apply_to`); ``batch`` carries
    the winner's per-candidate result relations and fingerprints so the
    driver builds the feedback partition without evaluating anything.
    """

    attempt_index: int
    delta: Any
    batch: Any
    modification_count: int
    modified_tuple_count: int
    modified_relation_count: int
    side_effect_count: int
    skipped_pair_count: int


@dataclass(frozen=True)
class _PlanReply:
    cache_hit: bool
    error: str | None
    skyline_pair_count: int
    chosen_pairs: tuple
    chosen_cost: Any
    attempts: tuple[Attempt, ...]
    skyline_seconds: float
    selection_seconds: float
    counter_deltas: dict


@dataclass(frozen=True)
class _RunReply:
    outcomes: tuple[AttemptOutcome, ...]
    winner: RemoteWinner | None
    elapsed: float
    counter_deltas: dict


@dataclass(frozen=True)
class RemotePlan:
    """Compact prologue summary for one remotely planned round."""

    cache_hit: bool
    skyline_pair_count: int
    chosen_pairs: tuple
    chosen_cost: Any
    attempts: tuple[Attempt, ...]
    skyline_seconds: float
    selection_seconds: float


@dataclass(frozen=True)
class RemoteRound:
    """Everything :meth:`WarmProcessPoolBackend.run_round` hands the planner."""

    plan: RemotePlan
    outcomes: list[AttemptOutcome]
    winner: RemoteWinner | None


# --------------------------------------------------------------- worker globals
_PLAN_CACHE_LIMIT = 8
_ROUND_LIMIT = 4
_BODY_LIMIT = 8
_SYNC_RETRIES = 6


class _ForkSeed(NamedTuple):
    """Driver-side seed inherited by fork-started workers (zero bytes shipped)."""

    version: int
    snapshot: BaseSnapshot


class _WorkerBase(NamedTuple):
    """A worker's resident base: its version, database and seeded join cache."""

    version: int
    database: Any
    cache: JoinCache


@dataclass
class _PlanEntry:
    """One cached prologue: the built runtime plus the compact summaries."""

    runtime: RoundRuntime
    attempts: tuple[Attempt, ...]
    skyline_pair_count: int
    chosen_pairs: tuple
    chosen_cost: Any
    skyline_seconds: float
    selection_seconds: float


_FORK_SEED: _ForkSeed | None = None
_BASE: _WorkerBase | None = None
_PLANS: "OrderedDict[tuple[int, str], _PlanEntry]" = OrderedDict()
_ROUNDS: "OrderedDict[str, tuple[RoundContext, RoundRuntime]]" = OrderedDict()
_BODIES: "OrderedDict[str, RoundContext]" = OrderedDict()
#: Counter values this worker last shipped to the driver. Reporting against
#: this high-water mark (instead of a per-task snapshot) means increments
#: raised *between* tasks — the fork-seeded install in the pool initializer —
#: ride back with the next reply instead of being lost.
_LAST_REPORT: dict = {}


def _report_deltas() -> dict:
    """Counter increments since this worker's previous reply."""
    global _LAST_REPORT
    deltas = REGISTRY.counter_deltas(_LAST_REPORT)
    _LAST_REPORT = REGISTRY.counter_values()
    return deltas


def _set_fork_seed(version: int, snapshot: BaseSnapshot) -> None:
    global _FORK_SEED
    _FORK_SEED = _ForkSeed(version, snapshot)


def _install_snapshot(version: int, snapshot: BaseSnapshot) -> None:
    global _BASE
    database, cache = snapshot.restore()
    _BASE = _WorkerBase(version, database, cache)
    _PLANS.clear()
    _ROUNDS.clear()
    BACKEND_STATS.snapshot_installs += 1


def _warm_worker_initialize() -> None:
    """Install the fork-inherited base, if any (runs once per worker process).

    Under the fork start method the driver's :data:`_FORK_SEED` — version and
    live snapshot object — arrives copy-on-write with the address space, so
    the install ships zero bytes. Under spawn the global is unset and the
    worker starts base-less: its first task replies ``need-sync`` and the
    driver ships an authoritative install (one snapshot pickle).
    """
    global _LAST_REPORT
    # A forked child inherits the driver's registry *values*; baseline them
    # out first or the first reply would ship the driver's own pre-fork
    # counts back as increments (double counting). The fork-seed install
    # below lands after the baseline, so it is reported correctly.
    _LAST_REPORT = REGISTRY.counter_values()
    seed = _FORK_SEED
    if seed is not None:
        _install_snapshot(seed.version, seed.snapshot)


def _sync_to(version: int, sync: _Install | None) -> bool:
    """Bring the resident base to *version*; True when current afterwards."""
    if _BASE is not None and _BASE.version == version:
        return True
    if sync is not None and sync.version == version:
        _install_snapshot(version, BaseSnapshot.from_bytes(sync.snapshot_bytes))
        return True
    return False


def _context_for(task: "_PlanTask | _RunTask") -> RoundContext | None:
    """Resolve the task's round context from the body cache (None = resend)."""
    body = _BODIES.get(task.body_hash)
    if body is None:
        if task.body is None:
            return None
        body = pickle.loads(task.body)
        _BODIES[task.body_hash] = body
        while len(_BODIES) > _BODY_LIMIT:
            _BODIES.popitem(last=False)
    else:
        _BODIES.move_to_end(task.body_hash)
    return replace(body, token=task.token)


def _register_round(token: str, context: RoundContext, runtime: RoundRuntime) -> None:
    _ROUNDS[token] = (context, runtime)
    _ROUNDS.move_to_end(token)
    while len(_ROUNDS) > _ROUND_LIMIT:
        _ROUNDS.popitem(last=False)


def _handle_plan(task: _PlanTask, context: RoundContext) -> _PlanReply:
    # Imported here (not at module top) to keep the module importable from
    # execution_backend without a cycle: round_planner imports
    # execution_backend, and only worker processes ever reach this path.
    from repro.core.round_planner import compute_prologue

    base = _BASE
    assert base is not None
    key = (base.version, task.body_hash)
    entry = _PLANS.get(key)
    cache_hit = entry is not None
    if entry is not None:
        _PLANS.move_to_end(key)
        BACKEND_STATS.warm_hits += 1
    else:
        BACKEND_STATS.warm_misses += 1
        try:
            prologue = compute_prologue(base.database, base.cache, context)
        except DatabaseGenerationError as exc:
            return _PlanReply(
                cache_hit=False,
                error=str(exc),
                skyline_pair_count=0,
                chosen_pairs=(),
                chosen_cost=None,
                attempts=(),
                skyline_seconds=0.0,
                selection_seconds=0.0,
                counter_deltas=_report_deltas(),
            )
        ensure_base_masks_warm(base.database, base.cache, context)
        entry = _PlanEntry(
            runtime=RoundRuntime(
                database=base.database, space=prologue.space, join_cache=base.cache
            ),
            attempts=prologue.attempts,
            skyline_pair_count=prologue.skyline.pair_count,
            chosen_pairs=tuple(prologue.selection.chosen_pairs),
            chosen_cost=prologue.selection.chosen_cost,
            skyline_seconds=prologue.skyline_seconds,
            selection_seconds=prologue.selection_seconds,
        )
        _PLANS[key] = entry
        while len(_PLANS) > _PLAN_CACHE_LIMIT:
            _PLANS.popitem(last=False)
    _register_round(task.token, context, entry.runtime)
    return _PlanReply(
        cache_hit=cache_hit,
        error=None,
        skyline_pair_count=entry.skyline_pair_count,
        chosen_pairs=entry.chosen_pairs,
        chosen_cost=entry.chosen_cost,
        attempts=entry.attempts,
        skyline_seconds=entry.skyline_seconds,
        selection_seconds=entry.selection_seconds,
        counter_deltas=_report_deltas(),
    )


def _handle_run(task: _RunTask, context: RoundContext) -> _RunReply:
    base = _BASE
    assert base is not None
    state = _ROUNDS.get(task.token)
    if state is not None:
        _ROUNDS.move_to_end(task.token)
        context, runtime = state
    else:
        # This worker never saw the round's plan (another worker planned it,
        # or the caller uses the run_attempts interface): build the
        # evaluation runtime — space + warm masks, no skyline — against the
        # resident base, reusing a content-matched plan entry when present.
        entry = _PLANS.get((base.version, task.body_hash))
        if entry is not None:
            _PLANS.move_to_end((base.version, task.body_hash))
            runtime = entry.runtime
        else:
            runtime = build_round_runtime(base.database, base.cache, context)
        _register_round(task.token, context, runtime)
    ensure_base_masks_warm(base.database, base.cache, context)
    start = time.perf_counter()
    outcomes: list[AttemptOutcome] = []
    winner: RemoteWinner | None = None
    for offset, pairs in enumerate(task.unit.attempts):
        attempt_index = task.unit.start + offset
        if task.stop_at_first:
            store: dict = {}
            outcome = evaluate_attempt(runtime, context, attempt_index, pairs, store)
            outcomes.append(outcome)
            if outcome.applied and outcome.distinguishes:
                materialization = store["materialization"]
                winner = RemoteWinner(
                    attempt_index=attempt_index,
                    delta=materialization.delta,
                    batch=store["batch"],
                    modification_count=materialization.modification_count,
                    modified_tuple_count=materialization.modified_tuple_count,
                    modified_relation_count=materialization.modified_relation_count,
                    side_effect_count=materialization.side_effect_count,
                    skipped_pair_count=len(materialization.skipped_pairs),
                )
                # The deposit kept the winner's derived entry registered so an
                # in-process caller could reuse it; here the driver gets the
                # delta instead — release the entry so the resident cache
                # never pins a candidate database across rounds.
                runtime.join_cache.invalidate(materialization.database)
                break
        else:
            outcomes.append(evaluate_attempt(runtime, context, attempt_index, pairs))
    elapsed = time.perf_counter() - start
    BACKEND_STATS.attempts_evaluated += len(outcomes)
    BACKEND_STATS.attempt_micros += int(elapsed * 1e6)
    return _RunReply(
        outcomes=tuple(outcomes),
        winner=winner,
        elapsed=elapsed,
        counter_deltas=_report_deltas(),
    )


def _warm_call(task: "_PlanTask | _RunTask"):
    """Single worker entry point: sync, resolve context, plan or run."""
    if not _sync_to(task.version, task.sync):
        return _NeedSync(counter_deltas=_report_deltas())
    context = _context_for(task)
    if context is None:
        return _NeedContext(body_hash=task.body_hash, counter_deltas=_report_deltas())
    if isinstance(task, _PlanTask):
        return _handle_plan(task, context)
    return _handle_run(task, context)


def _warm_reset_counters() -> int:
    """Zero this worker's registry (warm-worker-aware reset); returns the pid.

    The short sleep keeps a burst of reset tasks from being drained by one
    idle worker before its siblings pick theirs up.
    """
    global _LAST_REPORT
    REGISTRY.reset()
    _LAST_REPORT = REGISTRY.counter_values()
    time.sleep(0.005)
    return os.getpid()


# --------------------------------------------------------------------- backend
class WarmProcessPoolBackend(ExecutionBackend):
    """Persistent warm worker pool: versioned base state, remote round planning.

    * The pool is never torn down on base change — workers upgrade lazily via
      the versioned sync protocol (a full install on need-sync).
    * ``plans_rounds`` is set, so :class:`~repro.core.round_planner.\
RoundPlanner` delegates whole rounds via :meth:`run_round`: the prologue runs
      (and is content-cached) worker-side, and only compact specs, outcomes
      and the winner's delta + batch cross the process boundary.
    * Work units are sized by the measured :class:`AttemptCostModel`.

    One pool may be **shared by many sessions** (the session service's
    multiplexing model): rounds serialize on an internal lock, and each
    round still fans its attempts out across every worker.

    Determinism: outcomes merge by attempt order, the prologue is the
    identical deterministic code on identical replicated state, and the
    winner's delta replays the exact winning database — so transcripts are
    bit-identical to :class:`SerialBackend` at any worker count, before and
    after crashes (a :class:`BrokenProcessPool` rebuilds the pool from the
    current fork seed and deterministically retries the round once).
    """

    name = "warm-pool"
    plans_rounds = True

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("WarmProcessPoolBackend needs at least 2 workers")
        self.workers = workers
        self.cost_model = AttemptCostModel()
        self._executor: ProcessPoolExecutor | None = None
        self._snapshot: BaseSnapshot | None = None
        self._version = 0
        self._install_bytes: bytes | None = None
        self._shipped_bodies: set[str] = set()
        self._current_body: tuple[str, bytes] | None = None
        self.last_snapshot_bytes: int | None = None
        self._lock = threading.RLock()
        # Join the warm-worker-aware reset fan-out: reset_all_stats() zeroes
        # the resident workers' registries too, not just the driver's.
        register_worker_stats_participant(self)

    # ------------------------------------------------------------------- pool
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Workers fork at first submit, inheriting the *current* fork
            # seed — _ensure_base always runs first, so the seed is fresh.
            # fork is the cheap path; fall back to spawn where unavailable.
            methods = multiprocessing.get_all_start_methods()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(
                    "fork" if "fork" in methods else "spawn"
                ),
                initializer=_warm_worker_initialize,
            )
        return self._executor

    def _teardown_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------- base
    def _ensure_base(self, snapshot: BaseSnapshot, signatures) -> None:
        if not snapshot.covers(signatures):  # pragma: no cover - defensive
            raise ValueError(
                "snapshot provider returned a snapshot that does not cover "
                f"the round's join signatures {tuple(signatures)}"
            )
        if snapshot is not self._snapshot:
            # Structurally new base (new database, uncovered signature, or
            # joins rebuilt after an in-place mutation): bump the version and
            # let workers pull a full install lazily. The pool stays up.
            self._version += 1
            self._snapshot = snapshot
            self._install_bytes = None
            _set_fork_seed(self._version, snapshot)

    def _install_payload(self) -> _Install:
        snapshot = self._snapshot
        assert snapshot is not None
        if self._install_bytes is None:
            self._install_bytes = snapshot.to_bytes()
            self.last_snapshot_bytes = len(self._install_bytes)
        BACKEND_STATS.bytes_shipped += len(self._install_bytes)
        return _Install(version=self._version, snapshot_bytes=self._install_bytes)

    # ---------------------------------------------------------------- context
    def _body_for(self, context: RoundContext) -> tuple[str, bytes | None]:
        digest, payload = context_body_payload(context)
        self._current_body = (digest, payload)
        if digest in self._shipped_bodies:
            BACKEND_STATS.context_skips += 1
            return digest, None
        self._shipped_bodies.add(digest)
        return digest, payload

    # --------------------------------------------------------------- dispatch
    def _account_task(self, task) -> None:
        if isinstance(task, _RunTask):
            BACKEND_STATS.units_dispatched += 1
        if task.body is not None:
            BACKEND_STATS.bytes_shipped += len(task.body)

    def _resolve(self, executor: ProcessPoolExecutor, tasks: list) -> list:
        """Submit tasks and drive the need-sync / need-context resubmit loop."""
        for task in tasks:
            self._account_task(task)
        pending = {index: executor.submit(_warm_call, task) for index, task in enumerate(tasks)}
        tasks = list(tasks)
        tries = [0] * len(tasks)
        replies: list = [None] * len(tasks)
        while pending:
            for index in sorted(pending):
                reply = pending.pop(index).result()
                if reply.counter_deltas:
                    REGISTRY.merge_counter_deltas(reply.counter_deltas)
                if isinstance(reply, _NeedSync):
                    BACKEND_STATS.worker_resyncs += 1
                    tries[index] += 1
                    if tries[index] > _SYNC_RETRIES:
                        raise RuntimeError(
                            "warm worker failed to synchronize after repeated installs"
                        )
                    tasks[index] = replace(tasks[index], sync=self._install_payload())
                    pending[index] = executor.submit(_warm_call, tasks[index])
                elif isinstance(reply, _NeedContext):
                    BACKEND_STATS.context_resends += 1
                    tries[index] += 1
                    if tries[index] > _SYNC_RETRIES:  # pragma: no cover - defensive
                        raise RuntimeError("warm worker failed to receive the round context")
                    current = self._current_body
                    if current is None or current[0] != reply.body_hash:  # pragma: no cover
                        raise RuntimeError("worker requested an unknown round body")
                    BACKEND_STATS.bytes_shipped += len(current[1])
                    tasks[index] = replace(tasks[index], body=current[1])
                    pending[index] = executor.submit(_warm_call, tasks[index])
                else:
                    replies[index] = reply
        return replies

    # -------------------------------------------------------------- run units
    def _run_units_stop_first(
        self,
        executor: ProcessPoolExecutor,
        token: str,
        body_hash: str,
        body: bytes | None,
        attempts: Sequence[Attempt],
    ) -> tuple[list[AttemptOutcome], RemoteWinner | None]:
        outcomes_by_unit: dict[int, tuple[AttemptOutcome, ...]] = {}
        winners: dict[int, RemoteWinner] = {}

        def run_units(units: list[WorkUnit]) -> None:
            tasks = [
                _RunTask(
                    version=self._version,
                    token=token,
                    body_hash=body_hash,
                    body=body,
                    unit=unit,
                    stop_at_first=True,
                )
                for unit in units
            ]
            for unit, reply in zip(units, self._resolve(executor, tasks)):
                self.cost_model.observe(len(reply.outcomes), reply.elapsed)
                outcomes_by_unit[unit.index] = reply.outcomes
                if reply.winner is not None:
                    winners[unit.index] = reply.winner

        # Wave 1: the Algorithm-4 subset attempt alone — the expected winner.
        # Matching the serial backend's work exactly here means a typical
        # round performs zero speculative evaluations.
        run_units([WorkUnit(index=0, start=0, attempts=(tuple(attempts[0]),))])
        if not winners and len(attempts) > 1:
            rest = tuple(attempts[1:])
            units = [
                WorkUnit(index=unit.index + 1, start=unit.start + 1, attempts=unit.attempts)
                for unit in shard_attempts(rest, self.cost_model.unit_count(len(rest), self.workers))
            ]
            run_units(units)
        merged: list[AttemptOutcome] = []
        for index in sorted(outcomes_by_unit):
            merged.extend(outcomes_by_unit[index])
        winning = next((o for o in merged if o.applied and o.distinguishes), None)
        payload: RemoteWinner | None = None
        if winning is not None:
            for index in sorted(winners):
                if winners[index].attempt_index == winning.attempt_index:
                    payload = winners[index]
                    break
        return merged, payload

    # ------------------------------------------------------------- run a round
    def run_round(self, request: RoundRequest) -> RemoteRound:
        """Plan and search one round entirely on the warm pool.

        Ships the content-hashed round body (bytes only if unseen), receives
        the prologue summary + attempt specs (a plan-cache hit skips the
        prologue computation entirely), then dispatches cost-model-sized work
        units and returns merged outcomes plus the winner's finalize payload.
        """
        with self._lock:
            try:
                return self._run_round_locked(request)
            except BrokenProcessPool:
                BACKEND_STATS.pool_rebuilds += 1
                self._teardown_executor()
                # Deterministic round: the rebuilt pool (re-seeded from the
                # current fork seed, or need-sync installs) reproduces the
                # identical result.
                return self._run_round_locked(request)

    def _run_round_locked(self, request: RoundRequest) -> RemoteRound:
        tracer = get_tracer()
        with tracer.span("backend.broadcast", backend=self.name):
            self._ensure_base(
                request.snapshot_provider(), required_signatures(request.context)
            )
            executor = self._ensure_executor()
        token = request.context.token
        body_hash, body = self._body_for(request.context)
        BACKEND_STATS.rounds_planned += 1
        with tracer.span("backend.plan", backend=self.name) as plan_span:
            plan_reply: _PlanReply = self._resolve(
                executor,
                [
                    _PlanTask(
                        version=self._version,
                        token=token,
                        body_hash=body_hash,
                        body=body,
                    )
                ],
            )[0]
            if tracer.enabled:
                plan_span.set(cache_hit=plan_reply.cache_hit)
        if plan_reply.error is not None:
            raise DatabaseGenerationError(plan_reply.error)
        outcomes, winner = self._run_units_stop_first(
            executor, token, body_hash, body, plan_reply.attempts
        )
        with tracer.span("backend.merge", backend=self.name):
            plan = RemotePlan(
                cache_hit=plan_reply.cache_hit,
                skyline_pair_count=plan_reply.skyline_pair_count,
                chosen_pairs=plan_reply.chosen_pairs,
                chosen_cost=plan_reply.chosen_cost,
                attempts=plan_reply.attempts,
                skyline_seconds=plan_reply.skyline_seconds,
                selection_seconds=plan_reply.selection_seconds,
            )
        return RemoteRound(plan=plan, outcomes=outcomes, winner=winner)

    # ------------------------------------------------------- attempt interface
    def run_attempts(
        self, setup: RoundSetup, attempts: Sequence[Attempt], *, stop_at_first: bool
    ) -> list[AttemptOutcome]:
        if not attempts:
            return []
        with self._lock:
            try:
                return self._run_attempts_locked(setup, attempts, stop_at_first=stop_at_first)
            except BrokenProcessPool:
                BACKEND_STATS.pool_rebuilds += 1
                self._teardown_executor()
                return self._run_attempts_locked(setup, attempts, stop_at_first=stop_at_first)

    def _run_attempts_locked(
        self, setup: RoundSetup, attempts: Sequence[Attempt], *, stop_at_first: bool
    ) -> list[AttemptOutcome]:
        tracer = get_tracer()
        with tracer.span("backend.broadcast", backend=self.name):
            self._ensure_base(
                setup.snapshot_provider(), required_signatures(setup.context)
            )
            executor = self._ensure_executor()
        token = setup.context.token
        body_hash, body = self._body_for(setup.context)
        if stop_at_first:
            merged, _ = self._run_units_stop_first(
                executor, token, body_hash, body, tuple(attempts)
            )
            return merged
        units = shard_attempts(
            attempts, self.cost_model.unit_count(len(attempts), self.workers)
        )
        tasks = [
            _RunTask(
                version=self._version,
                token=token,
                body_hash=body_hash,
                body=body,
                unit=unit,
                stop_at_first=False,
            )
            for unit in units
        ]
        replies = self._resolve(executor, tasks)
        with tracer.span("backend.merge", backend=self.name):
            merged: list[AttemptOutcome] = []
            for unit, reply in zip(units, replies):
                self.cost_model.observe(len(reply.outcomes), reply.elapsed)
                merged.extend(reply.outcomes)
        return merged

    # ---------------------------------------------------------------- plumbing
    def reset_worker_stats(self) -> None:
        """Zero the resident workers' registries (joined to reset_all_stats).

        Best-effort by design: a reset that cannot reach a worker (pool being
        torn down, crashed child) must never raise — the caller is a bench
        harness zeroing counters between groups.
        """
        with self._lock:
            executor = self._executor
            if executor is None:
                return
            try:
                expected: set[int] = set(getattr(executor, "_processes", None) or ())
            except Exception:  # pragma: no cover - implementation detail probe
                expected = set()
            seen: set[int] = set()
            for _ in range(10):
                try:
                    futures = [executor.submit(_warm_reset_counters) for _ in range(self.workers)]
                    for future in futures:
                        seen.add(future.result(timeout=60))
                except Exception:  # pragma: no cover - defensive: reset must not raise
                    return
                if not expected or expected <= seen:
                    return

    def release_base(self, database) -> None:
        """Forget the installed base if it is *database* (service pair eviction).

        The next round installs fresh; resident workers upgrade lazily via
        need-sync. Called by hosts that evict a shared base (e.g. the session
        service pruning a workload pair) so the backend never pins a dead
        database through its snapshot reference.
        """
        with self._lock:
            if self._snapshot is not None and self._snapshot.database is database:
                self._snapshot = None
                self._install_bytes = None

    def worker_pids(self) -> tuple[int, ...]:
        """Live child process ids (fault-injection tests kill one of these)."""
        with self._lock:
            if self._executor is None:
                return ()
            processes = getattr(self._executor, "_processes", None) or {}
            return tuple(processes)

    def close(self) -> None:
        """Shut the pool down; the backend stays reusable."""
        with self._lock:
            self._teardown_executor()
            self._snapshot = None
            self._install_bytes = None
            self._shipped_bodies.clear()
            self._current_body = None
