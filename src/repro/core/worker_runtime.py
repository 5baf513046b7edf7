"""Warm persistent worker runtime: the one parallel execution backend.

:class:`WarmProcessPoolBackend` scores a round's attempts on a pool of child
processes that live for the whole session (and, on a shared service pool,
across sessions) and hold *versioned* base state. The round itself is always
planned on the driver (:meth:`~repro.core.round_planner.RoundPlanner.\
prepare_round`); the pool only installs the base and scores attempt units.

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

* **Round bodies.** Every task carries the round body the driver pickled
  once (queries, config, referenced tables, result schema). A worker keeps a
  small LRU of round runtimes (tuple-class space + warm term masks) keyed by
  the sha256 of those bytes, so the units of one round — and repeated
  rounds — rebuild nothing.

* **Cost-model work units.** Units are sized from a measured per-attempt
  EWMA (:class:`AttemptCostModel`), seeded by round 1 and updated from
  per-unit timings merged back with the worker counter deltas
  (``qfe_backend_attempt_micros`` / ``qfe_backend_attempts_evaluated``).
  The Algorithm 4 subset attempt runs alone first; only if it fails to
  distinguish are the remaining attempts fanned out.

Everything observable lives in :data:`BACKEND_STATS` (``qfe_backend_*``
registry counters — e.g. ``qfe_backend_bytes_shipped``), so worker-side
increments merge into the driver registry exactly like the columnar and
join stats do.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from itertools import count
from typing import Any, NamedTuple, Sequence

import multiprocessing

from repro.core.execution_backend import (
    BACKEND_STATS,
    Attempt,
    AttemptOutcome,
    ExecutionBackend,
    RoundContext,
    RoundRuntime,
    RoundSetup,
    WorkUnit,
    build_round_runtime,
    evaluate_attempt,
    required_signatures,
    shard_attempts,
)
from repro.obs.registry import REGISTRY, register_worker_stats_participant
from repro.obs.trace import get_tracer
from repro.relational.evaluator import BaseSnapshot, JoinCache

__all__ = [
    "BACKEND_STATS",
    "AttemptCostModel",
    "WarmProcessPoolBackend",
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
class _RunTask:
    version: int
    body: bytes
    unit: WorkUnit
    stop_at_first: bool
    sync: _Install | None = None  # attached on a need-sync resubmit


@dataclass(frozen=True)
class _NeedSync:
    """Worker does not hold the task's base version (ship an install)."""

    counter_deltas: dict


@dataclass(frozen=True)
class _RunReply:
    outcomes: tuple[AttemptOutcome, ...]
    elapsed: float
    counter_deltas: dict


# --------------------------------------------------------------- worker globals
_RUNTIME_LIMIT = 4
_SYNC_RETRIES = 6
#: Base versions, unique across every pool in the process.
_VERSIONS = count(1)


class _ForkSeed(NamedTuple):
    """Driver-side seed inherited by fork-started workers (zero bytes shipped)."""

    version: int
    snapshot: BaseSnapshot


class _WorkerBase(NamedTuple):
    """A worker's resident base: its version, database and seeded join cache."""

    version: int
    database: Any
    cache: JoinCache


_FORK_SEED: _ForkSeed | None = None
_BASE: _WorkerBase | None = None
#: Round runtimes keyed by the sha256 of the round body they were built from.
_RUNTIMES: "OrderedDict[str, tuple[RoundContext, RoundRuntime]]" = OrderedDict()
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


def _clear_fork_seed(database=None) -> None:
    """Drop the fork seed (only if it holds *database*, when one is given).

    The seed is a module global that strongly references its snapshot — and
    through it the whole base database — so a released base must not stay
    pinned here until some later round overwrites the seed.
    """
    global _FORK_SEED
    seed = _FORK_SEED
    if database is None or (seed is not None and seed.snapshot.database is database):
        _FORK_SEED = None


def _install_snapshot(version: int, snapshot: BaseSnapshot) -> None:
    global _BASE
    database, cache = snapshot.restore()
    _BASE = _WorkerBase(version, database, cache)
    _RUNTIMES.clear()
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


def _runtime_for(body: bytes) -> tuple[RoundContext, RoundRuntime]:
    """The round's evaluation runtime, built from the body on an LRU miss."""
    key = hashlib.sha256(body).hexdigest()
    state = _RUNTIMES.get(key)
    if state is not None:
        _RUNTIMES.move_to_end(key)
        return state
    base = _BASE
    assert base is not None
    context = pickle.loads(body)
    state = (context, build_round_runtime(base.database, base.cache, context))
    _RUNTIMES[key] = state
    while len(_RUNTIMES) > _RUNTIME_LIMIT:
        _RUNTIMES.popitem(last=False)
    return state


def _warm_call(task: _RunTask):
    """Single worker entry point: sync the base, then score the unit."""
    if not _sync_to(task.version, task.sync):
        return _NeedSync(counter_deltas=_report_deltas())
    context, runtime = _runtime_for(task.body)
    start = time.perf_counter()
    outcomes: list[AttemptOutcome] = []
    for offset, pairs in enumerate(task.unit.attempts):
        outcome = evaluate_attempt(runtime, context, task.unit.start + offset, pairs)
        outcomes.append(outcome)
        if task.stop_at_first and outcome.applied and outcome.distinguishes:
            break
    elapsed = time.perf_counter() - start
    BACKEND_STATS.attempts_evaluated += len(outcomes)
    BACKEND_STATS.attempt_micros += int(elapsed * 1e6)
    return _RunReply(
        outcomes=tuple(outcomes), elapsed=elapsed, counter_deltas=_report_deltas()
    )


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
    """Persistent warm worker pool: versioned base state, attempt scoring.

    * The pool is never torn down on base change — workers upgrade lazily via
      the versioned sync protocol (a full install on need-sync).
    * Every round is planned on the driver; the pool receives the planned
      attempts in work units sized by the measured :class:`AttemptCostModel`
      and returns compact outcomes. The planner re-materializes the winner.

    One pool may be **shared by many sessions** (the session service's
    multiplexing model): rounds serialize on an internal lock, and each
    round still fans its attempts out across every worker.

    Determinism: attempt evaluation is deterministic on replicated state and
    outcomes merge by attempt order, so transcripts are bit-identical to
    :class:`SerialBackend` at any worker count, before and after crashes (a
    :class:`BrokenProcessPool` rebuilds the pool from the current fork seed
    and deterministically retries the round's attempts once).
    """

    name = "warm-pool"

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("WarmProcessPoolBackend needs at least 2 workers")
        self.workers = workers
        self.cost_model = AttemptCostModel()
        self._executor: ProcessPoolExecutor | None = None
        self._snapshot: BaseSnapshot | None = None
        self._version = 0
        self._install_bytes: bytes | None = None
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
            # joins rebuilt after an in-place mutation): take a fresh,
            # process-unique version — a fork seed left by another pool can
            # then never pass for this one's — and let workers pull a full
            # install lazily. The pool stays up.
            self._version = next(_VERSIONS)
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

    # --------------------------------------------------------------- dispatch
    def _resolve(self, executor: ProcessPoolExecutor, tasks: list[_RunTask]) -> list[_RunReply]:
        """Submit tasks and drive the need-sync resubmit loop."""
        for task in tasks:
            BACKEND_STATS.units_dispatched += 1
            BACKEND_STATS.bytes_shipped += len(task.body)
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
                else:
                    replies[index] = reply
        return replies

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
                # Deterministic attempts: the rebuilt pool (re-seeded from the
                # current fork seed, or need-sync installs) reproduces the
                # identical outcomes.
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

        def dispatch(units: list[WorkUnit]) -> list[_RunReply]:
            tasks = [
                _RunTask(
                    version=self._version,
                    body=setup.body,
                    unit=unit,
                    stop_at_first=stop_at_first,
                )
                for unit in units
            ]
            replies = self._resolve(executor, tasks)
            for reply in replies:
                self.cost_model.observe(len(reply.outcomes), reply.elapsed)
            return replies

        if stop_at_first:
            # Wave 1: the Algorithm-4 subset attempt alone — the expected
            # winner. Matching the serial backend's work exactly here means a
            # typical round performs zero speculative evaluations.
            replies = dispatch([WorkUnit(index=0, start=0, attempts=(tuple(attempts[0]),))])
            first = replies[0].outcomes[0]
            if not (first.applied and first.distinguishes) and len(attempts) > 1:
                rest = attempts[1:]
                replies += dispatch(
                    [
                        WorkUnit(index=unit.index + 1, start=unit.start + 1, attempts=unit.attempts)
                        for unit in shard_attempts(
                            rest, self.cost_model.unit_count(len(rest), self.workers)
                        )
                    ]
                )
        else:
            replies = dispatch(
                shard_attempts(attempts, self.cost_model.unit_count(len(attempts), self.workers))
            )
        with tracer.span("backend.merge", backend=self.name):
            return [outcome for reply in replies for outcome in reply.outcomes]

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
        database through its snapshot reference — or through the fork seed.
        """
        with self._lock:
            if self._snapshot is not None and self._snapshot.database is database:
                self._snapshot = None
                self._install_bytes = None
            _clear_fork_seed(database)

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
            _clear_fork_seed()
