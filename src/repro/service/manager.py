"""Multiplex many live QFE sessions over shared base state.

One :class:`SessionManager` hosts the sessions of many concurrent users. The
economics follow the paper's user study: compute per round is small compared
to the human response time around it, so sessions over the same example
database share the base state that makes rounds cheap:

* one live :class:`~repro.relational.database.Database` instance per
  ``(workload, scale)`` pair (sessions never mutate the base);
* one :class:`~repro.relational.evaluator.JoinCache` per pair, so the
  foreign-key join and its columnar term masks are built once for *all*
  sessions, not once per session — and the round planner's prologue memo,
  held with that join, replays a round body another session already
  planned.

Concurrency model: each session has its own lock (a session's propose/submit
steps are serialized), and each shared pair has a compute lock serializing
rounds that touch the pair's shared caches. Rounds therefore execute one at
a time per pair, in process, while any number of sessions sit suspended
awaiting a user, which is where interactive sessions spend almost all of
their time.

Persistence: with a :class:`~repro.service.store.SessionStore` attached, the
manager checkpoints a session after every state change, evicts
least-recently-used live sessions to the store when ``max_live_sessions`` is
exceeded (passivation), and transparently resumes any checkpointed session —
including after a process kill — on its next request.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.config import QFEConfig
from repro.core.session import PendingRound, QFESession, StepResult
from repro.core.timing import Stopwatch
from repro.exceptions import ServiceError, SessionNotFound
from repro.obs.exposition import render_prometheus
from repro.obs.registry import REGISTRY, MetricsRegistry, RegistryStats
from repro.qbo.config import QBOConfig
from repro.relational.database import Database
from repro.relational.evaluator import JoinCache
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.service.checkpoint import (
    DatabaseRef,
    capture_checkpoint,
    restore_checkpoint,
    session_transcript,
)
from repro.service.store import SessionStore

__all__ = ["SessionManager", "ManagedSession", "workload_session_inputs"]

#: Candidate generation defaults for workload-backed service sessions; small
#: enough for interactive latency, rich enough to need several rounds.
_SERVICE_QBO = QBOConfig(threshold_variants=2, max_terms_per_conjunct=3, max_candidates=16)


def workload_session_inputs(
    workload: str,
    scale: float,
    *,
    candidate_count: int | None = None,
    qbo_config: QBOConfig | None = None,
) -> tuple[Database, Relation, SPJQuery, list[SPJQuery]]:
    """Build ``(D, R, target, candidates)`` for a workload-backed session.

    Deterministic end to end (seeded datasets, deterministic candidate
    generation), so a service session and an in-process reference run built
    from the same arguments — even in different processes — start from
    identical inputs. Shared by the manager, the differential tests and the
    CI smoke driver.
    """
    from repro.experiments.runner import prepare_candidates
    from repro.workloads import build_pair

    database, result, target = build_pair(workload, scale)
    candidates, _ = prepare_candidates(
        database,
        result,
        target,
        qbo_config=qbo_config or _SERVICE_QBO,
        candidate_count=candidate_count,
    )
    return database, result, target, candidates


@dataclass
class _SharedPair:
    """The per-(workload, scale) state every session of that pair shares."""

    key: tuple
    database: Database
    result: Relation
    target: SPJQuery | None
    join_cache: JoinCache = field(default_factory=JoinCache)
    #: Serializes round searches over the pair's shared caches.
    compute_lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class ManagedSession:
    """One live session plus its service bookkeeping."""

    session_id: str
    session: QFESession
    pair: _SharedPair
    workload: str | None
    scale: float
    created_at: float
    last_used: float
    lock: threading.RLock = field(default_factory=threading.RLock)
    rounds_served: int = 0
    choices_submitted: int = 0

    @property
    def database_ref(self) -> DatabaseRef:
        if self.workload is not None:
            return DatabaseRef.workload(self.workload, self.scale)
        return DatabaseRef.inline()


class _Metrics(RegistryStats):
    """Thread-safe service counters plus two bounded latency histograms.

    Registry-backed: counters, the round-latency Histogram and the
    compute-lock-wait Histogram (Prometheus buckets + a bounded reservoir for
    the exact p50/p95 of the JSON payload) live in a **private**
    :class:`MetricsRegistry` — each manager's metrics are its own, as the
    historical per-instance counters were — which the Prometheus endpoint
    renders alongside the process-wide registry.
    """

    _PREFIX = "qfe_service"
    _FIELDS = (
        "sessions_created",
        "sessions_resumed",
        "sessions_deleted",
        "sessions_passivated",
        "rounds_served",
        "choices_submitted",
        "checkpoints_written",
    )
    _HELP = {
        "sessions_created": "Sessions created from scratch.",
        "sessions_resumed": "Sessions restored from a checkpoint.",
        "sessions_deleted": "Sessions deleted by request.",
        "sessions_passivated": "Live sessions evicted to the store.",
        "rounds_served": "Feedback rounds proposed to users.",
        "choices_submitted": "User choices applied to pending rounds.",
        "checkpoints_written": "Session checkpoints written to the store.",
    }

    def __init__(self, window: int = 512) -> None:
        super().__init__(MetricsRegistry())
        self._latency = self.registry.histogram(
            "qfe_service_round_latency_seconds",
            "End-to-end round proposal latency.",
            reservoir=window,
        )
        self._lock_wait = self.registry.histogram(
            "qfe_service_compute_lock_wait_seconds",
            "Wait to acquire a shared pair's compute lock (rounds and choices).",
            reservoir=window,
        )

    def bump(self, counter: str, amount: int = 1) -> None:
        self._counters[counter].inc(amount)

    def observe_round_latency(self, seconds: float) -> None:
        self._latency.observe(seconds)

    def observe_lock_wait(self, seconds: float) -> None:
        self._lock_wait.observe(seconds)

    def reset(self) -> None:
        super().reset()
        self._latency.reset()
        self._lock_wait.reset()

    def snapshot(self) -> dict:
        payload: dict = {field: self._counters[field].value for field in self._FIELDS}
        for key, histogram in (
            ("round_latency_seconds", self._latency),
            ("compute_lock_wait_seconds", self._lock_wait),
        ):
            payload[key] = {
                "count": histogram.observation_count(),
                "p50": histogram.quantile(0.50),
                "p95": histogram.quantile(0.95),
            }
        return payload


class SessionManager:
    """Host many resumable QFE sessions over shared per-pair base state."""

    def __init__(
        self,
        *,
        store: SessionStore | None = None,
        checkpoint_each_step: bool = True,
        max_live_sessions: int = 64,
        max_warm_pairs: int = 8,
        clock=time.time,
    ) -> None:
        if max_live_sessions < 1:
            raise ValueError("max_live_sessions must be at least 1")
        if max_warm_pairs < 1:
            raise ValueError("max_warm_pairs must be at least 1")
        self.store = store
        self.checkpoint_each_step = checkpoint_each_step and store is not None
        self.max_live_sessions = max_live_sessions
        self.max_warm_pairs = max_warm_pairs
        self._clock = clock
        self._pairs: dict[tuple, _SharedPair] = {}
        self._sessions: dict[str, ManagedSession] = {}
        self._lock = threading.RLock()
        self._metrics = _Metrics()
        self._closed = False

    # ------------------------------------------------------------------ pairs
    def _pair_for_workload(self, workload: str, scale: float) -> _SharedPair:
        key = ("workload", workload, float(scale))
        with self._lock:
            pair = self._pairs.get(key)
            if pair is None:
                from repro.workloads import workload as lookup_workload

                try:
                    entry = lookup_workload(workload)
                except KeyError as exc:  # the message names the known workloads
                    raise ServiceError(exc.args[0]) from None
                # Prune before inserting: the fresh pair has no session yet
                # and must not be eligible for its own eviction sweep.
                self._prune_pairs_locked()
                database, result = entry.build_pair(scale)
                pair = _SharedPair(
                    key=key, database=database, result=result, target=entry.target_query
                )
                self._pairs[key] = pair
            return pair

    def _pair_for_inline(self, database: Database, result: Relation) -> _SharedPair:
        key = ("inline", id(database))
        with self._lock:
            pair = self._pairs.get(key)
            if pair is None or pair.database is not database:
                pair = _SharedPair(key=key, database=database, result=result, target=None)
                self._pairs[key] = pair
            return pair

    def _prune_pairs_locked(self) -> None:
        """Drop shared pairs no live session references.

        Each pair pins a full live database, and clients choose the
        ``(workload, scale)`` key — left unchecked, organic traffic over many
        scales would accumulate datasets forever. Inline pairs die as soon as
        their sessions are gone (a resumed inline session re-registers
        through its embedded pair); workload pairs stay warm up to
        ``max_warm_pairs`` (a later session or resume rebuilds them
        deterministically, so eviction costs time, never correctness).
        """
        referenced = {id(m.pair) for m in self._sessions.values()}
        unreferenced = [
            key for key, pair in self._pairs.items() if id(pair) not in referenced
        ]

        for key in unreferenced:
            if key[0] == "inline":
                del self._pairs[key]
        overflow = len(self._pairs) - self.max_warm_pairs
        if overflow > 0:
            for key in unreferenced:
                if overflow <= 0:
                    break
                if key in self._pairs:
                    del self._pairs[key]
                    overflow -= 1

    # ----------------------------------------------------------------- create
    def create_session(
        self,
        *,
        workload: str | None = None,
        scale: float = 1.0,
        candidate_count: int | None = None,
        candidates: Sequence[SPJQuery] | None = None,
        database: Database | None = None,
        result: Relation | None = None,
        config: QFEConfig | None = None,
        qbo_config: QBOConfig | None = None,
        session_id: str | None = None,
    ) -> ManagedSession:
        """Create (and register) a session from a workload name or an explicit pair.

        Workload sessions share the manager's per-pair base state; explicit
        ``database``/``result`` sessions get their own. Candidates are built
        deterministically from the pair unless supplied.
        """
        self._check_open()
        if workload is not None:
            pair = self._pair_for_workload(workload, scale)
            if candidates is None:
                from repro.experiments.runner import prepare_candidates

                candidates, _ = prepare_candidates(
                    pair.database,
                    pair.result,
                    pair.target,
                    qbo_config=qbo_config or _SERVICE_QBO,
                    candidate_count=candidate_count,
                )
        else:
            if database is None or result is None:
                raise ServiceError(
                    "create_session needs either workload= or database= and result="
                )
            pair = self._pair_for_inline(database, result)
        session = QFESession(
            pair.database,
            pair.result,
            candidates=candidates,
            config=config,
            qbo_config=qbo_config,
            join_cache=pair.join_cache,
        )
        sid = session_id or f"s-{uuid.uuid4().hex[:12]}"
        now = self._clock()
        managed = ManagedSession(
            session_id=sid,
            session=session,
            pair=pair,
            workload=workload,
            scale=float(scale),
            created_at=now,
            last_used=now,
        )
        with self._lock:
            if sid in self._sessions:
                raise ServiceError(f"session id {sid!r} already exists")
            self._sessions[sid] = managed
            try:
                self._passivate_overflow_locked(keep=sid)
            except ServiceError:
                # No store to passivate into: refuse the new session instead
                # of silently exceeding the live-session capacity.
                del self._sessions[sid]
                raise
            self._metrics.bump("sessions_created")
        self._checkpoint(managed)
        return managed

    # ----------------------------------------------------------------- lookup
    def _resolve(self, session_id: str) -> ManagedSession:
        """The live session for *session_id*, resuming from the store if needed.

        The restore itself — store read, unpickle, possibly a full dataset
        rebuild from a workload reference — runs *outside* the manager-wide
        lock so one slow resume never blocks other sessions' requests or the
        health endpoints; only the registry insert is serialized (and a
        concurrent resume of the same id keeps the first winner).
        """
        with self._lock:
            managed = self._sessions.get(session_id)
            if managed is not None:
                return managed
            if self.store is None:
                raise SessionNotFound(f"unknown session {session_id!r}")
        blob = self.store.get(session_id)  # raises SessionNotFound when absent
        managed = self._restore(session_id, blob)
        with self._lock:
            existing = self._sessions.get(session_id)
            if existing is not None:  # another thread resumed it first
                return existing
            self._sessions[session_id] = managed
            self._metrics.bump("sessions_resumed")
            self._passivate_overflow_locked(keep=session_id)
            return managed

    def _restore(self, session_id: str, blob: bytes) -> ManagedSession:
        from repro.service.checkpoint import read_checkpoint_header

        header = read_checkpoint_header(blob)
        ref = DatabaseRef.from_json(header.get("database_ref") or {})
        if ref.kind == "workload":
            pair = self._pair_for_workload(ref.name, ref.scale)
            session, _ = restore_checkpoint(
                blob,
                database=pair.database,
                result=pair.result,
                join_cache=pair.join_cache,
            )
            workload, scale = ref.name, ref.scale
        else:
            session, _ = restore_checkpoint(blob)
            pair = self._pair_for_inline(session.database, session.result)
            workload, scale = None, 1.0
        now = self._clock()
        managed = ManagedSession(
            session_id=session_id,
            session=session,
            pair=pair,
            workload=workload,
            scale=float(scale),
            created_at=now,
            last_used=now,
        )
        return managed

    def _passivate_overflow_locked(self, *, keep: str) -> None:
        overflow = len(self._sessions) - self.max_live_sessions
        if overflow <= 0:
            return
        if self.store is None:
            raise ServiceError(
                f"live session capacity ({self.max_live_sessions}) reached "
                "and no session store is attached for passivation"
            )
        # Coldest first; a victim whose lock another thread holds is mid-step
        # and must not be checkpointed under it — skip it this time (the
        # overflow clears on a later call). ``keep`` is the session the
        # current request is about.
        candidates = sorted(
            (sid for sid in self._sessions if sid != keep),
            key=lambda sid: self._sessions[sid].last_used,
        )
        for victim_id in candidates:
            if overflow <= 0:
                return
            victim = self._sessions[victim_id]
            if not victim.lock.acquire(blocking=False):
                continue
            try:
                self.store.put(
                    victim_id,
                    capture_checkpoint(
                        victim.session,
                        session_id=victim_id,
                        database_ref=victim.database_ref,
                    ),
                )
                del self._sessions[victim_id]
            finally:
                victim.lock.release()
            overflow -= 1
            self._metrics.bump("sessions_passivated")
            self._metrics.bump("checkpoints_written")
        self._prune_pairs_locked()

    # ------------------------------------------------------------------ steps
    def _checkpoint(self, managed: ManagedSession) -> None:
        if not self.checkpoint_each_step:
            return
        self.store.put(
            managed.session_id,
            capture_checkpoint(
                managed.session,
                session_id=managed.session_id,
                database_ref=managed.database_ref,
            ),
        )
        self._metrics.bump("checkpoints_written")

    @contextmanager
    def _computing(self, pair: _SharedPair) -> Iterator[None]:
        """Hold *pair*'s compute lock, recording how long acquiring it took."""
        watch = Stopwatch()
        with pair.compute_lock:
            self._metrics.observe_lock_wait(watch.elapsed())
            yield

    @contextmanager
    def _locked(self, session_id: str) -> Iterator[ManagedSession]:
        """Resolve the session and hold its step lock, passivation-proof.

        Between :meth:`_resolve` handing out a live session and the caller
        acquiring its lock, a concurrent overflow passivation could have
        checkpointed and evicted it — stepping the orphaned instance while a
        later request resumes a second one would fork the session's state.
        So after acquiring the lock, re-check the instance is still the
        registered one and re-resolve if not; once the lock is held *and*
        registration is confirmed, passivation's try-lock can no longer
        touch it.
        """
        while True:
            managed = self._resolve(session_id)
            managed.lock.acquire()
            with self._lock:
                current = self._sessions.get(session_id) is managed
            if not current:
                managed.lock.release()
                continue
            try:
                yield managed
            finally:
                managed.lock.release()
            return

    def get_round(self, session_id: str) -> tuple[ManagedSession, PendingRound | None]:
        """Propose (or replay) the session's current round.

        Idempotent while a round is pending. Returns ``(managed, None)`` when
        the session has finished. The round search runs under the pair's
        compute lock so concurrent sessions never race on shared caches.
        """
        with self._locked(session_id) as managed:
            managed.last_used = self._clock()
            had_pending = managed.session.pending_round is not None
            was_done = managed.session.done
            watch = Stopwatch()
            with self._computing(managed.pair):
                pending = managed.session.propose()
            if pending is not None and not had_pending:
                managed.rounds_served += 1
                self._metrics.bump("rounds_served")
                self._metrics.observe_round_latency(watch.elapsed())
                self._checkpoint(managed)
            elif pending is None and not was_done:
                # The propose itself finished the session (converged on a
                # single candidate, exhausted, or out of iterations).
                self._checkpoint(managed)
            return managed, pending

    def submit_choice(self, session_id: str, choice: int) -> tuple[ManagedSession, StepResult]:
        """Apply a user's choice to the session's pending round."""
        with self._locked(session_id) as managed:
            managed.last_used = self._clock()
            with self._computing(managed.pair):
                # Replenishment (NONE_OF_THE_ABOVE) evaluates candidates over
                # the shared caches, hence the compute lock.
                step = managed.session.submit(choice)
            managed.choices_submitted += 1
            self._metrics.bump("choices_submitted")
            self._checkpoint(managed)
            return managed, step

    def transcript(self, session_id: str, *, include_timings: bool = False) -> dict:
        """The session's transcript (canonical form unless timings are asked for)."""
        with self._locked(session_id) as managed:
            return session_transcript(
                managed.session,
                workload=managed.workload,
                include_timings=include_timings,
            )

    def delete_session(self, session_id: str) -> bool:
        """Drop the live session and its stored checkpoint; returns existence."""
        with self._lock:
            managed = self._sessions.pop(session_id, None)
            if managed is not None:
                self._prune_pairs_locked()
        stored = self.store.delete(session_id) if self.store is not None else False
        if managed is not None:
            managed.session.close()
            self._metrics.bump("sessions_deleted")
        return managed is not None or stored

    # ------------------------------------------------------------- observability
    def session_ids(self) -> list[str]:
        """Ids of all live sessions."""
        with self._lock:
            return sorted(self._sessions)

    def healthz(self) -> dict:
        """Liveness payload for the HTTP endpoint."""
        with self._lock:
            active = len(self._sessions)
        return {
            "status": "closed" if self._closed else "ok",
            "active_sessions": active,
        }

    def metrics(self) -> dict:
        """Service metrics: sessions, rounds served, p50/p95 round latency and lock wait."""
        with self._lock:
            active = len(self._sessions)
            shared_pairs = len(self._pairs)
        payload = self._metrics.snapshot()
        payload.update(
            {
                "active_sessions": active,
                "shared_pairs": shared_pairs,
                "stored_checkpoints": len(self.store) if self.store is not None else 0,
            }
        )
        return payload

    def prometheus_metrics(self) -> str:
        """The Prometheus text exposition for ``/metrics?format=prometheus``.

        Renders this manager's private registry (service counters + the
        round-latency histogram) first, then the process-wide registry (join
        maintenance, columnar storage, the prologue memo), plus a few gauges for
        the live-state fields the JSON payload reports.
        """
        with self._lock:
            active = len(self._sessions)
            shared_pairs = len(self._pairs)
        live = MetricsRegistry()
        live.gauge(
            "qfe_service_active_sessions", "Live (non-passivated) sessions."
        ).set(active)
        live.gauge("qfe_service_shared_pairs", "Shared generator/cache pairs.").set(
            shared_pairs
        )
        live.gauge(
            "qfe_service_stored_checkpoints", "Checkpoints held by the store."
        ).set(len(self.store) if self.store is not None else 0)
        return render_prometheus(self._metrics.registry, live, REGISTRY)

    # ------------------------------------------------------------------- close
    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("the session manager is closed")

    def close(self) -> None:
        """Checkpoint every live session (when a store is attached) and shut down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for managed in sessions:
            if self.store is not None:
                try:
                    self.store.put(
                        managed.session_id,
                        capture_checkpoint(
                            managed.session,
                            session_id=managed.session_id,
                            database_ref=managed.database_ref,
                        ),
                    )
                except Exception:  # pragma: no cover - best-effort persistence
                    pass
            managed.session.close()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
