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
  planned;
* one candidate memo per pair: candidate generation is deterministic, so
  the list generated for a ``(QBO config, candidate count)`` serves every
  later create with that key, which runs no QBO and takes no lock (at most
  :data:`CANDIDATE_MEMO_LIMIT` keys per pair, counted in ``/metrics`` as
  ``candidate_memo_hits`` and ``candidate_memo_misses``). Like the prologue
  memo this is a cache effect of a warm pair, not a cold-session gain.

Concurrency model: each session has its own lock (a session's propose/submit
steps are serialized), and each shared pair has a compute lock serializing
rounds that touch the pair's shared caches. Rounds therefore execute one at
a time per pair, in process, while any number of sessions sit suspended
awaiting a user, which is where interactive sessions spend almost all of
their time. A pair is built outside the manager-wide lock, so a slow build
delays no other request, and a scale above :data:`MAX_PAIR_SCALE` is refused
before anything is built, on a create and on a resume alike.

Persistence has one rule: the store (an
:class:`~repro.service.store.InMemorySessionStore` unless one is given) holds
each session as of its last completed step, and only that step writes it. A
create, a round that is planned or that finishes the session, and an accepted
choice each write the session's checkpoint under its step lock. Passivation
(dropping least-recently-used live sessions when ``max_live_sessions`` is
exceeded) and :meth:`SessionManager.close` therefore drop live sessions
without writing. Any session the store holds — including after a process
kill, with an on-disk store — resumes on its next request by replaying its
checkpointed calls over the pair's shared caches. The store's own bounds
(``ttl_seconds``, ``max_sessions``) decide which sessions survive passivation.
A delete waits for a step in flight and is final.
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
from repro.service.store import InMemorySessionStore, SessionStore

__all__ = [
    "CANDIDATE_MEMO_LIMIT",
    "MAX_PAIR_SCALE",
    "SessionManager",
    "ManagedSession",
    "workload_session_inputs",
]

#: Candidate generation defaults for workload-backed service sessions; small
#: enough for interactive latency, rich enough to need several rounds.
_SERVICE_QBO = QBOConfig(threshold_variants=2, max_terms_per_conjunct=3, max_candidates=16)

#: Candidate lists one shared pair keeps, one per ``(QBO config,
#: candidate count)``; the oldest goes first.
CANDIDATE_MEMO_LIMIT = 8

#: Largest ``scale`` a workload pair is built at. A pair's background rows
#: grow linearly with the scale (Q2 at 1e6 asks for about 3.9e9 of them),
#: and 10 is the largest scale any sweep or CI step runs.
MAX_PAIR_SCALE = 10.0


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
    target: SPJQuery
    join_cache: JoinCache = field(default_factory=JoinCache)
    #: Serializes candidate generation and round searches over the pair's shared caches.
    compute_lock: threading.Lock = field(default_factory=threading.Lock)
    #: ``(qbo_config, candidate_count) -> candidates`` generated over this
    #: pair, at most :data:`CANDIDATE_MEMO_LIMIT`, oldest first.
    candidate_memo: dict[tuple, tuple[SPJQuery, ...]] = field(default_factory=dict)


@dataclass
class ManagedSession:
    """One live session plus its service bookkeeping."""

    session_id: str
    session: QFESession
    pair: _SharedPair
    workload: str
    scale: float
    last_used: float
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: Length of the session's log as of its stored checkpoint.
    stored_log_length: int = 0

    @property
    def database_ref(self) -> DatabaseRef:
        return DatabaseRef.workload(self.workload, self.scale)


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
        "candidate_memo_hits",
        "candidate_memo_misses",
    )
    _HELP = {
        "sessions_created": "Sessions created from scratch.",
        "sessions_resumed": "Sessions restored from a checkpoint.",
        "sessions_deleted": "Sessions deleted by request.",
        "sessions_passivated": "Live sessions dropped from memory (their checkpoints stay stored).",
        "rounds_served": "Feedback rounds proposed to users.",
        "choices_submitted": "User choices applied to pending rounds.",
        "checkpoints_written": "Session checkpoints written to the store, one per completed step.",
        "candidate_memo_hits": "Creates served a candidate list their pair already generated.",
        "candidate_memo_misses": "Creates that generated their candidate list (QBO ran).",
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
            "Wait to acquire a shared pair's compute lock (creates, rounds and choices).",
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
        max_live_sessions: int = 64,
        max_warm_pairs: int = 8,
        clock=time.time,
    ) -> None:
        if max_live_sessions < 1:
            raise ValueError("max_live_sessions must be at least 1")
        if max_warm_pairs < 1:
            raise ValueError("max_warm_pairs must be at least 1")
        self.store = store if store is not None else InMemorySessionStore()
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
        """The shared pair of ``(workload, scale)``, built on first use.

        Creates and resumes both come here, so a scale that is not finite,
        not positive or above :data:`MAX_PAIR_SCALE` is refused before
        anything is built. The build runs outside the manager lock, so a slow
        one delays no other request; of two racing builds the first insert wins.
        """
        scale = float(scale)
        if not 0 < scale <= MAX_PAIR_SCALE:  # NaN fails both comparisons
            raise ServiceError(
                f"scale must be a positive finite number no larger than "
                f"{MAX_PAIR_SCALE:g}, got {scale!r}"
            )
        key = ("workload", workload, scale)
        with self._lock:
            pair = self._pairs.get(key)
        if pair is not None:
            return pair
        from repro.workloads import workload as lookup_workload

        try:
            entry = lookup_workload(workload)
        except KeyError as exc:  # the message names the known workloads
            raise ServiceError(exc.args[0]) from None
        database, result = entry.build_pair(scale)
        with self._lock:
            pair = self._pairs.get(key)
            if pair is None:
                # Prune before inserting: the fresh pair has no session yet
                # and must not be eligible for its own eviction sweep.
                self._prune_pairs_locked()
                pair = _SharedPair(
                    key=key, database=database, result=result, target=entry.target_query
                )
                self._pairs[key] = pair
            return pair

    def _prune_pairs_locked(self) -> None:
        """Drop shared pairs no live session references.

        Each pair pins a full live database, and clients choose the
        ``(workload, scale)`` key — left unchecked, organic traffic over many
        scales would accumulate datasets forever. Unreferenced pairs stay
        warm up to ``max_warm_pairs`` (a later session or resume rebuilds
        them deterministically, so eviction costs time, never correctness).
        """
        referenced = {id(m.pair) for m in self._sessions.values()}
        unreferenced = [
            key for key, pair in self._pairs.items() if id(pair) not in referenced
        ]
        overflow = len(self._pairs) - self.max_warm_pairs
        for key in unreferenced[: max(overflow, 0)]:
            del self._pairs[key]

    # ----------------------------------------------------------------- create
    def create_session(
        self,
        *,
        workload: str | None = None,
        scale: float = 1.0,
        candidate_count: int | None = None,
        candidates: Sequence[SPJQuery] | None = None,
        config: QFEConfig | None = None,
        qbo_config: QBOConfig | None = None,
        session_id: str | None = None,
    ) -> ManagedSession:
        """Create (and register) a session over a workload's shared pair.

        Sessions of one ``(workload, scale)`` share the manager's per-pair
        base state. Unless supplied, candidates come from the pair's memo,
        generated on the first create of their ``(qbo_config,
        candidate_count)`` key (see :meth:`_pair_candidates`).
        """
        self._check_open()
        if workload is None:
            raise ServiceError("create_session needs a workload=")
        pair = self._pair_for_workload(workload, scale)
        if candidates is None:
            candidates = self._pair_candidates(pair, qbo_config or _SERVICE_QBO, candidate_count)
        session = QFESession(
            pair.database,
            pair.result,
            candidates=candidates,
            config=config,
            qbo_config=qbo_config,
            join_cache=pair.join_cache,
        )
        sid = session_id or f"s-{uuid.uuid4().hex[:12]}"
        managed = ManagedSession(
            session_id=sid,
            session=session,
            pair=pair,
            workload=workload,
            scale=float(scale),
            last_used=self._clock(),
        )
        # The step lock is held from registration until the first checkpoint
        # is stored: passivation must not drop a session the store lacks.
        with managed.lock:
            with self._lock:
                # A passivated session is not live, but its id is taken.
                if sid in self._sessions or sid in self.store:
                    raise ServiceError(f"session id {sid!r} already exists")
                self._sessions[sid] = managed
                self._passivate_overflow_locked(keep=sid)
            try:
                self._checkpoint(managed)
            except BaseException:
                # A create the store refused (an id it rejects, a failed
                # write) did not happen: no live session without a checkpoint.
                with self._lock:
                    self._sessions.pop(sid, None)
                raise
        self._metrics.bump("sessions_created")
        return managed

    def _pair_candidates(
        self, pair: _SharedPair, qbo_config: QBOConfig, candidate_count: int | None
    ) -> tuple[SPJQuery, ...]:
        """The pair's candidates for ``(qbo_config, candidate_count)``, generated once.

        Generation is deterministic, so every create with the same key gets
        the same list from the pair's memo, without taking a lock. A miss
        generates under the pair's compute lock (generation joins through,
        and writes term masks into, the shared cache that rounds read and
        patch) and looks again once the lock is held, so racing first
        creates generate once.
        """
        key = (qbo_config, candidate_count)
        memo = pair.candidate_memo
        candidates = memo.get(key)
        if candidates is None:
            with self._computing(pair):
                candidates = memo.get(key)
                if candidates is None:
                    from repro.experiments.runner import prepare_candidates

                    generated, _ = prepare_candidates(
                        pair.database,
                        pair.result,
                        pair.target,
                        qbo_config=qbo_config,
                        candidate_count=candidate_count,
                        join_cache=pair.join_cache,
                    )
                    candidates = memo[key] = tuple(generated)
                    while len(memo) > CANDIDATE_MEMO_LIMIT:
                        del memo[next(iter(memo))]
                    self._metrics.bump("candidate_memo_misses")
                    return candidates
        self._metrics.bump("candidate_memo_hits")
        return candidates

    # ----------------------------------------------------------------- lookup
    def _resolve(self, session_id: str) -> ManagedSession:
        """The live session for *session_id*, resuming from the store if needed.

        The restore itself — store read, possibly a full dataset rebuild
        from a workload reference, the replay — runs *outside* the manager-wide
        lock so one slow resume never blocks other sessions' requests or the
        health endpoints; only the registry insert is serialized (and a
        concurrent resume of the same id keeps the first winner). The insert
        happens only while the store still holds the checkpoint:
        :meth:`delete_session` removes it under the same lock, so a session
        deleted during its replay stays deleted. A closed manager resumes nothing.
        """
        self._check_open()
        with self._lock:
            managed = self._sessions.get(session_id)
        if managed is not None:
            return managed
        blob = self.store.get(session_id)  # raises SessionNotFound when absent
        managed = self._restore(session_id, blob)
        with self._lock:
            self._check_open()
            existing = self._sessions.get(session_id)
            if existing is not None:  # another thread resumed it first
                return existing
            if session_id not in self.store:
                raise SessionNotFound(f"unknown session {session_id!r}")
            self._sessions[session_id] = managed
            self._metrics.bump("sessions_resumed")
            self._passivate_overflow_locked(keep=session_id)
            return managed

    def _restore(self, session_id: str, blob: bytes) -> ManagedSession:
        from repro.service.checkpoint import read_checkpoint_header

        header = read_checkpoint_header(blob)
        ref = DatabaseRef.from_json(header.get("database_ref") or {})
        pair = self._pair_for_workload(ref.name, ref.scale)
        # The replay plans its rounds over the pair's shared caches.
        with self._computing(pair):
            session, _ = restore_checkpoint(
                blob, database=pair.database, result=pair.result, join_cache=pair.join_cache
            )
        return ManagedSession(
            session_id=session_id,
            session=session,
            pair=pair,
            workload=ref.name,
            scale=float(ref.scale),
            last_used=self._clock(),
            stored_log_length=len(session.log),
        )

    def _passivate_overflow_locked(self, *, keep: str) -> None:
        """Drop the coldest live sessions beyond ``max_live_sessions``.

        Nothing is written: each victim's last completed step already stored
        its checkpoint. A victim whose step lock another thread holds is
        mid-step, so it is skipped this time (the overflow clears on a later
        call). ``keep`` is the session the current request is about.
        """
        overflow = len(self._sessions) - self.max_live_sessions
        if overflow <= 0:
            return
        candidates = sorted(
            (sid for sid in self._sessions if sid != keep),
            key=lambda sid: self._sessions[sid].last_used,
        )
        for victim_id in candidates:
            if overflow <= 0:
                break
            victim = self._sessions[victim_id]
            if not victim.lock.acquire(blocking=False):
                continue
            del self._sessions[victim_id]
            victim.lock.release()
            overflow -= 1
            self._metrics.bump("sessions_passivated")
        self._prune_pairs_locked()

    # ------------------------------------------------------------------ steps
    def _checkpoint(self, managed: ManagedSession) -> None:
        """Store the session as of the step just completed (step lock held)."""
        self.store.put(
            managed.session_id,
            capture_checkpoint(
                managed.session,
                session_id=managed.session_id,
                database_ref=managed.database_ref,
            ),
        )
        managed.stored_log_length = len(managed.session.log)
        self._metrics.bump("checkpoints_written")

    @contextmanager
    def _computing(self, pair: _SharedPair) -> Iterator[None]:
        """Hold *pair*'s compute lock, recording how long acquiring it took."""
        started = time.perf_counter()
        with pair.compute_lock:
            self._metrics.observe_lock_wait(time.perf_counter() - started)
            yield

    @contextmanager
    def _locked(self, session_id: str) -> Iterator[ManagedSession]:
        """Resolve the session and hold its step lock, passivation-proof.

        Between :meth:`_resolve` handing out a live session and the caller
        acquiring its lock, a concurrent overflow passivation (or a delete)
        could have dropped it — stepping the orphaned instance while a
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
            started = time.perf_counter()
            with self._computing(managed.pair):
                pending = managed.session.propose()
            if pending is not None and not had_pending:
                self._metrics.bump("rounds_served")
                self._metrics.observe_round_latency(time.perf_counter() - started)
            if len(managed.session.log) > managed.stored_log_length:
                # A planned round, a propose that finished the session, or a
                # step whose write failed: the store must hold what was served.
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
        """Drop the session and its stored checkpoint; returns existence.

        A live session's step lock is taken first, then the manager lock (the
        order :meth:`_locked` uses), so a step in flight finishes — and writes
        its checkpoint — before the delete removes it. The checkpoint is
        removed under the manager lock, which stops a resume in flight from
        registering the session again (see :meth:`_resolve`).
        """
        while True:
            with self._lock:
                managed = self._sessions.get(session_id)
                if managed is None:
                    return self.store.delete(session_id)
            with managed.lock, self._lock:
                if self._sessions.get(session_id) is not managed:
                    continue  # passivated while the delete waited for its step
                del self._sessions[session_id]
                self._prune_pairs_locked()
                self.store.delete(session_id)
            self._metrics.bump("sessions_deleted")
            return True

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
                "stored_checkpoints": len(self.store),
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
        ).set(len(self.store))
        return render_prometheus(self._metrics.registry, live, REGISTRY)

    # ------------------------------------------------------------------- close
    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("the session manager is closed")

    def close(self) -> None:
        """Shut down: drop every live session without writing, close the store.

        Each session's last completed step already stored its checkpoint, so
        a manager opened later on the same store resumes them all.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._sessions.clear()
        self.store.close()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
