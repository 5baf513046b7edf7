"""Serial-vs-warm-pool differential suite over the paper workloads.

The warm persistent worker runtime must reproduce the serial round planner's
entire session transcript **bit-identically** at any worker count — while
never re-shipping an installed base and never performing a full join
worker-side. The serial backend is the oracle; any divergence here means the
warm protocol (versioned installs, driver-planned attempts, deterministic
merge) broke.

Also here: the driver-side prologue memo on both backends (a repeated
session replays every round's plan), the fault-tolerance guard (SIGKILL one
worker mid-session → the pool rebuilds transparently and the transcript
stays bit-identical), and the warm-aware ``reset_all_stats`` regression.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core import OracleSelector, QFEConfig, QFESession
from repro.core import round_planner
from repro.core.execution_backend import BACKEND_STATS
from repro.core.feedback import WorstCaseSelector
from repro.core.round_planner import PLAN_MEMO_STATS
from repro.core.worker_runtime import WarmProcessPoolBackend
from repro.experiments.runner import prepare_candidates
from repro.obs.registry import reset_all_stats
from repro.qbo.config import QBOConfig
from repro.relational.evaluator import JoinCache, SharedSnapshotCache
from repro.relational.join import JOIN_STATS
from repro.service.checkpoint import session_transcript, transcript_json
from repro.workloads import build_pair

_SCALE = 0.03
_FAST_QBO = QBOConfig(threshold_variants=2, max_terms_per_conjunct=3, max_candidates=16)
# A generous Algorithm 3 budget so skyline enumeration never truncates on
# wall-clock time — time truncation is the one legitimately nondeterministic
# input, and it is orthogonal to what this suite verifies.
_CONFIG = QFEConfig(delta_seconds=30.0)

# Tier-1 runs the warm differential on Q2/Q4/Q6; the remaining workloads and
# the worker-count sweep carry the ``slow`` marker for CI's differential
# step.
_WORKLOADS = [
    pytest.param("Q1", marks=pytest.mark.slow),
    "Q2",
    pytest.param("Q3", marks=pytest.mark.slow),
    "Q4",
    pytest.param("Q5", marks=pytest.mark.slow),
    "Q6",
]

_SETUP_CACHE: dict[str, tuple] = {}


@pytest.fixture()
def workload_setup_for():
    """Build (and cache per process) the ``(D, R, target, candidates)`` of a workload."""

    def build(name: str):
        setup = _SETUP_CACHE.get(name)
        if setup is None:
            database, result, target = build_pair(name, _SCALE)
            candidates, _ = prepare_candidates(
                database, result, target, qbo_config=_FAST_QBO, candidate_count=12
            )
            setup = (database, result, target, candidates)
            _SETUP_CACHE[name] = setup
        return setup

    return build


def _run(setup, *, workers=0, backend=None, join_cache=None, snapshot_cache=None):
    database, result, target, candidates = setup
    session = QFESession(
        database,
        result,
        candidates=candidates,
        config=_CONFIG,
        workers=workers,
        backend=backend,
        join_cache=join_cache,
        snapshot_cache=snapshot_cache,
    )
    session.run(OracleSelector(target))
    return transcript_json(session_transcript(session))


@pytest.mark.parametrize("workload_name", _WORKLOADS)
def test_warm_session_is_bit_identical_to_serial(workload_setup_for, workload_name):
    setup = workload_setup_for(workload_name)
    serial = _run(setup, workers=0)
    backend = WarmProcessPoolBackend(2)
    try:
        assert _run(setup, backend=backend) == serial
    finally:
        backend.close()


@pytest.mark.slow
def test_worker_count_does_not_change_the_transcript(workload_setup_for):
    # Cost-model sharding must not leak into results: 2, 3 and 4 warm
    # workers all reproduce the serial transcript on the same workload.
    setup = workload_setup_for("Q2")
    reference = _run(setup, workers=0)
    for workers in (2, 3, 4):
        backend = WarmProcessPoolBackend(workers)
        try:
            assert _run(setup, backend=backend) == reference, (
                f"diverged at {workers} workers"
            )
        finally:
            backend.close()


@pytest.mark.parametrize("backend_name", ["serial", "warm"])
def test_repeated_sessions_replay_plans_from_the_driver_memo(
    workload_setup_for, monkeypatch, backend_name
):
    """The steady-state contract: a repeat session replays every plan.

    The second identical session over one shared join cache must (a) stay
    bit-identical, (b) hit the prologue memo once per round, (c) never run
    Algorithm 3, and (d) perform **zero** full joins anywhere — driver or
    worker — since every join is already resident.
    """
    setup = workload_setup_for("Q2")
    database, result, _target, candidates = setup
    backend = WarmProcessPoolBackend(2) if backend_name == "warm" else None
    join_cache = JoinCache()
    snapshots = SharedSnapshotCache()

    def run():
        session = QFESession(
            database,
            result,
            candidates=candidates,
            config=_CONFIG,
            workers=0,
            backend=backend,
            join_cache=join_cache,
            snapshot_cache=snapshots,
        )
        # The worst-case selector never evaluates the target query against
        # each round's modified database (the oracle selector does, paying
        # one *selector-side* full join per round), so full-join counts here
        # isolate the engine's own behaviour.
        outcome = session.run(WorstCaseSelector())
        return transcript_json(session_transcript(session)), outcome.iteration_count

    try:
        first, rounds = run()
        assert rounds > 0
        assert PLAN_MEMO_STATS.memo_misses == rounds
        assert PLAN_MEMO_STATS.memo_hits == 0

        def no_skyline(*args, **kwargs):
            raise AssertionError("a memoized round ran Algorithm 3")

        monkeypatch.setattr(round_planner, "skyline_stc_dtc_pairs", no_skyline)
        joins_before = JOIN_STATS.full_joins
        second, _ = run()
        assert second == first
        assert PLAN_MEMO_STATS.memo_hits == rounds
        assert PLAN_MEMO_STATS.memo_misses == rounds
        assert JOIN_STATS.full_joins == joins_before
    finally:
        if backend is not None:
            backend.close()


def test_pool_rebuild_after_worker_sigkill_is_bit_identical(workload_setup_for):
    """Kill one resident worker mid-session: the pool transparently rebuilds
    (``pool_rebuilds`` counts it) and the transcript stays bit-identical."""
    setup = workload_setup_for("Q2")
    serial = _run(setup, workers=0)
    database, result, target, candidates = setup
    backend = WarmProcessPoolBackend(2)
    try:
        session = QFESession(
            database, result, candidates=candidates, config=_CONFIG, backend=backend
        )
        selector = OracleSelector(target)
        rebuilds_before = BACKEND_STATS.pool_rebuilds
        killed = False
        pending = session.propose()
        while pending is not None:
            if not killed:
                pids = backend.worker_pids()
                assert pids, "warm pool has no live workers after a round"
                os.kill(pids[0], signal.SIGKILL)
                time.sleep(0.05)  # let the executor notice the death
                killed = True
            session.submit(selector.select(pending.round, pending.partition))
            pending = session.propose()
        assert killed
        assert BACKEND_STATS.pool_rebuilds > rebuilds_before
        assert transcript_json(session_transcript(session)) == serial
    finally:
        backend.close()


def test_reset_all_stats_reaches_warm_workers(workload_setup_for, monkeypatch):
    """Satellite: the global reset zeroes worker-resident counter state too.

    Without the warm-aware reset, workers would keep cumulative registry
    values across ``reset_all_stats`` and the next merged delta would
    re-import pre-reset amounts; the post-reset session must account for
    exactly its own units and attempts.
    """
    setup = workload_setup_for("Q2")
    backend = WarmProcessPoolBackend(2)
    join_cache = JoinCache()
    snapshots = SharedSnapshotCache()
    try:
        _run(setup, backend=backend, join_cache=join_cache, snapshot_cache=snapshots)
        assert BACKEND_STATS.units_dispatched > 0
        assert BACKEND_STATS.attempts_evaluated > 0
        reset_all_stats()
        assert BACKEND_STATS.units_dispatched == 0
        assert BACKEND_STATS.attempts_evaluated == 0
        assert BACKEND_STATS.bytes_shipped == 0
        # Count, driver-side, every unit dispatched and every outcome the
        # workers send back after the reset.
        replied = {"units": 0, "attempts": 0}
        resolve = backend._resolve

        def counting_resolve(executor, tasks):
            replies = resolve(executor, tasks)
            replied["units"] += len(tasks)
            replied["attempts"] += sum(len(reply.outcomes) for reply in replies)
            return replies

        monkeypatch.setattr(backend, "_resolve", counting_resolve)
        database, result, target, candidates = setup
        session = QFESession(
            database,
            result,
            candidates=candidates,
            config=_CONFIG,
            backend=backend,
            join_cache=join_cache,
            snapshot_cache=snapshots,
        )
        outcome = session.run(OracleSelector(target))
        assert outcome.iteration_count > 0
        # Exactly this session's work — no stale worker deltas re-merged.
        assert BACKEND_STATS.units_dispatched == replied["units"] > 0
        assert BACKEND_STATS.attempts_evaluated == replied["attempts"] > 0
    finally:
        backend.close()
