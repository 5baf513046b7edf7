"""Differential guards over *generated* scenarios.

The bit-identity contracts — warm-pool sessions reproduce the serial
transcript exactly, and checkpoint/resume from a workload reference
reproduces the uninterrupted transcript exactly — must hold for every
scenario the engine can fabricate, not just the six paper workloads. The
fast guard here (one small generated scenario, serial vs a 2-worker pool)
runs in tier-1 and in ``scripts/check.sh``; the catalog-wide sweeps carry
the ``slow`` marker and run in CI's differential step with ``-m ""``.
"""

from __future__ import annotations

import pytest

from repro.core import QFEConfig, QFESession
from repro.core.feedback import WorstCaseSelector
from repro.core.worker_runtime import WarmProcessPoolBackend
from repro.relational.evaluator import evaluate
from repro.scenarios import SCENARIOS, generate_scenario, run_sweep
from repro.service.checkpoint import (
    DatabaseRef,
    capture_checkpoint,
    restore_checkpoint,
    session_transcript,
    transcript_json,
)

_SEED = 77
_CONFIG = QFEConfig(delta_seconds=30.0)

_SETUP_CACHE: dict[tuple, tuple] = {}


def _setup(name: str, scale: float):
    key = (name, scale)
    cached = _SETUP_CACHE.get(key)
    if cached is None:
        from repro.scenarios.sweep import _candidates_for

        generated = generate_scenario(SCENARIOS[name], scale, _SEED)
        result, candidates = _candidates_for(generated, 8)
        cached = (generated, result, candidates)
        _SETUP_CACHE[key] = cached
    return cached


def _transcript(generated, result, candidates, *, workers=0, backend=None) -> str:
    session = QFESession(
        generated.database,
        result,
        candidates=candidates,
        config=_CONFIG,
        workers=workers,
        backend=backend,
    )
    session.run(WorstCaseSelector())
    return transcript_json(session_transcript(session, workload=generated.spec.name))


def test_fast_guard_serial_vs_two_worker_pool_bit_identity():
    """The check.sh fast guard: one small scenario, serial vs ``workers=2``
    (which ``auto`` maps to a 2-worker warm pool)."""
    generated, result, candidates = _setup("mixed", 0.05)
    serial = _transcript(generated, result, candidates, workers=0)
    pooled = _transcript(generated, result, candidates, workers=2)
    assert pooled == serial


def test_fast_guard_serial_vs_warm_pool_bit_identity():
    """The warm-pool fast guard: mixed@0.05, serial vs a 2-worker warm pool.

    Two back-to-back sessions on one persistent pool: the first installs the
    base, the second reuses the resident workers — both must reproduce the
    serial transcript byte for byte.
    """
    generated, result, candidates = _setup("mixed", 0.05)
    serial = _transcript(generated, result, candidates, workers=0)
    backend = WarmProcessPoolBackend(2)
    try:
        assert _transcript(generated, result, candidates, backend=backend) == serial
        assert _transcript(generated, result, candidates, backend=backend) == serial
    finally:
        backend.close()


def test_pooled_sweep_point_has_only_serial_and_warm_legs():
    payload = run_sweep(["chain"], [0.05], seed=_SEED, workers=2, out_path=None)
    (point,) = payload["scenarios"]["chain"]["trajectory"]
    assert point["transcripts_identical"] is True
    assert set(point["backend_seconds"]) == {"serial", "warm"}
    assert point["backend_seconds"]["warm"] == point["pooled_seconds"] > 0
    assert point["pooled_cold_seconds"] > 0
    assert point["pooled_workers"] == 2
    # The two repeat sessions replay every round from the prologue memo.
    assert point["memo_hits"] == 2 * point["iterations"]
    assert point["fastest_backend"] in {"serial", "warm"}
    assert set(point["phase_seconds"]) <= {"serial", "warm"}
    assert not [key for key in point if key.startswith("sql")]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_catalog_sweep_pins_serial_vs_pooled_identity(name):
    # run_sweep itself raises ScenarioDivergenceError on any transcript
    # mismatch; a surviving payload is the proof.
    payload = run_sweep([name], [0.05, 0.15], seed=_SEED, workers=2, out_path=None)
    for point in payload["scenarios"][name]["trajectory"]:
        assert point["transcripts_identical"] is True


@pytest.mark.slow
def test_worker_count_does_not_change_a_scenario_transcript():
    generated, result, candidates = _setup("chain", 0.1)
    reference = _transcript(generated, result, candidates, workers=0)
    for workers in (2, 3):
        backend = WarmProcessPoolBackend(workers)
        try:
            assert (
                _transcript(generated, result, candidates, backend=backend) == reference
            ), f"diverged at {workers} workers"
        finally:
            backend.close()


def test_scenario_checkpoint_resumes_from_workload_reference():
    """A scenario session checkpointed by reference survives a full rebuild.

    The checkpoint stores only ``scenario:chain@77`` + the scale; every
    resume rebuilds the base database from the seeded generator — the
    property that makes scenario sessions serveable and crash-safe exactly
    like paper-workload sessions.
    """
    scale = 0.1
    generated, result, candidates = _setup("chain", scale)
    reference = _transcript(generated, result, candidates)

    ref = DatabaseRef.workload(f"scenario:chain@{_SEED}", scale)
    selector = WorstCaseSelector()
    session = QFESession(
        generated.database, result, candidates=candidates, config=_CONFIG
    )
    while True:
        blob = capture_checkpoint(session, session_id="scen", database_ref=ref)
        session, header = restore_checkpoint(blob)
        assert header["database_ref"]["name"] == f"scenario:chain@{_SEED}"
        pending = session.propose()
        if pending is None:
            break
        session.submit(selector.select(pending.round, pending.partition))
    resumed = transcript_json(session_transcript(session, workload=generated.spec.name))
    assert resumed == reference
    # the rebuilt base is value-identical to the original generation
    rebuilt = session.database
    for name in generated.database.table_names:
        assert rebuilt.relation(name).rows() == generated.database.relation(name).rows()


def test_scenario_results_survive_the_oracle_at_two_scales():
    # Cheap end-to-end sanity riding the same cached setup: the target's
    # result is non-empty and SQLite-consistent at both guard scales.
    from repro.sql.sqlite_backend import cross_check

    for scale in (0.05, 0.1):
        generated = generate_scenario(SCENARIOS["mixed"], scale, _SEED)
        assert len(evaluate(generated.target, generated.database)) > 0
        assert cross_check(generated.target, generated.database)
