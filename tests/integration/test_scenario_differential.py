"""Differential guards over *generated* scenarios.

The bit-identity contracts — a session repeated over a warm shared join
cache (its rounds replayed from the prologue memo) reproduces the cold
transcript exactly, checkpoint/resume from a workload reference reproduces
the uninterrupted transcript exactly, and neither depends on the
interpreter's hash seed — must hold for every scenario the engine can
fabricate, not just the six paper workloads. The fast guard here (one small
generated scenario, cold vs repeated) runs in tier-1 and in
``scripts/check.sh``; the catalog-wide sweeps carry the ``slow`` marker and
run in CI's differential step with ``-m ""``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import QFEConfig, QFESession
from repro.core.feedback import WorstCaseSelector
from repro.core.round_planner import PLAN_MEMO_STATS
from repro.relational.evaluator import JoinCache, evaluate
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


def _transcript(generated, result, candidates, *, join_cache=None) -> str:
    session = QFESession(
        generated.database,
        result,
        candidates=candidates,
        config=_CONFIG,
        join_cache=join_cache,
    )
    session.run(WorstCaseSelector())
    return transcript_json(session_transcript(session, workload=generated.spec.name))


def test_fast_guard_repeats_over_a_shared_join_cache_are_bit_identical():
    """The check.sh fast guard: mixed@0.05, a cold session, then two repeats
    over the same join cache that replay every round from the prologue memo —
    all three transcripts byte for byte equal."""
    generated, result, candidates = _setup("mixed", 0.05)
    join_cache = JoinCache()
    cold = _transcript(generated, result, candidates, join_cache=join_cache)
    rounds = PLAN_MEMO_STATS.memo_misses
    assert rounds > 0 and PLAN_MEMO_STATS.memo_hits == 0
    for repeat in (1, 2):
        assert _transcript(generated, result, candidates, join_cache=join_cache) == cold
        assert PLAN_MEMO_STATS.memo_hits == repeat * rounds
    # A private cache replans from scratch and still agrees.
    assert _transcript(generated, result, candidates) == cold


def test_sweep_point_records_cold_and_steady_legs():
    payload = run_sweep(["chain"], [0.05], seed=_SEED, out_path=None)
    assert "workers" not in payload
    (point,) = payload["scenarios"]["chain"]["trajectory"]
    assert point["transcripts_identical"] is True
    assert point["serial_seconds"] > 0
    assert point["steady_seconds"] > 0
    # The two repeat sessions replay every round from the prologue memo.
    assert point["memo_hits"] == 2 * point["iterations"]
    assert set(point["phase_seconds"]) == {"cold", "steady"}
    assert not [
        key for key in point
        if key.startswith(("sql", "pooled")) or "backend" in key
    ]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_catalog_sweep_pins_cold_vs_steady_identity(name):
    # run_sweep itself raises ScenarioDivergenceError on any transcript
    # mismatch; a surviving payload is the proof.
    payload = run_sweep([name], [0.05, 0.15], seed=_SEED, out_path=None)
    for point in payload["scenarios"][name]["trajectory"]:
        assert point["transcripts_identical"] is True


_HASH_SEED_SCRIPT = """
import sys

from repro.core import QFEConfig, QFESession
from repro.core.feedback import WorstCaseSelector
from repro.service.checkpoint import session_transcript, transcript_json
from repro.service.manager import workload_session_inputs

workload, scale = sys.argv[1], float(sys.argv[2])
database, result, _, candidates = workload_session_inputs(workload, scale)
session = QFESession(
    database, result, candidates=candidates, config=QFEConfig(delta_seconds=1e6)
)
session.run(WorstCaseSelector())
print(transcript_json(session_transcript(session, workload=workload)))
"""


@pytest.mark.parametrize(
    "workload, scale",
    [
        pytest.param("scenario:mixed@2", 1.0, id="mixed@2"),
        pytest.param("scenario:star@7", 1.0, id="star@7"),
    ],
)
def test_transcripts_do_not_depend_on_the_hash_seed(workload, scale):
    """Set and dict layouts change with ``PYTHONHASHSEED``; transcripts must not."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    transcripts = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, workload, str(scale)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        transcripts.append(completed.stdout)
    assert '"rounds"' in transcripts[0]
    assert transcripts[0] == transcripts[1]


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
