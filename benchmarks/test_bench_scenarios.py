"""Scenario-engine scale-sweep benchmarks.

One benchmark per catalog scenario runs the full sweep — generation, SQLite
oracle verification, a cold session and two steady repeats per scale (with
transcript bit-identity enforced inside :func:`~repro.scenarios.sweep.\
run_sweep`), and the cold-vs-delta evaluation comparison — across the scales
in ``QFE_SCENARIO_SCALES`` (comma-separated, default ``0.1,0.25``; CI sweeps
``0.1,0.5,1.0``). The per-scale trajectories of every scenario are merged
and written to ``benchmarks/BENCH_scenarios.json``, which CI uploads as an
artifact so the scaling trajectory is tracked across PRs.

A slow-marked scale-10 check rides in the same file (CI runs it as a
separate ``-m slow`` step): a ``mixed@10`` sweep smoke whose trajectory
entry is merged into the ``BENCH_scenarios.json`` artifact.

(The tier-1 fast guard for the engine's invariants — cold vs steady
transcript bit-identity and oracle agreement — lives in
``tests/integration/test_scenario_differential.py``, not here.)
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from benchmarks.conftest import run_once
from repro.obs.machine import machine_stamp
from repro.scenarios import SCENARIOS, run_sweep

SCENARIO_SCALES = [
    float(part)
    for part in os.environ.get("QFE_SCENARIO_SCALES", "0.1,0.25").split(",")
    if part.strip()
]
SCENARIO_SEED = int(os.environ.get("QFE_SCENARIO_SEED", "7"))

#: Where the merged per-scale trajectory is written.
BENCH_SCENARIOS_PATH = Path(__file__).resolve().parent / "BENCH_scenarios.json"

#: Per-scenario sweep payload entries, merged by the writer test below.
_MERGED: dict[str, dict] = {}


@pytest.mark.benchmark(group="scenario-sweep")
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bench_scenario_sweep(benchmark, name):
    payload = run_once(
        benchmark,
        run_sweep,
        [name],
        SCENARIO_SCALES,
        seed=SCENARIO_SEED,
        out_path=None,
    )
    entry = payload["scenarios"][name]
    assert len(entry["trajectory"]) == len(SCENARIO_SCALES)
    for point in entry["trajectory"]:
        # run_sweep raises on transcript divergence; these pin the record.
        assert point["transcripts_identical"] is True
        assert point["oracle_checked_queries"] == entry["spec"]["query_count"]
    _MERGED[name] = entry
    benchmark.extra_info["trajectory"] = entry["trajectory"]


def test_write_scenarios_trajectory_file():
    """Merge every swept scenario into ``BENCH_scenarios.json`` (runs last)."""
    if not _MERGED:  # collection was filtered down to this test alone
        pytest.skip("no scenario sweeps ran in this session")
    payload = {
        "machine": machine_stamp(),
        "seed": SCENARIO_SEED,
        "scales": SCENARIO_SCALES,
        "scenarios": _MERGED,
    }
    BENCH_SCENARIOS_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    on_disk = json.loads(BENCH_SCENARIOS_PATH.read_text())
    assert set(on_disk["scenarios"]) == set(_MERGED)


# ------------------------------------------------------------ scale-10 smoke
_SMOKE_SCALE = 10.0


def _merge_into_trajectory_file(key: str, entry: dict) -> None:
    """Add one scenario entry to ``BENCH_scenarios.json`` without clobbering.

    The smoke runs in its own ``-m slow`` pytest session after the main
    sweep, so it must compose with — not overwrite — the trajectory file the
    sweep session wrote.
    """
    payload: dict = {"scales": [], "scenarios": {}}
    if BENCH_SCENARIOS_PATH.exists():
        try:
            payload = json.loads(BENCH_SCENARIOS_PATH.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            pass
    payload.setdefault("scenarios", {})[key] = entry
    payload["machine"] = machine_stamp()
    BENCH_SCENARIOS_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@pytest.mark.slow
@pytest.mark.benchmark(group="scenario-sweep-smoke")
def test_bench_mixed_scale10_smoke(benchmark):
    """Full mixed@10 sweep point (cold session plus two steady repeats)."""
    payload = run_once(
        benchmark,
        run_sweep,
        ["mixed"],
        [_SMOKE_SCALE],
        seed=SCENARIO_SEED,
        out_path=None,
    )
    entry = payload["scenarios"]["mixed"]
    (point,) = entry["trajectory"]
    assert point["transcripts_identical"] is True
    _merge_into_trajectory_file(f"mixed@{_SMOKE_SCALE:g}x", entry)
    benchmark.extra_info["trajectory"] = entry["trajectory"]
