"""Scenario-engine scale-sweep benchmarks.

One benchmark per catalog scenario runs the full sweep — generation, SQLite
oracle verification, a cold session and two steady repeats per scale (with
transcript bit-identity enforced inside :func:`~repro.scenarios.sweep.\
run_sweep`), and the cold-vs-delta evaluation comparison — across the scales
in ``QFE_SCENARIO_SCALES`` (comma-separated, default ``0.1,0.25``; CI sweeps
``0.1,0.5,1.0``). The per-scale trajectories of every scenario are merged
and written to ``benchmarks/BENCH_scenarios.json``, which CI uploads as an
artifact so the scaling trajectory is tracked across PRs.

Two slow-marked scale-10 checks ride in the same file (CI runs them as a
separate ``-m slow`` step): a ``mixed@10`` sweep smoke whose
storage/memory figures are merged into the
``BENCH_scenarios.json`` artifact, and the bench guard pinning that a
selective ``term_mask`` on the typed layout (warm sorted-index path) beats
the object-column full scan at scale 10.

(The tier-1 fast guard for the engine's invariants — cold vs steady
transcript bit-identity and oracle agreement — lives in
``tests/integration/test_scenario_differential.py``, not here.)
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import measure_peak, run_once
from repro.obs.machine import machine_stamp
from repro.relational.columnar import ColumnarView, ColumnarViewReference
from repro.relational.join import foreign_key_join
from repro.relational.predicates import ComparisonOp, Term
from repro.scenarios import SCENARIOS, generate_scenario, get_scenario, run_sweep

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


# ----------------------------------------------------------- scale-10 checks
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
def test_bench_mixed_scale10_smoke(benchmark, record_group_memory):
    """Full mixed@10 sweep point (cold session plus two steady repeats).

    The point's storage measurements — bytes per joined row typed vs object,
    tracemalloc peak, selective term-mask timings — land in the uploaded
    artifacts.
    """
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
    # The footprint acceptance line: typed storage ≥ 4× leaner per joined row.
    assert point["bytes_per_joined_row_typed"] * 4 <= point["bytes_per_joined_row_object"]
    record_group_memory(
        "scenario-sweep-smoke",
        scale=_SMOKE_SCALE,
        join_rows=point.get("join_rows"),
        bytes_per_joined_row_typed=point.get("bytes_per_joined_row_typed"),
        bytes_per_joined_row_object=point.get("bytes_per_joined_row_object"),
        storage_reduction=point.get("storage_reduction"),
        typed_peak_tracemalloc_bytes=point.get("typed_peak_tracemalloc_bytes"),
    )
    _merge_into_trajectory_file(f"mixed@{_SMOKE_SCALE:g}x", entry)
    benchmark.extra_info["trajectory"] = entry["trajectory"]


@pytest.mark.slow
def test_selective_term_mask_beats_full_scan_at_scale10(record_group_memory):
    """Bench guard: the warm sorted-index path must beat the object full scan.

    Measures the steady-state cost of *building* a selective equality mask
    (distinct constants each round, mask cache cleared, so the term-mask
    cache never short-circuits the comparison) on the typed layout versus
    the boxed object-tuple reference, best-of-5, at scenario scale 10.
    """
    generated = generate_scenario(get_scenario("mixed"), _SMOKE_SCALE, SCENARIO_SEED)
    joined = foreign_key_join(generated.database, tuple(generated.target.tables))
    relation = joined.relation
    id_column = next(
        name for name in relation.schema.attribute_names if name.endswith(".id")
    )
    constants = sorted(set(relation.column(id_column)))[: 40]
    assert len(constants) >= 10

    typed_view, typed_peak = measure_peak(ColumnarView, relation)
    reference_view = ColumnarViewReference(relation)
    terms = [Term(id_column, ComparisonOp.EQ, constant) for constant in constants]
    typed_view.term_mask(terms[0])  # pay the lazy sorted-index build once

    def best_of(view, rounds=5):
        best = float("inf")
        masks = None
        for _ in range(rounds):
            view.clear_term_masks()
            started = time.perf_counter()
            masks = [view.term_mask(term) for term in terms]
            best = min(best, time.perf_counter() - started)
        return best / len(terms), masks

    typed_seconds, typed_masks = best_of(typed_view)
    object_seconds, object_masks = best_of(reference_view)
    assert typed_masks == object_masks  # differential first, stopwatch second
    assert typed_seconds < object_seconds, (
        f"typed selective term_mask ({typed_seconds * 1e6:.1f}us/term) no faster "
        f"than the object full scan ({object_seconds * 1e6:.1f}us/term) "
        f"over {len(relation.tuples)} joined rows"
    )
    record_group_memory(
        "scenario-sweep-smoke",
        term_mask_selective_warm_seconds_typed=typed_seconds,
        term_mask_selective_warm_seconds_object=object_seconds,
        term_mask_selective_warm_speedup=object_seconds / typed_seconds,
        typed_view_peak_tracemalloc_bytes=typed_peak,
    )
