"""Shared configuration for the benchmark suite.

Every experiment benchmark regenerates one of the paper's tables/studies at a
dataset scale controlled by the ``QFE_BENCH_SCALE`` environment variable
(default 0.06 — minutes, not hours, on a laptop; set it to 1.0 to run at the
paper's full row counts). Heavy benchmarks run a single round via
``benchmark.pedantic`` — the interesting output is the regenerated table
itself, which is attached to the benchmark's ``extra_info`` and printed.

After any run that actually collected benchmark statistics, a
machine-readable summary is written to ``benchmarks/BENCH_components.json``:
per benchmark group, the median seconds of every test plus its speedup
against the group's designated reference implementation (row-at-a-time for
``candidate-batch``, cold rebuild for ``delta-derive``, the serial backend
for ``round-planner``, the single-user run for ``service-round``). CI
uploads the file as an artifact so the perf trajectory is tracked across
PRs.

The file carries a ``machine`` block (CPU count, Python version, platform,
git commit or source hash — :func:`repro.obs.machine.machine_stamp`).
Memory figures ride along in a ``memory`` section: benchmarks record
``tracemalloc`` peaks and bytes-per-joined-row per bench group through the
``record_group_memory`` fixture (with :func:`measure_peak` for the tracing
itself, kept *outside* the timed region so instrumentation never skews the
timings). The writer merges with an existing ``BENCH_components.json`` so a
follow-up session (e.g. the slow-marked scale-10 smoke) adds its groups and
memory figures instead of clobbering the component results.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from pathlib import Path

import pytest

from repro.obs.machine import machine_stamp

BENCH_SCALE = float(os.environ.get("QFE_BENCH_SCALE", "0.06"))

#: Where the machine-readable benchmark summary is written.
BENCH_RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_components.json"

#: Per group, the benchmark every other member's speedup is measured against.
_GROUP_REFERENCES = {
    "candidate-batch": "test_bench_all_candidates_rowwise_reference",
    "delta-derive": "test_bench_candidate_evaluation_rebuild",
    "round-planner": "test_bench_round_planner_serial",
    "service-round": "test_bench_service_round_1_user",
}


def _collect_benchmark_stats(session) -> list[tuple[str, str, float]]:
    """``(group, name, median seconds)`` for every benchmark that ran."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return []
    collected: list[tuple[str, str, float]] = []
    for bench in getattr(bench_session, "benchmarks", []):
        stats = getattr(bench, "stats", None)
        median = getattr(stats, "median", None)
        if median is None:  # nested Stats container on some versions
            median = getattr(getattr(stats, "stats", None), "median", None)
        if median is None:
            continue
        group = getattr(bench, "group", None) or "ungrouped"
        name = getattr(bench, "name", None) or getattr(bench, "fullname", "unknown")
        collected.append((group, str(name), float(median)))
    return collected


#: Per bench group, memory figures recorded via ``record_group_memory``.
_GROUP_MEMORY: dict[str, dict] = {}


def measure_peak(function, *args, **kwargs):
    """Run *function* under ``tracemalloc`` and return ``(result, peak bytes)``.

    Nested tracing is left alone: when a caller (or an outer benchmark) is
    already tracing, the peak is reported as ``None`` rather than attributed
    to the wrong scope.
    """
    if tracemalloc.is_tracing():
        return function(*args, **kwargs), None
    tracemalloc.start()
    try:
        result = function(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture()
def record_group_memory():
    """Record memory figures for a bench group into ``BENCH_components.json``.

    Usage: ``record_group_memory("scenario-sweep-smoke", joined_rows=...,
    typed_peak_tracemalloc_bytes=..., bytes_per_joined_row_typed=...)``.
    Figures with value ``None`` are skipped; repeated calls for one group
    merge. The session writer emits them under the top-level ``memory`` key.
    """

    def record(group: str, **figures) -> None:
        entry = _GROUP_MEMORY.setdefault(group, {})
        entry.update({key: value for key, value in figures.items() if value is not None})

    return record


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write ``BENCH_components.json`` when benchmark stats or memory figures exist."""
    try:
        stats = _collect_benchmark_stats(session)
        if not stats and not _GROUP_MEMORY:
            return
        groups: dict[str, dict] = {}
        for group, name, median in stats:
            entry = groups.setdefault(
                group, {"reference": _GROUP_REFERENCES.get(group), "tests": {}}
            )
            entry["tests"][name] = {"median_seconds": median}
        for entry in groups.values():
            reference = entry["tests"].get(entry["reference"], {}).get("median_seconds")
            for test in entry["tests"].values():
                test["speedup_vs_reference"] = (
                    reference / test["median_seconds"]
                    if reference and test["median_seconds"] > 0
                    else None
                )
        # Merge with an existing file so separate sessions (component run,
        # slow scale-10 smoke) compose one artifact instead of clobbering.
        payload = {"scale": BENCH_SCALE, "groups": {}, "memory": {}}
        if BENCH_RESULTS_PATH.exists():
            try:
                previous = json.loads(BENCH_RESULTS_PATH.read_text(encoding="utf-8"))
                payload["groups"] = previous.get("groups", {})
                payload["memory"] = previous.get("memory", {})
            except (OSError, ValueError):
                pass
        payload["groups"].update(groups)
        payload["memory"].update(_GROUP_MEMORY)
        payload["machine"] = machine_stamp()
        if not payload["memory"]:
            del payload["memory"]
        BENCH_RESULTS_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except Exception:  # pragma: no cover - never fail a test run over reporting
        pass


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


def run_once(benchmark, function, *args, **kwargs):
    """Run *function* exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def attach_table(benchmark, tables) -> None:
    """Record rendered tables in the benchmark's extra info and print them."""
    from repro.experiments.report import ExperimentTable, render_tables

    if isinstance(tables, ExperimentTable):
        tables = [tables]
    text = render_tables(list(tables))
    benchmark.extra_info["table"] = text
    print("\n" + text)
