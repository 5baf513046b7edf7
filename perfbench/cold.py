"""The cold-session workload (q2-prologue): one fresh process per session."""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import asdict
from time import perf_counter

from checks import cold_session_problems, coverage_problem
from common import (
    BENCH_DIR, BenchmarkError, ColdSpec, median, percentile, program_env,
)

SESSION_TIMEOUT_S = 170.0
#: Sessions every run makes, however long they take: the transcript check
#: needs two to compare, and the medians need more than one sample.
MIN_SESSIONS = 3


def run_worker(spec: ColdSpec, *, trace: bool) -> dict:
    """One cold session in a fresh process; returns its record."""
    payload = dict(asdict(spec), trace=trace)
    try:
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "session_worker.py"), json.dumps(payload)],
            capture_output=True, text=True, env=program_env(), timeout=SESSION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"no result within {SESSION_TIMEOUT_S:.0f}s"}
    lines = completed.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if record is not None and "error" in record:
        raise BenchmarkError(record["error"])
    if completed.returncode != 0 or record is None:
        return {"crashed": completed.stderr[-2000:] or f"exit code {completed.returncode}"}
    return record


def run_sessions(spec: ColdSpec, *, seconds: float) -> tuple[list[dict], float]:
    """Cold sessions back to back: at least ``MIN_SESSIONS``, then while another fits."""
    records: list[dict] = []
    started = perf_counter()
    while True:
        session_started = perf_counter()
        records.append(run_worker(spec, trace=False))
        last = perf_counter() - session_started
        if len(records) >= MIN_SESSIONS and perf_counter() - started + last > seconds:
            break
    return records, perf_counter() - started


def judge(records: list[dict]) -> tuple[int, list[str]]:
    """Failed-session count and the reasons, over one invocation's records.

    Every session must produce the first one's transcript.
    """
    failed, problems = 0, []
    reference_sha = None
    for record in records:
        if "crashed" in record:
            failed += 1
            problems.append(f"session crashed: {record['crashed']}")
            continue
        if reference_sha is None:
            reference_sha = record["transcript_sha256"]
        found = cold_session_problems(record, reference_sha)
        if found:
            failed += 1
            problems.extend(found)
    return failed, problems


def end_to_end(records: list[dict], wall_s: float) -> dict:
    done = [record for record in records if "crashed" not in record]
    if not done:
        raise BenchmarkError("every session crashed")
    return {
        "setup_s": (median(r["setup_s"] for r in done), "s"),
        "session_s": (median(r["session_s"] for r in done), "s"),
        "first_round_s": (median(r["first_round_s"] for r in done), "s"),
        "rounds": (median(r["rounds"] for r in done), "count"),
        "modification_cost": (median(r["modification_cost"] for r in done), "cost"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in done), "MB"),
        "sessions_per_s": (len(done) / wall_s, "1/s"),
    }


def request_latencies(records: list[dict]) -> dict:
    """The cold counterparts of the service's round, create and choice latencies."""
    rounds = [sample for record in records for sample in record["round_s"]]
    return {
        "round_p50_ms": (percentile(rounds, 0.50) * 1000.0, "ms"),
        "round_p90_ms": (percentile(rounds, 0.90) * 1000.0, "ms"),
        "create_p50_ms": (median(r["candidates_s"] for r in records) * 1000.0, "ms"),
        "choice_p50_ms": (median(s for r in records for s in r["submit_s"]) * 1000.0, "ms"),
    }


def traced_layers(untraced: dict, traced: dict) -> tuple[dict, str | None]:
    """Per-layer metrics of the traced session, plus its coverage problem if any."""
    import layers

    metrics = layers.layer_metrics(traced["trace"], traced["counters"])
    metrics.update(request_latencies([untraced]))
    metrics["session.traced_s"] = (traced["session_s"], "s")
    metrics["obs.tracing_overhead_s"] = (traced["session_s"] - untraced["session_s"], "s")
    problem = coverage_problem(
        metrics["trace.layer_self_s"][0],
        metrics["session.unattributed_s"][0],
        traced["session_s"],
    )
    return metrics, problem
