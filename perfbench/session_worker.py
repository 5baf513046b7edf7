"""One cold QFE session in a fresh process; prints one JSON record on stdout.

Run by ``perfbench/run.py`` once per session, so every session pays its own
imports, dataset build, joins and caches (the cold regime). Usage::

    python3 perfbench/session_worker.py '{"workload": "Q2", "scale": 1.0, ...}'

The record carries the timings of the public entry points the session went
through (candidate generation, each ``propose``, each ``submit``), the
outcome figures, the canonical transcript's sha256 and the skyline flags the
correctness check needs. With ``"trace": true`` every layer boundary is
wrapped (:mod:`layers`) and the record adds the per-layer aggregates.
"""

from __future__ import annotations

from time import perf_counter

#: When this process started running the worker: a cold session's set-up is
#: everything from here to a built dataset (program imports included).
PROCESS_STARTED = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DELTA_OFF_SECONDS, BenchmarkError, ensure_program, sha256_text,
)


def run_session(spec: dict) -> dict:
    """Build the pair, generate candidates and drive a truthful user to the end."""
    ensure_program()
    import layers
    from repro.core import QFEConfig, QFESession
    from repro.core.feedback import OracleSelector
    from repro.experiments import runner
    from repro.qbo.config import QBOConfig
    from repro.service.checkpoint import session_transcript, transcript_json
    from repro.workloads import build_pair

    started = perf_counter()
    database, result, target = build_pair(spec["workload"], spec["scale"])
    build_s = perf_counter() - started
    setup_s = perf_counter() - PROCESS_STARTED

    tracer = layers.LayerTracer()
    patches = layers.install(tracer) if spec.get("trace") else layers.install_skyline_probe(tracer)
    counters_before = layers.stats_counters()
    try:
        qbo = QBOConfig(**spec["qbo"]) if spec.get("qbo") else None
        started = perf_counter()
        candidates, _ = runner.prepare_candidates(
            database, result, target,
            qbo_config=qbo, candidate_count=spec.get("candidate_count"),
        )
        candidates_s = perf_counter() - started
        if len(candidates) < 2:
            raise BenchmarkError(
                f"{spec['workload']} yields {len(candidates)} candidate(s); "
                "a degenerate seed makes a trivial session"
            )
        session = QFESession(
            database, result, candidates=candidates,
            config=QFEConfig(delta_seconds=DELTA_OFF_SECONDS, backend="serial"),
        )
        user = OracleSelector(target)
        propose_s: list[float] = []
        submit_s: list[float] = []
        while True:
            started = perf_counter()
            pending = session.propose()
            propose_s.append(perf_counter() - started)
            if pending is None:
                break
            choice = user.select(pending.round, pending.partition)
            started = perf_counter()
            session.submit(choice)
            submit_s.append(perf_counter() - started)
    finally:
        patches.undo()
    counters = {
        name: value - counters_before[name] for name, value in layers.stats_counters().items()
    }
    outcome = session.outcome
    if outcome.iteration_count == 0:
        raise BenchmarkError(f"{spec['workload']} converges with zero rounds (degenerate seed)")
    transcript = transcript_json(session_transcript(session, workload=spec["workload"]))
    trace = tracer.snapshot()
    # The propose that finds the session finished is part of the session's
    # time; only the proposes that presented a round are round latencies.
    round_s = propose_s[: outcome.iteration_count]
    record = {
        "build_s": build_s,
        "setup_s": setup_s,
        "candidates": len(candidates),
        "candidates_s": candidates_s,
        "propose_s": propose_s,
        "round_s": round_s,
        "submit_s": submit_s,
        "session_s": candidates_s + sum(propose_s) + sum(submit_s),
        "first_round_s": candidates_s + propose_s[0],
        "rounds": outcome.iteration_count,
        "modification_cost": outcome.total_modification_cost,
        "target_survived": any(query == target for query in outcome.remaining_queries),
        "truncated_by_time": int(trace["counts"].get("skyline.truncated_by_time", 0)),
        "skyline_rounds": int(trace["counts"].get("skyline.rounds", 0)),
        "transcript_sha256": sha256_text(transcript),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spec.get("trace"):
        record["trace"] = trace
        record["counters"] = counters
    return record


def main(argv: list[str]) -> int:
    try:
        record = run_session(json.loads(argv[1]))
    except BenchmarkError as exc:
        print(json.dumps({"error": str(exc)}), flush=True)
        return 3
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
