#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads, every metric by name.

Usage, from the repository root::

    python3 perfbench/run.py --workload q2-prologue --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload q2-prologue --seed 0 --seconds 45 --trace 1
    python3 perfbench/run.py --workload service-2users --seed 2 --seconds 45 --trace 0
    python3 perfbench/run.py --print-manifest > BENCHMARK.json

With ``--trace 0`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and every end-to-end metric; with
``--trace 1`` it carries every per-layer metric instead. A ``# info`` line
before it records the machine, the measured tree, the inputs and the
canonical transcript sha. See ``perfbench/README.md`` for the workloads and
the layer → metric map.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    Q2_CANDIDATES,
    SERVICE_SEEDS,
    BenchmarkError,
    ColdSpec,
    calibration_ms,
    emit_info,
    ensure_program,
    machine_stamp,
    median,
    sha256_text,
    rotated,
)
from manifest import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, manifest  # noqa: E402

def cold_spec(args) -> ColdSpec:
    # The paper's fixed scientific dataset: the seed has nothing to vary.
    return ColdSpec("Q2", 0.05 if args.tiny else 1.0, 8 if args.tiny else Q2_CANDIDATES, None)


def _metrics(values: dict, names) -> dict:
    missing = [name for name in names if name not in values]
    if missing:
        raise BenchmarkError(f"metrics not produced: {missing}")
    return {
        name: {"value": float(values[name][0]), "unit": values[name][1]} for name in names
    }


def run_cold(args, info: dict) -> dict:
    import cold

    spec = cold_spec(args)
    info.update(program_workloads=[spec.workload], scale=spec.scale, seed_used=False)
    if args.trace:
        # One untraced and one traced session: the traced one gives the
        # per-layer numbers, the pair gives the tracing overhead, and both
        # must agree on the transcript.
        records = [cold.run_worker(spec, trace=traced) for traced in (False, True)]
    else:
        records, wall_s = cold.run_sessions(spec, seconds=args.seconds)
    failed, problems = cold.judge(records)
    done = [record for record in records if "crashed" not in record]
    info.update(
        sessions=len(records),
        transcript_sha256=done[0]["transcript_sha256"] if done else None,
        candidates=done[0]["candidates"] if done else None,
        session_s=[round(record["session_s"], 4) for record in done],
    )
    if args.trace:
        if len(done) < 2:
            raise BenchmarkError("the traced run needs both sessions: " + "; ".join(problems))
        values, problem = cold.traced_layers(done[0], done[1])
        if problem is not None:
            failed += 1
            problems.append(problem)
        for name, unit in SERVICE_ZERO_UNITS.items():
            values[name] = (0.0, unit)  # no service in a cold session
        names = [metric["name"] for metric in PER_LAYER]
    else:
        values = cold.end_to_end(records, wall_s)
        names = [metric["name"] for metric in END_TO_END]
    info["problems"] = problems[:10]
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": _metrics(values, names),
    }


def run_service(args, info: dict) -> dict:
    import layers
    import service

    seeds = [args.scenario_seed] if args.scenario_seed is not None else rotated(SERVICE_SEEDS, args.seed)
    workloads = [f"scenario:mixed@{seed}" for seed in seeds]
    info.update(program_workloads=workloads, scale=1.0, seed_used=True, users=2)
    phases, references = service.run_service(
        workloads, 1.0, seconds=args.seconds, trace=bool(args.trace),
        setup_reps=1 if args.tiny else 3,
    )
    plain = phases["plain"]
    attempted = sum(phase.stats.requests for phase in phases.values())
    failed = sum(phase.stats.failed for phase in phases.values())
    problems = [error for phase in phases.values() for error in phase.stats.errors]
    info.update(
        sessions=sum(phase.sessions for phase in phases.values()),
        round_samples=len(plain.stats.round_s),
        transcript_sha256={name: sha256_text(text) for name, text in references.items()},
        problems=problems[:10],
    )
    if args.trace:
        traced = phases["traced"]
        dump = traced.layer_dump
        values = layers.layer_metrics(dump["trace"], dump["counters"])
        values.update(service.service_layer_metrics(plain))
        traced_session_s = median(traced.stats.session_s)
        values["session.traced_s"] = (traced_session_s, "s")
        values["obs.tracing_overhead_s"] = (traced_session_s - median(plain.stats.session_s), "s")
        names = [metric["name"] for metric in PER_LAYER]
    else:
        values = service.end_to_end(plain)
        names = [metric["name"] for metric in END_TO_END]
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics(values, names),
    }


SERVICE_ZERO_UNITS = {
    metric["name"]: metric["unit"] for metric in PER_LAYER if metric["name"].startswith("service.")
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: where service-2users starts in its scenario seed "
                             f"list {SERVICE_SEEDS}; q2-prologue has nothing to vary")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured duration per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--scenario-seed", type=int, default=None,
                        help="play only this scenario seed instead of the vetted list "
                             "(a seed giving fewer than 2 candidates or no round is refused)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: small inputs, one set-up, not a measurement")
    parser.add_argument("--print-manifest", action="store_true",
                        help="print BENCHMARK.json and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.print_manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    try:
        ensure_program()
        info = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "machine": machine_stamp(),
        }
        calibration = [calibration_ms()]
        if args.workload == "service-2users":
            result = run_service(args, info)
        else:
            result = run_cold(args, info)
        calibration.append(calibration_ms())
        info["machine"]["calibration_ms"] = calibration
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    emit_info(info)
    for problem in info.get("problems", []):
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
