"""Command-line entry point for regenerating the paper's tables and studies.

Installed as the ``qfe-experiments`` console script (with a
``repro-experiments`` alias)::

    qfe-experiments list
    qfe-experiments table1 --scale 0.12
    qfe-experiments all --scale 0.12 --output results.txt

The ``scenarios`` experiment runs the scenario engine's scale sweep instead
of a paper table: it generates the named scenarios at every requested scale,
cross-checks every generated query against the SQLite oracle, runs each
scenario end to end on the serial and warm-pool backends (canonical
transcripts must be bit-identical), and records the per-scale trajectory
into ``benchmarks/BENCH_scenarios.json``::

    repro-experiments scenarios --seed 7 --scales 0.1,0.5,1.0
    repro-experiments scenarios --scenarios mixed --scales 0.05 --workers 4
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.core.config import BACKEND_CHOICES, backend_name, nonnegative_int
from repro.experiments import studies, tables
from repro.obs.trace import start_tracing, stop_tracing
from repro.experiments.report import ExperimentTable, render_tables
from repro.experiments.runner import (
    set_default_backend,
    set_default_workers,
    set_transcript_sink,
)

__all__ = ["main", "build_parser"]


def _as_list(result) -> list[ExperimentTable]:
    if isinstance(result, ExperimentTable):
        return [result]
    return list(result)


_EXPERIMENTS: dict[str, Callable[[float], list[ExperimentTable]]] = {
    "table1": lambda scale: _as_list(tables.table1(scale)),
    "table2": lambda scale: _as_list(tables.table2(scale)),
    "table3": lambda scale: _as_list(tables.table3(scale)),
    "table4": lambda scale: _as_list(tables.table4(scale)),
    "table5": lambda scale: _as_list(tables.table5(scale)),
    "table6": lambda scale: _as_list(tables.table6(scale)),
    "table7": lambda scale: _as_list(tables.table7(scale)),
    "size-study": lambda scale: _as_list(studies.initial_pair_size_study(scale)),
    "entropy-study": lambda scale: _as_list(studies.entropy_study(scale)),
    "user-study": lambda scale: _as_list(studies.user_study(scale)),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the experiments CLI."""
    parser = argparse.ArgumentParser(
        prog="qfe-experiments",
        description="Regenerate the tables and studies of the QFE paper (VLDB 2015).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["scenarios", "all", "list"],
        help="which experiment to run ('all' runs every paper table/study, "
             "'list' shows the options, 'scenarios' sweeps generated "
             "scenarios across scale factors)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=tables.DEFAULT_SCALE,
        help="dataset scale factor (1.0 = the paper's full row counts)",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the rendered tables to this file instead of stdout",
    )
    parser.add_argument(
        "--workers",
        type=nonnegative_int,
        default=None,
        help="worker processes for every session's round-planner search "
             "(0/1 = serial; omit to defer to each session's config; "
             "regenerated numbers are identical at any count)",
    )
    parser.add_argument(
        "--backend",
        type=backend_name,
        default=None,
        metavar="NAME",
        help="execution backend for every session's round-planner search: "
             f"{', '.join(BACKEND_CHOICES)} (omit to defer to each session's "
             "config; transcripts are identical for every backend)",
    )
    parser.add_argument(
        "--transcript-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the machine-readable transcript of every session the "
             "experiment runs (rounds, deltas, choices, timings) as one JSON "
             "array to this file",
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write round-lifecycle spans for every session the experiment "
             "runs as JSON lines to this file (inspect with "
             "`qfe-trace summary PATH`; tracing never changes results)",
    )
    scenario_group = parser.add_argument_group(
        "scenario sweep", "options for the 'scenarios' experiment"
    )
    scenario_group.add_argument(
        "--seed",
        type=int,
        default=None,
        help="scenario generator seed (default: the library's base seed)",
    )
    scenario_group.add_argument(
        "--scales",
        type=str,
        default="0.1,0.5,1.0",
        metavar="S1,S2,...",
        help="comma-separated scale factors to sweep (default 0.1,0.5,1.0)",
    )
    scenario_group.add_argument(
        "--scenarios",
        type=str,
        default=None,
        metavar="NAME1,NAME2,...",
        help="comma-separated scenario presets to sweep (default: the whole catalog)",
    )
    scenario_group.add_argument(
        "--candidates",
        type=nonnegative_int,
        default=8,
        help="candidate queries per scenario session (default 8)",
    )
    scenario_group.add_argument(
        "--bench-out",
        type=str,
        default=None,
        metavar="PATH",
        help="where to write the per-scale trajectory JSON "
             "(default benchmarks/BENCH_scenarios.json; 'none' disables)",
    )
    return parser


def _parse_scales(text: str) -> list[float]:
    import math

    try:
        scales = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"--scales must be a comma-separated float list, got {text!r}")
    # Note not(> 0), not (<= 0): NaN fails every comparison, so 'nan' would
    # otherwise sail through and detonate deep inside the generator.
    if not scales or any(not (scale > 0) or math.isinf(scale) for scale in scales):
        raise SystemExit(
            f"--scales must name at least one positive finite scale, got {text!r}"
        )
    return scales


def _run_scenarios(args) -> int:
    from repro.scenarios.sweep import DEFAULT_BENCH_PATH, run_sweep, sweep_table

    if args.bench_out is None:
        bench_out = DEFAULT_BENCH_PATH
    elif args.bench_out.lower() == "none":
        bench_out = None
    else:
        bench_out = args.bench_out
    names = (
        [part.strip() for part in args.scenarios.split(",") if part.strip()]
        if args.scenarios
        else None
    )
    if names:
        # Resolve preset names up front so a typo is a clean usage error, not
        # a traceback (and internal engine errors are never masked as one).
        from repro.scenarios.catalog import get_scenario

        for name in names:
            try:
                get_scenario(name)
            except KeyError as exc:
                raise SystemExit(f"error: {exc.args[0]}")
    # 0/1 workers skips the pooled leg entirely; default is a 2-worker pool
    # so every sweep point also proves serial-vs-pooled transcript identity.
    workers = 2 if args.workers is None else args.workers
    payload = run_sweep(
        names,
        _parse_scales(args.scales),
        seed=args.seed,
        workers=workers,
        candidate_count=args.candidates,
        out_path=bench_out,
    )
    text = render_tables([sweep_table(payload)])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    if bench_out is not None:
        print(f"\ntrajectory written to {bench_out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in sorted(_EXPERIMENTS) + ["scenarios"]:
            print(name)
        return 0

    # The tracer is installed process-wide for the whole experiment (every
    # session the run spawns contributes spans) and always uninstalled on the
    # way out so library callers of main() never inherit it.
    if args.trace_out:
        start_tracing(args.trace_out)
    try:
        if args.experiment == "scenarios":
            return _run_scenarios(args)
        return _run_tables(args)
    finally:
        if args.trace_out:
            stop_tracing()


def _run_tables(args) -> int:
    # When given, install the worker count process-wide so every table/study
    # session's round planner picks it up; restore afterwards (library
    # callers of main() must not inherit the CLI's setting). When omitted,
    # each session's own config decides. The transcript sink works the same
    # way: installed for the duration of the run, then restored.
    previous_workers = set_default_workers(args.workers) if args.workers is not None else None
    previous_backend = set_default_backend(args.backend) if args.backend is not None else None
    transcripts: list | None = [] if args.transcript_out else None
    previous_sink = set_transcript_sink(transcripts) if transcripts is not None else None
    try:
        if args.experiment == "all":
            produced: list[ExperimentTable] = []
            for name in sorted(_EXPERIMENTS):
                produced.extend(_EXPERIMENTS[name](args.scale))
        else:
            produced = _EXPERIMENTS[args.experiment](args.scale)
    finally:
        if args.workers is not None:
            set_default_workers(previous_workers)
        if args.backend is not None:
            set_default_backend(previous_backend)
        if transcripts is not None:
            set_transcript_sink(previous_sink)

    if transcripts is not None:
        import json

        with open(args.transcript_out, "w", encoding="utf-8") as handle:
            json.dump(transcripts, handle, indent=2, sort_keys=True)
            handle.write("\n")

    text = render_tables(produced)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
