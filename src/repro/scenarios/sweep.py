"""The scenario scale sweep: generate → verify → run → measure → record.

For every requested ``(scenario, scale)`` the sweep

1. **generates** the database and its scale-invariant workload queries;
2. **verifies** every query against the SQLite differential oracle (the
   pure-Python evaluator and an independent SQL engine must agree on every
   result, bag-exactly — this is where numeric/type-semantics bugs detonate);
3. **runs** one full QFE session cold, over a fresh join cache, then
   repeats it twice over that same cache — the repeats replay every round's
   prologue from the memo held with the cached join, a labelled cache
   effect (the steady state a service reaches when a user re-runs a pair it
   has already planned) — and demands every repeat's canonical transcript
   be **bit-identical** to the cold one;
4. **measures** the cold vs delta-derived candidate-evaluation paths over
   the same candidate set;
5. **records** the whole per-scale trajectory — row counts, join size,
   session rounds, cold and steady session seconds, cold/delta evaluation
   seconds, transcript hash — into ``benchmarks/BENCH_scenarios.json``,
   stamped with the machine that measured it.

A transcript divergence or an oracle disagreement raises
:class:`ScenarioDivergenceError`: the sweep is a verification harness first
and a benchmark second.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from time import perf_counter
from typing import Sequence

from repro.core.round_planner import PLAN_MEMO_STATS
from repro.exceptions import EvaluationError
from repro.obs.machine import machine_stamp
from repro.qbo.mutation import expand_candidate_set
from repro.relational.delta import TupleDelta
from repro.relational.evaluator import JoinCache, evaluate_batch
from repro.relational.join import foreign_key_join
from repro.relational.types import AttributeType
from repro.scenarios.catalog import SCENARIOS, get_scenario
from repro.scenarios.generator import GeneratedScenario, generate_scenario
from repro.sql.sqlite_backend import SQLiteBackend

__all__ = [
    "ScenarioDivergenceError",
    "run_sweep",
    "sweep_table",
    "DEFAULT_BENCH_PATH",
]

#: Default output location, resolved against the working directory (the CLI
#: and CI run from the repository root).
DEFAULT_BENCH_PATH = Path("benchmarks") / "BENCH_scenarios.json"


class ScenarioDivergenceError(EvaluationError):
    """Two engines (or two runs of one session) disagreed on a generated scenario."""


def _point_setup(
    generated: GeneratedScenario, candidate_count: int, *, verify_oracle: bool
):
    """One sweep point's shared state: join, oracle check, R, candidates.

    Every workload query shares the spine tables, so the foreign-key join is
    materialized **once** (through a :class:`JoinCache`, whose warm entry the
    mutant verification inside :func:`expand_candidate_set` then reuses) and
    all queries are evaluated over it in one batch — instead of paying one
    cold join per query per check.

    Returns ``(result, candidates, joined, oracle_checked or None)``.
    """
    database = generated.database
    cache = JoinCache()
    joined = cache.join_for(database, tuple(generated.target.tables))
    batch = evaluate_batch(list(generated.queries), joined, database, name="R")
    oracle_checked = None
    if verify_oracle:
        with SQLiteBackend(database) as backend:
            for query, ours in zip(generated.queries, batch.results):
                theirs = backend.execute(query)
                if not ours.bag_equal(theirs):
                    raise ScenarioDivergenceError(
                        f"scenario {generated.spec.name!r} @ scale {generated.scale}: "
                        f"evaluator and SQLite disagree on {query}"
                    )
        oracle_checked = len(generated.queries)
    result = batch.results[0]  # the target's result, R
    candidates = expand_candidate_set(
        database, result, list(generated.queries), candidate_count, join_cache=cache
    )
    return result, candidates, joined, oracle_checked


def _candidates_for(generated: GeneratedScenario, candidate_count: int):
    """The session's candidate set: the workload queries padded with mutants."""
    result, candidates, _, _ = _point_setup(
        generated, candidate_count, verify_oracle=False
    )
    return result, candidates


def _numeric_patch_column(relation):
    for attribute in relation.schema.attributes:
        if attribute.name in ("id", "parent_id"):
            continue
        if attribute.type in (AttributeType.INTEGER, AttributeType.FLOAT):
            return attribute.name
    return None


def _measure_eval_paths(generated: GeneratedScenario, candidates, joined) -> dict:
    """Time cold-rebuild vs delta-derived candidate evaluation (one pass each).

    Mirrors the ``delta-derive`` component benchmark at scenario scale: the
    cold path pays a fresh foreign-key join, columnar view and every term
    mask; the delta path patches the (already-materialized) warm base join
    through a two-tuple update :class:`TupleDelta` and shares untouched
    columns and masks.
    """
    database = generated.database
    tables = tuple(generated.target.tables)
    evaluate_batch(candidates, joined, database)  # warm masks, as a session would

    derived_db = database.copy()
    root = tables[0]
    relation = derived_db.relation(root)
    column = _numeric_patch_column(relation)
    delta = TupleDelta()
    if column is not None:
        index = relation.schema.index_of(column)
        for target in relation.tuples[: min(2, len(relation))]:
            values = list(target.values)
            values[index] = (values[index] or 0) + 1
            relation.replace_tuple(target.tuple_id, values)
            delta.record_update(root, target.tuple_id, relation.tuple_by_id(target.tuple_id).values)

    started = perf_counter()
    cold_joined = foreign_key_join(derived_db, tables)
    evaluate_batch(candidates, cold_joined, derived_db)
    cold_seconds = perf_counter() - started

    started = perf_counter()
    derived = joined.apply_delta(delta, database)
    evaluate_batch(candidates, derived, derived_db)
    delta_seconds = perf_counter() - started
    return {
        "cold_eval_seconds": cold_seconds,
        "delta_eval_seconds": delta_seconds,
        "delta_eval_speedup": (cold_seconds / delta_seconds) if delta_seconds > 0 else None,
        "join_rows": len(joined),
    }


def _session_point(generated, result, candidates, *, workload_name, join_cache):
    """Run one session; returns (wall seconds, canonical transcript JSON, run,
    per-phase seconds).

    Each point runs under a private in-memory tracer (the previous tracer is
    restored afterwards), so the recorded trajectory can attribute the
    wall-clock to prepare/evaluate/materialize/present phases — tracing does
    not perturb transcripts, which the sweep's own bit-identity checks
    enforce on every point. Sessions given the same ``join_cache`` share its
    base state, the way the session service does.
    """
    from repro.experiments.runner import run_session
    from repro.obs.summary import aggregate_phases
    from repro.obs.trace import Tracer, set_tracer
    from repro.service.checkpoint import transcript_json

    started = perf_counter()
    spans: list = []
    previous = set_tracer(Tracer(spans))
    try:
        run = run_session(
            generated.database,
            result,
            generated.target,
            candidates=candidates,
            feedback="worst",
            workload_name=workload_name,
            scale=generated.scale,
            join_cache=join_cache,
            capture_transcript=True,
        )
    finally:
        set_tracer(previous)
    seconds = perf_counter() - started
    return seconds, transcript_json(run.transcript), run, aggregate_phases(spans)


def run_sweep(
    scenarios: Sequence[str] | None = None,
    scales: Sequence[float] = (0.1, 0.5, 1.0),
    *,
    seed: int | None = None,
    candidate_count: int = 8,
    verify_oracle: bool = True,
    measure_eval_paths: bool = True,
    out_path: str | os.PathLike | None = DEFAULT_BENCH_PATH,
) -> dict:
    """Sweep the named scenarios (default: the full catalog) across *scales*.

    Returns the trajectory payload; also writes it as JSON to *out_path*
    unless that is ``None``. Every point runs its session cold over a fresh
    :class:`JoinCache` (``serial_seconds``), then twice more over that same
    cache: ``steady_seconds`` is the faster repeat — a cache effect of the
    prologue memo (``memo_hits``), not a different algorithm — and every
    repeat's transcript must be bit-identical to the cold one. The payload
    carries a ``machine`` stamp.
    """
    names = list(scenarios) if scenarios else sorted(SCENARIOS)
    specs = [get_scenario(name) for name in names]
    scales = [float(s) for s in scales]

    payload: dict = {
        "machine": machine_stamp(),
        "seed": seed,
        "scales": scales,
        "candidate_count": candidate_count,
        "scenarios": {},
    }
    for spec in specs:
        trajectory = []
        for scale in scales:
            generated = generate_scenario(spec, scale, seed)
            workload_name = f"scenario:{spec.name}" + (
                f"@{seed}" if seed is not None else ""
            )
            point: dict = {
                "scale": scale,
                "rows_by_table": generated.rows_by_table(),
                "total_rows": generated.total_rows,
                "query_count": len(generated.queries),
            }
            result, candidates, joined, oracle_checked = _point_setup(
                generated, candidate_count, verify_oracle=verify_oracle
            )
            if oracle_checked is not None:
                point["oracle_checked_queries"] = oracle_checked
            point["result_rows"] = len(result)
            point["candidates"] = len(candidates)

            join_cache = JoinCache()
            cold_seconds, cold_json, cold_run, cold_phases = _session_point(
                generated, result, candidates,
                workload_name=workload_name, join_cache=join_cache,
            )
            point["iterations"] = cold_run.iteration_count
            point["converged"] = cold_run.session.converged
            point["serial_seconds"] = cold_seconds
            point["transcript_sha256"] = hashlib.sha256(
                cold_json.encode("utf-8")
            ).hexdigest()

            hits_before = PLAN_MEMO_STATS.memo_hits
            steady_seconds = steady_phases = None
            for _ in range(2):
                repeat_seconds, repeat_json, _, repeat_phases = _session_point(
                    generated, result, candidates,
                    workload_name=workload_name, join_cache=join_cache,
                )
                if repeat_json != cold_json:
                    raise ScenarioDivergenceError(
                        f"scenario {spec.name!r} @ scale {scale}: a repeat over "
                        "the shared join cache diverged from the cold session"
                    )
                if steady_seconds is None or repeat_seconds < steady_seconds:
                    steady_seconds, steady_phases = repeat_seconds, repeat_phases
            point["steady_seconds"] = steady_seconds
            point["memo_hits"] = PLAN_MEMO_STATS.memo_hits - hits_before
            point["transcripts_identical"] = True
            # Per-phase attribution (prepare/evaluate/materialize/present/
            # other seconds) of the cold session and the faster repeat.
            point["phase_seconds"] = {"cold": cold_phases, "steady": steady_phases}

            if measure_eval_paths:
                point.update(_measure_eval_paths(generated, candidates, joined))
            trajectory.append(point)
        payload["scenarios"][spec.name] = {
            "spec": spec.to_json(),
            "trajectory": trajectory,
        }

    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return payload


def sweep_table(payload: dict):
    """Render a sweep payload as an :class:`ExperimentTable` for the CLI."""
    from repro.experiments.report import ExperimentTable

    table = ExperimentTable(
        title="Scenario scale sweep",
        columns=[
            "scenario", "scale", "rows", "join rows", "|R|", "cands", "iters",
            "session s", "steady s", "memo hits",
            "cold s", "delta s", "identical",
        ],
        caption=(
            "Per-scale trajectory of generated scenarios: a cold QFE session "
            "('session s') and the faster of two repeats over the same join "
            "cache ('steady s', replaying its plans from the prologue memo: "
            "'memo hits'; canonical transcripts bit-identical), plus cold vs "
            "delta-derived candidate evaluation."
        ),
    )
    for name, entry in sorted(payload["scenarios"].items()):
        for point in entry["trajectory"]:
            table.add_row(
                name,
                point["scale"],
                point["total_rows"],
                point.get("join_rows", "-"),
                point["result_rows"],
                point["candidates"],
                point["iterations"],
                round(point["serial_seconds"], 4),
                round(point["steady_seconds"], 4),
                point["memo_hits"],
                round(point["cold_eval_seconds"], 4) if "cold_eval_seconds" in point else "-",
                round(point["delta_eval_seconds"], 4) if "delta_eval_seconds" in point else "-",
                point.get("transcripts_identical", "-"),
            )
    return table
