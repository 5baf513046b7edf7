"""Workloads and metric definitions; ``run.py --print-manifest`` renders BENCHMARK.json."""

from __future__ import annotations

RUN_SECONDS = 45

WORKLOADS = [
    {
        "name": "q2-prologue",
        "why": "paper Q2 at scale 1.0, 10 candidates, truthful user, a cold process per session: "
               "the round prologue (skyline + subset over PairSetSimulator.effect) dominates",
    },
    {
        "name": "service-2users",
        "why": "qfe-serve with 2 closed-loop HTTP users on scenario:mixed at scale 1.0: warm shared "
               "join cache, HTTP/JSON, checkpoint writes and per-session QBO",
    },
]

# (name, unit, better, bound). Set-up time has the widest bound: a later
# change that moves work into set-up must still show.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "session_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "first_round_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rounds", "unit": "count", "better": "lower", "bound": 0.05},
    {"name": "modification_cost", "unit": "cost", "better": "lower", "bound": 0.05},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "sessions_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]

# Request latencies rest on a handful of samples per cold run (one
# candidate generation, three rounds and three sub-millisecond submits per
# q2 session), too few to bound: they are reported per run, without a bound.
# Their cost still shows in the bounded session_s, first_round_s and
# sessions_per_s.
_PER_LAYER = [
    ("round_p50_ms", "ms"), ("round_p90_ms", "ms"),
    ("create_p50_ms", "ms"), ("choice_p50_ms", "ms"),
    ("qbo.generate_s", "s"), ("qbo.join_s", "s"), ("qbo.projections_s", "s"),
    ("qbo.label_s", "s"), ("qbo.atoms_s", "s"), ("qbo.search_s", "s"), ("qbo.verify_s", "s"),
    ("qbo.join_schemas", "count"), ("qbo.predicates_verified", "count"),
    ("qbo.candidates", "count"),
    ("qbo.expand_s", "s"), ("qbo.expand_calls", "count"),
    ("relational.join_for_s", "s"), ("relational.join_for_calls", "count"),
    ("relational.evaluate_batch_s", "s"), ("relational.evaluate_batch_calls", "count"),
    ("join.full_joins", "count"), ("join.delta_applies", "count"),
    ("columnar.typed_term_masks", "count"), ("columnar.zone_block_skips", "count"),
    ("tuple_class.space_s", "s"), ("tuple_class.source_classes", "count"),
    ("tuple_class.attributes", "count"),
    ("skyline.self_s", "s"), ("skyline.enumerated_pairs", "count"), ("skyline.pairs", "count"),
    ("skyline.truncated_by_time", "count"), ("skyline.truncated_by_cap", "count"),
    ("modification.effect_s", "s"), ("modification.effect_calls", "count"),
    ("modification.effect_us_per_call", "us"),
    ("subset.self_s", "s"),
    ("backend.run_attempts_s", "s"), ("backend.attempts", "count"),
    ("backend.useful_ratio", "ratio"), ("materialize.s", "s"), ("partition.s", "s"),
    ("present.s", "s"), ("present.database_delta_s", "s"),
    ("session.propose_s", "s"), ("session.submit_s", "s"), ("session.unattributed_s", "s"),
    ("session.traced_s", "s"), ("trace.layer_self_s", "s"),
    ("service.finish_p50_ms", "ms"), ("service.transcript_p50_ms", "ms"),
    ("service.delete_p50_ms", "ms"), ("service.server_round_p50_ms", "ms"),
    ("service.transport_ms", "ms"), ("service.checkpoints", "count"),
    ("service.checkpoint_bytes_per_write", "bytes"),
    ("obs.tracing_overhead_s", "s"),
]

#: Counts and ratios rise with useful work; every time and size is better lower.
_HIGHER = {"backend.useful_ratio", "columnar.zone_block_skips", "join.delta_applies"}

PER_LAYER = [
    {"name": name, "unit": unit, "better": "higher" if name in _HIGHER else "lower"}
    for name, unit in _PER_LAYER
]


def manifest() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
