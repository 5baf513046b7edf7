"""Tracing-on vs tracing-off differential over Q1–Q6.

Tracing is observability, not behavior: with a tracer installed, a session
must reproduce its untraced transcript **bit-identically** — the same
modified databases, partitions, deltas, choices and identified query.
Timings are the only fields allowed to differ. Any divergence here means
span instrumentation leaked into the evaluation path (changed iteration
order, perturbed a cache, consumed RNG state).

The same runs double as coverage that the expected spans actually appear,
and that per-round phase durations account for the propose wall-clock.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.core import OracleSelector, QFEConfig, QFESession
from repro.experiments.runner import prepare_candidates
from repro.obs.summary import phase_breakdown
from repro.obs.trace import Tracer, set_tracer
from repro.qbo.config import QBOConfig
from repro.scenarios import SCENARIOS, generate_scenario
from repro.scenarios.sweep import _candidates_for
from repro.workloads import build_pair

_SCALE = 0.03
_FAST_QBO = QBOConfig(threshold_variants=2, max_terms_per_conjunct=3, max_candidates=16)
# A 30,000,000-pair Algorithm 3 budget, which no round of these sessions
# reaches: the suite compares tracing on and off, not budget cuts.
_CONFIG = QFEConfig(delta_seconds=30.0)

# Heavier workloads carry the ``slow`` marker: tier-1 still runs the traced
# differential on Q2/Q4/Q6, while CI's dedicated differential step runs the
# entire suite with ``-m ""``.
_WORKLOADS = [
    pytest.param("Q1", marks=pytest.mark.slow),
    "Q2",
    pytest.param("Q3", marks=pytest.mark.slow),
    "Q4",
    pytest.param("Q5", marks=pytest.mark.slow),
    "Q6",
]

_SETUP_CACHE: dict[str, tuple] = {}


@pytest.fixture()
def workload_setup_for():
    """Build (and cache per process) the ``(D, R, target, candidates)`` of a workload."""

    def build(name: str):
        setup = _SETUP_CACHE.get(name)
        if setup is None:
            database, result, target = build_pair(name, _SCALE)
            candidates, _ = prepare_candidates(
                database, result, target, qbo_config=_FAST_QBO, candidate_count=12
            )
            setup = (database, result, target, candidates)
            _SETUP_CACHE[name] = setup
        return setup

    return build


def _run(setup, tracer=None):
    database, result, target, candidates = setup
    previous = set_tracer(tracer) if tracer is not None else None
    try:
        session = QFESession(database, result, candidates=candidates, config=_CONFIG)
        outcome = session.run(OracleSelector(target))
    finally:
        if tracer is not None:
            set_tracer(previous)
    return session, outcome


def _transcript(session, outcome):
    """Everything but timings: partitions, deltas, choices, final state."""
    rounds = []
    for round_ in session.last_rounds:
        rounds.append(
            (
                round_.iteration,
                round_.database_delta.cost,
                round_.database_delta.modified_relation_count,
                tuple(round_.database_delta.describe()),
                tuple(
                    (option.index, option.query_count, option.delta.cost,
                     tuple(sorted(option.result.bag_of_rows().items(), key=repr)))
                    for option in round_.options
                ),
            )
        )
    iterations = [
        (
            record.iteration,
            record.candidate_count,
            record.subset_count,
            record.skyline_pair_count,
            record.db_cost,
            record.result_cost,
            record.modified_attribute_count,
            record.modified_relation_count,
            record.modified_tuple_count,
            record.chosen_option,
            record.remaining_candidates,
        )
        for record in outcome.iterations
    ]
    return {
        "identified": outcome.identified_query,
        "remaining": outcome.remaining_queries,
        "converged": outcome.converged,
        "exhausted": outcome.exhausted,
        "iterations": iterations,
        "rounds": rounds,
    }


@pytest.mark.parametrize("workload_name", _WORKLOADS)
def test_tracing_does_not_perturb_the_transcript(workload_setup_for, workload_name):
    setup = workload_setup_for(workload_name)
    plain_session, plain_outcome = _run(setup)
    spans: list = []
    traced_session, traced_outcome = _run(setup, tracer=Tracer(spans))
    assert _transcript(traced_session, traced_outcome) == _transcript(
        plain_session, plain_outcome
    )

    names = {record["name"] for record in spans}
    assert {"session.propose", "round.prepare"} <= names
    # Attempts are scored in process: no pool spans of any kind.
    assert not any(name.startswith("backend.") for name in names)
    if traced_session.last_rounds:
        # Search/present/submit only exist when the session actually
        # presented a round; a workload that exhausts during generation (Q4
        # at this scale) stops earlier.
        assert {"round.search", "round.present", "session.submit"} <= names


def test_traced_phases_account_for_propose_wall_clock():
    # The acceptance bound from the issue: on a traced mixed@1.0 session the
    # per-phase durations must sum to within 10% of the measured wall-clock
    # of the propose calls they decompose.
    generated = generate_scenario(SCENARIOS["mixed"], 1.0, 1234)
    result, candidates = _candidates_for(generated, 8)
    session = QFESession(
        generated.database, result, candidates=candidates, config=_CONFIG
    )
    selector = OracleSelector(generated.target)
    spans: list = []
    previous = set_tracer(Tracer(spans))
    wall = 0.0
    try:
        while True:
            started = perf_counter()
            pending = session.propose()
            wall += perf_counter() - started
            if pending is None:
                break
            session.submit(selector.select(pending.round, pending.partition))
    finally:
        set_tracer(previous)
        session.close()
    breakdown = phase_breakdown(spans)
    assert breakdown, "the traced session presented no rounds"
    phase_total = sum(sum(entry["phases"].values()) for entry in breakdown)
    assert phase_total == pytest.approx(wall, rel=0.10)
    # Each round decomposes exactly: phases sum to the propose span itself.
    for entry in breakdown:
        assert sum(entry["phases"].values()) == pytest.approx(entry["total_s"])
