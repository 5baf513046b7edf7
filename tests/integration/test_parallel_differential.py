"""Serial-vs-parallel differential suite for session-owned worker pools.

``QFESession(workers=N)`` with the default ``auto`` backend builds, drives
and releases its own warm worker pool for ``N >= 2``. That pool must
reproduce the serial round planner's entire session transcript
**bit-identically**: the same modified databases, the same candidate
partitions and presented deltas, the same choices, and the same identified
query. Timings are the only fields allowed to differ. The serial backend is
the oracle; any divergence here means the worker protocol (base install,
delta-only evaluation, deterministic merge) broke on the path a plain
``workers=`` caller takes.

The suite covers the paper workloads Q1–Q6 and the synthetic scenario
presets (chain/star/mixed), which deliberately exercise NULLs, huge
integers and mixed bool/int/float domains — the typed columns a worker
receives with its base install.
"""

from __future__ import annotations

import pytest

from repro.core import OracleSelector, QFEConfig, QFESession
from repro.experiments.runner import prepare_candidates
from repro.qbo.config import QBOConfig
from repro.relational.evaluator import evaluate
from repro.scenarios import SCENARIOS, generate_scenario
from repro.workloads import build_pair

_SCALE = 0.03
_FAST_QBO = QBOConfig(threshold_variants=2, max_terms_per_conjunct=3, max_candidates=16)
# A generous Algorithm 3 budget so skyline enumeration never truncates on
# wall-clock time — time truncation is the one legitimately nondeterministic
# input, and it is orthogonal to what this suite verifies.
_CONFIG = QFEConfig(delta_seconds=30.0)

# The heavier workloads carry the ``slow`` marker: tier-1 still runs a
# serial-vs-parallel differential on Q2/Q4/Q6 plus the scenario presets,
# while CI's warm differential step runs the entire suite with ``-m ""``.
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
            if name.startswith("scenario:"):
                preset = name.split(":", 1)[1]
                generated = generate_scenario(SCENARIOS[preset], 0.08, 1234)
                database, target = generated.database, generated.target
                result = evaluate(target, database)
            else:
                database, result, target = build_pair(name, _SCALE)
            candidates, _ = prepare_candidates(
                database, result, target, qbo_config=_FAST_QBO, candidate_count=12
            )
            setup = (database, result, target, candidates)
            _SETUP_CACHE[name] = setup
        return setup

    return build


def _run(setup, workers: int):
    database, result, target, candidates = setup
    session = QFESession(
        database, result, candidates=candidates, config=_CONFIG, workers=workers
    )
    outcome = session.run(OracleSelector(target))
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
def test_parallel_session_is_bit_identical_to_serial(workload_setup_for, workload_name):
    setup = workload_setup_for(workload_name)
    serial_session, serial_outcome = _run(setup, workers=0)
    parallel_session, parallel_outcome = _run(setup, workers=2)
    assert _transcript(parallel_session, parallel_outcome) == _transcript(
        serial_session, serial_outcome
    )


@pytest.mark.parametrize("preset", sorted(SCENARIOS))
def test_parallel_matches_serial_on_scenario_presets(workload_setup_for, preset):
    # The scenario presets stress NULL columns, 2^53-neighbourhood integers
    # and mixed bool/int/float domains — exactly where a worker whose
    # installed base drifted from the driver's would silently diverge.
    setup = workload_setup_for(f"scenario:{preset}")
    serial_session, serial_outcome = _run(setup, workers=0)
    parallel_session, parallel_outcome = _run(setup, workers=2)
    assert _transcript(parallel_session, parallel_outcome) == _transcript(
        serial_session, serial_outcome
    )


def test_parallel_session_uses_the_process_pool(workload_setup_for):
    # Guard against ``auto`` silently falling back to the serial path, and
    # against a finished session leaking the pool it created.
    setup = workload_setup_for("Q2")
    session, outcome = _run(setup, workers=2)
    backend = session._generator.backend
    assert backend.name == "warm-pool"
    assert backend.workers == 2
    assert outcome.iteration_count >= 1
    assert backend._executor is None
