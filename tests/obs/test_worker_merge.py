"""Worker-side counters must surface in the parent after a pooled round.

The warm-pool workers evaluate attempts in separate processes, so every
``JOIN_STATS``/``COLUMNAR_STATS`` increment they make would be invisible to
the driver unless each work unit ships its counter deltas back with its
outcomes and the backend merges them into the parent registry.
"""

from __future__ import annotations

import pytest

from repro.core.config import QFEConfig
from repro.core.round_planner import RoundPlanner
from repro.core.worker_runtime import WarmProcessPoolBackend
from repro.relational.columnar import COLUMNAR_STATS
from repro.relational.join import JOIN_STATS


@pytest.fixture(scope="module")
def warm_backend():
    backend = WarmProcessPoolBackend(2)
    yield backend
    backend.close()


def test_worker_counters_merge_into_the_parent(
    employee_db, employee_result, employee_candidates, warm_backend
):
    planner = RoundPlanner(QFEConfig())
    plan = planner.prepare_round(employee_db, employee_result, employee_candidates)

    # Attempt evaluation happens exclusively inside the workers; freeze the
    # parent's view after preparation so any growth must come from the merge.
    join_before = JOIN_STATS.snapshot()
    columnar_before = sum(COLUMNAR_STATS.snapshot().values())

    outcomes = planner.execute(plan, stop_at_first=False, backend=warm_backend)

    assert outcomes  # the round actually ran attempts
    full_joins, delta_applies = JOIN_STATS.snapshot()
    assert delta_applies > join_before[1], (
        "worker delta-apply counts never reached the parent registry"
    )
    # Workers never perform full joins (the delta-only protocol).
    assert full_joins == join_before[0]
    assert sum(COLUMNAR_STATS.snapshot().values()) > columnar_before, (
        "worker columnar counters (masks/index probes/zone skips) were not merged"
    )


def test_serial_execute_needs_no_merge(
    employee_db, employee_result, employee_candidates
):
    # Control: the serial backend evaluates in-process, so counters move
    # without any shipping. This pins down that the pooled assertion above
    # is exercising the merge path rather than parent-side evaluation.
    planner = RoundPlanner(QFEConfig())
    plan = planner.prepare_round(employee_db, employee_result, employee_candidates)
    before = JOIN_STATS.delta_applies
    planner.execute(plan, stop_at_first=False)
    assert JOIN_STATS.delta_applies > before
