"""Differential oracle: the presented Δ(D, D′) against the whole-database diff.

Each round presents ``Δ(D, D′)`` read off the winning attempt's recorded
``TupleDelta``. The reference (:mod:`tests.oracles.presentation_reference`)
finds the modified relations of ``D′`` by bag equality and runs
``min_edit_script`` on each. In every round of full sessions — the paper
workloads and the scenario presets, under a worst-case and a truthful user —
the two must agree on cost, relation count, tuple count and every
``describe()`` line, and the round's ``IterationRecord`` must count exactly
the winner's applied modifications. The light cases run in tier-1; the
heavier ones are marked ``slow``.
"""

from __future__ import annotations

import pytest

from repro.core import session as session_module
from repro.core.config import QFEConfig
from repro.core.feedback import OracleSelector, WorstCaseSelector
from repro.core.session import QFESession
from repro.experiments.runner import prepare_candidates
from repro.relational.delta import TupleDelta, database_delta
from repro.workloads import build_pair
from tests.oracles.delta_reference import apply_tuple_delta
from tests.oracles.presentation_reference import database_delta_reference

_DELTA_OFF = QFEConfig(delta_seconds=1e6)

# (workload, scale, candidate count); None keeps every QBO candidate.
_LIGHT = [
    ("Q2", 1.0, 10),
    ("scenario:mixed@2", 1.0, None),
    ("scenario:mixed@29", 1.0, None),
    ("scenario:star@7", 1.0, None),
]
_HEAVY = [(name, 0.3, None) for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")]

_PAIRS: dict[tuple, tuple] = {}


def _pair(name: str, scale: float, count: int | None):
    """``(D, R, target, candidates)`` of a workload, shared by both users."""
    key = (name, scale, count)
    if key not in _PAIRS:
        database, result, target = build_pair(name, scale)
        candidates, _ = prepare_candidates(database, result, target, candidate_count=count)
        _PAIRS[key] = (database, result, target, candidates)
    return _PAIRS[key]


def _assert_rounds_agree(monkeypatch, name, scale, count, user):
    database, result, target, candidates = _pair(name, scale, count)
    winners = []
    build = session_module.build_feedback_round

    def recording(iteration, original, original_result, materialization, partition):
        winners.append(materialization)
        return build(iteration, original, original_result, materialization, partition)

    monkeypatch.setattr(session_module, "build_feedback_round", recording)
    selector = OracleSelector(target) if user == "oracle" else WorstCaseSelector()
    session = QFESession(database, result, candidates=candidates, config=_DELTA_OFF)
    outcome = session.run(selector)

    assert len(winners) == len(session.last_rounds)
    records = {record.iteration: record for record in outcome.iterations}
    for round_, winner in zip(session.last_rounds, winners):
        context = f"{name}@{scale}/{user} round {round_.iteration}"
        presented = round_.database_delta
        assert round_.database is database and round_.delta is winner.delta, context
        reference = database_delta_reference(database, apply_tuple_delta(database, winner.delta))
        assert presented.cost == reference.cost, context
        assert presented.modified_relation_count == reference.modified_relation_count, context
        assert presented.modified_tuple_count == reference.modified_tuple_count, context
        assert presented.describe() == reference.describe(), context

        applied = winner.applied
        record = records.get(round_.iteration)
        if record is not None:
            assert record.modified_attribute_count == len(applied), context
            assert record.modified_tuple_count == len({(m.table, m.tuple_id) for m in applied})
            assert record.modified_relation_count == len({m.table for m in applied}), context
    return outcome


@pytest.mark.parametrize("user", ["worst-case", "oracle"])
@pytest.mark.parametrize("name, scale, count", _LIGHT)
def test_presented_delta_matches_the_min_edit_diff(monkeypatch, name, scale, count, user):
    outcome = _assert_rounds_agree(monkeypatch, name, scale, count, user)
    assert outcome.iteration_count >= 1


@pytest.mark.slow
@pytest.mark.parametrize("user", ["worst-case", "oracle"])
@pytest.mark.parametrize("name, scale, count", _HEAVY)
def test_presented_delta_matches_the_min_edit_diff_on_paper_workloads(
    monkeypatch, name, scale, count, user
):
    _assert_rounds_agree(monkeypatch, name, scale, count, user)


def test_hand_built_delta_matches_the_min_edit_diff(two_table_db):
    # Two cells of one tuple, plus two tuples in two relations.
    modified = two_table_db.copy()
    recorded = TupleDelta()
    for table, tuple_id, cells in (
        ("Emp", 2, {"salary": 71, "senior": False}),
        ("Emp", 4, {"ename": "Eddie"}),
        ("Dept", 1, {"budget": 81}),
    ):
        relation = modified.relation(table)
        for column, value in cells.items():
            relation.update_value(tuple_id, column, value)
        recorded.record_update(table, tuple_id, relation.tuple_by_id(tuple_id).values)

    presented = database_delta(two_table_db, recorded)
    reference = database_delta_reference(two_table_db, modified)
    assert (presented.cost, presented.modified_relation_count, presented.modified_tuple_count) == (
        4, 2, 3
    )
    assert presented.cost == reference.cost
    assert presented.modified_relation_count == reference.modified_relation_count
    assert presented.modified_tuple_count == reference.modified_tuple_count
    assert presented.describe() == reference.describe()
