"""Shared fixtures: small instances of every dataset plus common query objects.

Dataset builds are session-scoped (they are deterministic and read-only in
tests that only evaluate queries); tests that mutate a database always copy it
first, which is also how the library itself treats user databases.
"""

from __future__ import annotations

import pytest

from repro.core.materialize import MaterializationResult
from repro.datasets import adult, baseball, employee, scientific
from repro.obs.registry import reset_all_stats as _reset_registry
from repro.relational.database import Database
from repro.relational.evaluator import evaluate
from repro.relational.predicates import ComparisonOp, DNFPredicate, Term
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.relational.schema import ForeignKey

#: Tiny scale used by most dataset-backed tests (keeps the suite fast).
TINY_SCALE = 0.03


@pytest.fixture(autouse=True)
def reset_all_stats():
    """Zero the metrics registry before every test.

    The legacy stats objects (``JOIN_STATS``, ``COLUMNAR_STATS``,
    ``PLAN_MEMO_STATS``) are process-wide registry counters; without this,
    their values leak across tests and every guard has to diff before/after
    by hand. Resetting *before* the test (not after) also means a test can
    still inspect counters post-mortem in ``--pdb`` sessions.
    """
    _reset_registry()
    yield


@pytest.fixture(scope="session")
def employee_db() -> Database:
    return employee.build_database()


@pytest.fixture(scope="session")
def employee_result() -> Relation:
    return employee.result_for()


@pytest.fixture(scope="session")
def employee_candidates() -> list[SPJQuery]:
    return employee.candidate_trio()


@pytest.fixture()
def bob_below_4000(employee_db) -> MaterializationResult:
    """Example 1.1's D with Bob's salary lowered to 3900, as a round records it:
    the one-tuple update over the unchanged base."""
    employees = employee_db.relation("Employee")
    row = list(employees.tuple_by_id(1).values)
    row[employees.schema.index_of("salary")] = 3900
    materialization = MaterializationResult()
    materialization.delta.record_update("Employee", 1, row)
    return materialization


@pytest.fixture(scope="session")
def scientific_db() -> Database:
    return scientific.build_database(TINY_SCALE)


@pytest.fixture(scope="session")
def baseball_db() -> Database:
    return baseball.build_database(TINY_SCALE)


@pytest.fixture(scope="session")
def adult_db() -> Database:
    return adult.build_database(TINY_SCALE)


@pytest.fixture(scope="session")
def two_table_db() -> Database:
    """A small two-table database with a foreign key, used across unit tests."""
    return Database.from_tables(
        {
            "Dept": (["did", "dname", "budget"], [
                [1, "IT", 100],
                [2, "Sales", 80],
                [3, "Service", 60],
            ]),
            "Emp": (["eid", "ename", "did", "salary", "senior"], [
                [1, "Ann", 1, 90, True],
                [2, "Bo", 2, 55, False],
                [3, "Cy", 1, 70, True],
                [4, "Di", 3, 40, False],
                [5, "Ed", 2, 65, None],
            ]),
        },
        foreign_keys=[ForeignKey("Emp", ("did",), "Dept", ("did",))],
        primary_keys={"Dept": ["did"], "Emp": ["eid"]},
    )


@pytest.fixture(scope="session")
def chain_db() -> Database:
    """A three-table chain ``Match → Player → Team`` with fan-out and dangling rows.

    Player 1 plays two matches, players 2 and 4 none, and match 4 has a NULL
    player, so the full join holds three rows.
    """
    return Database.from_tables(
        {
            "Team": (["tid", "city"], [[1, "Oslo"], [2, "Lima"], [3, "Pune"]]),
            "Player": (["pid", "tid", "rating"], [
                [1, 1, 7.5],
                [2, 1, 6.0],
                [3, 2, 8.5],
                [4, 3, 5.0],
            ]),
            "Match": (["mid", "pid", "score"], [[1, 1, 3], [2, 1, 1], [3, 3, 2], [4, None, 0]]),
        },
        foreign_keys=[
            ForeignKey("Player", ("tid",), "Team", ("tid",)),
            ForeignKey("Match", ("pid",), "Player", ("pid",)),
        ],
        primary_keys={"Team": ["tid"], "Player": ["pid"], "Match": ["mid"]},
    )


@pytest.fixture()
def salary_query() -> SPJQuery:
    """``SELECT Emp.ename FROM Emp WHERE Emp.salary > 60`` (single table)."""
    return SPJQuery(
        ["Emp"],
        ["Emp.ename"],
        DNFPredicate.from_terms([Term("Emp.salary", ComparisonOp.GT, 60)]),
    )


@pytest.fixture()
def join_query() -> SPJQuery:
    """A two-table SPJ query over the ``two_table_db`` fixture."""
    return SPJQuery(
        ["Emp", "Dept"],
        ["Emp.ename", "Dept.dname"],
        DNFPredicate.from_terms([Term("Dept.budget", ComparisonOp.GE, 80)]),
    )


@pytest.fixture()
def evaluated(two_table_db, join_query) -> Relation:
    return evaluate(join_query, two_table_db)
