"""Differential oracle: QBO on the shared join engine against the per-row reference.

``QueryGenerator.generate`` joins every schema through a ``JoinCache`` and
builds atoms, conjunctions and DNF covers from the join's cached term masks.
The reference (:mod:`tests.oracles.qbo_reference`) joins every schema cold
with dict rows, scans columns per (result column, joined column) pair and
selects rows into Python sets. On the paper workloads and the scenario
presets the service uses, both must return the same candidate list — over a
fresh cache and again over the same, now warm, cache — and the columnar join
(its columns and base-tuple id columns) must equal the dict-row join for
every schema QBO enumerates, in both table orders. The light cases run in
tier-1; Q4–Q6 are marked ``slow``.
"""

from __future__ import annotations

import pytest

from repro.exceptions import NoCandidateQueriesError
from repro.experiments.runner import _DEFAULT_QBO
from repro.qbo.config import QBOConfig
from repro.qbo.generator import QueryGenerator
from repro.qbo.join_enumeration import enumerate_join_schemas
from repro.relational.database import Database
from repro.relational.evaluator import JoinCache
from repro.relational.join import foreign_key_join
from repro.relational.relation import Relation
from repro.service.manager import _SERVICE_QBO
from repro.workloads import build_pair
from tests.oracles.qbo_reference import foreign_key_join_reference, generate_reference

# (workload, scale, QBO config): the paper workloads with the experiments'
# config, the scenario presets with the service's.
_LIGHT = [
    ("Q1", 0.3, _DEFAULT_QBO),
    ("Q2", 0.3, _DEFAULT_QBO),
    ("Q3", 0.3, _DEFAULT_QBO),
    ("Q2", 1.0, _DEFAULT_QBO),
    ("scenario:mixed@2", 1.0, _SERVICE_QBO),
    ("scenario:mixed@29", 1.0, _SERVICE_QBO),
    ("scenario:star@7", 1.0, _SERVICE_QBO),
    ("scenario:chain@29", 1.0, _SERVICE_QBO),
    ("scenario:chain@3", 1.0, _SERVICE_QBO),
]
_HEAVY = [(name, 0.3, _DEFAULT_QBO) for name in ("Q4", "Q5", "Q6")]
_CASES = [pytest.param(*case, id=f"{case[0]}@{case[1]}") for case in _LIGHT] + [
    pytest.param(*case, id=f"{case[0]}@{case[1]}", marks=pytest.mark.slow) for case in _HEAVY
]

_PAIRS: dict[tuple, tuple] = {}


def _pair(name: str, scale: float):
    key = (name, scale)
    if key not in _PAIRS:
        _PAIRS[key] = build_pair(name, scale)[:2]
    return _PAIRS[key]


def _big_integer_pair() -> tuple[Database, Relation]:
    """Two values one apart above 2^53: only ``name = 'b'`` reproduces R."""
    big = 2**53
    database = Database.from_tables(
        {"S": (["id", "x", "name"], [[0, big, "a"], [1, big + 1, "b"], [2, 5, "c"]])},
        primary_keys={"S": ["id"]},
    )
    result = Relation.from_rows("R", ["x"], [[big + 1]])
    return database, result


def _candidates(generate, *args, **kwargs):
    """The candidate list, or None when the search space holds no candidate."""
    try:
        return generate(*args, **kwargs)
    except NoCandidateQueriesError:
        return None


def _assert_generation_matches(database, result, config) -> None:
    expected = _candidates(generate_reference, database, result, config)
    cache = JoinCache()
    cold = QueryGenerator(config)
    assert _candidates(cold.generate, database, result, join_cache=cache) == expected
    assert cold.last_report.joins_built > 0
    warm = QueryGenerator(config)
    assert _candidates(warm.generate, database, result, join_cache=cache) == expected
    assert warm.last_report.joins_built == 0


@pytest.mark.parametrize("name, scale, config", _CASES)
def test_generation_matches_the_reference_cold_and_warm(name, scale, config):
    database, result = _pair(name, scale)
    _assert_generation_matches(database, result, config)


def test_generation_matches_the_reference_beyond_2_53():
    database, result = _big_integer_pair()
    _assert_generation_matches(database, result, QBOConfig())


def _layout(joined) -> tuple:
    """Everything the engine's join exposes: schema, typed cells by column, id columns."""
    view = joined.columnar()
    return (
        joined.schema.attributes,
        joined.tables,
        joined.foreign_keys,
        [[(type(v), v) for v in view.column(name)] for name in view.names],
        list(joined.tuple_ids.items()),
    )


def _reference_layout(reference) -> tuple:
    """The same of the dict-row join, its provenance transposed into id columns."""
    relation = reference.relation
    names = relation.schema.attribute_names
    return (
        relation.schema.attributes,
        reference.tables,
        reference.foreign_keys,
        [[(type(v), v) for v in relation.column(name)] for name in names],
        [(t, tuple(ids[t] for ids in reference.provenance)) for t in reference.tables],
    )


@pytest.mark.parametrize("name, scale, config", _CASES)
def test_columnar_join_equals_the_dict_row_join(name, scale, config):
    database, _ = _pair(name, scale)
    schemas = enumerate_join_schemas(database.schema, config)
    assert schemas
    for tables in schemas:
        for order in (list(tables), list(reversed(tables))):
            assert _layout(foreign_key_join(database, order)) == _reference_layout(
                foreign_key_join_reference(database, order)
            ), (name, order)
