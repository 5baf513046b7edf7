"""Unit tests for Algorithm 2 (the Database Generator): ``RoundPlanner.plan_round``."""

import pytest

from repro.core.alternative_cost import max_partitions_score
from repro.core.config import QFEConfig
from repro.core.round_planner import RoundPlanner
from repro.exceptions import DatabaseGenerationError
from repro.relational.evaluator import evaluate
from repro.relational.predicates import ComparisonOp, DNFPredicate, Term
from repro.relational.query import SPJQuery
from tests.oracles.constraints_reference import modification_is_valid
from tests.oracles.delta_reference import apply_tuple_delta
from tests.oracles.presentation_reference import database_delta_reference


def _modified(database, generation):
    """The generation's ``D'``: *database* plus the winner's recorded delta."""
    return apply_tuple_delta(database, generation.materialization.delta)


class TestDatabaseGenerator:
    def test_generates_distinguishing_database(self, employee_db, employee_result,
                                                employee_candidates):
        generation = RoundPlanner(QFEConfig()).plan_round(
            employee_db, employee_result, employee_candidates
        )
        assert generation.partition.distinguishes
        assert generation.materialization.applied
        assert database_delta_reference(employee_db, _modified(employee_db, generation)).cost >= 1

    def test_generated_database_is_valid(self, employee_db, employee_result, employee_candidates):
        generation = RoundPlanner(QFEConfig()).plan_round(
            employee_db, employee_result, employee_candidates
        )
        assert modification_is_valid(_modified(employee_db, generation))

    def test_partition_covers_all_candidates(self, employee_db, employee_result,
                                              employee_candidates):
        generation = RoundPlanner(QFEConfig()).plan_round(
            employee_db, employee_result, employee_candidates
        )
        total = sum(len(group) for group in generation.partition.groups)
        assert total == len(employee_candidates)

    def test_partition_is_consistent_with_evaluation(self, employee_db, employee_result,
                                                      employee_candidates):
        generation = RoundPlanner(QFEConfig()).plan_round(
            employee_db, employee_result, employee_candidates
        )
        modified = _modified(employee_db, generation)
        for group in generation.partition.groups:
            for query in group.queries:
                assert evaluate(query, modified).bag_equal(group.result)

    def test_timings_recorded(self, employee_db, employee_result, employee_candidates):
        generation = RoundPlanner(QFEConfig()).plan_round(
            employee_db, employee_result, employee_candidates
        )
        assert generation.skyline_seconds >= 0
        assert generation.selection_seconds >= 0
        assert generation.materialize_seconds >= 0
        assert generation.total_seconds == pytest.approx(
            generation.skyline_seconds + generation.selection_seconds
            + generation.materialize_seconds
        )

    def test_single_candidate_rejected(self, employee_db, employee_result, employee_candidates):
        with pytest.raises(DatabaseGenerationError):
            RoundPlanner(QFEConfig()).plan_round(
                employee_db, employee_result, employee_candidates[:1]
            )

    def test_predicate_free_candidates_rejected(self, employee_db, employee_result):
        queries = [
            SPJQuery(["Employee"], ["Employee.name"]),
            SPJQuery(["Employee"], ["Employee.name"], distinct=True),
        ]
        with pytest.raises(DatabaseGenerationError):
            RoundPlanner(QFEConfig()).plan_round(employee_db, employee_result, queries)

    def test_indistinguishable_candidates_raise(self, employee_db, employee_result):
        # Both candidates restrict the primary key, which QFE never modifies.
        queries = [
            SPJQuery(["Employee"], ["Employee.name"],
                     DNFPredicate.from_terms([Term("Employee.Eid", ComparisonOp.GE, 2)])),
            SPJQuery(["Employee"], ["Employee.name"],
                     DNFPredicate.from_terms([Term("Employee.Eid", ComparisonOp.IN, (2, 3, 4))])),
        ]
        with pytest.raises(DatabaseGenerationError):
            RoundPlanner(QFEConfig()).plan_round(employee_db, employee_result, queries)

    def test_alternative_score_generates_more_subsets(self, employee_db, employee_result,
                                                       employee_candidates):
        default_generation = RoundPlanner(QFEConfig()).plan_round(
            employee_db, employee_result, employee_candidates
        )
        alternative_generation = RoundPlanner(
            QFEConfig(), score=max_partitions_score
        ).plan_round(employee_db, employee_result, employee_candidates)
        assert (
            alternative_generation.partition.group_count
            >= default_generation.partition.group_count
        )

    def test_scientific_candidates(self, scientific_db):
        from repro.qbo import QBOConfig, QueryGenerator
        from repro.workloads import scientific_queries

        target = scientific_queries()["Q2"]
        result = evaluate(target, scientific_db, name="R")
        candidates = QueryGenerator(QBOConfig(max_candidates=12)).generate(scientific_db, result)
        generation = RoundPlanner(QFEConfig(delta_seconds=0.3)).plan_round(
            scientific_db, result, candidates
        )
        assert generation.partition.distinguishes
        assert modification_is_valid(_modified(scientific_db, generation))
