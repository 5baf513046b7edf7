"""Tests for the synthetic dataset builders (shape, determinism, planted rows)."""

import pytest

from repro.datasets import adult, baseball, employee, scientific
from repro.datasets.synth import identifier, log_fold_change, p_value, rng_for, scaled_count
from repro.relational.evaluator import evaluate
from repro.relational.join import full_join
from repro.workloads import baseball_queries, scientific_queries
from tests.oracles.constraints_reference import modification_is_valid


class TestSynthHelpers:
    def test_rng_is_deterministic(self):
        assert rng_for("x").random() == rng_for("x").random()
        assert rng_for("x").random() != rng_for("y").random()

    def test_identifier_format(self):
        value = identifier(rng_for("id"), "gene")
        assert value.startswith("gene_") and len(value) == len("gene_") + 6

    def test_p_value_range(self):
        rng = rng_for("p")
        values = [p_value(rng) for _ in range(200)]
        assert all(0 < v <= 1 for v in values)
        assert any(v < 0.05 for v in values)

    def test_log_fold_change_bounded(self):
        rng = rng_for("fc")
        assert all(abs(log_fold_change(rng)) <= 6.0 for _ in range(100))

    def test_scaled_count(self):
        assert scaled_count(100, 0.5) == 50
        assert scaled_count(100, 0.0001) == 1
        assert scaled_count(10, 2.0) == 20


class TestEmployeeDataset:
    def test_example_pair(self):
        database, result, target = employee.example_pair()
        assert len(database.relation("Employee")) == 4
        assert evaluate(target, database).bag_equal(result)
        assert len(employee.candidate_trio()) == 3


class TestScientificDataset:
    def test_schema_shape(self, scientific_db):
        main = scientific_db.relation(scientific.MAIN_TABLE)
        side = scientific_db.relation(scientific.SIDE_TABLE)
        assert main.schema.arity == 16
        assert side.schema.arity == 3

    def test_planted_query_cardinalities(self, scientific_db):
        queries = scientific_queries()
        assert len(evaluate(queries["Q1"], scientific_db)) == 1
        assert len(evaluate(queries["Q2"], scientific_db)) == 6

    def test_join_smaller_than_side_table(self, scientific_db):
        side = scientific_db.relation(scientific.SIDE_TABLE)
        assert len(full_join(scientific_db)) < len(side)

    def test_deterministic(self):
        first = scientific.build_database(0.02)
        second = scientific.build_database(0.02)
        for name in first.table_names:
            assert first.relation(name).bag_equal(second.relation(name))

    def test_scale_changes_background_only(self):
        small = scientific.build_database(0.02)
        large = scientific.build_database(0.05)
        assert large.total_tuples() > small.total_tuples()
        queries = scientific_queries()
        assert len(evaluate(queries["Q2"], small)) == len(evaluate(queries["Q2"], large)) == 6

    def test_constraints_hold(self, scientific_db):
        assert modification_is_valid(scientific_db)

    def test_full_scale_row_counts(self):
        # construct only the row-count arithmetic, not the full database
        assert scientific.FULL_MAIN_ROWS == 3926
        assert scientific.FULL_SIDE_ROWS == 424
        assert scientific.FULL_JOIN_ROWS == 417


class TestBaseballDataset:
    def test_schema_shape(self, baseball_db):
        assert baseball_db.relation(baseball.TEAM_TABLE).schema.arity == 29
        assert baseball_db.relation(baseball.MANAGER_TABLE).schema.arity == 11
        assert baseball_db.relation(baseball.BATTING_TABLE).schema.arity == 15

    def test_planted_query_cardinalities(self, baseball_db):
        queries = baseball_queries()
        expected = {"Q3": 5, "Q4": 14, "Q5": 4, "Q6": 4}
        for name, query in queries.items():
            assert len(evaluate(query, baseball_db)) == expected[name], name

    def test_deterministic(self):
        first = baseball.build_database(0.02)
        second = baseball.build_database(0.02)
        for name in first.table_names:
            assert first.relation(name).bag_equal(second.relation(name))

    def test_constraints_hold(self, baseball_db):
        assert modification_is_valid(baseball_db)

    def test_join_has_manager_fanout(self, baseball_db):
        joined = full_join(baseball_db)
        batting = baseball_db.relation(baseball.BATTING_TABLE)
        fanouts = [joined.fanout_of(baseball.BATTING_TABLE, t.tuple_id) for t in batting.tuples]
        assert max(fanouts) >= 1
        # some batting rows join with two manager stints at larger scales;
        # at tiny scale just require the join to be non-degenerate
        assert sum(fanouts) == len(joined)


class TestAdultDataset:
    def test_schema_shape(self, adult_db):
        assert adult_db.relation(adult.ADULT_TABLE).schema.arity == 15

    def test_user_study_queries_have_small_results(self, adult_db):
        for query in adult.user_study_queries():
            result = evaluate(query, adult_db)
            assert 1 <= len(result) <= 10

    def test_example_pair(self):
        database, result, target = adult.example_pair(0, scale=0.02)
        assert evaluate(target, database).bag_equal(result)

    def test_deterministic(self):
        first = adult.build_database(0.02)
        second = adult.build_database(0.02)
        assert first.relation(adult.ADULT_TABLE).bag_equal(second.relation(adult.ADULT_TABLE))

    def test_planted_counts_stable_across_scales(self):
        queries = adult.user_study_queries()
        small = adult.build_database(0.02)
        larger = adult.build_database(0.06)
        for query in queries:
            assert len(evaluate(query, small)) == len(evaluate(query, larger))
