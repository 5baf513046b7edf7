"""Unit and integration tests for the QBO-style query generator."""

import pytest

from repro.core.config import QFEConfig
from repro.core.session import QFESession
from repro.exceptions import NoCandidateQueriesError
from repro.experiments.runner import prepare_candidates
from repro.obs.trace import Tracer, set_tracer
from repro.qbo.config import QBOConfig
from repro.qbo.generator import QueryGenerator
from repro.relational.database import Database
from repro.relational.evaluator import JoinCache, evaluate
from repro.relational.join import JOIN_STATS
from repro.relational.relation import Relation
from repro.workloads import build_pair


class TestGeneratorOnEmployee:
    def test_all_candidates_reproduce_result(self, employee_db, employee_result):
        generator = QueryGenerator(QBOConfig(threshold_variants=2))
        candidates = generator.generate(employee_db, employee_result)
        assert candidates
        for query in candidates:
            assert evaluate(query, employee_db).bag_equal(employee_result)

    def test_paper_candidates_are_found(self, employee_db, employee_result, employee_candidates):
        generator = QueryGenerator(QBOConfig(threshold_variants=3))
        found = generator.generate(employee_db, employee_result)
        # gender = 'M' and dept = 'IT' must be among the generated candidates;
        # salary > 4000 is represented by an equivalent-on-D threshold variant.
        predicates = {str(q.predicate) for q in found}
        assert any("gender" in p for p in predicates)
        assert any("dept" in p for p in predicates)
        assert any("salary" in p for p in predicates)

    def test_candidates_are_unique(self, employee_db, employee_result):
        generator = QueryGenerator(QBOConfig(threshold_variants=3))
        candidates = generator.generate(employee_db, employee_result)
        assert len({q.canonical_key() for q in candidates}) == len(candidates)

    def test_deterministic_output(self, employee_db, employee_result):
        first = QueryGenerator(QBOConfig()).generate(employee_db, employee_result)
        second = QueryGenerator(QBOConfig()).generate(employee_db, employee_result)
        assert [str(q) for q in first] == [str(q) for q in second]

    def test_max_candidates_cap(self, employee_db, employee_result):
        generator = QueryGenerator(QBOConfig(threshold_variants=3, max_candidates=3))
        assert len(generator.generate(employee_db, employee_result)) <= 3

    def test_report_populated(self, employee_db, employee_result):
        generator = QueryGenerator(QBOConfig())
        generator.generate(employee_db, employee_result)
        report = generator.last_report
        assert report is not None
        assert report.candidate_count > 0
        assert report.join_schemas_tried >= 1

    def test_impossible_result_raises(self, employee_db):
        impossible = Relation.from_rows("R", ["Employee.name"], [["Nobody"]])
        with pytest.raises(NoCandidateQueriesError):
            QueryGenerator(QBOConfig()).generate(employee_db, impossible)

    def test_key_columns_excluded_by_default(self, employee_db, employee_result):
        candidates = QueryGenerator(QBOConfig(threshold_variants=2)).generate(
            employee_db, employee_result
        )
        assert not any(
            "Employee.Eid" in query.selection_attributes() for query in candidates
        )
        with_keys = QueryGenerator(
            QBOConfig(threshold_variants=2, exclude_key_columns=False)
        ).generate(employee_db, employee_result)
        assert any("Employee.Eid" in query.selection_attributes() for query in with_keys)


class TestGeneratorOnJoins:
    def test_join_candidates(self, two_table_db):
        result = Relation.from_rows("R", ["ename", "dname"], [["Ann", "IT"], ["Cy", "IT"]])
        candidates = QueryGenerator(QBOConfig()).generate(two_table_db, result)
        assert candidates
        for query in candidates:
            assert set(query.tables) == {"Emp", "Dept"}
            assert evaluate(query, two_table_db).bag_equal(result)

    def test_trivial_result_includes_unselective_query(self, two_table_db):
        result = Relation.from_rows(
            "R", ["dname"], [["IT"], ["Sales"], ["Service"]]
        )
        candidates = QueryGenerator(QBOConfig()).generate(two_table_db, result)
        assert any(query.predicate.is_true for query in candidates)

    def test_set_semantics_generation(self, two_table_db):
        result = Relation.from_rows("R", ["dname"], [["IT"]])
        candidates = QueryGenerator(QBOConfig()).generate(
            two_table_db, result, set_semantics=True
        )
        assert candidates
        for query in candidates:
            produced = evaluate(query, two_table_db)
            assert produced.set_equal(result)


class TestExactValues:
    def test_integers_beyond_2_53_stay_distinct(self):
        # x = 2^53 and x = 2^53 + 1 share one float: grouped by float they
        # made every row ambiguous, and no candidate survived; rounded into
        # atoms they named 2^53 and selected the wrong row.
        big = 2**53
        database = Database.from_tables(
            {"S": (["id", "x", "name"], [[0, big, "a"], [1, big + 1, "b"], [2, 5, "c"]])},
            primary_keys={"S": ["id"]},
        )
        result = Relation.from_rows("R", ["x"], [[big + 1]])
        candidates = QueryGenerator(QBOConfig()).generate(database, result)
        assert [str(query.predicate) for query in candidates] == [
            "S.name = 'b'",
            f"S.x = {big + 1}",
            f"S.x >= {big + 1}",
        ]
        for candidate in candidates:
            assert evaluate(candidate, database).bag_equal(result)


class TestSharedJoinCache:
    def test_a_repeat_generate_over_one_cache_builds_no_join(self, two_table_db):
        result = Relation.from_rows("R", ["ename", "dname"], [["Ann", "IT"], ["Cy", "IT"]])
        cache = JoinCache()
        cold = QueryGenerator(QBOConfig())
        first = cold.generate(two_table_db, result, join_cache=cache)
        assert cold.last_report.joins_built == cold.last_report.join_schemas_tried == 3
        warm = QueryGenerator(QBOConfig())
        assert warm.generate(two_table_db, result, join_cache=cache) == first
        assert warm.last_report.joins_built == 0

    def test_a_session_joins_each_schema_once_through_its_first_round(self):
        database, result, _ = build_pair("Q2", 1.0)
        before = JOIN_STATS.full_joins
        session = QFESession(database, result, config=QFEConfig(delta_seconds=1e6))
        assert session.propose() is not None
        # QBO joins Q2's three schemas; the planner reuses the two-table one.
        assert JOIN_STATS.full_joins - before == 3

    def test_both_generate_spans_carry_the_join_counts(
        self, employee_db, employee_result, employee_candidates
    ):
        spans: list = []
        previous = set_tracer(Tracer(spans))
        try:
            session = QFESession(employee_db, employee_result, qbo_config=QBOConfig())
            session.propose()
            candidates, _ = prepare_candidates(
                employee_db,
                employee_result,
                employee_candidates[0],
                join_cache=session.join_cache,
            )
        finally:
            set_tracer(previous)
        in_session, in_runner = [span["attrs"] for span in spans if span["name"] == "qbo.generate"]
        assert set(in_session) == set(in_runner) == {"join_schemas", "joins_built", "candidates"}
        assert in_session["joins_built"] == in_session["join_schemas"] > 0
        assert in_session["candidates"] == session.outcome.initial_candidate_count
        assert in_runner["joins_built"] == 0  # the session's cache is warm
        assert in_runner["candidates"] == len(candidates)


class TestGeneratorOnWorkloads:
    def test_scientific_q2_candidates(self, scientific_db):
        from repro.workloads import scientific_queries

        target = scientific_queries()["Q2"]
        result = evaluate(target, scientific_db, name="R")
        generator = QueryGenerator(QBOConfig(threshold_variants=2, max_candidates=25))
        candidates = generator.generate(scientific_db, result)
        assert len(candidates) >= 5
        for query in candidates[:10]:
            assert evaluate(query, scientific_db).bag_equal(result)
