"""Unit tests for materializing class pairs into the delta of a modified database."""

import math

import pytest

from repro.core import materialize
from repro.core.config import QFEConfig
from repro.core.materialize import materialize_pairs
from repro.core.modification import ClassPair
from repro.core.skyline import skyline_stc_dtc_pairs
from repro.core.tuple_class import TupleClassSpace
from repro.relational.delta import database_delta
from repro.relational.join import full_join
from repro.relational.predicates import ComparisonOp, DNFPredicate, Term
from repro.relational.query import SPJQuery
from tests.columns import joined_dicts
from tests.oracles.constraints_reference import modification_is_valid
from tests.oracles.delta_reference import apply_tuple_delta
from tests.oracles.evaluator_reference import evaluate_row_reference
from tests.oracles.presentation_reference import database_delta_reference


@pytest.fixture()
def employee_space(employee_db, employee_candidates):
    return TupleClassSpace(full_join(employee_db), employee_candidates)


def _skyline_pairs(space):
    return skyline_stc_dtc_pairs(space, QFEConfig(), result_arity=1).pairs


class TestMaterialization:
    def test_original_database_untouched(self, employee_db, employee_space):
        pairs = _skyline_pairs(employee_space)[:1]
        before = [tuple(row.values) for row in employee_db.relation("Employee").tuples]
        materialize_pairs(employee_space, pairs, employee_db, QFEConfig())
        after = [tuple(row.values) for row in employee_db.relation("Employee").tuples]
        assert before == after

    def test_modified_database_differs(self, employee_db, employee_space):
        pairs = _skyline_pairs(employee_space)[:1]
        result = materialize_pairs(employee_space, pairs, employee_db, QFEConfig())
        assert result.applied
        modified = apply_tuple_delta(employee_db, result.delta)
        assert database_delta_reference(employee_db, modified).cost >= 1

    def test_applied_modifications_match_pair_edit_cost(self, employee_db, employee_space):
        pairs = _skyline_pairs(employee_space)[:1]
        result = materialize_pairs(employee_space, pairs, employee_db, QFEConfig())
        assert len(result.applied) == pairs[0].edit_cost
        assert result.delta.relations == ("Employee",)
        assert len(result.delta.updates_for("Employee")) == 1
        presented = database_delta(employee_db, result.delta)
        assert presented.cost == len(result.applied)
        assert presented.modified_tuple_count == presented.modified_relation_count == 1

    def test_modified_row_moves_to_destination_class(self, employee_db, employee_space):
        pairs = _skyline_pairs(employee_space)[:1]
        result = materialize_pairs(employee_space, pairs, employee_db, QFEConfig())
        modification = result.applied[0]
        modified = apply_tuple_delta(employee_db, result.delta)
        new_space = TupleClassSpace(full_join(modified), list(employee_space.queries))
        # the joined row built from the modified base tuple must now evaluate
        # each query the same way the destination class does
        joined = new_space.joined
        positions = joined.joined_positions_of(modification.table, modification.tuple_id)
        assert positions
        for query_index in range(len(employee_space.queries)):
            expected = employee_space.matches(query_index, pairs[0].destination)
            row = joined_dicts(joined)[positions[0]]
            predicate = employee_space.queries[query_index].predicate
            assert evaluate_row_reference(predicate, row) == expected

    def test_constraints_preserved(self, employee_db, employee_space):
        pairs = _skyline_pairs(employee_space)[:3]
        result = materialize_pairs(employee_space, pairs, employee_db, QFEConfig())
        assert modification_is_valid(apply_tuple_delta(employee_db, result.delta))

    def test_protected_key_columns_skipped(self, employee_db):
        # a candidate set whose only selection attribute is the primary key
        queries = [
            SPJQuery(["Employee"], ["Employee.name"],
                     DNFPredicate.from_terms([Term("Employee.Eid", ComparisonOp.LE, 2)])),
            SPJQuery(["Employee"], ["Employee.name"],
                     DNFPredicate.from_terms([Term("Employee.Eid", ComparisonOp.IN, (1, 2))])),
        ]
        space = TupleClassSpace(full_join(employee_db), queries)
        pairs = [
            ClassPair(source, destination)
            for source in space.source_tuple_classes()
            for destination in space.destination_classes(source, 1)
        ][:2]
        result = materialize_pairs(space, pairs, employee_db, QFEConfig())
        assert not result.applied
        assert len(result.skipped_pairs) == len(pairs)
        assert result.delta.is_empty

    def test_a_value_that_does_not_fit_its_column_skips_the_row(
        self, employee_db, employee_space, monkeypatch
    ):
        pairs = _skyline_pairs(employee_space)[:1]
        expected = materialize_pairs(employee_space, pairs, employee_db, QFEConfig())
        (first,) = expected.applied
        real = materialize._destination_values
        calls: list = []

        def misfit_first(*args, **kwargs):
            calls.append(1)
            values = real(*args, **kwargs)
            return [math.nan] if len(calls) == 1 else values  # NaN fits no column

        monkeypatch.setattr(materialize, "_destination_values", misfit_first)
        result = materialize_pairs(employee_space, pairs, employee_db, QFEConfig())
        # The first row's value cannot be stored in its column, so that row
        # is skipped and the next candidate row realizes the pair.
        (applied,) = result.applied
        assert (applied.table, applied.column) == (first.table, first.column)
        assert applied.tuple_id != first.tuple_id
        assert list(result.delta.updates_for(applied.table)) == [applied.tuple_id]
        assert not result.skipped_pairs

    def test_the_delta_holds_the_coerced_value(self, employee_db, employee_space, monkeypatch):
        pairs = [
            pair
            for pair in _skyline_pairs(employee_space)
            if employee_space.changed_attributes(pair.source, pair.destination)
            == ("Employee.salary",)
        ][:1]
        assert pairs
        real = materialize._destination_values
        monkeypatch.setattr(
            materialize,
            "_destination_values",
            lambda *args, **kwargs: [float(value) for value in real(*args, **kwargs)],
        )
        result = materialize_pairs(employee_space, pairs, employee_db, QFEConfig())
        (applied,) = result.applied
        assert applied.column == "salary" and isinstance(applied.new_value, float)
        relation = employee_db.relation(applied.table)
        stored = result.delta.updates_for(applied.table)[applied.tuple_id]
        cell = stored[relation.schema.index_of(applied.column)]
        # The modification keeps the chosen value; the recorded row holds it
        # as the INTEGER column stores it.
        assert cell == applied.new_value and type(cell) is int

    def test_side_effect_preference(self, baseball_db):
        # Team attributes fan out to many joined rows through Batting; the
        # materializer prefers base tuples with fanout 1 when possible, and
        # records side effects when not.
        queries = [
            SPJQuery(["Manager", "Team", "Batting"], ["Manager.managerID"],
                     DNFPredicate.from_terms([Term("Batting.HR", ComparisonOp.GT, 20)])),
            SPJQuery(["Manager", "Team", "Batting"], ["Manager.managerID"],
                     DNFPredicate.from_terms([Term("Batting.AB", ComparisonOp.GT, 300)])),
        ]
        space = TupleClassSpace(full_join(baseball_db), queries)
        pairs = _skyline_pairs(space)[:1]
        result = materialize_pairs(space, pairs, baseball_db, QFEConfig())
        assert result.applied
        assert not any(m.has_side_effects for m in result.applied)
