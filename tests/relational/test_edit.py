"""Unit tests for the Section 3 edit model (minEdit and edit scripts)."""

import pytest

from repro.relational.edit import (
    EditKind,
    min_edit_relation,
    min_edit_script,
    tuple_distance,
)
from repro.relational.relation import Relation


def _rel(rows, columns=("a", "b", "c")):
    return Relation.from_rows("T", list(columns), rows)


class TestTupleDistance:
    def test_identical_rows(self):
        assert tuple_distance((1, 2, 3), (1, 2, 3)) == 0

    def test_counts_differences(self):
        assert tuple_distance((1, 2, 3), (1, 9, 9)) == 2

    def test_int_float_equivalence(self):
        assert tuple_distance((1, 2.0), (1.0, 2)) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            tuple_distance((1,), (1, 2))


class TestMinEditRelation:
    def test_identical_relations_cost_zero(self):
        left = _rel([[1, 2, 3], [4, 5, 6]])
        assert min_edit_relation(left, left.copy()) == 0

    def test_single_value_modification_costs_one(self):
        source = _rel([[1, 2, 3], [4, 5, 6]])
        target = _rel([[1, 2, 3], [4, 9, 6]])
        assert min_edit_relation(source, target) == 1

    def test_insert_costs_arity(self):
        source = _rel([[1, 2, 3]])
        target = _rel([[1, 2, 3], [4, 5, 6]])
        assert min_edit_relation(source, target) == 3

    def test_delete_costs_arity(self):
        source = _rel([[1, 2, 3], [4, 5, 6]])
        target = _rel([[1, 2, 3]])
        assert min_edit_relation(source, target) == 3

    def test_prefers_modification_over_delete_insert(self):
        source = _rel([[1, 2, 3]])
        target = _rel([[1, 2, 9]])
        assert min_edit_relation(source, target) == 1

    def test_prefers_delete_insert_when_nothing_matches(self):
        source = _rel([[1]], columns=("a",))
        target = _rel([[9]], columns=("a",))
        # one-column relations: modify (cost 1) beats delete+insert (cost 2)
        assert min_edit_relation(source, target) == 1

    def test_symmetric_cost(self):
        source = _rel([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        target = _rel([[1, 2, 0], [4, 5, 6]])
        assert min_edit_relation(source, target) == min_edit_relation(target, source)

    def test_duplicate_rows_handled(self):
        source = _rel([[1, 2, 3], [1, 2, 3]])
        target = _rel([[1, 2, 3], [1, 2, 4]])
        assert min_edit_relation(source, target) == 1

    def test_assignment_finds_optimal_matching(self):
        # Greedy nearest-row matching would pair the first rows badly; the
        # Hungarian assignment must find the cost-2 solution.
        source = _rel([[1, 1, 1], [5, 5, 5]])
        target = _rel([[5, 5, 6], [1, 1, 2]])
        assert min_edit_relation(source, target) == 2

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            min_edit_script(_rel([[1, 2, 3]]), _rel([[1]], columns=("a",)))

    def test_empty_relations(self):
        assert min_edit_relation(_rel([]), _rel([])) == 0
        assert min_edit_relation(_rel([]), _rel([[1, 2, 3]])) == 3


class TestEditScript:
    def test_script_operations_describe_changes(self):
        source = _rel([[1, 2, 3], [4, 5, 6]])
        target = _rel([[1, 2, 9], [7, 8, 9]])
        script = min_edit_script(source, target)
        assert script.cost == min_edit_relation(source, target)
        assert any(op.kind is EditKind.MODIFY for op in script.operations)
        assert all(isinstance(line, str) and line for line in script.describe())

    def test_modification_count(self):
        source = _rel([[1, 2, 3]])
        target = _rel([[9, 2, 9]])
        script = min_edit_script(source, target)
        assert script.modification_count == 2
        assert len(script) == 2

    def test_script_cost_matches_min_edit(self):
        source = _rel([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        target = _rel([[1, 2, 3], [4, 0, 0]])
        assert min_edit_script(source, target).cost == min_edit_relation(source, target)
