"""Unit tests for joined-row labeling against an example result."""

from repro.qbo.labeling import label_rows
from repro.relational.join import full_join
from repro.relational.relation import Relation


def _labeling(db, result_rows, columns, *, set_semantics=False):
    joined = full_join(db)
    positions = [joined.schema.index_of(c) for c in columns]
    result = Relation.from_rows("R", list(columns), result_rows)
    return joined, label_rows(joined, positions, result, set_semantics=set_semantics)


class TestLabeling:
    def test_simple_positive_negative_split(self, two_table_db):
        joined, labeling = _labeling(two_table_db, [["Ann"], ["Cy"]], ["Emp.ename"])
        assert labeling.feasible
        assert len(labeling.positive_rows) == 2
        assert len(labeling.negative_rows) == 3
        assert not labeling.has_ambiguity

    def test_infeasible_when_value_missing(self, two_table_db):
        _, labeling = _labeling(two_table_db, [["Nobody"]], ["Emp.ename"])
        assert not labeling.feasible

    def test_infeasible_when_multiplicity_exceeds_bag(self, two_table_db):
        _, labeling = _labeling(two_table_db, [["Ann"], ["Ann"]], ["Emp.ename"])
        assert not labeling.feasible

    def test_set_semantics_allows_duplicates_collapse(self, two_table_db):
        _, labeling = _labeling(
            two_table_db, [["IT"]], ["Dept.dname"], set_semantics=True
        )
        assert labeling.feasible
        assert len(labeling.positive_rows) == 2  # both IT employees' joined rows

    def test_ambiguous_group_detected(self, two_table_db):
        # Dept.dname of joined rows: IT appears twice; asking for exactly one
        # IT row under bag semantics leaves the group ambiguous.
        _, labeling = _labeling(two_table_db, [["IT"]], ["Dept.dname"])
        assert labeling.feasible
        assert labeling.has_ambiguity
        assert len(labeling.ambiguous_rows) == 2

    def test_trivially_all(self, two_table_db):
        joined, labeling = _labeling(
            two_table_db,
            [["Ann"], ["Bo"], ["Cy"], ["Di"], ["Ed"]],
            ["Emp.ename"],
        )
        assert labeling.is_trivially_all

    def test_multi_column_projection(self, two_table_db):
        _, labeling = _labeling(
            two_table_db, [["Ann", "IT"]], ["Emp.ename", "Dept.dname"]
        )
        assert labeling.feasible
        assert len(labeling.positive_rows) == 1
        assert len(labeling.negative_rows) == 4
