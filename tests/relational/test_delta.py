"""Unit tests for the recorded TupleDelta and the Δ(D, D′) / Δ(R, R_i) presentations."""

from repro.relational.delta import TupleDelta, database_delta, result_delta
from repro.relational.edit import EditKind
from repro.relational.relation import Relation
from tests.oracles.presentation_reference import database_delta_reference


def _update(database, delta, table, tuple_id, **cells):
    """Change *cells* of one tuple of *database* in place and record it in *delta*."""
    relation = database.relation(table)
    for column, value in cells.items():
        relation.update_value(tuple_id, column, value)
    delta.record_update(table, tuple_id, relation.tuple_by_id(tuple_id).values)


class TestDatabaseDelta:
    def test_no_changes(self, two_table_db):
        delta = database_delta(two_table_db, TupleDelta())
        assert delta.cost == 0
        assert delta.modified_relation_count == 0
        assert delta.describe() == ["(no database changes)"]

    def test_single_modification(self, two_table_db):
        modified, recorded = two_table_db.copy(), TupleDelta()
        _update(modified, recorded, "Emp", 1, salary=77)
        delta = database_delta(two_table_db, recorded)
        assert delta.cost == 1
        assert delta.modified_relation_count == 1
        assert delta.modified_tuple_count == 1
        assert delta.describe() == [
            "Emp: change salary from 55 to 77 in row (2, 'Bo', 2, 55, False)"
        ]

    def test_multi_relation_modification(self, two_table_db):
        modified, recorded = two_table_db.copy(), TupleDelta()
        _update(modified, recorded, "Emp", 0, salary=1)
        _update(modified, recorded, "Dept", 0, budget=2)
        delta = database_delta(two_table_db, recorded)
        assert delta.modified_relation_count == 2
        assert delta.modified_tuple_count == 2
        assert delta.cost == 2
        # relations in the database's table order, not in recording order
        assert [d.relation_name for d in delta.relation_deltas] == ["Dept", "Emp"]

    def test_two_cells_of_one_tuple_and_two_tuples_in_two_relations(self, two_table_db):
        modified, recorded = two_table_db.copy(), TupleDelta()
        _update(modified, recorded, "Emp", 3, salary=99)  # recorded before tuple 0
        _update(modified, recorded, "Emp", 0, senior=False, salary=95)
        _update(modified, recorded, "Dept", 2, budget=61)
        delta = database_delta(two_table_db, recorded)
        assert delta.cost == 4
        assert delta.modified_relation_count == 2
        assert delta.modified_tuple_count == 3
        ann = (1, "Ann", 1, 90, True)
        assert delta.describe() == [
            "Dept: change budget from 60 to 61 in row (3, 'Service', 60)",
            f"Emp: change salary from 90 to 95 in row {ann!r}",
            f"Emp: change senior from True to False in row {ann!r}",
            "Emp: change salary from 40 to 99 in row (4, 'Di', 3, 40, False)",
        ]
        (emp_ann_salary,) = [
            op for op in delta.relation_deltas[1].script.operations
            if op.attribute == "salary" and op.source_row == ann
        ]
        assert emp_ann_salary.kind is EditKind.MODIFY
        assert emp_ann_salary.target_row == (1, "Ann", 1, 95, False)
        # the whole-database minimum-edit diff presents exactly the same
        reference = database_delta_reference(two_table_db, modified)
        assert reference.describe() == delta.describe()
        assert reference.cost == delta.cost

    def test_no_op_updates_are_omitted(self, two_table_db):
        modified, recorded = two_table_db.copy(), TupleDelta()
        _update(modified, recorded, "Dept", 1, budget=80)  # its current value
        delta = database_delta(two_table_db, recorded)
        assert delta.relation_deltas == ()
        assert delta.describe() == ["(no database changes)"]

    def test_equal_rows_changed_differently_count_as_two_tuples(self):
        from repro.relational.database import Database

        base = Database.from_tables({"T": (["a", "b"], [[1, "A"], [1, "A"], [2, "B"]])})
        modified, recorded = base.copy(), TupleDelta()
        _update(modified, recorded, "T", 0, b="Y")
        _update(modified, recorded, "T", 1, b="Z")
        delta = database_delta(base, recorded)
        assert delta.modified_tuple_count == 2
        assert delta.modified_tuple_count == database_delta_reference(base, modified).modified_tuple_count

    def test_pretty_is_multiline_text(self, two_table_db):
        modified, recorded = two_table_db.copy(), TupleDelta()
        _update(modified, recorded, "Emp", 0, salary=1)
        assert "salary" in database_delta(two_table_db, recorded).pretty()


class TestResultDelta:
    def test_unchanged_result(self):
        result = Relation.from_rows("R", ["name"], [["a"], ["b"]])
        delta = result_delta(result, result.copy())
        assert delta.cost == 0
        assert delta.describe() == ["(result unchanged)"]

    def test_added_row(self):
        original = Relation.from_rows("R", ["name"], [["a"]])
        candidate = Relation.from_rows("R", ["name"], [["a"], ["b"]])
        delta = result_delta(original, candidate)
        assert delta.cost == 1
        assert any("insert" in line for line in delta.describe())

    def test_removed_row(self):
        original = Relation.from_rows("R", ["name"], [["a"], ["b"]])
        candidate = Relation.from_rows("R", ["name"], [["a"]])
        delta = result_delta(original, candidate)
        assert delta.cost == 1
        assert any("delete" in line for line in delta.describe())

    def test_modified_wide_row(self):
        original = Relation.from_rows("R", ["x", "y", "z"], [[1, 2, 3]])
        candidate = Relation.from_rows("R", ["x", "y", "z"], [[1, 9, 3]])
        assert result_delta(original, candidate).cost == 1


class TestTupleDelta:
    def test_empty_delta(self):
        delta = TupleDelta()
        assert delta.is_empty
        assert delta.relations == ()

    def test_recording_and_access(self):
        delta = TupleDelta()
        delta.record_update("Emp", 2, (2, "Bo", 2, 58, False))
        delta.record_update("Dept", 0, [1, "IT", 150])
        assert delta.relations == ("Dept", "Emp")
        assert not delta.is_empty
        assert delta.updates_for("Emp") == {2: (2, "Bo", 2, 58, False)}
        assert delta.updates_for("Dept") == {0: (1, "IT", 150)}
        assert delta.updates_for("Nowhere") == {}

    def test_a_later_update_replaces_the_earlier_one(self):
        delta = TupleDelta()
        delta.record_update("T", 3, (7,))
        delta.record_update("T", 3, (8,))
        assert delta.updates_for("T") == {3: (8,)}

    def test_updates_for_returns_a_copy(self):
        delta = TupleDelta()
        delta.record_update("T", 3, (7,))
        delta.updates_for("T").clear()
        assert delta.updates_for("T") == {3: (7,)}
