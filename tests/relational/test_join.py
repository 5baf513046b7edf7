"""Unit tests for foreign-key joins, base-tuple ids and join indexes."""

import sys
import threading

import pytest

from repro.exceptions import SchemaError
from repro.relational.database import Database
from repro.relational.evaluator import evaluate_on_join
from repro.relational.join import JOIN_STATS, foreign_key_join, full_join
from repro.relational.query import SPJQuery
from repro.relational.schema import ForeignKey, qualify
from tests.columns import joined_dicts


class TestForeignKeyJoin:
    def test_single_table_join_is_trivial(self, two_table_db):
        joined = foreign_key_join(two_table_db, ["Dept"])
        assert len(joined) == 3
        assert joined.attribute_names == ("Dept.did", "Dept.dname", "Dept.budget")

    def test_two_table_join_size_and_columns(self, two_table_db):
        joined = foreign_key_join(two_table_db, ["Emp", "Dept"])
        assert len(joined) == 5  # every Emp row has a matching Dept
        assert "Emp.ename" in joined.attribute_names
        assert "Dept.dname" in joined.attribute_names

    def test_join_values_line_up(self, two_table_db):
        joined = foreign_key_join(two_table_db, ["Emp", "Dept"])
        for row in joined_dicts(joined):
            assert row["Emp.did"] == row["Dept.did"]

    def test_empty_table_list_rejected(self, two_table_db):
        with pytest.raises(SchemaError):
            foreign_key_join(two_table_db, [])

    def test_unconnected_tables_rejected(self):
        database = Database.from_tables(
            {"A": (["x"], [[1]]), "B": (["y"], [[2]])},
        )
        with pytest.raises(SchemaError):
            foreign_key_join(database, ["A", "B"])

    def test_unknown_table_rejected(self, two_table_db):
        with pytest.raises(SchemaError):
            foreign_key_join(two_table_db, ["Emp", "Nope"])

    def test_full_join(self, two_table_db):
        assert len(full_join(two_table_db)) == 5

    def test_null_foreign_keys_drop_out(self):
        database = Database.from_tables(
            {
                "Parent": (["pid"], [[1], [2]]),
                "Child": (["cid", "pid"], [[1, 1], [2, None], [3, 2]]),
            },
            foreign_keys=[ForeignKey("Child", ("pid",), "Parent", ("pid",))],
            primary_keys={"Parent": ["pid"], "Child": ["cid"]},
        )
        assert len(full_join(database)) == 2

    def test_join_keys_compare_exactly_beyond_2_53(self):
        big = 2**53
        database = Database.from_tables(
            {
                "P": (["id", "name"], [[big, "a"]]),
                "C": (["cid", "pid"], [[1, big + 1], [2, big]]),
            },
            foreign_keys=[ForeignKey("C", ("pid",), "P", ("id",))],
            primary_keys={"P": ["id"], "C": ["cid"]},
        )
        joined = foreign_key_join(database, ["C", "P"])
        # 2^53 + 1 must not pair with 2^53, which a float() round-trip equates.
        assert [row["C.cid"] for row in joined_dicts(joined)] == [2]


class TestProvenanceAndJoinIndex:
    def test_provenance_maps_to_base_tuples(self, two_table_db):
        joined = foreign_key_join(two_table_db, ["Emp", "Dept"])
        for position in range(len(joined)):
            emp_id = joined.base_tuple_of(position, "Emp")
            dept_id = joined.base_tuple_of(position, "Dept")
            emp_row = two_table_db.relation("Emp").tuple_by_id(emp_id)
            dept_row = two_table_db.relation("Dept").tuple_by_id(dept_id)
            assert emp_row.values[2] == dept_row.values[0]

    def test_base_tuple_of_unknown_table(self, two_table_db):
        joined = foreign_key_join(two_table_db, ["Emp", "Dept"])
        with pytest.raises(SchemaError):
            joined.base_tuple_of(0, "Nope")

    def test_fanout_counts_children(self, two_table_db):
        joined = foreign_key_join(two_table_db, ["Emp", "Dept"])
        # Dept 1 (IT) has two employees, Dept 3 has one.
        dept = two_table_db.relation("Dept")
        it_id = next(t.tuple_id for t in dept.tuples if t.values[1] == "IT")
        service_id = next(t.tuple_id for t in dept.tuples if t.values[1] == "Service")
        assert joined.fanout_of("Dept", it_id) == 2
        assert joined.fanout_of("Dept", service_id) == 1
        assert joined.fanout_of("Dept", 999) == 0

    def test_joined_positions_consistent_with_fanout(self, two_table_db):
        joined = foreign_key_join(two_table_db, ["Emp", "Dept"])
        for table in ("Emp", "Dept"):
            for row in two_table_db.relation(table).tuples:
                positions = joined.joined_positions_of(table, row.tuple_id)
                assert len(positions) == joined.fanout_of(table, row.tuple_id)

    def test_id_columns_line_up_with_each_tables_columns(self, two_table_db):
        joined = foreign_key_join(two_table_db, ["Emp", "Dept"])
        _assert_id_columns_line_up(joined, two_table_db)

    def test_declared_order_permutes_columns_and_id_columns_together(self, chain_db):
        # Match attaches last (through Player), but is declared second.
        joined = foreign_key_join(chain_db, ["Team", "Match", "Player"])
        assert joined.tables == ("Team", "Match", "Player")
        assert tuple(joined.tuple_ids) == joined.tables
        assert joined.attribute_names[2:5] == ("Match.mid", "Match.pid", "Match.score")
        assert len(joined) == 3
        _assert_id_columns_line_up(joined, chain_db)

    def test_join_without_matches_keeps_its_columns_and_id_columns(self):
        database = Database.from_tables(
            {
                "Parent": (["pid"], [[1], [2]]),
                "Child": (["cid", "pid"], [[1, None], [2, None]]),
            },
            foreign_keys=[ForeignKey("Child", ("pid",), "Parent", ("pid",))],
            primary_keys={"Parent": ["pid"], "Child": ["cid"]},
        )
        joined = full_join(database)
        assert len(joined) == 0
        view = joined.columnar()
        assert view.names == joined.attribute_names == ("Parent.pid", "Child.cid", "Child.pid")
        assert [view.column(name) for name in view.names] == [(), (), ()]
        assert joined.tuple_ids == {"Parent": (), "Child": ()}
        assert joined.fanout_of("Parent", 0) == 0
        query = SPJQuery(["Child"], ["Child.cid"])
        assert len(evaluate_on_join(query, joined, database)) == 0


def _assert_id_columns_line_up(joined, database):
    """Row *i* of each table's columns is the base tuple ``tuple_ids[table][i]``."""
    view = joined.columnar()
    for table in joined.tables:
        relation = database.relation(table)
        ids = joined.tuple_ids[table]
        assert len(ids) == len(joined)
        columns = [view.column(qualify(table, name)) for name in relation.schema.attribute_names]
        for position, tuple_id in enumerate(ids):
            cells = tuple(column[position] for column in columns)
            assert cells == relation.tuple_by_id(tuple_id).values, (table, position)
            assert joined.base_tuple_of(position, table) == tuple_id


class TestDatasetJoins:
    def test_scientific_join_smaller_than_side_table(self, scientific_db):
        from repro.datasets import scientific

        joined = full_join(scientific_db)
        assert 0 < len(joined) < len(scientific_db.relation(scientific.SIDE_TABLE))

    def test_baseball_three_way_join_has_fanout(self, baseball_db):
        joined = full_join(baseball_db)
        batting_rows = len(baseball_db.relation("Batting"))
        # some team-seasons have two managers, so the join exceeds Batting,
        # but it never doubles it
        assert len(joined) >= batting_rows * 0.5
        assert len(joined) <= batting_rows * 2


class TestJoinCounters:
    def test_full_joins_counted_exactly_under_threads(self):
        # Rounds of different pairs join in different threads; a read-then-set
        # increment loses counts when a thread switch lands in between.
        database = Database.from_tables({"T": (["id"], [[1]])})
        threads, joins = 4, 5_000

        def work():
            for _ in range(joins):
                foreign_key_join(database, ["T"])

        interval = sys.getswitchinterval()
        before = JOIN_STATS.full_joins
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert JOIN_STATS.full_joins - before == threads * joins
