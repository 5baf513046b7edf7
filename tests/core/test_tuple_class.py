"""Unit tests for domain partitioning and tuple classes (Section 5.1)."""

import pytest

from repro.core.config import QFEConfig
from repro.core.skyline import skyline_stc_dtc_pairs
from repro.core.tuple_class import DomainPartition, TupleClass, TupleClassSpace
from repro.relational.database import Database
from repro.relational.join import full_join
from repro.relational.predicates import ComparisonOp, Conjunct, DNFPredicate, Term
from repro.relational.query import SPJQuery
from tests.columns import joined_dicts
from tests.oracles.evaluator_reference import evaluate_row_reference, evaluate_value_reference


def _query(table, projection, terms):
    return SPJQuery([table], projection, DNFPredicate.from_terms(terms))


class TestDomainPartitionNumeric:
    def test_example_5_1_interval_structure(self):
        """Example 5.1: A ≤ 50 and A ∈ (40, 80] partition the A domain into 4 blocks."""
        terms = [
            Term("T.A", ComparisonOp.LE, 50),
            Term("T.A", ComparisonOp.GT, 40),
            Term("T.A", ComparisonOp.LE, 80),
        ]
        partition = DomainPartition("T.A", terms, [10, 45, 60, 90])
        # four signature-distinct regions: <=40, (40,50], (50,80], >80
        assert len(partition) == 4
        assert partition.subset_of_value(10) == partition.subset_of_value(40)
        assert partition.subset_of_value(45) == partition.subset_of_value(41)
        assert partition.subset_of_value(60) != partition.subset_of_value(45)
        assert partition.subset_of_value(90) != partition.subset_of_value(60)

    def test_terms_constant_on_each_block(self):
        terms = [Term("T.A", ComparisonOp.LT, 5), Term("T.A", ComparisonOp.GE, 2)]
        partition = DomainPartition("T.A", terms, [0, 1, 3, 6, 9])
        for subset in partition.subsets:
            for representative in subset.representatives:
                signature = tuple(evaluate_value_reference(t, representative) for t in terms)
                assert signature == subset.signature

    def test_no_terms_single_block(self):
        partition = DomainPartition("T.A", [], [1, 2, 3])
        assert len(partition) == 1

    def test_representatives_prefer_active_domain(self):
        terms = [Term("T.A", ComparisonOp.GT, 10)]
        partition = DomainPartition("T.A", terms, [5, 20])
        above = partition.subset(partition.subset_of_value(20))
        assert above.representative() == 20


class TestDomainPartitionCategorical:
    def test_example_5_2_partition(self):
        """Example 5.2: IN-predicates over {a..g} split the domain by signature."""
        terms = [
            Term("T.A", ComparisonOp.IN, ("b", "c", "e")),
            Term("T.A", ComparisonOp.IN, ("a", "b", "d", "e")),
        ]
        partition = DomainPartition("T.A", terms, list("abcdefg"))
        groups = {}
        for value in "abcdefg":
            groups.setdefault(partition.subset_of_value(value), set()).add(value)
        assert set(map(frozenset, groups.values())) == {
            frozenset({"a", "d"}),
            frozenset({"b", "e"}),
            frozenset({"c"}),
            frozenset({"f", "g"}),
        }

    def test_fresh_block_created_when_needed(self):
        terms = [Term("T.A", ComparisonOp.EQ, "x"), Term("T.A", ComparisonOp.EQ, "y")]
        partition = DomainPartition("T.A", terms, ["x", "y"])
        # there must be a block matching neither equality, even though the
        # active domain only contains matching values
        assert any(not any(s.signature) for s in partition.subsets)
        fresh = next(s for s in partition.subsets if not any(s.signature))
        assert fresh.has_representative


class TestTupleClass:
    def test_edit_distance_counts_differing_slots(self):
        a = TupleClass((0, 1, 2))
        b = TupleClass((0, 2, 3))
        assert a.edit_distance(b) == 2
        assert a.differing_positions(b) == (1, 2)
        assert a.edit_distance(a) == 0


class TestTupleClassSpace:
    def _space(self, db, queries):
        return TupleClassSpace(full_join(db), queries)

    def test_selection_attributes_collected(self, two_table_db):
        queries = [
            _query("Emp", ["Emp.ename"], [Term("Emp.salary", ComparisonOp.GT, 60)]),
            _query("Emp", ["Emp.ename"], [Term("Dept.dname", ComparisonOp.EQ, "IT")]),
        ]
        space = self._space(two_table_db, queries)
        assert set(space.selection_attributes) == {"Emp.salary", "Dept.dname"}
        assert space.attribute_count == 2

    def test_every_row_assigned_to_exactly_one_class(self, two_table_db):
        queries = [_query("Emp", ["Emp.ename"], [Term("Emp.salary", ComparisonOp.GT, 60)])]
        space = self._space(two_table_db, queries)
        total = sum(len(space.rows_in_class(tc)) for tc in space.source_tuple_classes())
        assert total == len(space.joined)

    def test_class_matching_is_consistent_with_row_evaluation(self, two_table_db):
        queries = [
            _query("Emp", ["Emp.ename"], [Term("Emp.salary", ComparisonOp.GT, 60)]),
            _query("Emp", ["Emp.ename"], [Term("Dept.dname", ComparisonOp.EQ, "IT")]),
            SPJQuery(
                ["Emp", "Dept"], ["Emp.ename"],
                DNFPredicate(
                    (
                        Conjunct((Term("Emp.salary", ComparisonOp.LE, 50),)),
                        Conjunct((Term("Dept.budget", ComparisonOp.GE, 100),)),
                    )
                ),
            ),
        ]
        space = self._space(two_table_db, queries)
        rows = joined_dicts(space.joined)
        for position, row in enumerate(rows):
            tuple_class = space.class_of_row(position)
            for query_index, query in enumerate(queries):
                expected = evaluate_row_reference(query.predicate, row)
                assert space.matches(query_index, tuple_class) == expected

    def test_destination_classes_edit_distance(self, two_table_db):
        queries = [
            _query("Emp", ["Emp.ename"], [Term("Emp.salary", ComparisonOp.GT, 60)]),
            _query("Emp", ["Emp.ename"], [Term("Dept.dname", ComparisonOp.EQ, "IT")]),
        ]
        space = self._space(two_table_db, queries)
        source = space.source_tuple_classes()[0]
        for destination in space.destination_classes(source, 1):
            assert source.edit_distance(destination) == 1
        for destination in space.destination_classes(source, 2):
            assert source.edit_distance(destination) == 2

    def test_destination_classes_out_of_range(self, two_table_db):
        queries = [_query("Emp", ["Emp.ename"], [Term("Emp.salary", ComparisonOp.GT, 60)])]
        space = self._space(two_table_db, queries)
        source = space.source_tuple_classes()[0]
        assert list(space.destination_classes(source, 0)) == []
        assert list(space.destination_classes(source, 5)) == []

    def test_changed_attributes(self, two_table_db):
        queries = [
            _query("Emp", ["Emp.ename"], [Term("Emp.salary", ComparisonOp.GT, 60)]),
            _query("Emp", ["Emp.ename"], [Term("Dept.dname", ComparisonOp.EQ, "IT")]),
        ]
        space = self._space(two_table_db, queries)
        source = space.source_tuple_classes()[0]
        destination = next(space.destination_classes(source, 1))
        changed = space.changed_attributes(source, destination)
        assert len(changed) == 1
        assert changed[0] in {"Emp.salary", "Dept.dname"}

    def test_an_incomparable_representative_fails_its_term(self):
        # No active value fails ``flag >= False``, so the partition gets a
        # fresh block whose string representative cannot be ordered against
        # a bool: the term does not hold there, and nothing raises.
        database = Database.from_tables({"T": (["id", "flag"], [[0, True], [1, False]])})
        queries = [
            _query("T", ["T.id"], [Term("T.flag", ComparisonOp.GE, False)]),
            _query("T", ["T.id"], [Term("T.flag", ComparisonOp.EQ, True)]),
        ]
        space = self._space(database, queries)
        fresh = next(
            s.index for s in space.partitions["T.flag"].subsets if s.description == "{fresh}"
        )
        assert space.query_mask(TupleClass((fresh,))) == 0
        assert skyline_stc_dtc_pairs(space, QFEConfig(), result_arity=1).pair_count >= 1


class TestNullRowClasses:
    """Section 5.1's invariant for rows with a NULL selection cell.

    Every candidate must match all tuples of a class or none, so a row's
    class must match exactly the candidates whose predicate holds for the
    row. A NULL satisfies no term, yet ``DomainPartition.subset_of_value``
    puts it in a block whose representative can satisfy one. The defect is
    pinned here and left unfixed: scenario ``mixed@2`` and ``mixed@29`` have
    NULL selection cells, so a fix changes their transcripts.
    """

    @staticmethod
    def _mismatches(queries, column, values):
        """(row, candidate) pairs where the row's class and the row disagree."""
        database = Database.from_tables(
            {"T": (["id", column], [[index, value] for index, value in enumerate(values)])}
        )
        space = TupleClassSpace(full_join(database), queries)
        mismatches = []
        for position, row in enumerate(joined_dicts(space.joined)):
            tuple_class = space.class_of_row(position)
            for index, query in enumerate(queries):
                if space.matches(index, tuple_class) != evaluate_row_reference(query.predicate, row):
                    mismatches.append((row, str(query.predicate)))
        return mismatches

    @pytest.mark.xfail(strict=True, reason="a NULL falls back to subset 0, the a <= 3 block")
    def test_null_numeric_cell_matches_no_candidate(self):
        queries = [
            _query("T", ["T.id"], [Term("T.a", ComparisonOp.GT, 3)]),
            _query("T", ["T.id"], [Term("T.a", ComparisonOp.LT, 10)]),
        ]
        assert self._mismatches(queries, "a", [1, 5, 12, None]) == []

    @pytest.mark.xfail(strict=True, reason="a NULL lands in the fresh block; it satisfies b >= 'A'")
    def test_null_categorical_cell_matches_no_candidate(self):
        queries = [
            _query("T", ["T.id"], [Term("T.b", ComparisonOp.GE, "A")]),
            _query("T", ["T.id"], [Term("T.b", ComparisonOp.EQ, "B")]),
        ]
        assert self._mismatches(queries, "b", ["B", "C", None]) == []


class TestFloatRowClasses:
    """The same invariant for floats that differ below the 12th digit."""

    def test_floats_within_1e_12_keep_their_own_classes(self):
        # 0.1 and 0.1 + 1e-13 differ, and ``x > 0.1`` tells them apart: each
        # value is looked up exactly, not rounded to 12 digits.
        queries = [
            _query("T", ["T.id"], [Term("T.x", ComparisonOp.GT, 0.1)]),
            _query("T", ["T.id"], [Term("T.x", ComparisonOp.LT, 1.0)]),
        ]
        mismatches = TestNullRowClasses._mismatches(queries, "x", [0.1, 0.1 + 1e-13, 5.0])
        assert mismatches == []
