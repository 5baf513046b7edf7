"""Unit tests for domain partitioning and tuple classes (Section 5.1)."""

import math
import sys

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

HUGE = 10**400  # an int no double can hold
NEAR_MAX = int(1.7e308)  # an int a double holds, but not twice over


def _number_id(value):
    """A short test id for the named numbers above; ``None`` keeps pytest's own."""
    names = {
        HUGE: "HUGE",
        -HUGE: "-HUGE",
        HUGE + 1: "HUGE+1",
        NEAR_MAX: "NEAR_MAX",
        -NEAR_MAX: "-NEAR_MAX",
    }
    return names.get(value) if isinstance(value, int) else None


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

    @pytest.mark.parametrize(
        "bounds, values",
        [
            ([(ComparisonOp.LT, 5), (ComparisonOp.GE, 2)], [0, 1, 3, 6, 9]),
            # Floats next to ints beyond the float range.
            (
                [
                    (ComparisonOp.GT, 6.5),
                    (ComparisonOp.GE, 8),
                    (ComparisonOp.GE, HUGE),
                    (ComparisonOp.LT, -HUGE),
                ],
                [HUGE, 5, 8, 12],
            ),
        ],
    )
    def test_terms_constant_on_each_block(self, bounds, values):
        terms = [Term("T.A", op, constant) for op, constant in bounds]
        partition = DomainPartition("T.A", terms, values)
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
    """The same invariant for numeric values at the edges of exact comparison."""

    @pytest.mark.parametrize(
        "bounds, values",
        [
            # 0.1 and 0.1 + 1e-13 differ, and ``x > 0.1`` tells them apart:
            # each value is looked up exactly, not rounded to 12 digits.
            pytest.param(
                [(ComparisonOp.GT, 0.1), (ComparisonOp.LT, 1.0)],
                [0.1, 0.1 + 1e-13, 5.0],
                id="floats-within-1e-12",
            ),
            # Floats next to ints beyond the float range (an INTEGER column).
            pytest.param(
                [(ComparisonOp.GT, 6.5), (ComparisonOp.GE, 8), (ComparisonOp.GE, HUGE)],
                [HUGE, 5, 8, 12],
                id="float-beside-huge-int",
            ),
            pytest.param(
                [(ComparisonOp.GT, 0.5), (ComparisonOp.LE, -HUGE), (ComparisonOp.GT, HUGE)],
                [-HUGE, 5, HUGE + 1, 12, 0],
                id="float-between-huge-ints",
            ),
            pytest.param(
                [(ComparisonOp.GE, HUGE), (ComparisonOp.GT, HUGE), (ComparisonOp.LT, 2.5)],
                [HUGE, HUGE + 1, 2, 3],
                id="adjacent-huge-ints",
            ),
            # A FLOAT column holding both infinities.
            pytest.param(
                [(ComparisonOp.GT, 6.5), (ComparisonOp.LE, math.inf)],
                [5.5, 8.0, 12.5, math.inf, -math.inf],
                id="infinite-bound",
            ),
            pytest.param(
                [(ComparisonOp.GT, 6.5), (ComparisonOp.LT, math.inf), (ComparisonOp.GT, -math.inf)],
                [5.5, 8.0, 12.5, math.inf, -math.inf],
                id="infinite-bounds-exclusive",
            ),
        ],
    )
    def test_classes_agree_with_row_evaluation(self, bounds, values):
        queries = [_query("T", ["T.id"], [Term("T.x", op, constant)]) for op, constant in bounds]
        assert TestNullRowClasses._mismatches(queries, "x", values) == []


class TestBeyondFloatBreakpoints:
    """Breakpoints at the edges of the double range: ints beyond it, floats
    next to them, ends near the largest double, and the infinities.

    Probe arithmetic must not raise ``OverflowError``, and every probe must
    lie strictly inside its interval.
    """

    @pytest.mark.parametrize(
        "bounds, values",
        [
            (
                [(ComparisonOp.GT, 6.5), (ComparisonOp.GE, 8), (ComparisonOp.GE, HUGE)],
                [HUGE, 5, 8, 12],
            ),
            # In the float range, but a probe one spread above it is not.
            ([(ComparisonOp.GT, 6.5), (ComparisonOp.GT, NEAR_MAX)], [7, 5, 8, 12]),
            # A FLOAT column holding both infinities.
            (
                [(ComparisonOp.GT, 6.5), (ComparisonOp.LE, math.inf)],
                [5.5, 8.0, 12.5, math.inf, -math.inf],
            ),
            (
                [(ComparisonOp.GT, 6.5), (ComparisonOp.LT, math.inf), (ComparisonOp.GT, -math.inf)],
                [5.5, 8.0, 12.5, math.inf, -math.inf],
            ),
        ],
    )
    def test_worst_case_session_completes(self, bounds, values):
        from repro.core.feedback import WorstCaseSelector
        from repro.core.session import QFESession
        from repro.relational.evaluator import evaluate

        database = Database.from_tables(
            {"T": (["id", "x"], [[index, value] for index, value in enumerate(values)])}
        )
        candidates = [_query("T", ["T.id"], [Term("T.x", op, constant)]) for op, constant in bounds]
        result = evaluate(candidates[0], database)
        outcome = QFESession(database, result, candidates=candidates).run(WorstCaseSelector())
        assert outcome.converged
        assert outcome.iterations

    def test_an_int_past_the_str_digit_limit_labels_its_blocks(self):
        beyond = 10**5000  # more decimal digits than str() writes by default
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            partition = DomainPartition("T.x", [Term("T.x", ComparisonOp.GE, beyond)], [1, 2])
            labels = [str(subset) for subset in partition.subsets]
        finally:
            sys.set_int_max_str_digits(previous)
        # Hex is exact at any size and is not subject to the digit limit.
        exact = hex(beyond)
        assert labels == [f"T.x∈(-inf, {exact})", f"T.x∈[{exact}] ∪ ({exact}, +inf)"]

    @pytest.mark.parametrize(
        "first, last",
        [
            (6.5, HUGE),
            (-HUGE, 0.5),
            (-HUGE, HUGE),
            (0.5, NEAR_MAX),
            (-NEAR_MAX, 0.5),
            (1, 1),
            (1e20, 1e20),
            (-1e308, 1.7e308),
            (6.5, math.inf),
            (-math.inf, 5),
            (math.inf, math.inf),
            (-math.inf, -math.inf),
        ],
        ids=_number_id,
    )
    def test_outer_probes_lie_strictly_outside(self, first, last):
        below, above = DomainPartition._outer_probes(first, last)
        # Nothing lies beyond an infinite end, so its probe stays on it.
        assert below < first or below == first == -math.inf
        assert above > last or above == last == math.inf
        # Where a double holds the end, a FLOAT column storing the probe keeps
        # it outside the end.
        if -sys.float_info.max <= first <= sys.float_info.max:
            assert float(below) < first
        if -sys.float_info.max <= last <= sys.float_info.max:
            assert float(above) > last

    @pytest.mark.parametrize(
        "low, high",
        [
            (8, HUGE),
            (6.5, HUGE),
            (-HUGE, 0.5),
            (-HUGE, HUGE),
            (7, 8),
            (0.25, 0.75),
            (5, 2**60),
            (1.5e308, 1.7e308),
            (6.5, math.inf),
            (-math.inf, 5),
            (-math.inf, math.inf),
        ],
        ids=_number_id,
    )
    def test_midpoint_lies_strictly_inside(self, low, high):
        middle = DomainPartition._midpoint(low, high)
        assert low < middle < high
        assert -math.inf < middle < math.inf

    @pytest.mark.parametrize(
        "low, high",
        [
            (HUGE, HUGE + 1),
            (2**53, 2**53 + 1),
            (0.1, math.nextafter(0.1, 1.0)),
            (sys.float_info.max, math.inf),
        ],
        ids=_number_id,
    )
    def test_no_midpoint_where_no_value_fits(self, low, high):
        # No int and no finite double lies strictly between these breakpoints.
        assert DomainPartition._midpoint(low, high) is None
