"""Unit tests for partitioning candidates by their results."""

from repro.core.partitioner import partition_queries
from repro.relational.evaluator import JoinCache, evaluate
from repro.relational.predicates import ComparisonOp, DNFPredicate, Term
from repro.relational.query import SPJQuery


class TestPartitionQueries:
    def test_all_candidates_agree_on_original_database(self, employee_db, employee_candidates):
        partition = partition_queries(employee_candidates, employee_db)
        assert partition.group_count == 1
        assert not partition.distinguishes
        assert len(partition.largest_group()) == 3

    def test_partition_on_modified_database(self, employee_db, employee_candidates):
        modified = employee_db.copy()
        modified.relation("Employee").update_value(1, "salary", 3900)  # Bob below 4000
        partition = partition_queries(employee_candidates, modified)
        # salary > 4000 now excludes Bob; gender = 'M' and dept = 'IT' still include him
        assert partition.group_count == 2
        assert partition.group_sizes == (2, 1)

    def test_groups_carry_results(self, employee_db, employee_candidates):
        modified = employee_db.copy()
        modified.relation("Employee").update_value(1, "salary", 3900)
        partition = partition_queries(employee_candidates, modified)
        for group in partition.groups:
            for query in group.queries:
                assert evaluate(query, modified).bag_equal(group.result)

    def test_groups_ordered_largest_first(self, employee_db, employee_candidates):
        modified = employee_db.copy()
        modified.relation("Employee").update_value(1, "salary", 3900)
        partition = partition_queries(employee_candidates, modified)
        sizes = [len(group) for group in partition.groups]
        assert sizes == sorted(sizes, reverse=True)

    def test_set_semantics_partitioning(self, employee_db):
        queries = [
            SPJQuery(["Employee"], ["Employee.dept"],
                     DNFPredicate.from_terms([Term("Employee.gender", ComparisonOp.EQ, "M")])),
            SPJQuery(["Employee"], ["Employee.dept"],
                     DNFPredicate.from_terms([Term("Employee.dept", ComparisonOp.EQ, "IT")]),
                     distinct=True),
        ]
        bag_partition = partition_queries(queries, employee_db)
        set_partition = partition_queries(queries, employee_db, set_semantics=True)
        assert bag_partition.group_count == 2  # ('IT','IT') vs ('IT',)
        assert set_partition.group_count == 1  # both collapse to {'IT'}

    def test_join_cache_can_be_shared(self, employee_db, employee_candidates):
        cache = JoinCache()
        partition_queries(employee_candidates, employee_db, join_cache=cache)
        assert partition_queries(employee_candidates, employee_db, join_cache=cache).group_count == 1

    def test_query_indexes_preserved(self, employee_db, employee_candidates):
        partition = partition_queries(employee_candidates, employee_db)
        assert sorted(i for g in partition.groups for i in g.query_indexes) == [0, 1, 2]
