"""Unit tests for class pairs and the pair-set simulator."""

import pytest

from repro.core.modification import ClassPair, PairSetSimulator, simulate_pair_set
from repro.core.tuple_class import TupleClassSpace
from repro.relational.join import full_join
from repro.relational.predicates import ComparisonOp, DNFPredicate, Term
from repro.relational.query import SPJQuery


@pytest.fixture()
def employee_space(employee_db, employee_candidates):
    return TupleClassSpace(full_join(employee_db), employee_candidates)


def _all_single_pairs(space):
    pairs = []
    for source in space.source_tuple_classes():
        for destination in space.destination_classes(source, 1):
            pairs.append(ClassPair(source, destination))
    return pairs


class TestClassPair:
    def test_edit_cost(self, employee_space):
        pair = _all_single_pairs(employee_space)[0]
        assert pair.edit_cost == 1
        assert len(pair.changed_slots()) == 1


class TestSimulatePairSet:
    def test_single_pair_at_most_four_groups(self, employee_space):
        """Lemma 5.1: one tuple modification partitions QC into at most 4 subsets."""
        for pair in _all_single_pairs(employee_space):
            effect = simulate_pair_set(employee_space, [pair], result_arity=1)
            assert 1 <= effect.group_count <= 4

    def test_n_pairs_at_most_4_to_n_groups(self, employee_space):
        pairs = _all_single_pairs(employee_space)[:2]
        effect = simulate_pair_set(employee_space, pairs, result_arity=1)
        assert effect.group_count <= 4 ** len(pairs)

    def test_group_sizes_sum_to_query_count(self, employee_space, employee_candidates):
        for pair in _all_single_pairs(employee_space)[:10]:
            effect = simulate_pair_set(employee_space, [pair], result_arity=1)
            assert sum(effect.group_sizes) == len(employee_candidates)

    def test_min_edit_is_sum_of_pair_costs(self, employee_space):
        pairs = _all_single_pairs(employee_space)[:3]
        effect = simulate_pair_set(employee_space, pairs, result_arity=1)
        assert effect.min_edit == sum(p.edit_cost for p in pairs)

    def test_single_group_balance_is_infinite(self, employee_db):
        # With a single candidate, any modification leaves one group.
        query = SPJQuery(
            ["Employee"], ["Employee.name"],
            DNFPredicate.from_terms([Term("Employee.gender", ComparisonOp.EQ, "M")]),
        )
        space = TupleClassSpace(full_join(employee_db), [query])
        pair = _all_single_pairs(space)[0]
        effect = simulate_pair_set(space, [pair], result_arity=1)
        assert effect.group_count == 1
        assert effect.balance == float("inf")
        assert not effect.partitions_queries

    def test_balanced_split_scores_lower(self, employee_space):
        effects = [
            simulate_pair_set(employee_space, [pair], result_arity=1)
            for pair in _all_single_pairs(employee_space)
        ]
        split = [e for e in effects if e.group_count >= 2]
        assert split, "expected at least one distinguishing single-pair modification"
        perfectly_balanced = [e for e in split if max(e.group_sizes) - min(e.group_sizes) <= 1]
        skewed = [e for e in split if max(e.group_sizes) - min(e.group_sizes) > 1]
        if perfectly_balanced and skewed:
            assert min(e.balance for e in perfectly_balanced) <= min(e.balance for e in skewed)

    def test_modified_tables_derived_from_attributes(self, employee_space):
        pair = _all_single_pairs(employee_space)[0]
        effect = simulate_pair_set(employee_space, [pair], result_arity=1)
        assert effect.modified_tables == ("Employee",)
        assert all(a.startswith("Employee.") for a in effect.modified_attributes)


class TestPairSetSimulator:
    def test_simulator_matches_one_off_simulation(self, employee_space):
        simulator = PairSetSimulator(employee_space, result_arity=1)
        for pair in _all_single_pairs(employee_space)[:8]:
            via_simulator = simulator.effect([pair])
            one_off = simulate_pair_set(employee_space, [pair], result_arity=1)
            assert via_simulator.group_sizes == one_off.group_sizes
            assert via_simulator.balance == one_off.balance
            assert via_simulator.estimated_result_cost == one_off.estimated_result_cost

    def test_simulator_caches_pairs(self, employee_space):
        simulator = PairSetSimulator(employee_space, result_arity=1)
        pair = _all_single_pairs(employee_space)[0]
        first = simulator.effect([pair])
        assert simulator.reaction_count == 1
        assert simulator.effect([pair]) == first  # second call reuses the reaction
        assert simulator.reaction_count == 1
