"""Unit tests for Algorithm 3 (Skyline-STC-DTC-Pairs)."""

import pytest

from repro.core.config import QFEConfig
from repro.core.modification import PairSetSimulator, simulate_pair_set
from repro.core.skyline import PAIRS_PER_DELTA_SECOND, skyline_stc_dtc_pairs
from repro.core.tuple_class import TupleClassSpace
from repro.relational.join import full_join


@pytest.fixture()
def employee_space(employee_db, employee_candidates):
    return TupleClassSpace(full_join(employee_db), employee_candidates)


class TestSkyline:
    def test_finds_distinguishing_pairs(self, employee_space):
        result = skyline_stc_dtc_pairs(employee_space, QFEConfig(), result_arity=1)
        assert result.pair_count >= 1
        assert result.enumerated_pairs >= result.pair_count

    def test_pairs_have_minimum_balance(self, employee_space):
        result = skyline_stc_dtc_pairs(employee_space, QFEConfig(), result_arity=1)
        best = min(result.pair_balances.values())
        for pair in result.pairs:
            effect = simulate_pair_set(employee_space, [pair], result_arity=1)
            assert effect.balance == pytest.approx(result.pair_balances[pair])
        assert best < float("inf")

    def test_all_returned_pairs_distinguish(self, employee_space):
        result = skyline_stc_dtc_pairs(employee_space, QFEConfig(), result_arity=1)
        for pair in result.pairs:
            effect = simulate_pair_set(employee_space, [pair], result_arity=1)
            assert effect.partitions_queries

    def test_source_and_destination_differ(self, employee_space):
        result = skyline_stc_dtc_pairs(employee_space, QFEConfig(), result_arity=1)
        for pair in result.pairs:
            assert pair.source != pair.destination
            assert pair.edit_cost >= 1

    def test_pair_cap_respected(self, employee_space):
        config = QFEConfig(max_skyline_pairs=2)
        result = skyline_stc_dtc_pairs(employee_space, config, result_arity=1)
        assert result.pair_count <= 2

    def test_time_budget_truncates(self, employee_space):
        config = QFEConfig(delta_seconds=1e-6)
        result = skyline_stc_dtc_pairs(employee_space, config, result_arity=1)
        # A one-pair budget stops the enumeration early; it still returns
        # whatever it found so far.
        assert result.truncated_by == "time"
        assert result.enumerated_pairs == 1

    def test_delta_buys_a_fixed_number_of_pairs(self, employee_space):
        natural = skyline_stc_dtc_pairs(employee_space, QFEConfig(), result_arity=1)
        total = natural.enumerated_pairs
        assert total >= 3 and natural.truncated_by is None
        for budget in (1, total // 2, total - 1, total):
            config = QFEConfig(delta_seconds=budget / PAIRS_PER_DELTA_SECOND)
            result = skyline_stc_dtc_pairs(employee_space, config, result_arity=1)
            assert result.enumerated_pairs == budget
            # "time" only when a pair beyond the budget exists.
            assert result.truncated_by_time == (budget < total)
        assert result == natural
        # δ buys at least one pair, and a δ whose pair count overflows a
        # float buys them all.
        for delta, enumerated in ((1e-300, 1), (1e300, total), (1.7e308, total)):
            config = QFEConfig(delta_seconds=delta)
            result = skyline_stc_dtc_pairs(employee_space, config, result_arity=1)
            assert result.enumerated_pairs == enumerated

    def test_most_balanced_binary_x(self, employee_space, employee_candidates):
        result = skyline_stc_dtc_pairs(employee_space, QFEConfig(), result_arity=1)
        if result.most_balanced_binary_x is not None:
            assert 1 <= result.most_balanced_binary_x <= len(employee_candidates) // 2

    def test_shared_simulator_is_used(self, employee_space):
        simulator = PairSetSimulator(employee_space, result_arity=1)
        result = skyline_stc_dtc_pairs(
            employee_space, QFEConfig(), result_arity=1, simulator=simulator
        )
        assert simulator.reaction_count == result.reaction_keys > 0
