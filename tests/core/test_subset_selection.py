"""Unit tests for Algorithm 4 (Pick-STC-DTC-Subset)."""

import pytest

from repro.core.alternative_cost import max_partitions_score
from repro.core.config import QFEConfig
from repro.core.cost_model import cost_of_effect
from repro.core.modification import simulate_pair_set
from repro.core.skyline import skyline_stc_dtc_pairs
from repro.core.subset_selection import pick_stc_dtc_subset
from repro.core.tuple_class import TupleClassSpace
from repro.relational.join import full_join


@pytest.fixture()
def employee_setup(employee_db, employee_candidates):
    space = TupleClassSpace(full_join(employee_db), employee_candidates)
    skyline = skyline_stc_dtc_pairs(space, QFEConfig(), result_arity=1)
    return space, skyline


class TestPickSubset:
    def test_selects_distinguishing_subset(self, employee_setup):
        space, skyline = employee_setup
        selection = pick_stc_dtc_subset(space, skyline.pairs, QFEConfig(), result_arity=1)
        assert selection.found
        assert selection.chosen_effect.partitions_queries
        assert 1 <= len(selection.chosen_pairs) <= QFEConfig().max_subset_size

    def test_chosen_cost_is_minimal_among_singles(self, employee_setup):
        space, skyline = employee_setup
        config = QFEConfig()
        selection = pick_stc_dtc_subset(space, skyline.pairs, config, result_arity=1)
        single_costs = []
        for pair in skyline.pairs:
            effect = simulate_pair_set(space, [pair], result_arity=1)
            if effect.partitions_queries:
                single_costs.append(cost_of_effect(effect, config).total)
        assert selection.chosen_cost.total <= min(single_costs) + 1e-9

    def test_max_subset_size_respected(self, employee_setup):
        space, skyline = employee_setup
        config = QFEConfig(max_subset_size=1)
        selection = pick_stc_dtc_subset(space, skyline.pairs, config, result_arity=1)
        assert len(selection.chosen_pairs) == 1

    def test_empty_skyline_returns_not_found(self, employee_setup):
        space, _ = employee_setup
        selection = pick_stc_dtc_subset(space, [], QFEConfig(), result_arity=1)
        assert not selection.found
        assert selection.chosen_pairs == ()

    def test_sets_evaluated_counted(self, employee_setup):
        space, skyline = employee_setup
        selection = pick_stc_dtc_subset(space, skyline.pairs, QFEConfig(), result_arity=1)
        assert selection.sets_evaluated >= len(skyline.pairs)

    def test_alternative_score_prefers_more_subsets(self, employee_setup):
        space, skyline = employee_setup
        config = QFEConfig()
        default_selection = pick_stc_dtc_subset(space, skyline.pairs, config, result_arity=1)
        alternative_selection = pick_stc_dtc_subset(
            space, skyline.pairs, config, result_arity=1, score=max_partitions_score
        )
        assert alternative_selection.found
        assert (
            alternative_selection.chosen_effect.group_count
            >= default_selection.chosen_effect.group_count
        )

    def test_growth_pool_cap(self, employee_setup):
        space, skyline = employee_setup
        config = QFEConfig(growth_pool_size=1, max_sets_per_level=4)
        selection = pick_stc_dtc_subset(space, skyline.pairs, config, result_arity=1)
        assert selection.found
