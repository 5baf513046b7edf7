"""Unit tests for QFEConfig and the alternative cost objective."""

import dataclasses

import pytest

from repro.core.alternative_cost import max_partitions_score
from repro.core.config import IterationEstimator, QFEConfig
from repro.core.cost_model import cost_of_effect
from repro.core.modification import simulate_pair_set, ClassPair
from repro.core.tuple_class import TupleClassSpace
from repro.relational.join import full_join


class TestQFEConfig:
    def test_defaults_match_paper(self):
        config = QFEConfig()
        assert config.beta == 1.0
        assert config.delta_seconds == 1.0
        assert config.iteration_estimator is IterationEstimator.REFINED

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": -1},
            {"delta_seconds": 0},
            {"max_iterations": 0},
            {"max_skyline_pairs": 0},
            {"max_subset_size": 0},
            {"growth_pool_size": 0},
            {"max_sets_per_level": 0},
            # NaN fails every comparison, so a plain `< 0` check let it
            # through and NaN then leaked into costs and transcripts.
            {"beta": float("nan")},
            {"beta": float("inf")},
            {"delta_seconds": float("nan")},
            {"delta_seconds": float("inf")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QFEConfig(**kwargs)

    @pytest.mark.parametrize("field", ["beta", "delta_seconds"])
    def test_an_integer_beyond_the_float_range_is_rejected(self, field):
        # Accepted, it would overflow the round's float arithmetic (the
        # skyline deadline, Equation 3's cost) and surface as a 500 in the
        # service; refused here, it is a ValueError (a 400 there).
        with pytest.raises(ValueError, match="finite"):
            QFEConfig(**{field: 10**400})
        assert getattr(QFEConfig(**{field: 10**300}), field) == 10**300

    def test_backend_is_always_serial(self):
        assert QFEConfig().backend == "serial"
        assert QFEConfig(backend="serial").backend == "serial"
        for removed in ("warm", "auto", "sql", "process", "bogus"):
            with pytest.raises(ValueError, match="rounds always run in process"):
                QFEConfig(backend=removed)

    def test_the_worker_count_is_gone(self):
        with pytest.raises(TypeError):
            QFEConfig(workers=2)  # type: ignore[call-arg]
        assert "workers" not in {field.name for field in dataclasses.fields(QFEConfig)}

    def test_with_overrides(self):
        config = QFEConfig().with_overrides(beta=3.0, delta_seconds=0.5)
        assert config.beta == 3.0
        assert config.delta_seconds == 0.5
        assert config.max_iterations == QFEConfig().max_iterations

    def test_frozen(self):
        with pytest.raises(Exception):
            QFEConfig().beta = 2.0  # type: ignore[misc]


class TestMaxPartitionsScore:
    def test_prefers_more_groups(self, employee_db, employee_candidates):
        space = TupleClassSpace(full_join(employee_db), employee_candidates)
        effects = []
        for source in space.source_tuple_classes():
            for destination in space.destination_classes(source, 1):
                effects.append(simulate_pair_set(space, [ClassPair(source, destination)],
                                                 result_arity=1))
        split = [e for e in effects if e.partitions_queries]
        assert split
        config = QFEConfig()
        scored = sorted(split, key=lambda e: max_partitions_score(e, cost_of_effect(e, config)))
        assert scored[0].group_count == max(e.group_count for e in split)

    def test_tie_break_by_largest_group(self, employee_db, employee_candidates):
        space = TupleClassSpace(full_join(employee_db), employee_candidates)
        effects = []
        for source in space.source_tuple_classes():
            for destination in space.destination_classes(source, 1):
                effects.append(simulate_pair_set(space, [ClassPair(source, destination)],
                                                 result_arity=1))
        config = QFEConfig()
        same_group_count = [e for e in effects if e.group_count == 2]
        if len(same_group_count) >= 2:
            ranked = sorted(
                same_group_count,
                key=lambda e: max_partitions_score(e, cost_of_effect(e, config)),
            )
            assert max(ranked[0].group_sizes) <= max(ranked[-1].group_sizes)
