"""Differential tests: the pure-Python assignment against scipy's.

``min_cost_assignment`` must return exactly the columns
``scipy.optimize.linear_sum_assignment`` returns, ties included, on small
integer matrices (the sizes ``minEdit`` solves) and on the padded
delete/insert layout ``_assignment`` builds; ``_assignment`` must then give
the same matched, deleted and inserted rows as its scipy-based reference.
"""

from __future__ import annotations

import itertools
import random

import pytest

pytest.importorskip("scipy")

from repro.relational.edit import _assignment, min_cost_assignment  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from tests.oracles.assignment_reference import (  # noqa: E402
    assignment_reference,
    linear_sum_assignment_reference,
)


def _assert_same(cost: list[list[int]]) -> None:
    rows, columns = linear_sum_assignment_reference(cost)
    assert rows == list(range(len(cost)))
    assert min_cost_assignment(cost) == columns, cost


def _padded(rng: random.Random, n_source: int, n_target: int, arity: int) -> list[list[int]]:
    """The layout ``_assignment`` builds: distances, then delete/insert padding."""
    return [
        [rng.randint(0, arity) for _ in range(n_target)] + [arity] * n_source
        for _ in range(n_source)
    ] + [[arity] * n_target + [0] * n_source for _ in range(n_target)]


class TestMinCostAssignment:
    def test_empty_matrix(self):
        assert min_cost_assignment([]) == []

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_every_zero_one_matrix(self, size):
        for cells in itertools.product((0, 1), repeat=size * size):
            _assert_same([list(cells[row * size : (row + 1) * size]) for row in range(size)])

    def test_every_small_two_by_two_matrix(self):
        for cells in itertools.product(range(4), repeat=4):
            _assert_same([list(cells[:2]), list(cells[2:])])

    @pytest.mark.parametrize("size", range(1, 9))
    def test_tie_heavy_random_matrices(self, size):
        rng = random.Random(size)
        for _ in range(300):
            high = rng.choice((0, 1, 2, 3, 9))
            _assert_same([[rng.randint(0, high) for _ in range(size)] for _ in range(size)])

    def test_constant_matrix_is_the_identity(self):
        for size in range(1, 9):
            assert min_cost_assignment([[5] * size for _ in range(size)]) == list(range(size))

    @pytest.mark.parametrize("arity", [1, 2, 3, 5])
    def test_padded_delete_insert_layout(self, arity):
        rng = random.Random(arity)
        for _ in range(400):
            n_source, n_target = rng.randint(0, 4), rng.randint(0, 4)
            if n_source + n_target:
                _assert_same(_padded(rng, n_source, n_target, arity))


class TestAssignmentMatchesReference:
    def test_random_relation_pairs(self):
        rng = random.Random(7)
        for _ in range(1500):
            arity = rng.randint(1, 4)
            alphabet = rng.randint(1, 3)
            columns = [f"c{i}" for i in range(arity)]
            source_rows = [
                [rng.randrange(alphabet) for _ in range(arity)] for _ in range(rng.randint(1, 6))
            ]
            target_rows = [list(row) for row in source_rows if rng.random() < 0.7]
            for row in target_rows:
                if rng.random() < 0.5:
                    row[rng.randrange(arity)] = rng.randrange(alphabet + 1)
            target_rows += [
                [rng.randrange(alphabet) for _ in range(arity)] for _ in range(rng.randint(0, 3))
            ]
            if not target_rows:
                target_rows = [[alphabet] * arity]
            rng.shuffle(target_rows)
            source = Relation.from_rows("T", columns, source_rows)
            target = Relation.from_rows("T", columns, target_rows)
            assert _assignment(source, target) == assignment_reference(source, target)
