"""Reference ``minEdit`` assignment: the padded cost matrix solved by scipy.

:func:`assignment_reference` is ``repro.relational.edit._assignment`` as it
was while it called ``scipy.optimize.linear_sum_assignment`` on a numpy
matrix. It is the oracle for the pure-Python
:func:`~repro.relational.edit.min_cost_assignment` that replaced the call:
both must choose the same optimum, ties included, so every ``Δ(R, R_i)``
script stays the same. Tests that import this module need numpy and scipy
(the ``test`` extra); ``src/`` needs neither.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.relational.edit import _match_identical_rows, tuple_distance
from repro.relational.relation import Relation


def linear_sum_assignment_reference(cost: list[list[int]]) -> tuple[list[int], list[int]]:
    """scipy's ``(row_indexes, column_indexes)`` for a cost matrix, as lists."""
    rows, columns = linear_sum_assignment(np.array(cost, dtype=float))
    return rows.tolist(), columns.tolist()


def assignment_reference(
    source: Relation, target: Relation
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Solve the minimum-cost matching between source and target tuples.

    Returns ``(matched_pairs, deleted_source_indexes, inserted_target_indexes)``
    where matched pairs are index pairs into the relations' tuple lists.

    Identical rows are matched greedily at zero cost first (always part of an
    optimal solution for this cost structure), so the cubic Hungarian step only
    runs on the usually tiny symmetric difference — QFE's modified databases
    differ from the original in a handful of tuples.
    """
    matched, source_indexes, target_indexes = _match_identical_rows(source, target)

    arity = source.schema.arity
    source_rows = [source.tuples[i].values for i in source_indexes]
    target_rows = [target.tuples[j].values for j in target_indexes]
    n_source, n_target = len(source_rows), len(target_rows)
    if n_source == 0 and n_target == 0:
        return matched, [], []

    size = n_source + n_target
    # Padded square matrix: matching a source row to a "phantom" column means
    # deleting it (cost = arity); matching a phantom row to a target column
    # means inserting it (cost = arity); phantom-to-phantom costs nothing.
    cost = np.zeros((size, size), dtype=float)
    cost[:n_source, n_target:] = arity
    cost[n_source:, :n_target] = arity
    for i, source_row in enumerate(source_rows):
        for j, target_row in enumerate(target_rows):
            cost[i, j] = tuple_distance(source_row, target_row)
    row_indexes, column_indexes = linear_sum_assignment(cost)

    deleted: list[int] = []
    inserted: list[int] = []
    for i, j in zip(row_indexes, column_indexes):
        if i < n_source and j < n_target:
            # Matching at a cost >= arity is never cheaper than delete+insert,
            # and delete+insert is the more faithful description of the change.
            if cost[i, j] >= 2 * arity:
                deleted.append(source_indexes[i])
                inserted.append(target_indexes[j])
            else:
                matched.append((source_indexes[i], target_indexes[j]))
        elif i < n_source:
            deleted.append(source_indexes[i])
        elif j < n_target:
            inserted.append(target_indexes[j])
    return matched, deleted, inserted
