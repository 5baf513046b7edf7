"""The user-effort cost model of Section 3.

The Database Generator selects the modification (a set of class pairs) that
minimizes the modelled user effort

``cost(D') = currentCost + residualCost``                          (Eq. 1)

with

* ``currentCost = dbCost + resultCost``                            (Eq. 2)
* ``dbCost      = minEdit(D, D') + β·n``                           (Eq. 3)
* ``resultCost  = Σ_i minEdit(R, R_i)``                            (Eq. 4)
* ``residualCost = N · (minEdit(D,D')/µ + β + (2/k)·Σ_i minEdit(R,R_i))``
  (the conservative per-future-iteration estimate of Section 3)      (Eq. 5)

``N`` is the estimated number of remaining iterations, either the naive
Equation (6) (``log2`` of the largest induced query subset) or the refined
Equations (7)–(9), which exploit Lemma 3.1: once the most balanced *binary*
partitioning available in the current iteration removes only ``x`` false
positives, no later iteration can remove more than ``x`` either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.config import IterationEstimator, QFEConfig
from repro.core.modification import PairSetEffect, balance_score

__all__ = [
    "CostBreakdown",
    "balance_score",
    "estimate_iterations_naive",
    "estimate_iterations_refined",
    "estimate_iterations",
    "cost_of_effect",
]


def estimate_iterations_naive(group_sizes: Sequence[int]) -> float:
    """Equation (6): ``N = log2(max_i |QC_i|)``."""
    largest = max(group_sizes) if group_sizes else 1
    if largest <= 1:
        return 0.0
    return math.log2(largest)


def estimate_iterations_refined(group_sizes: Sequence[int], x: int | None) -> float:
    """Equations (7)–(9): the Lemma 3.1 refinement of the iteration estimate.

    ``x`` is the size of the smaller subset produced by the most balanced
    *binary* partitioning available in the current iteration; when no binary
    partitioning exists (``x`` is ``None``) the naive estimate is used, as the
    paper prescribes.
    """
    largest = max(group_sizes) if group_sizes else 1
    if largest <= 1:
        return 0.0
    if not x or x <= 0:
        return estimate_iterations_naive(group_sizes)
    n1 = max(largest // x - 1, 0)
    remaining = largest - x * n1
    n2 = math.ceil(math.log2(remaining)) if remaining > 1 else 0
    return float(n1 + n2)


def estimate_iterations(
    group_sizes: Sequence[int],
    config: QFEConfig,
    *,
    most_balanced_binary_x: int | None = None,
) -> float:
    """Dispatch to the configured iteration estimator."""
    if config.iteration_estimator is IterationEstimator.NAIVE:
        return estimate_iterations_naive(group_sizes)
    return estimate_iterations_refined(group_sizes, most_balanced_binary_x)


@dataclass(frozen=True)
class CostBreakdown:
    """All components of Equation (5) for one candidate modification."""

    db_cost: float
    result_cost: float
    residual_cost: float
    estimated_iterations: float
    balance: float
    group_sizes: tuple[int, ...]
    min_edit_db: int
    modified_relation_count: int
    modified_tuple_count: int

    @property
    def current_cost(self) -> float:
        """Equation (2): effort for the current iteration."""
        return self.db_cost + self.result_cost

    @property
    def total(self) -> float:
        """Equation (1): current plus estimated residual effort."""
        return self.current_cost + self.residual_cost


def cost_of_effect(
    effect: PairSetEffect,
    config: QFEConfig,
    *,
    most_balanced_binary_x: int | None = None,
) -> CostBreakdown:
    """Evaluate Equation (5) for a simulated pair-set effect.

    All quantities come from the tuple-class-level simulation: ``minEdit(D,
    D')`` is the total number of modified selection attributes, ``n`` the
    number of modified relations, ``µ`` the number of modified base tuples
    (one per pair), ``k`` the number of induced query subsets and the result
    edit costs the per-group estimates of
    :func:`repro.core.modification.simulate_pair_set`.
    """
    min_edit_db = effect.min_edit
    n_relations = len(effect.modified_tables)
    mu = max(effect.modified_tuple_estimate, 1)
    k = max(effect.group_count, 1)

    db_cost = min_edit_db + config.beta * n_relations
    result_cost = effect.estimated_result_cost
    iterations = estimate_iterations(
        effect.group_sizes, config, most_balanced_binary_x=most_balanced_binary_x
    )
    per_iteration_db = min_edit_db / mu + config.beta
    per_iteration_result = 2.0 * result_cost / k
    residual = iterations * (per_iteration_db + per_iteration_result)
    return CostBreakdown(
        db_cost=float(db_cost),
        result_cost=float(result_cost),
        residual_cost=float(residual),
        estimated_iterations=float(iterations),
        balance=effect.balance,
        group_sizes=effect.group_sizes,
        min_edit_db=min_edit_db,
        modified_relation_count=n_relations,
        modified_tuple_count=mu,
    )
