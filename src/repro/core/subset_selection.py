"""Algorithm 4: Pick-STC-DTC-Subset.

Given the skyline pairs ``SP`` produced by Algorithm 3, select the subset
``S_opt ⊆ SP`` whose simulated Equation (5) cost is minimal, breaking ties by
the lowest balance score. The search grows candidate pair sets one pair at a
time, but a grown set is only kept for the next level when it *strictly
improves* the balance score of the set it extends — the paper's pruning
heuristic that keeps the worst-case ``O(2^|SP|)`` search small in practice
(Section 5.4, Table 4/5). The pruning test reads the simulator's memoised
grouping of the grown set's reactions; a :class:`PairSetEffect` and its
cost are built only for every single pair and for each grown set the
pruning keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.config import QFEConfig
from repro.core.cost_model import CostBreakdown, cost_of_effect
from repro.core.modification import ClassPair, PairSetEffect, PairSetSimulator
from repro.core.tuple_class import TupleClassSpace

__all__ = ["SubsetSelectionResult", "pick_stc_dtc_subset"]

# A scoring function maps the simulated effect and its cost breakdown to a
# comparable key; the subset with the smallest key wins. The default is the
# paper's cost model; the user-study baseline plugs in an alternative.
ScoreFunction = Callable[[PairSetEffect, CostBreakdown], tuple]


def _default_score(effect: PairSetEffect, cost: CostBreakdown) -> tuple:
    return (cost.total,)


@dataclass
class SubsetSelectionResult:
    """Output of Algorithm 4 plus its diagnostics."""

    chosen_pairs: tuple[ClassPair, ...]
    chosen_effect: PairSetEffect | None
    chosen_cost: CostBreakdown | None
    sets_evaluated: int
    #: Pair sets that got a :class:`PairSetEffect`: every single, and each
    #: grown set the balance pruning kept.
    effects_built: int = 0

    @property
    def found(self) -> bool:
        """Whether any distinguishing subset was found."""
        return self.chosen_effect is not None


def pick_stc_dtc_subset(
    space: TupleClassSpace,
    skyline_pairs: Sequence[ClassPair],
    config: QFEConfig,
    *,
    result_arity: int,
    most_balanced_binary_x: int | None = None,
    score: ScoreFunction | None = None,
    simulator: PairSetSimulator | None = None,
) -> SubsetSelectionResult:
    """Run Algorithm 4 and return the best pair subset under the scoring function.

    Two safety valves beyond the paper's pseudocode keep the pure-Python search
    bounded on adversarial inputs: each cardinality level's frontier is capped
    at ``config.max_sets_per_level`` (keeping the best-balanced sets), and only
    the ``config.growth_pool_size`` best-balanced skyline pairs are eligible to
    extend existing sets. Every single skyline pair is still scored on its own.
    """
    scorer = score or _default_score
    simulator = simulator or PairSetSimulator(space, result_arity=result_arity)
    pairs = list(skyline_pairs)
    reactions = [simulator.reaction_of(pair) for pair in pairs]
    sets_evaluated = 0
    effects_built = 0

    best_sets: list[tuple[frozenset[int], PairSetEffect, CostBreakdown]] = []
    best_key: tuple | None = None

    def consider(index_set: frozenset[int], effect: PairSetEffect, cost: CostBreakdown) -> None:
        nonlocal best_key, best_sets
        if not effect.partitions_queries:
            return
        key = scorer(effect, cost)
        if best_key is None or key < best_key:
            best_key = key
            best_sets = [(index_set, effect, cost)]
        elif key == best_key:
            best_sets.append((index_set, effect, cost))

    # ------------------------------------------------------------ single pairs
    frontier: list[tuple[frozenset[int], PairSetEffect]] = []
    single_effects: dict[int, PairSetEffect] = {}
    for index, pair in enumerate(pairs):
        effect = simulator.effect([pair])
        effects_built += 1
        cost = cost_of_effect(effect, config, most_balanced_binary_x=most_balanced_binary_x)
        sets_evaluated += 1
        consider(frozenset([index]), effect, cost)
        frontier.append((frozenset([index]), effect))
        single_effects[index] = effect

    # --------------------------------------------------------- grow pair sets
    # Only the best-balanced pairs are allowed to extend existing sets; every
    # pair above was already considered on its own.
    growth_pool = sorted(range(len(pairs)), key=lambda i: (single_effects[i].balance, i))
    growth_pool = growth_pool[: config.growth_pool_size]
    max_size = min(config.max_subset_size, len(pairs))
    seen: set[frozenset[int]] = {index_set for index_set, _ in frontier}
    for _size in range(2, max_size + 1):
        next_frontier: list[tuple[frozenset[int], PairSetEffect]] = []
        for index_set, effect in frontier:
            for index in growth_pool:
                if index in index_set:
                    continue
                grown = index_set | {index}
                if grown in seen:
                    continue
                seen.add(grown)
                members = sorted(grown)
                sets_evaluated += 1
                # Balance-improvement pruning on the memoised grouping: only
                # a grown set more balanced than the set it extends is kept,
                # and only a kept set gets an effect and a cost.
                if simulator.grouping([reactions[i] for i in members]).balance < effect.balance:
                    grown_effect = simulator.effect([pairs[i] for i in members])
                    effects_built += 1
                    next_frontier.append((grown, grown_effect))
                    grown_cost = cost_of_effect(
                        grown_effect, config, most_balanced_binary_x=most_balanced_binary_x
                    )
                    consider(grown, grown_effect, grown_cost)
        if not next_frontier:
            break
        if len(next_frontier) > config.max_sets_per_level:
            next_frontier.sort(key=lambda item: item[1].balance)
            next_frontier = next_frontier[: config.max_sets_per_level]
        frontier = next_frontier

    if not best_sets:
        return SubsetSelectionResult((), None, None, sets_evaluated, effects_built)

    # Tie-break (step 22): among minimum-cost sets pick the lowest balance.
    best_sets.sort(key=lambda item: (item[1].balance, sorted(item[0])))
    chosen_indexes, chosen_effect, chosen_cost = best_sets[0]
    chosen_pairs = tuple(pairs[i] for i in sorted(chosen_indexes))
    return SubsetSelectionResult(
        chosen_pairs, chosen_effect, chosen_cost, sets_evaluated, effects_built
    )
