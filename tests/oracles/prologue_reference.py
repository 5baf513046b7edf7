"""The round prologue, one pair at a time: the oracle for the bitmask engine.

A straightforward reading of Section 5 that the engine's mask-and-reaction
prologue (:mod:`repro.core.tuple_class`, :mod:`repro.core.modification`,
:mod:`repro.core.skyline`, :mod:`repro.core.subset_selection`) must agree
with field for field:

* :func:`match_vector` evaluates every candidate's predicate, compiled by
  :func:`compile_predicate`, on a class's representative values;
* :func:`destination_classes` enumerates DTCs with
  :func:`itertools.combinations` and :func:`itertools.product`;
* :class:`ReferencePairSetSimulator` derives every pair's per-query Lemma 5.1
  keys and groups the candidates by the tuple of those keys, per call;
* :func:`reference_skyline` and :func:`reference_pick_subset` are
  Algorithms 3 and 4 calling that simulator for every pair and pair set.

Slow by design: every pair is a fresh :class:`ClassPair` and a fresh
grouping.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.core.config import QFEConfig
from repro.core.cost_model import CostBreakdown, cost_of_effect
from repro.core.modification import ClassPair, PairSetEffect, balance_score
from repro.core.skyline import PAIRS_PER_DELTA_SECOND, SkylineResult
from repro.core.subset_selection import SubsetSelectionResult
from repro.core.tuple_class import TupleClass, TupleClassSpace
from repro.exceptions import EvaluationError
from repro.relational.predicates import DNFPredicate, compile_term

__all__ = [
    "ReferencePairSetSimulator",
    "compile_predicate",
    "destination_classes",
    "match_vector",
    "reference_pick_subset",
    "reference_skyline",
]


def compile_predicate(
    predicate: DNFPredicate, index_of: Mapping[str, int]
) -> Callable[[Sequence[Any]], bool]:
    """Compile a DNF predicate into a positional ``row values -> bool`` closure.

    *index_of* maps qualified attribute names to positions in the row value
    sequence the closure will be applied to. Unknown attributes raise
    :class:`EvaluationError` at compile time rather than per row.
    """
    if predicate.is_true:
        return lambda values: True
    compiled_conjuncts: list[tuple[tuple[int, Callable[[Any], bool]], ...]] = []
    for conjunct in predicate.conjuncts:
        compiled_terms = []
        for term in conjunct.terms:
            try:
                position = index_of[term.attribute]
            except KeyError:
                raise EvaluationError(f"row has no attribute {term.attribute!r}") from None
            compiled_terms.append((position, compile_term(term)))
        compiled_conjuncts.append(tuple(compiled_terms))

    def evaluate_positional(values: Sequence[Any]) -> bool:
        for terms in compiled_conjuncts:
            for position, test in terms:
                if not test(values[position]):
                    break
            else:
                return True
        return False

    return evaluate_positional


def match_vector(space: TupleClassSpace, tuple_class: TupleClass) -> tuple[bool, ...]:
    """Whether each candidate matches the class, from its representative values."""
    slot_of = {attribute: slot for slot, attribute in enumerate(space.selection_attributes)}
    values = tuple(
        space.partitions[attribute].subset(index).representative()
        for attribute, index in zip(space.selection_attributes, tuple_class.subset_indexes)
    )
    return tuple(compile_predicate(query.predicate, slot_of)(values) for query in space.queries)


def destination_classes(
    space: TupleClassSpace, source: TupleClass, modified_slots: int
) -> Iterator[TupleClass]:
    """Every DTC of *source* changing exactly *modified_slots* slots, in Algorithm 3's order."""
    n = len(space.selection_attributes)
    if modified_slots < 1 or modified_slots > n:
        return
    for slots in itertools.combinations(range(n), modified_slots):
        alternatives_per_slot = []
        for slot in slots:
            partition = space.partitions[space.selection_attributes[slot]]
            alternatives_per_slot.append(
                [
                    subset.index
                    for subset in partition.subsets
                    if subset.index != source.subset_indexes[slot] and subset.has_representative
                ]
            )
        if any(not alternatives for alternatives in alternatives_per_slot):
            continue
        for choice in itertools.product(*alternatives_per_slot):
            indexes = list(source.subset_indexes)
            for slot, subset_index in zip(slots, choice):
                indexes[slot] = subset_index
            yield TupleClass(tuple(indexes))


def _query_key(source_match: bool, destination_match: bool, projected_change: bool) -> tuple:
    """Lemma 5.1: how one pair changes one query's result."""
    if not projected_change:
        if source_match == destination_match:
            return ("same",)
        return ("remove",) if source_match else ("add",)
    if not source_match and not destination_match:
        return ("same",)
    return ("swap", source_match, destination_match)


def _result_edit(key: tuple, result_arity: int, changed_projected: int) -> float:
    """Estimated ``minEdit(R, R_i)`` contribution of one pair under one key."""
    if key[0] == "same":
        return 0.0
    if key[0] in ("remove", "add"):
        return float(result_arity)
    if key[1] and key[2]:
        return float(max(changed_projected, 1))
    return float(result_arity)


class ReferencePairSetSimulator:
    """Per-pair, per-query keys; pair sets grouped by the tuple of their keys."""

    def __init__(self, space: TupleClassSpace, *, result_arity: int) -> None:
        self.space = space
        self.result_arity = result_arity
        self._projection = set(space.queries[0].projection if space.queries else ())
        self._vectors: dict[TupleClass, tuple[bool, ...]] = {}

    def vector(self, tuple_class: TupleClass) -> tuple[bool, ...]:
        """:func:`match_vector`, memoised per class."""
        vector = self._vectors.get(tuple_class)
        if vector is None:
            vector = self._vectors[tuple_class] = match_vector(self.space, tuple_class)
        return vector

    def pair_data(self, pair: ClassPair) -> tuple[tuple, tuple, tuple[str, ...]]:
        """Per-query keys, per-query result edits and changed attributes of one pair."""
        changed = self.space.changed_attributes(pair.source, pair.destination)
        changed_projected = len([a for a in changed if a in self._projection])
        keys, edits = [], []
        for source_match, destination_match in zip(
            self.vector(pair.source), self.vector(pair.destination)
        ):
            key = _query_key(source_match, destination_match, bool(changed_projected))
            keys.append(key)
            edits.append(_result_edit(key, self.result_arity, changed_projected))
        return tuple(keys), tuple(edits), changed

    def effect(self, pairs: Sequence[ClassPair]) -> PairSetEffect:
        pairs = tuple(pairs)
        per_pair = [self.pair_data(pair) for pair in pairs]
        changed_names = list(dict.fromkeys(a for _, _, changed in per_pair for a in changed))
        groups: dict[tuple, int] = {}
        group_costs: dict[tuple, float] = {}
        for query_index in range(len(self.space.queries)):
            signature = tuple(keys[query_index] for keys, _, _ in per_pair)
            groups[signature] = groups.get(signature, 0) + 1
            if signature not in group_costs:
                group_costs[signature] = sum(edits[query_index] for _, edits, _ in per_pair)
        group_sizes = tuple(sorted(groups.values(), reverse=True))
        per_group_costs = tuple(group_costs[key] for key in groups)
        return PairSetEffect(
            pairs=pairs,
            group_sizes=group_sizes,
            balance=balance_score(group_sizes),
            min_edit=sum(pair.edit_cost for pair in pairs),
            modified_attributes=tuple(changed_names),
            modified_tables=tuple(sorted({a.partition(".")[0] for a in changed_names})),
            estimated_result_cost=float(sum(per_group_costs)),
            per_group_result_cost=per_group_costs,
        )

    def reaction_key(self, pair: ClassPair) -> tuple:
        """(source match vector, destination match vector, changed projected count)."""
        changed = self.space.changed_attributes(pair.source, pair.destination)
        return (
            self.vector(pair.source),
            self.vector(pair.destination),
            len([a for a in changed if a in self._projection]),
        )


def reference_skyline(
    space: TupleClassSpace, config: QFEConfig, *, result_arity: int
) -> SkylineResult:
    """Algorithm 3 with one simulated effect per enumerated pair."""
    simulator = ReferencePairSetSimulator(space, result_arity=result_arity)
    budget = max(1, round(config.delta_seconds * PAIRS_PER_DELTA_SECOND))
    pairs: list[ClassPair] = []
    balances: dict[ClassPair, float] = {}
    min_balance = float("inf")
    enumerated = 0
    truncated_time = truncated_cap = False
    best_binary_x: int | None = None
    reaction_keys: set[tuple] = set()
    query_count = len(space.queries)
    for modified_slots in range(1, space.attribute_count + 1):
        level_pairs: list[ClassPair] = []
        for source in space.source_tuple_classes():
            for destination in destination_classes(space, source, modified_slots):
                if enumerated == budget:  # the next pair is beyond δ's budget
                    truncated_time = True
                    break
                enumerated += 1
                pair = ClassPair(source, destination)
                reaction_keys.add(simulator.reaction_key(pair))
                effect = simulator.effect([pair])
                balances[pair] = effect.balance
                if effect.group_count == 2:
                    smaller = min(effect.group_sizes)
                    if smaller < query_count and (best_binary_x is None or smaller > best_binary_x):
                        best_binary_x = smaller
                if effect.balance < min_balance:
                    level_pairs = [pair]
                    min_balance = effect.balance
                elif effect.balance == min_balance and effect.balance != float("inf"):
                    level_pairs.append(pair)
            if truncated_time:
                break
        pairs.extend(level_pairs)
        if len(pairs) >= config.max_skyline_pairs:
            truncated_cap = True
            pairs = pairs[: config.max_skyline_pairs]
            break
        if truncated_time:
            break
    return SkylineResult(
        pairs=pairs,
        pair_balances={p: balances[p] for p in pairs},
        enumerated_pairs=enumerated,
        truncated_by_time=truncated_time,
        truncated_by_cap=truncated_cap,
        most_balanced_binary_x=best_binary_x,
        reaction_keys=len(reaction_keys),
    )


def reference_pick_subset(
    space: TupleClassSpace,
    skyline_pairs: Sequence[ClassPair],
    config: QFEConfig,
    *,
    result_arity: int,
    most_balanced_binary_x: int | None = None,
) -> SubsetSelectionResult:
    """Algorithm 4 with one simulated effect and cost per evaluated pair set."""
    simulator = ReferencePairSetSimulator(space, result_arity=result_arity)
    pairs = list(skyline_pairs)
    sets_evaluated = 0
    best_sets: list[tuple[frozenset[int], PairSetEffect, CostBreakdown]] = []
    best_key: tuple | None = None

    def consider(index_set: frozenset[int], effect: PairSetEffect) -> None:
        nonlocal best_key, best_sets
        cost = cost_of_effect(effect, config, most_balanced_binary_x=most_balanced_binary_x)
        if not effect.partitions_queries:
            return
        key = (cost.total,)
        if best_key is None or key < best_key:
            best_key, best_sets = key, [(index_set, effect, cost)]
        elif key == best_key:
            best_sets.append((index_set, effect, cost))

    frontier: list[tuple[frozenset[int], PairSetEffect]] = []
    for index, pair in enumerate(pairs):
        effect = simulator.effect([pair])
        sets_evaluated += 1
        consider(frozenset([index]), effect)
        frontier.append((frozenset([index]), effect))
    growth_pool = sorted(range(len(pairs)), key=lambda i: (frontier[i][1].balance, i))
    growth_pool = growth_pool[: config.growth_pool_size]
    seen = {index_set for index_set, _ in frontier}
    for _size in range(2, min(config.max_subset_size, len(pairs)) + 1):
        next_frontier: list[tuple[frozenset[int], PairSetEffect]] = []
        for index_set, effect in frontier:
            for index in growth_pool:
                grown = index_set | {index}
                if index in index_set or grown in seen:
                    continue
                seen.add(grown)
                grown_effect = simulator.effect([pairs[i] for i in sorted(grown)])
                sets_evaluated += 1
                if grown_effect.balance < effect.balance:
                    next_frontier.append((grown, grown_effect))
                    consider(grown, grown_effect)
        if not next_frontier:
            break
        if len(next_frontier) > config.max_sets_per_level:
            next_frontier.sort(key=lambda item: item[1].balance)
            next_frontier = next_frontier[: config.max_sets_per_level]
        frontier = next_frontier
    if not best_sets:
        return SubsetSelectionResult((), None, None, sets_evaluated)
    best_sets.sort(key=lambda item: (item[1].balance, sorted(item[0])))
    chosen_indexes, chosen_effect, chosen_cost = best_sets[0]
    return SubsetSelectionResult(
        tuple(pairs[i] for i in sorted(chosen_indexes)),
        chosen_effect,
        chosen_cost,
        sets_evaluated,
    )
