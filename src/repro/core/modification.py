"""(STC, DTC) class pairs and the simulated effect of applying them.

A *class pair* ``(s, d)`` stands for "take some joined row whose tuple class
is ``s`` and modify its selection-attribute values so the row moves to class
``d``" (Section 5.1). Before any concrete tuple is touched, the Database
Generator needs to know — for a *set* of class pairs — how the surviving
candidate queries would partition, how large the database edit would be, and
roughly how far each induced result drifts from the original ``R``. This
module computes those tuple-class-level simulations; they drive the balance
scores and the Equation (5) cost used by Algorithms 3 and 4, while the exact
partition is recomputed on the materialized database afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.tuple_class import TupleClass, TupleClassSpace

__all__ = ["ClassPair", "PairSetEffect", "PairSetSimulator", "balance_score", "simulate_pair_set"]


@dataclass(frozen=True)
class ClassPair:
    """A source/destination tuple-class pair representing one tuple modification.

    A class pair is always realized as E1 attribute modifications of existing
    tuples — never tuple insertions or deletions — so the
    :class:`~repro.relational.delta.TupleDelta` its materialization records
    is update-only (:attr:`is_update_only`). That is the contract the
    delta-derived evaluation path (:meth:`JoinCache.derive
    <repro.relational.evaluator.JoinCache.derive>`) relies on to patch the
    cached join instead of rebuilding it for every candidate ``D'``.

    Class pairs are plain frozen dataclasses over tuples of ints, and their
    materialization is a deterministic function of ``(tuple-class space,
    pair sequence, config)``, which is what makes a round's winning attempt
    reproducible.
    """

    source: TupleClass
    destination: TupleClass

    @property
    def edit_cost(self) -> int:
        """``minEdit(s, d)``: how many selection attributes the modification touches."""
        return self.source.edit_distance(self.destination)

    @property
    def is_update_only(self) -> bool:
        """Class pairs modify attribute values in place; they never insert/delete tuples."""
        return True

    def changed_slots(self) -> tuple[int, ...]:
        """Positions of the selection attributes whose domain subset changes."""
        return self.source.differing_positions(self.destination)


@dataclass(frozen=True)
class PairSetEffect:
    """The simulated, tuple-class-level effect of applying a set of class pairs."""

    pairs: tuple[ClassPair, ...]
    group_sizes: tuple[int, ...]
    balance: float
    min_edit: int
    modified_attributes: tuple[str, ...]
    modified_tables: tuple[str, ...]
    estimated_result_cost: float
    per_group_result_cost: tuple[float, ...]

    @property
    def group_count(self) -> int:
        """How many result-equivalence classes the modification induces (``k``)."""
        return len(self.group_sizes)

    @property
    def partitions_queries(self) -> bool:
        """Whether the modification distinguishes at least two candidate queries."""
        return self.group_count > 1

    @property
    def modified_tuple_estimate(self) -> int:
        """The ``µ`` of Section 3: one modified base tuple per class pair."""
        return len(self.pairs)


def _per_pair_query_key(
    source_match: bool,
    destination_match: bool,
    projected_change: bool,
) -> tuple:
    """The result-effect key of one pair for one query (see Lemma 5.1).

    Four outcomes are possible: the result is unchanged, loses the modified
    row's projection, gains the new projection, or swaps one for the other.
    When none of the modified attributes is projected, "swap" collapses into
    "unchanged" because the projected values are identical.
    """
    if not projected_change:
        if source_match == destination_match:
            return ("same",)
        return ("remove",) if source_match else ("add",)
    if not source_match and not destination_match:
        return ("same",)
    return ("swap", source_match, destination_match)


def _per_pair_result_edit(
    key: tuple,
    result_arity: int,
    changed_projected_attributes: int,
) -> float:
    """Estimated ``minEdit(R, R_i)`` contribution of one pair under one key."""
    if key[0] == "same":
        return 0.0
    if key[0] in ("remove", "add"):
        return float(result_arity)
    source_match, destination_match = key[1], key[2]
    if source_match and destination_match:
        return float(max(changed_projected_attributes, 1))
    return float(result_arity)


class PairSetSimulator:
    """Precomputes per-pair, per-query effects so pair *sets* evaluate in O(|QC|·|S|).

    Algorithms 3 and 4 evaluate thousands of candidate pair sets against the
    same tuple-class space; the per-(pair, query) reaction keys and result-edit
    contributions never change, so they are computed once per pair on first use
    and combined cheaply for every set containing the pair.
    """

    def __init__(self, space: TupleClassSpace, *, result_arity: int) -> None:
        self.space = space
        self.result_arity = result_arity
        projection = space.queries[0].projection if space.queries else ()
        self._projection_set = set(projection)
        self._pair_cache: dict[ClassPair, tuple[tuple[tuple, ...], tuple[float, ...], tuple[str, ...]]] = {}

    # ------------------------------------------------------------- per pair
    def _pair_data(self, pair: ClassPair) -> tuple[tuple[tuple, ...], tuple[float, ...], tuple[str, ...]]:
        cached = self._pair_cache.get(pair)
        if cached is not None:
            return cached
        space = self.space
        changed = space.changed_attributes(pair.source, pair.destination)
        changed_projected = [a for a in changed if a in self._projection_set]
        projected_change = bool(changed_projected)
        # One batch probe per class: the space's compiled predicates evaluate
        # every candidate against the source/destination classes at once.
        source_matches = space.match_vector(pair.source)
        destination_matches = space.match_vector(pair.destination)
        keys: list[tuple] = []
        edits: list[float] = []
        for source_match, destination_match in zip(source_matches, destination_matches):
            key = _per_pair_query_key(source_match, destination_match, projected_change)
            keys.append(key)
            edits.append(_per_pair_result_edit(key, self.result_arity, len(changed_projected)))
        data = (tuple(keys), tuple(edits), changed)
        self._pair_cache[pair] = data
        return data

    # -------------------------------------------------------------- pair sets
    def effect(self, pairs: Sequence[ClassPair]) -> PairSetEffect:
        """Simulate applying *pairs*: query partition, balance, edit costs.

        The queries are grouped by the tuple of their per-pair keys: two queries
        that react identically to every modification produce the same result on
        the modified database (at the tuple-class level of abstraction).
        ``balance`` follows Section 3 (standard deviation of group sizes divided
        by the number of groups), with the degenerate single-group case mapped
        to infinity so non-distinguishing modifications are never preferred.
        """
        pairs = tuple(pairs)
        per_pair = [self._pair_data(pair) for pair in pairs]

        changed_attribute_names: list[str] = []
        for _, _, changed in per_pair:
            changed_attribute_names.extend(changed)
        changed_attribute_names = list(dict.fromkeys(changed_attribute_names))
        modified_tables = tuple(
            sorted({attribute.partition(".")[0] for attribute in changed_attribute_names})
        )

        groups: dict[tuple, int] = {}
        group_result_costs: dict[tuple, float] = {}
        for query_index in range(len(self.space.queries)):
            signature = tuple(keys[query_index] for keys, _, _ in per_pair)
            groups[signature] = groups.get(signature, 0) + 1
            if signature not in group_result_costs:
                group_result_costs[signature] = sum(
                    edits[query_index] for _, edits, _ in per_pair
                )

        group_sizes = tuple(sorted(groups.values(), reverse=True))
        balance = balance_score(group_sizes)
        min_edit = sum(pair.edit_cost for pair in pairs)
        per_group_costs = tuple(group_result_costs[key] for key in groups)
        return PairSetEffect(
            pairs=pairs,
            group_sizes=group_sizes,
            balance=balance,
            min_edit=min_edit,
            modified_attributes=tuple(changed_attribute_names),
            modified_tables=modified_tables,
            estimated_result_cost=float(sum(per_group_costs)),
            per_group_result_cost=per_group_costs,
        )


def simulate_pair_set(
    space: TupleClassSpace,
    pairs: Sequence[ClassPair],
    *,
    result_arity: int,
) -> PairSetEffect:
    """One-off simulation of a pair set (convenience wrapper over the simulator)."""
    return PairSetSimulator(space, result_arity=result_arity).effect(pairs)


def balance_score(group_sizes: Sequence[int]) -> float:
    """``balance(D') = σ/|C|`` over the induced query-subset sizes.

    A single-group "partition" (the modification does not distinguish any
    queries) scores +infinity so it can never be selected.
    """
    if len(group_sizes) <= 1:
        return float("inf")
    mean = sum(group_sizes) / len(group_sizes)
    variance = sum((size - mean) ** 2 for size in group_sizes) / len(group_sizes)
    return (variance ** 0.5) / len(group_sizes)
