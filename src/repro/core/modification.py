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

By Lemma 5.1 one pair affects each candidate in one of four ways, decided
by whether the candidate matches the source and the destination class, so
a pair's whole effect is a function of its :class:`Reaction`: the two
classes' query masks and how many projected attributes it changes. The
simulator interns reactions and memoises the grouping of every multiset
of reactions it meets; a pair set's grouping is partition refinement of
the candidates' bitmask by each reaction's outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.core.tuple_class import TupleClass, TupleClassSpace

__all__ = [
    "ClassPair",
    "Grouping",
    "PairSetEffect",
    "PairSetSimulator",
    "Reaction",
    "balance_score",
    "simulate_pair_set",
]


@dataclass(frozen=True)
class ClassPair:
    """A source/destination tuple-class pair representing one tuple modification.

    A class pair is always realized as E1 modifications of non-key cells of
    existing tuples — never tuple insertions or deletions — which is the only
    change a :class:`~repro.relational.delta.TupleDelta` records. Candidate
    evaluation on ``D'`` (:meth:`JoinCache.evaluate_batch
    <repro.relational.evaluator.JoinCache.evaluate_batch>` with ``delta=``)
    patches the cached base join for every candidate ``D'`` instead of
    rebuilding it.

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


def _lowest_query(group: tuple[int, float]) -> int:
    return group[0] & -group[0]


class Grouping(NamedTuple):
    """How a pair set splits the candidates: the memoised core of a :class:`PairSetEffect`.

    ``groups`` holds one ``(query mask, estimated result cost)`` per group
    (bit ``i`` = candidate ``i``), in no particular order; ``group_sizes`` is
    sorted largest first.
    """

    groups: tuple[tuple[int, float], ...]
    group_sizes: tuple[int, ...]
    balance: float

    @property
    def per_group_result_cost(self) -> tuple[float, ...]:
        """The groups' result costs, in order of each group's lowest candidate."""
        return tuple(cost for _, cost in sorted(self.groups, key=_lowest_query))


class Reaction(NamedTuple):
    """One interned pair reaction and its single-pair grouping.

    ``parts`` splits the candidates by their Lemma 5.1 outcome, one
    ``(query mask, result edit)`` per non-empty outcome.
    """

    index: int
    parts: tuple[tuple[int, float], ...]
    grouping: Grouping


def _reaction_parts(
    source: int,
    destination: int,
    changed_projected: int,
    all_queries: int,
    result_arity: int,
) -> tuple[tuple[int, float], ...]:
    """Lemma 5.1: the candidates grouped by how one pair changes their result.

    *source* and *destination* are the query masks of the two classes. Four
    outcomes are possible: the result is unchanged, loses the modified row's
    projection, gains the new projection, or swaps one for the other. When
    none of the modified attributes is projected, "swap" collapses into
    "unchanged" because the projected values are identical. Each outcome
    carries its estimated ``minEdit(R, R_i)`` contribution: 0 when
    unchanged, the result arity for a lost or gained row, and for a swap
    the number of changed projected attributes when the row stays selected.
    """
    arity = float(result_arity)
    if not changed_projected:
        parts = (
            (all_queries & ~(source ^ destination), 0.0),
            (source & ~destination, arity),
            (destination & ~source, arity),
        )
    else:
        parts = (
            (all_queries & ~(source | destination), 0.0),
            (source & destination, float(changed_projected)),
            (source & ~destination, arity),
            (destination & ~source, arity),
        )
    return tuple(part for part in parts if part[0])


class PairSetSimulator:
    """Simulates pair sets over interned reactions and memoised groupings.

    By Lemma 5.1 a pair's whole effect on the candidates is a function of
    its *reaction*: the source class's query mask, the destination class's
    query mask and how many projected attributes the pair changes.
    Algorithms 3 and 4 meet thousands of pairs but few reactions, so each
    reaction is interned once (:meth:`reaction`), and the grouping of a set
    of pairs — partition refinement of the candidates by each reaction's
    outcome, in ANDs of query masks — is memoised per multiset of reactions
    (:meth:`grouping`). Only the per-pair parts of an effect — modified
    attributes and tables, ``minEdit`` — are computed per :meth:`effect`.
    """

    def __init__(self, space: TupleClassSpace, *, result_arity: int) -> None:
        self.space = space
        self.result_arity = result_arity
        projection = set(space.queries[0].projection if space.queries else ())
        #: Selection slots whose attribute the candidates project.
        self.projected_slots = frozenset(
            slot
            for slot, attribute in enumerate(space.selection_attributes)
            if attribute in projection
        )
        self._all_queries = (1 << len(space.queries)) - 1
        self._reactions: list[Reaction] = []
        self._reaction_of_key: dict[tuple[int, int, int], Reaction] = {}
        self._groupings: dict[tuple[int, ...], Grouping] = {}
        self._balances: dict[tuple[int, ...], float] = {}
        # Per class pair passed to :meth:`effect`: its reaction and changed attributes.
        self._pair_facts: dict[ClassPair, tuple[Reaction, tuple[str, ...]]] = {}

    @property
    def reaction_count(self) -> int:
        """How many distinct reactions have been interned."""
        return len(self._reactions)

    # -------------------------------------------------------------- reactions
    def reaction(
        self, source_queries: int, destination_queries: int, changed_projected: int
    ) -> Reaction:
        """The interned reaction of a pair between classes with these query masks."""
        key = (source_queries, destination_queries, changed_projected)
        reaction = self._reaction_of_key.get(key)
        if reaction is None:
            parts = _reaction_parts(
                source_queries, destination_queries, changed_projected,
                self._all_queries, self.result_arity,
            )
            reaction = Reaction(len(self._reactions), parts, self._grouping_of(parts))
            self._reactions.append(reaction)
            self._reaction_of_key[key] = reaction
        return reaction

    def reaction_of(self, pair: ClassPair) -> Reaction:
        """The reaction of one class pair."""
        return self._facts(pair)[0]

    def _facts(self, pair: ClassPair) -> tuple[Reaction, tuple[str, ...]]:
        facts = self._pair_facts.get(pair)
        if facts is None:
            space = self.space
            slots = pair.changed_slots()
            reaction = self.reaction(
                space.query_mask(pair.source),
                space.query_mask(pair.destination),
                sum(1 for slot in slots if slot in self.projected_slots),
            )
            facts = (reaction, tuple(space.selection_attributes[slot] for slot in slots))
            self._pair_facts[pair] = facts
        return facts

    # -------------------------------------------------------------- groupings
    def grouping(self, reactions: Sequence[Reaction]) -> Grouping:
        """The grouping of a pair set with these reactions (order-insensitive)."""
        return self._grouping_of_key(tuple(sorted(reaction.index for reaction in reactions)))

    def _grouping_of_key(self, key: tuple[int, ...]) -> Grouping:
        if len(key) == 1:
            return self._reactions[key[0]].grouping
        grouping = self._groupings.get(key)
        if grouping is None:
            if not key:
                groups = [(self._all_queries, 0)] if self._all_queries else []
            else:
                # Two candidates share a group when every pair gives them
                # the same outcome: intersect each group of the multiset
                # without the last reaction with each of its outcomes.
                groups = [
                    (queries & part, cost + edit)
                    for queries, cost in self._grouping_of_key(key[:-1]).groups
                    for part, edit in self._reactions[key[-1]].parts
                    if queries & part
                ]
            grouping = self._groupings[key] = self._grouping_of(groups)
        return grouping

    def _grouping_of(self, groups: Sequence[tuple[int, float]]) -> Grouping:
        """Score (query mask, result cost) groups: sizes and balance."""
        group_sizes = tuple(sorted([queries.bit_count() for queries, _ in groups], reverse=True))
        balance = self._balances.get(group_sizes)
        if balance is None:
            balance = self._balances[group_sizes] = balance_score(group_sizes)
        return Grouping(tuple(groups), group_sizes, balance)

    # -------------------------------------------------------------- pair sets
    def effect(self, pairs: Sequence[ClassPair]) -> PairSetEffect:
        """Simulate applying *pairs*: query partition, balance, edit costs.

        Two queries that react identically to every modification produce the
        same result on the modified database (at the tuple-class level of
        abstraction), so they share a group. ``balance`` follows Section 3
        (standard deviation of group sizes divided by the number of groups),
        with the degenerate single-group case mapped to infinity so
        non-distinguishing modifications are never preferred.
        """
        pairs = tuple(pairs)
        facts = [self._facts(pair) for pair in pairs]
        grouping = self.grouping([reaction for reaction, _ in facts])
        changed_attribute_names = tuple(
            dict.fromkeys(attribute for _, changed in facts for attribute in changed)
        )
        modified_tables = tuple(
            sorted({attribute.partition(".")[0] for attribute in changed_attribute_names})
        )
        per_group_result_cost = grouping.per_group_result_cost
        return PairSetEffect(
            pairs=pairs,
            group_sizes=grouping.group_sizes,
            balance=grouping.balance,
            min_edit=sum(len(changed) for _, changed in facts),
            modified_attributes=changed_attribute_names,
            modified_tables=modified_tables,
            estimated_result_cost=float(sum(per_group_result_cost)),
            per_group_result_cost=per_group_result_cost,
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
