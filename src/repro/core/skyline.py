"""Algorithm 3: Skyline-STC-DTC-Pairs.

Enumerate candidate single-tuple modifications — (source tuple class,
destination tuple class) pairs — in order of non-descending minimum edit cost
``i = 1..n`` (number of modified selection attributes). Within each edit cost
the algorithm keeps the pairs whose single-pair balance score matches the best
balance seen so far (the paper's pseudocode keeps a running ``minbalance``
across iterations), which yields a skyline over (balance, minEdit): a pair
with a higher edit cost survives only if it achieves a strictly better
balance than every cheaper pair.

Each DTC is a conjunct mask — the source's unchanged slots ANDed with one
mask per changed slot (:meth:`TupleClassSpace.destination_groups`) — and
each pair's balance is its interned reaction's
(:meth:`PairSetSimulator.reaction`), so the enumeration calls no predicate
and builds a :class:`ClassPair` only for the pairs a level keeps.

The paper bounds the enumeration by a wall-clock threshold ``δ``
(``config.delta_seconds``); here ``δ`` buys a fixed amount of work instead:
at most ``max(1, round(δ · PAIRS_PER_DELTA_SECOND))`` enumerated pairs, the
pairs found so far being returned once the budget is spent. No clock is read,
so a round's enumeration depends only on its tuple-class space and config,
on any machine and under any load. A hard cap on the number of returned pairs
(``config.max_skyline_pairs``), which Table 5 shows is harmless for
partitioning quality, bounds the output as well.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

from repro.core.config import QFEConfig
from repro.core.modification import ClassPair, PairSetSimulator, Reaction
from repro.core.tuple_class import TupleClassSpace

__all__ = ["PAIRS_PER_DELTA_SECOND", "SkylineResult", "skyline_stc_dtc_pairs"]

#: Enumerated pairs one second of ``δ`` buys: the rate Algorithm 3's largest
#: rounds run at on an idle 2-vCPU machine (0.7–1.6 M pairs/s), so the
#: default ``δ`` = 1 s takes about a second there and longer on a slower one.
PAIRS_PER_DELTA_SECOND = 1_000_000


@dataclass
class SkylineResult:
    """Output of Algorithm 3 plus the diagnostics the cost model and tables need."""

    pairs: list[ClassPair]
    pair_balances: dict[ClassPair, float]
    enumerated_pairs: int
    truncated_by_time: bool
    truncated_by_cap: bool
    most_balanced_binary_x: int | None
    #: Distinct pair reactions among the enumerated pairs.
    reaction_keys: int = 0

    @property
    def truncated_by(self) -> str | None:
        """What ended the enumeration early: ``"time"``, ``"cap"`` or ``None``.

        ``"time"`` means ``δ``'s pair budget ended it: a pair beyond the budget
        existed. It takes precedence: a level the budget cut short may still
        exceed the cap.
        """
        if self.truncated_by_time:
            return "time"
        if self.truncated_by_cap:
            return "cap"
        return None

    @property
    def pair_count(self) -> int:
        """Number of skyline pairs returned (the |SP| of Tables 1 and 4)."""
        return len(self.pairs)

    def singles_ordered_by_balance(self) -> list[ClassPair]:
        """Skyline pairs in the deterministic fallback order of the round planner.

        Ordered by (single-pair balance, textual representation): the order in
        which single-pair materialization attempts are tried when the chosen
        subset fails to distinguish concretely. The round planner tries them
        in exactly this order, so the order also fixes which attempt wins.
        """
        return sorted(
            self.pairs,
            key=lambda pair: (self.pair_balances.get(pair, float("inf")), str(pair)),
        )


def skyline_stc_dtc_pairs(
    space: TupleClassSpace,
    config: QFEConfig,
    *,
    result_arity: int,
    simulator: PairSetSimulator | None = None,
) -> SkylineResult:
    """Run Algorithm 3 over the tuple-class space of the current iteration."""
    simulator = simulator or PairSetSimulator(space, result_arity=result_arity)
    # δ's pair budget: at least one pair, and sys.maxsize where the product overflows.
    budget = max(1, round(min(config.delta_seconds * PAIRS_PER_DELTA_SECOND, sys.maxsize)))
    pairs: list[ClassPair] = []
    balances: dict[ClassPair, float] = {}
    min_balance = float("inf")
    enumerated = 0
    stopped = False
    truncated_cap = False
    projected = simulator.projected_slots
    queries_of_conjuncts = space.queries_of_conjuncts
    # (source query mask, changed projected count) -> DTC conjunct mask -> reaction.
    tables: dict[tuple[int, int], dict[int, Reaction]] = {}
    reactions_seen: dict[int, Reaction] = {}

    source_classes = space.source_tuple_classes()
    attribute_count = space.attribute_count

    for modified_slots in range(1, attribute_count + 1):
        # The level's pairs tied at the best balance, as (source, slots, choice).
        level: list[tuple] = []
        for source in source_classes:
            source_queries = space.query_mask(source)
            for slots, base, alternatives in space.destination_groups(source, modified_slots):
                changed_projected = sum(1 for slot in slots if slot in projected)
                table = tables.setdefault((source_queries, changed_projected), {})
                for choice in itertools.product(*alternatives):
                    if enumerated == budget:  # a pair beyond the budget exists
                        stopped = True
                        break
                    mask = base
                    for _, slot_mask in choice:
                        mask &= slot_mask
                    enumerated += 1
                    reaction = table.get(mask)
                    if reaction is None:
                        reaction = table[mask] = simulator.reaction(
                            source_queries, queries_of_conjuncts(mask), changed_projected
                        )
                        reactions_seen[reaction.index] = reaction
                    balance = reaction.grouping.balance
                    if balance < min_balance:
                        level = [(source, slots, choice)]
                        min_balance = balance
                    elif balance == min_balance and balance != float("inf"):
                        level.append((source, slots, choice))
                if stopped:
                    break
            if stopped:
                break
        for source, slots, choice in level:
            pair = ClassPair(source, space.destination(source, slots, choice))
            pairs.append(pair)
            balances[pair] = min_balance
        if len(pairs) >= config.max_skyline_pairs:
            truncated_cap = True
            pairs = pairs[: config.max_skyline_pairs]
            break
        if stopped:
            break

    # The most balanced *binary* partitioning any enumerated pair makes
    # (Lemma 3.1): the largest smaller side of a two-group split.
    best_binary_x = max(
        (
            min(reaction.grouping.group_sizes)
            for reaction in reactions_seen.values()
            if len(reaction.grouping.group_sizes) == 2
        ),
        default=None,
    )
    return SkylineResult(
        pairs=pairs,
        pair_balances={p: balances[p] for p in pairs},
        enumerated_pairs=enumerated,
        truncated_by_time=stopped,
        truncated_by_cap=truncated_cap,
        most_balanced_binary_x=best_binary_x,
        reaction_keys=len(reactions_seen),
    )
