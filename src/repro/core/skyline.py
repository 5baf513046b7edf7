"""Algorithm 3: Skyline-STC-DTC-Pairs.

Enumerate candidate single-tuple modifications — (source tuple class,
destination tuple class) pairs — in order of non-descending minimum edit cost
``i = 1..n`` (number of modified selection attributes). Within each edit cost
the algorithm keeps the pairs whose single-pair balance score matches the best
balance seen so far (the paper's pseudocode keeps a running ``minbalance``
across iterations), which yields a skyline over (balance, minEdit): a pair
with a higher edit cost survives only if it achieves a strictly better
balance than every cheaper pair.

The enumeration is bounded by the wall-clock threshold ``δ``
(``config.delta_seconds``) exactly as in the paper — when the budget is
exhausted the pairs found so far are returned — plus a hard cap on the number
of returned pairs (``config.max_skyline_pairs``) that Table 5 shows is
harmless for partitioning quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.core.config import QFEConfig
from repro.core.modification import ClassPair, PairSetSimulator
from repro.core.tuple_class import TupleClassSpace

__all__ = ["SkylineResult", "skyline_stc_dtc_pairs"]


@dataclass
class SkylineResult:
    """Output of Algorithm 3 plus the diagnostics the cost model and tables need."""

    pairs: list[ClassPair]
    pair_balances: dict[ClassPair, float]
    enumerated_pairs: int
    elapsed_seconds: float
    truncated_by_time: bool
    truncated_by_cap: bool
    most_balanced_binary_x: int | None

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
    started = perf_counter()
    deadline = started + config.delta_seconds
    pairs: list[ClassPair] = []
    balances: dict[ClassPair, float] = {}
    min_balance = float("inf")
    enumerated = 0
    truncated_time = False
    truncated_cap = False
    best_binary_x: int | None = None
    query_count = len(space.queries)

    source_classes = space.source_tuple_classes()
    attribute_count = space.attribute_count

    for modified_slots in range(1, attribute_count + 1):
        level_pairs: list[ClassPair] = []
        for source in source_classes:
            for destination in space.destination_classes(source, modified_slots):
                enumerated += 1
                pair = ClassPair(source, destination)
                effect = simulator.effect([pair])
                balance = effect.balance
                balances[pair] = balance
                # Track the most balanced *binary* partitioning for Lemma 3.1.
                if effect.group_count == 2:
                    smaller = min(effect.group_sizes)
                    if smaller < query_count and (best_binary_x is None or smaller > best_binary_x):
                        best_binary_x = smaller
                if balance < min_balance:
                    level_pairs = [pair]
                    min_balance = balance
                elif balance == min_balance and balance != float("inf"):
                    level_pairs.append(pair)
                if enumerated % 64 == 0 and perf_counter() > deadline:
                    truncated_time = True
                    break
            if truncated_time:
                break
        pairs.extend(level_pairs)
        if len(pairs) >= config.max_skyline_pairs:
            truncated_cap = True
            pairs = pairs[: config.max_skyline_pairs]
            break
        if truncated_time:
            break
        if perf_counter() > deadline:
            truncated_time = True
            break

    elapsed = perf_counter() - started
    return SkylineResult(
        pairs=pairs,
        pair_balances={p: balances[p] for p in pairs},
        enumerated_pairs=enumerated,
        elapsed_seconds=elapsed,
        truncated_by_time=truncated_time,
        truncated_by_cap=truncated_cap,
        most_balanced_binary_x=best_binary_x,
    )
