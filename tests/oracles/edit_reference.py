"""Reference identical-row matching for ``minEdit``: canonicalize every cell.

:func:`match_identical_rows_reference` is
``repro.relational.edit._match_identical_rows`` as it was while it keyed each
row on ``Relation._normalize_row`` (every cell through
:func:`~repro.relational.types.canonical_value`). The matcher now keys rows on
their stored value tuples; both must pair the same rows, in the same order,
so every ``Δ(R, R_i)`` script stays the same.
"""

from __future__ import annotations

from repro.relational.relation import Relation


def match_identical_rows_reference(
    source: Relation, target: Relation
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Greedily pair up rows equal after canonicalization; return the pairs and the leftovers."""
    target_buckets: dict[tuple, list[int]] = {}
    for j, row in enumerate(target.tuples):
        target_buckets.setdefault(Relation._normalize_row(row.values), []).append(j)

    matched: list[tuple[int, int]] = []
    leftover_source: list[int] = []
    consumed_targets: set[int] = set()
    for i, row in enumerate(source.tuples):
        bucket = target_buckets.get(Relation._normalize_row(row.values))
        if bucket:
            j = bucket.pop()
            matched.append((i, j))
            consumed_targets.add(j)
        else:
            leftover_source.append(i)
    leftover_target = [j for j in range(len(target.tuples)) if j not in consumed_targets]
    return matched, leftover_source, leftover_target
