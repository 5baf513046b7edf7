"""Row labeling: which joined rows must (not) be selected to reproduce R.

Given a materialized join ``T`` of a candidate join schema, a projection
mapping and the example result ``R``, every row of ``T`` falls into one of
three classes under bag semantics:

* **positive** — its projected value is required by ``R`` and every row with
  that projected value is needed (required multiplicity equals availability);
* **negative** — its projected value does not occur in ``R`` (required
  multiplicity zero);
* **ambiguous** — some but not all rows sharing its projected value are
  needed (0 < required < available). Candidate predicates cannot be validated
  purely from positives/negatives in this case; the generator still searches
  using the must/must-not rows and relies on the final exact bag-equality
  verification to accept or reject each candidate.

The labeling also detects infeasible projections early (``R`` requires more
copies of a value than the join provides).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.relational.join import JoinedRelation
from repro.relational.relation import Relation

__all__ = ["RowLabeling", "label_rows"]


@dataclass(frozen=True)
class RowLabeling:
    """The outcome of labeling the joined rows against an example result."""

    feasible: bool
    positive_rows: tuple[int, ...]
    negative_rows: tuple[int, ...]
    ambiguous_rows: tuple[int, ...]
    required_counts: dict

    @property
    def has_ambiguity(self) -> bool:
        """Whether some projected-value group is only partially required."""
        return bool(self.ambiguous_rows)

    @property
    def is_trivially_all(self) -> bool:
        """Whether selecting every joined row already reproduces the result."""
        return self.feasible and not self.negative_rows and not self.ambiguous_rows


def label_rows(
    joined: JoinedRelation,
    projection_positions: Sequence[int],
    result: Relation,
    *,
    set_semantics: bool = False,
) -> RowLabeling:
    """Label every joined row as positive / negative / ambiguous w.r.t. *result*.

    ``projection_positions`` are column positions in the joined relation that
    map (in order) to the result's columns.
    """
    # Raw value tuples as keys: ``==`` and ``hash`` already equate 1, 1.0
    # and True, and stay exact for integers beyond 2^53.
    required: Counter = Counter(result.rows())
    view = joined.columnar()
    projected = [view.column(view.names[p]) for p in projection_positions]
    groups: dict[tuple, list[int]] = {}
    for position, key in enumerate(zip(*projected)):
        groups.setdefault(key, []).append(position)

    # Feasibility: every required projected value must be producible, with
    # enough multiplicity under bag semantics.
    for key, count in required.items():
        available = len(groups.get(key, ()))
        if available == 0:
            return RowLabeling(False, (), (), (), dict(required))
        if not set_semantics and available < count:
            return RowLabeling(False, (), (), (), dict(required))

    positives: list[int] = []
    negatives: list[int] = []
    ambiguous: list[int] = []
    for key, positions in groups.items():
        needed = required.get(key, 0)
        if needed == 0:
            negatives.extend(positions)
        elif set_semantics or needed >= len(positions):
            positives.extend(positions)
        else:
            ambiguous.extend(positions)
    return RowLabeling(
        True,
        tuple(sorted(positives)),
        tuple(sorted(negatives)),
        tuple(sorted(ambiguous)),
        dict(required),
    )
