"""Candidate atomic predicates ("atoms") for the selection-predicate search.

For every attribute of the joined relation the generator builds a pool of
candidate :class:`~repro.relational.predicates.Term` objects that *all
positive rows satisfy* (a necessary condition for a term to appear in a
single-conjunct predicate) and that *exclude at least one negative row* (a
term excluding nothing can never help). The conjunction search then combines
atoms from different attributes.

Numeric attributes yield threshold atoms at the boundary between the positive
value range and the nearest excluded values; the ``threshold_variants``
configuration controls how many equivalent-on-D cut points are emitted
(tightest, midpoint, loosest), which is what makes several *distinct but
D-equivalent* candidate queries exist — the redundancy QFE is designed to
winnow. Categorical attributes yield equality / membership atoms over the
positive value set (and negated forms when enabled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.qbo.config import QBOConfig
from repro.relational.columnar import positions_mask
from repro.relational.join import JoinedRelation
from repro.relational.predicates import ComparisonOp, Term
from repro.relational.types import value_sort_key

__all__ = ["Atom", "build_atom_pool"]


@dataclass(frozen=True)
class Atom:
    """A candidate term together with the rows it selects (bit ``i`` = joined row ``i``)."""

    term: Term
    selected: int


def _is_numeric_value(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _midpoint(low: float, high: float) -> float:
    middle = (low + high) / 2.0
    if float(middle).is_integer() and isinstance(low, (int, float)) and isinstance(high, (int, float)):
        return float(middle)
    return middle


def _integer_cut(value: Any, step: float) -> Any:
    """``value + step`` for a ±1.5 cut on an integer column; beyond the float
    range the exact cut selecting the same integers (``x > p - 2``)."""
    try:
        return value + step
    except OverflowError:
        return value + (2 if step > 0 else -2)


def _numeric_atoms(
    attribute: str,
    values: Sequence[Any],
    positive: Sequence[int],
    negative: Sequence[int],
    config: QBOConfig,
) -> list[Term]:
    positive_values = [values[i] for i in positive if values[i] is not None]
    if not positive_values or not all(_is_numeric_value(v) for v in positive_values):
        return []
    # Values stay exact: a float() round-trip would move an integer beyond
    # 2^53 onto a neighbour, and the tight atoms would then miss the positives.
    pos_min = min(positive_values)
    pos_max = max(positive_values)
    negative_values = [
        values[i] for i in negative if values[i] is not None and _is_numeric_value(values[i])
    ]
    # Candidate threshold variants that are equivalent *on this database* are
    # exactly what QFE winnows later — but only when a value could ever fall
    # between them. On an integer-valued column, thresholds with no integer in
    # between are the same query, so emitting both would create permanently
    # indistinguishable candidates.
    integer_domain = all(
        isinstance(v, int) or v.is_integer() for v in positive_values + negative_values
    )
    terms: list[Term] = []

    # Upper-bound atoms: exclude negatives strictly above the positive range.
    above = sorted(v for v in negative_values if v > pos_max)
    if above:
        nearest = above[0]
        variants = [Term(attribute, ComparisonOp.LE, _clean(pos_max))]
        gap_has_value = (nearest - pos_max) > 1 if integer_domain else True
        if config.threshold_variants >= 2 and gap_has_value:
            # On integer columns the cut sits just above the next representable
            # value so it stays distinguishable from the tight LE variant.
            midpoint = _integer_cut(pos_max, 1.5) if integer_domain else _midpoint(pos_max, nearest)
            variants.append(Term(attribute, ComparisonOp.LT, _clean(midpoint)))
        if config.threshold_variants >= 3 and (
            (nearest - pos_max) > 2 if integer_domain else True
        ):
            variants.append(Term(attribute, ComparisonOp.LT, _clean(nearest)))
        terms.extend(variants)

    # Lower-bound atoms: exclude negatives strictly below the positive range.
    below = sorted((v for v in negative_values if v < pos_min), reverse=True)
    if below:
        nearest = below[0]
        variants = [Term(attribute, ComparisonOp.GE, _clean(pos_min))]
        gap_has_value = (pos_min - nearest) > 1 if integer_domain else True
        if config.threshold_variants >= 2 and gap_has_value:
            midpoint = (
                _integer_cut(pos_min, -1.5) if integer_domain else _midpoint(nearest, pos_min)
            )
            variants.append(Term(attribute, ComparisonOp.GT, _clean(midpoint)))
        if config.threshold_variants >= 3 and (
            (pos_min - nearest) > 2 if integer_domain else True
        ):
            variants.append(Term(attribute, ComparisonOp.GT, _clean(nearest)))
        terms.extend(variants)

    # Equality atom when all positives share one value.
    distinct_positive = sorted(set(positive_values))
    if len(distinct_positive) == 1:
        terms.append(Term(attribute, ComparisonOp.EQ, _clean(distinct_positive[0])))
    elif config.allow_membership_terms and 1 < len(distinct_positive) <= 6:
        terms.append(
            Term(attribute, ComparisonOp.IN, tuple(_clean(v) for v in distinct_positive))
        )
    return terms


def _clean(value: Any) -> Any:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _categorical_atoms(
    attribute: str,
    values: Sequence[Any],
    positive: Sequence[int],
    negative: Sequence[int],
    config: QBOConfig,
) -> list[Term]:
    positive_values = sorted(
        {values[i] for i in positive if values[i] is not None}, key=value_sort_key
    )
    if not positive_values:
        return []
    negative_values = sorted(
        {values[i] for i in negative if values[i] is not None}, key=value_sort_key
    )
    terms: list[Term] = []
    if len(positive_values) == 1:
        terms.append(Term(attribute, ComparisonOp.EQ, positive_values[0]))
    elif config.allow_membership_terms and len(positive_values) <= 8:
        terms.append(Term(attribute, ComparisonOp.IN, tuple(positive_values)))
    if config.allow_negated_terms and negative_values:
        excluded = [v for v in negative_values if v not in positive_values]
        if len(excluded) == 1:
            terms.append(Term(attribute, ComparisonOp.NE, excluded[0]))
        elif 1 < len(excluded) <= 8:
            terms.append(Term(attribute, ComparisonOp.NOT_IN, tuple(excluded)))
    return terms


def build_atom_pool(
    joined: JoinedRelation,
    positive: Sequence[int],
    negative: Sequence[int],
    config: QBOConfig,
    *,
    excluded_attributes: Sequence[str] = (),
) -> list[Atom]:
    """Build the pool of candidate atoms for a (join schema, labeling) pair.

    Every returned atom selects all *positive* rows and rejects at least one
    *negative* row; atoms are deterministically ordered by how many negatives
    they reject (most useful first) and then by their textual form. An
    atom's rows are its term's mask in the join's columnar view, so the
    masks are shared with candidate verification over the same join.
    """
    view = joined.columnar()
    positive_mask = positions_mask(positive)
    negative_mask = positions_mask(negative)
    atoms: list[Atom] = []
    for attribute in view.names:
        if attribute in excluded_attributes:
            continue
        values = view.column(attribute)
        candidate_terms = _numeric_atoms(attribute, values, positive, negative, config)
        if not all(_is_numeric_value(values[i]) or values[i] is None for i in positive):
            candidate_terms.extend(
                _categorical_atoms(attribute, values, positive, negative, config)
            )
        for term in candidate_terms:
            selected = view.term_mask(term)
            if positive_mask & ~selected:
                continue
            if negative_mask and not negative_mask & ~selected:
                continue  # rejects nothing — useless
            atoms.append(Atom(term, selected))

    unique: dict[tuple, Atom] = {}
    for atom in atoms:
        key = (atom.term.attribute, atom.term.op.value, atom.term.constants())
        unique.setdefault(key, atom)
    return sorted(
        unique.values(),
        key=lambda a: (-(negative_mask & ~a.selected).bit_count(), str(a.term)),
    )
