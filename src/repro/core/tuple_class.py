"""Tuple classes (Section 5.1): the abstraction the Database Generator searches.

Given the joined relation ``T`` and the surviving candidate queries ``QC``,
every attribute ``A_i`` appearing in a selection predicate of ``QC`` has its
domain partitioned into a minimum collection of subsets ``P_QC(A_i)`` such
that each selection term on ``A_i`` is constant (all-true or all-false) on
each subset. A *tuple class* is a choice of one subset per selection
attribute; every tuple of ``T`` belongs to exactly one tuple class, and every
candidate query either matches all tuples of a class or none of them.

The module provides:

* :class:`DomainSubset` / :class:`DomainPartition` — the per-attribute
  partition, for both ordered (numeric) and categorical domains, each subset
  carrying representative values used when materializing modifications;
* :class:`TupleClass` — one combination of subsets;
* :class:`TupleClassSpace` — the partitions for all selection attributes, the
  mapping of joined rows to their source tuple classes (STCs), query
  matching as bitmasks, and the enumeration of destination tuple classes
  (DTCs) at a given edit distance.

Matching is decided once per (selection slot, domain subset): a conjunct
mask records which candidate conjuncts hold on the subset's representative
value, a class's mask is the AND of its slots' masks, and a DTC's mask is
its source's unchanged slots ANDed with one mask per changed slot, so
Algorithm 3 enumerates DTCs without calling a predicate.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.relational.join import JoinedRelation
from repro.exceptions import EvaluationError
from repro.relational.predicates import Conjunct, Term, compile_term
from repro.relational.query import SPJQuery
from repro.relational.types import exact_repr, value_sort_key

__all__ = ["DomainSubset", "DomainPartition", "TupleClass", "TupleClassSpace"]


def _beyond_float(value: Any) -> bool:
    """Whether *value* is an int no double can hold (mixing it with a float raises)."""
    return isinstance(value, int) and not -sys.float_info.max <= value <= sys.float_info.max


def _double_lies_beyond(probe: Any, end: Any, direction: int) -> bool:
    """Whether *probe*, stored as a double, lies strictly below (-1) or above (+1) *end*."""
    return (
        -sys.float_info.max <= probe <= sys.float_info.max
        and direction * float(probe) > direction * end
    )


# --------------------------------------------------------------------- subsets
@dataclass(frozen=True)
class DomainSubset:
    """One block of a selection attribute's domain partition.

    ``signature`` records, per selection term on the attribute, whether the
    block satisfies it; two values in the same block are indistinguishable to
    every candidate query. ``representatives`` are concrete values from the
    block — active-domain values first, then synthesized ones — used when the
    Database Generator materializes a modification into this block.
    """

    attribute: str
    index: int
    signature: tuple[bool, ...]
    representatives: tuple[Any, ...]
    description: str

    @property
    def has_representative(self) -> bool:
        """Whether a concrete value can be drawn from this block."""
        return bool(self.representatives)

    def representative(self) -> Any:
        """The preferred concrete value of this block."""
        if not self.representatives:
            raise ValueError(f"domain subset {self.description} has no representative value")
        return self.representatives[0]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.attribute}∈{self.description}"


class DomainPartition:
    """The partition ``P_QC(A)`` of one selection attribute's domain.

    A value's *signature* is one verdict per term, from the term's compiled
    test (:func:`~repro.relational.predicates.compile_term`). The build signs
    every probe and active value once, through a memo keyed on the exact
    value: ``==`` and ``hash`` equate ``1``, ``1.0`` and ``True``, exactly as
    every compiled test does, and keep distinct floats and integers beyond
    2^53 distinct. After the build the partition keeps each signed value's
    block index, so :meth:`subset_of_value` signs only values it has not met.
    """

    def __init__(self, attribute: str, terms: Sequence[Term], active_values: Sequence[Any]) -> None:
        self.attribute = attribute
        self.terms = tuple(terms)
        self._tests = tuple(compile_term(term) for term in self.terms)
        self._signatures: dict[Any, tuple[bool, ...]] = {}
        self.subsets: tuple[DomainSubset, ...] = tuple(self._build_subsets(list(active_values)))
        self._index_of_signature = {subset.signature: subset.index for subset in self.subsets}
        self._index_of_value = {
            value: self._index_of_signature[signature]
            for value, signature in self._signatures.items()
        }
        del self._signatures
        # A value whose signature no block carries (possible for a NULL) goes
        # to the first all-false block, else to block 0. Either may hold a
        # candidate the value does not satisfy: a known defect, pinned by
        # ``TestNullRowClasses`` in the tuple-class tests.
        self._unseen_index = next(
            (subset.index for subset in self.subsets if not any(subset.signature)), 0
        )

    # ------------------------------------------------------------------ build
    def _sign(self, value: Any) -> tuple[bool, ...]:
        signature = self._signatures.get(value)
        if signature is None:
            signature = tuple(test(value) for test in self._tests)
            self._signatures[value] = signature
        return signature

    def _build_subsets(self, active_values: list[Any]) -> list[DomainSubset]:
        numeric_active = [
            v for v in active_values if isinstance(v, (int, float)) and not isinstance(v, bool)
        ]
        all_numeric = bool(active_values) and len(numeric_active) == len(active_values)
        numeric_constants = [
            c
            for term in self.terms
            for c in term.constants()
            if isinstance(c, (int, float)) and not isinstance(c, bool)
        ]
        if all_numeric or (not active_values and numeric_constants):
            return self._build_numeric_subsets(numeric_active)
        return self._build_categorical_subsets(active_values)

    def _build_numeric_subsets(self, active_values: list[Any]) -> list[DomainSubset]:
        # Atomic intervals induced by every numeric constant, then merged by
        # term signature so the partition is minimal (Example 5.1). Constants
        # are kept exact (integral floats collapse onto the equal int, large
        # ints never round-trip through a double) so neighbouring integer
        # breakpoints ≥ 2^53 stay distinct.
        breakpoints = sorted(
            {
                self._clean_number(c)
                for term in self.terms
                for c in term.constants()
                if isinstance(c, (int, float)) and not isinstance(c, bool)
            }
        )
        probes: list[Any] = []
        interval_labels: list[str] = []
        if not breakpoints:
            probes = [0.0]
            interval_labels = ["(-inf, +inf)"]
        else:
            below, above = self._outer_probes(breakpoints[0], breakpoints[-1])
            probes.append(below)
            interval_labels.append(f"(-inf, {self._label(breakpoints[0])})")
            for point, upper in zip(breakpoints, breakpoints[1:]):
                probes.append(point)
                interval_labels.append(f"[{self._label(point)}]")
                middle = self._midpoint(point, upper)
                if middle is not None:
                    probes.append(middle)
                    interval_labels.append(f"({self._label(point)}, {self._label(upper)})")
            last = breakpoints[-1]
            probes.extend((last, above))
            interval_labels.extend((f"[{self._label(last)}]", f"({self._label(last)}, +inf)"))

        groups: dict[tuple[bool, ...], dict[str, list[Any]]] = {}
        for probe, label in zip(probes, interval_labels):
            bucket = groups.setdefault(self._sign(probe), {"labels": [], "synth": [], "active": []})
            bucket["labels"].append(label)
            bucket["synth"].append(self._clean_number(probe))
        for value in sorted(set(active_values)):
            bucket = groups.setdefault(self._sign(value), {"labels": [], "synth": [], "active": []})
            bucket["active"].append(self._clean_number(value))

        subsets: list[DomainSubset] = []
        for index, (signature, bucket) in enumerate(groups.items()):
            representatives = tuple(dict.fromkeys(bucket["active"] + bucket["synth"]))
            description = " ∪ ".join(dict.fromkeys(bucket["labels"])) or "{active}"
            subsets.append(
                DomainSubset(self.attribute, index, signature, representatives, description)
            )
        return subsets

    @staticmethod
    def _clean_number(value: Any) -> Any:
        """Canonical exact form of a numeric value (no float() round-trip).

        Integral floats collapse onto the exactly-equal int; ints — including
        those ≥ 2^53, which ``float(value)`` would corrupt — pass through
        unchanged, so a domain-subset representative written back into a
        materialized database is always the exact active-domain value.
        """
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return value

    @staticmethod
    def _label(value: Any) -> str:
        """Exact interval-boundary rendering for subset descriptions.

        Integers print exactly ("{:g}" would show 2^53 and 2^53 + 1 as the
        same '9.0072e+15', giving distinct subsets identical user-facing
        labels); floats keep the compact "{:g}" form. An integer with more
        decimal digits than ``sys.get_int_max_str_digits()`` allows prints in
        hex (:func:`~repro.relational.types.exact_repr`).
        """
        return exact_repr(value) if isinstance(value, int) else f"{value:g}"

    @staticmethod
    def _outer_probes(first: Any, last: Any) -> tuple[Any, Any]:
        """Probes strictly below the first and above the last breakpoint.

        Each lies one spread (the breakpoints' range, at least 1) out when a
        double holds it and, stored as a double, it stays outside its
        breakpoint. Otherwise (an int beyond the float range, whose mixed
        arithmetic with a float raises OverflowError; a sum past the largest
        double; an end ≥ 2^53 whose spacing swallows the spread) the end
        steps out on its own (:meth:`_step_out`).
        """
        if _beyond_float(first) or _beyond_float(last):
            return DomainPartition._step_out(first, -1), DomainPartition._step_out(last, 1)
        spread = max(last - first, 1)
        below, above = first - spread, last + spread
        if not _double_lies_beyond(below, first, -1):
            below = DomainPartition._step_out(first, -1)
        if not _double_lies_beyond(above, last, 1):
            above = DomainPartition._step_out(last, 1)
        return below, above

    @staticmethod
    def _step_out(end: Any, direction: int) -> Any:
        """A probe strictly below (*direction* -1) or above (+1) the breakpoint *end*.

        The nearest int beyond *end*, exact in ints where a double cannot hold
        *end*; where a double holds *end*, that int only if it still lies
        beyond *end* as a double (a FLOAT column stores it so), else the next
        double out. Nothing lies beyond an infinite end, so it stays put.
        """
        if _beyond_float(end):
            return end + direction
        if math.isfinite(end):
            step = math.floor(end) + 1 if direction > 0 else math.ceil(end) - 1
            if _double_lies_beyond(step, end, direction):
                return step
        return math.nextafter(float(end), direction * math.inf)

    @staticmethod
    def _midpoint(low: Any, high: Any) -> Any:
        """A probe strictly between two breakpoints, or ``None`` where none fits.

        Ints stay exact: the integer midpoint when an integer lies strictly
        between (``(low + high) / 2.0`` on huge integers rounds to a double
        and can land *on* a breakpoint, or outside the interval). Where an
        int is beyond the float range the probe is the integer midpoint of
        the ints strictly between. Otherwise it is the double
        ``low / 2 + high / 2``, which, unlike ``(low + high) / 2``, cannot
        overflow; an infinite end reads as the largest double. ``None`` means
        no value a column can store lies strictly between.
        """
        low = -sys.float_info.max if low == -math.inf else low
        high = sys.float_info.max if high == math.inf else high
        if _beyond_float(low) or _beyond_float(high):
            low, high = math.floor(low) + 1, math.ceil(high) - 1
            return low + (high - low) // 2 if low <= high else None
        if isinstance(low, int) and isinstance(high, int) and high - low > 1:
            return low + (high - low) // 2
        middle = low / 2 + high / 2
        return middle if low < middle < high else None

    def _build_categorical_subsets(self, active_values: list[Any]) -> list[DomainSubset]:
        constants = [c for term in self.terms for c in term.constants()]
        universe = list(dict.fromkeys(list(active_values) + constants))
        universe.sort(key=value_sort_key)
        groups: dict[tuple[bool, ...], list[Any]] = {}
        for value in universe:
            groups.setdefault(self._sign(value), []).append(value)
        # A "fresh value" block (satisfying no equality/membership term) exists
        # implicitly; only add it when no existing block has that signature.
        fresh_signature = tuple(
            term.op.value in ("!=", "NOT IN") for term in self.terms
        )
        if self.terms and fresh_signature not in groups:
            groups[fresh_signature] = []
        subsets = []
        for index, (signature, values) in enumerate(groups.items()):
            description = "{" + ", ".join(str(v) for v in values[:6]) + ("…}" if len(values) > 6 else "}")
            representatives = tuple(values)
            if not representatives:
                representatives = (self._fresh_value(universe),)
                description = "{fresh}"
            subsets.append(DomainSubset(self.attribute, index, signature, representatives, description))
        return subsets

    @staticmethod
    def _fresh_value(universe: list[Any]) -> Any:
        existing = {v for v in universe if isinstance(v, str)}
        candidate = "QFE_OTHER"
        suffix = 0
        while candidate in existing:
            suffix += 1
            candidate = f"QFE_OTHER_{suffix}"
        return candidate

    # ----------------------------------------------------------------- lookup
    def __len__(self) -> int:
        return len(self.subsets)

    def subset_of_value(self, value: Any) -> int:
        """Index of the subset containing *value* (NULL maps to a no-term block)."""
        index = self._index_of_value.get(value)
        if index is None:
            signature = tuple(test(value) for test in self._tests)
            index = self._index_of_signature.get(signature, self._unseen_index)
            self._index_of_value[value] = index
        return index

    def subset(self, index: int) -> DomainSubset:
        """The subset with the given index."""
        return self.subsets[index]


# ---------------------------------------------------------------- tuple classes
@dataclass(frozen=True)
class TupleClass:
    """A tuple of domain-subset indexes, one per selection attribute."""

    subset_indexes: tuple[int, ...]

    def differing_positions(self, other: "TupleClass") -> tuple[int, ...]:
        """Positions (attribute slots) where the two classes differ."""
        return tuple(
            i for i, (a, b) in enumerate(zip(self.subset_indexes, other.subset_indexes)) if a != b
        )

    def edit_distance(self, other: "TupleClass") -> int:
        """``minEdit`` between the classes: number of differing attribute slots."""
        return len(self.differing_positions(other))

    def __len__(self) -> int:
        return len(self.subset_indexes)


class TupleClassSpace:
    """Domain partitions, the STC structure of a joined relation and its query masks.

    Matching is bitwise. Every conjunct of every candidate gets one bit, and
    for each selection slot and domain subset the space stores a *conjunct
    mask*: bit ``c`` is set when every term of conjunct ``c`` on that slot's
    attribute holds for the subset's :meth:`~DomainSubset.representative`,
    or when conjunct ``c`` has no term on that attribute. A class's
    conjunct mask is the AND of its slots' masks, and a candidate matches
    the class when any of its conjunct bits survives (a TRUE predicate's one
    conjunct is empty, so it always does). All masks are built once, with
    the space.
    """

    def __init__(self, joined: JoinedRelation, queries: Sequence[SPJQuery]) -> None:
        self.joined = joined
        self.queries = tuple(queries)
        self.selection_attributes: tuple[str, ...] = self._collect_selection_attributes(queries)
        self.partitions: dict[str, DomainPartition] = {}
        view = joined.columnar()
        for attribute in self.selection_attributes:
            terms = [
                term for query in queries for term in query.predicate.terms_on(attribute)
            ]
            active = [v for v in view.column(attribute) if v is not None]
            self.partitions[attribute] = DomainPartition(attribute, terms, active)
        self._row_classes: list[TupleClass] = []
        self._class_rows: dict[TupleClass, list[int]] = {}
        self._assign_rows()
        self._sources = sorted(self._class_rows, key=lambda tc: tc.subset_indexes)
        self._build_masks()

    # ------------------------------------------------------------------ build
    @staticmethod
    def _collect_selection_attributes(queries: Sequence[SPJQuery]) -> tuple[str, ...]:
        ordered: dict[str, None] = {}
        for query in queries:
            for attribute in query.selection_attributes():
                ordered.setdefault(attribute, None)
        return tuple(ordered)

    def _assign_rows(self) -> None:
        # Column-at-a-time: map each selection attribute's column to subset
        # indexes through the shared columnar view (one value-map lookup per
        # cell, no per-row attribute indirection), then zip the index columns
        # back into per-row tuple classes.
        view = self.joined.columnar()
        index_columns = [
            [self.partitions[attribute].subset_of_value(value) for value in view.column(attribute)]
            for attribute in self.selection_attributes
        ]
        row_count = len(self.joined)
        if index_columns:
            per_row = zip(*index_columns)
        else:
            per_row = (() for _ in range(row_count))
        for position, indexes in enumerate(per_row):
            tuple_class = TupleClass(tuple(indexes))
            self._row_classes.append(tuple_class)
            self._class_rows.setdefault(tuple_class, []).append(position)

    def _build_masks(self) -> None:
        # Bit ``i`` is candidate ``i``'s first conjunct (an empty one for a
        # TRUE predicate, which no term constrains); the further conjuncts of
        # DNF candidates follow from bit ``len(queries)`` on. Without DNF
        # candidates a conjunct mask is therefore its own query mask.
        count = len(self.queries)
        conjuncts = [
            query.predicate.conjuncts[0] if query.predicate.conjuncts else Conjunct(())
            for query in self.queries
        ]
        #: (conjunct bit, owning query bit) of every conjunct past a query's first.
        self._extra_conjuncts: list[tuple[int, int]] = []
        for index, query in enumerate(self.queries):
            for conjunct in query.predicate.conjuncts[1:]:
                self._extra_conjuncts.append((1 << len(conjuncts), 1 << index))
                conjuncts.append(conjunct)
        self._first_conjuncts = (1 << count) - 1
        #: Every conjunct bit set: the mask of a class no term constrains.
        self._all_conjuncts = (1 << len(conjuncts)) - 1
        self._slot_masks: list[tuple[int, ...]] = []
        for attribute in self.selection_attributes:
            # The conjuncts with terms on this attribute; the others hold on
            # every subset.
            constrained = [
                (1 << bit, [compile_term(term) for term in conjunct.terms_on(attribute)])
                for bit, conjunct in enumerate(conjuncts)
                if conjunct.terms_on(attribute)
            ]
            unconstrained = self._all_conjuncts
            for bit, _ in constrained:
                unconstrained &= ~bit
            masks = []
            for subset in self.partitions[attribute].subsets:
                value = subset.representative()
                mask = unconstrained
                for bit, tests in constrained:
                    if all(_holds(test, value) for test in tests):
                        mask |= bit
                masks.append(mask)
            self._slot_masks.append(tuple(masks))
        # Per slot and excluded subset: the (subset index, mask) alternatives a
        # destination may move that slot to, in subset order. Only blocks with
        # a representative value can be materialized.
        self._alternatives: list[tuple[tuple[tuple[int, int], ...], ...]] = []
        for slot, attribute in enumerate(self.selection_attributes):
            subsets = self.partitions[attribute].subsets
            usable = [
                (subset.index, self._slot_masks[slot][subset.index])
                for subset in subsets
                if subset.has_representative
            ]
            self._alternatives.append(
                tuple(
                    tuple(item for item in usable if item[0] != excluded.index)
                    for excluded in subsets
                )
            )
        self._query_mask_cache: dict[int, int] = {}

    # ----------------------------------------------------------------- access
    @property
    def attribute_count(self) -> int:
        """Number of distinct selection-predicate attributes (the ``n`` of Alg. 3)."""
        return len(self.selection_attributes)

    def source_tuple_classes(self) -> list[TupleClass]:
        """All tuple classes that contain at least one joined row, deterministic order."""
        return list(self._sources)

    def rows_in_class(self, tuple_class: TupleClass) -> tuple[int, ...]:
        """Joined-row positions belonging to the class."""
        return tuple(self._class_rows.get(tuple_class, ()))

    def class_of_row(self, position: int) -> TupleClass:
        """The tuple class of the joined row at *position*."""
        return self._row_classes[position]

    # --------------------------------------------------------------- matching
    def queries_of_conjuncts(self, conjunct_mask: int) -> int:
        """The query mask (bit ``i`` = candidate ``i`` matches) of a conjunct mask.

        A candidate matches when any of its conjuncts does. Without DNF
        candidates that is the conjunct mask itself; otherwise it is
        memoised per conjunct mask.
        """
        if not self._extra_conjuncts:
            return conjunct_mask
        queries = self._query_mask_cache.get(conjunct_mask)
        if queries is None:
            queries = conjunct_mask & self._first_conjuncts
            for bit, owner in self._extra_conjuncts:
                if conjunct_mask & bit:
                    queries |= owner
            self._query_mask_cache[conjunct_mask] = queries
        return queries

    def query_mask(self, tuple_class: TupleClass) -> int:
        """Bit ``i`` set when candidate ``i`` matches every tuple of the class."""
        conjuncts = self._all_conjuncts
        for masks, index in zip(self._slot_masks, tuple_class.subset_indexes):
            conjuncts &= masks[index]
        return self.queries_of_conjuncts(conjuncts)

    def matches(self, query_index: int, tuple_class: TupleClass) -> bool:
        """Whether the candidate query at *query_index* matches the tuple class."""
        return bool(self.query_mask(tuple_class) >> query_index & 1)

    # ------------------------------------------------------------ enumeration
    def destination_groups(
        self, source: TupleClass, modified_slots: int
    ) -> Iterator[tuple[tuple[int, ...], int, tuple[tuple[tuple[int, int], ...], ...]]]:
        """Algorithm 3's DTCs of *source* at edit distance *modified_slots*, grouped.

        Yields one ``(slots, base_mask, alternatives)`` per combination of
        changed slots, in :func:`itertools.combinations` order. ``base_mask``
        is the AND of the unchanged slots' masks; ``alternatives[j]`` lists
        the ``(subset index, mask)`` choices of ``slots[j]``, in subset order
        and without the source's own subset. A destination is one choice per
        changed slot (in :func:`itertools.product` order) and its conjunct
        mask is ``base_mask`` ANDed with the chosen masks. Combinations with a
        slot that has nowhere to move are skipped.
        """
        n = len(self.selection_attributes)
        if modified_slots < 1 or modified_slots > n:
            return
        indexes = source.subset_indexes
        masks = [slot_masks[index] for slot_masks, index in zip(self._slot_masks, indexes)]
        alternatives = [
            per_excluded[index] for per_excluded, index in zip(self._alternatives, indexes)
        ]
        suffix = [self._all_conjuncts] * (n + 1)
        for slot in range(n - 1, -1, -1):
            suffix[slot] = suffix[slot + 1] & masks[slot]

        # Depth-first over combinations in lexicographic order; ``prefix`` is
        # the AND of the unchanged slots before ``start``.
        def walk(start: int, remaining: int, prefix: int, chosen: tuple[int, ...]):
            if not remaining:
                yield chosen, prefix & suffix[start], tuple(alternatives[s] for s in chosen)
                return
            for slot in range(start, n - remaining + 1):
                if alternatives[slot]:
                    yield from walk(slot + 1, remaining - 1, prefix, chosen + (slot,))
                prefix &= masks[slot]

        yield from walk(0, modified_slots, self._all_conjuncts, ())

    def destination_classes(self, source: TupleClass, modified_slots: int) -> Iterator[TupleClass]:
        """All DTCs derived from *source* by changing exactly *modified_slots* attributes.

        A view of :meth:`destination_groups` (same order). Only destination
        blocks with at least one representative value are yielded (otherwise
        the modification could not be materialized).
        """
        for slots, _, alternatives in self.destination_groups(source, modified_slots):
            for choice in itertools.product(*alternatives):
                yield self.destination(source, slots, choice)

    @staticmethod
    def destination(
        source: TupleClass, slots: Sequence[int], choice: Sequence[tuple[int, int]]
    ) -> TupleClass:
        """The DTC that moves each of *slots* of *source* to its chosen subset."""
        indexes = list(source.subset_indexes)
        for slot, (index, _) in zip(slots, choice):
            indexes[slot] = index
        return TupleClass(tuple(indexes))

    def changed_attributes(self, source: TupleClass, destination: TupleClass) -> tuple[str, ...]:
        """Qualified attribute names whose subset changes between the two classes."""
        return tuple(
            self.selection_attributes[slot]
            for slot in source.differing_positions(destination)
        )


def _holds(test: Callable[[Any], bool], value: Any) -> bool:
    """Whether a compiled term holds for a representative value.

    A term that cannot compare the value (``EvaluationError``) does not
    hold, so its conjunct fails instead of the whole round raising.
    """
    try:
        return test(value)
    except EvaluationError:
        return False
