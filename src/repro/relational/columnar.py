"""Columnar, late-materialized views of relations and joins.

The QFE inner loop evaluates every surviving candidate query on every freshly
generated modified database. All candidates share one foreign-key join, and
most of them share selection terms, so the natural execution shape is
column-major: build per-attribute value arrays once per database instance,
evaluate each *distinct* term once per column into a row-selection mask, and
combine the cached masks per candidate with bitwise AND/OR.

Masks are arbitrary-precision integers (bit ``i`` set ⇔ joined row ``i``
selected). Python's big-int bitwise operations run at C speed, which makes
combining masks for a candidate essentially free once its terms are cached;
only the final gather of selected rows is proportional to the result size
(late materialization).

Storage layout
--------------

Each column is the tuple ``zip(*rows)`` builds: references to the values the
joined relation's tuples already hold, so a column costs one pointer per
cell and every value keeps its exact Python identity and type (NULLs, ints
beyond 2^53 or 2^63, NaN, mixed types). What makes the inner loop cheap is
the term-mask cache, not the cell encoding: :class:`ColumnarView` keys it on
``Term.mask_key()`` — ``(attribute, op, normalized constant)`` — so the many
QBO-generated candidates that share terms evaluate each distinct term exactly
once per join, and :meth:`ColumnarView.derive` patches cached masks in
O(|Δ|) for a modified database.

Views are built from an immutable snapshot of a relation: if the underlying
database copy is modified, the view must be invalidated and rebuilt (see
``JoinedRelation.invalidate_columnar`` and ``JoinCache.invalidate``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.exceptions import EvaluationError
from repro.obs.registry import RegistryStats
from repro.relational.predicates import Conjunct, DNFPredicate, Term, compile_term

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (join imports us lazily)
    from repro.relational.relation import Relation

__all__ = [
    "ColumnarView",
    "pack_bools",
    "mask_positions",
    "COLUMNAR_STATS",
]

#: ``mask_positions`` switches to the bit-stripping sparse path when the
#: population count is this many times smaller than the bit length.
_SPARSE_POSITIONS_FACTOR = 16


class ColumnarStats(RegistryStats):
    """Process-wide columnar counters (``qfe_columnar_*`` in the registry)."""

    _PREFIX = "qfe_columnar"
    # Both read 0: nothing increments them; they stay until a benchmark change drops them.
    _FIELDS = ("typed_term_masks", "zone_block_skips")
    _HELP = {
        "typed_term_masks": "Term masks answered from typed columns (always 0).",
        "zone_block_skips": "Zone blocks skipped wholesale (always 0).",
    }


COLUMNAR_STATS = ColumnarStats()


def pack_bools(flags: Sequence[Any]) -> int:
    """Pack a sequence of truthy/falsy flags into an integer bitmask.

    Bit ``i`` of the result is set exactly when ``flags[i]`` is truthy.
    Packs through a little-endian byte buffer so the big-int is assembled in
    one C-level ``int.from_bytes`` instead of per-bit big-int shifts.
    """
    buffer = bytearray((len(flags) + 7) >> 3)
    for i, flag in enumerate(flags):
        if flag:
            buffer[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buffer, "little")


def mask_positions(mask: int) -> list[int]:
    """Row positions of all set bits, ascending.

    Dense masks scan the ``bin()`` string (O(row count)); sparse masks strip
    low set bits one at a time (``mask & -mask``), which costs
    O(popcount · words) and wins when very few bits are set.
    """
    if mask == 0:
        return []
    length = mask.bit_length()
    if mask.bit_count() * _SPARSE_POSITIONS_FACTOR <= length:
        positions = []
        while mask:
            low = mask & -mask
            positions.append(low.bit_length() - 1)
            mask ^= low
        return positions
    bits = bin(mask)  # '0b1...' — character at index i (i >= 2) is bit len-1-i
    highest = len(bits) - 1
    positions = [highest - i for i, ch in enumerate(bits) if ch == "1"]
    positions.reverse()
    return positions


def _evaluate_guarded(test: Callable[[Any], bool], value: Any) -> tuple[bool, EvaluationError | None]:
    """Evaluate a compiled term on one value, capturing its evaluation error."""
    try:
        return test(value), None
    except EvaluationError as exc:
        return False, exc


class ColumnarView:
    """Column-major view of a relation plus the shared term-mask cache.

    The view snapshots the relation's tuples at construction time; it does not
    observe later modifications of the relation. Callers that mutate a
    database instance whose join/view is cached must invalidate first.

    Error semantics replicate the row-at-a-time interpreter's short-circuit
    behaviour exactly: a term that cannot be evaluated for some row (e.g. an
    incomparable value/constant pair, or a missing attribute) only raises if
    that row actually *reaches* the term — i.e. the row passed every earlier
    term of its conjunct and was not already satisfied by an earlier conjunct.
    Term entries therefore carry an error mask alongside the truth mask, and
    the error of the first erroring row in row order as the representative.
    """

    __slots__ = (
        "names",
        "row_count",
        "_index",
        "_columns",
        "_term_masks",
        "_term_tests",
        "_all_rows_mask",
    )

    def __init__(self, relation: "Relation") -> None:
        self.names: tuple[str, ...] = relation.schema.attribute_names
        self._index = {name: position for position, name in enumerate(self.names)}
        tuples = relation.tuples
        self.row_count = len(tuples)
        if tuples:
            self._columns: list[tuple[Any, ...]] = list(zip(*(t.values for t in tuples)))
        else:
            self._columns = [() for _ in self.names]
        self._term_masks: dict[tuple, tuple[int, int, EvaluationError | None]] = {}
        # Compiled value tests retained per cached key so `derive` can
        # re-evaluate a term at just the patched/appended positions.
        self._term_tests: dict[tuple, Any] = {}
        self._all_rows_mask = (1 << self.row_count) - 1

    # ------------------------------------------------------------------ columns
    def index_of(self, attribute: str) -> int:
        """Position of a qualified attribute (raises EvaluationError if absent)."""
        try:
            return self._index[attribute]
        except KeyError:
            raise EvaluationError(f"row has no attribute {attribute!r}") from None

    def has_attribute(self, attribute: str) -> bool:
        """Whether the view carries a column for *attribute*."""
        return attribute in self._index

    def column(self, attribute: str) -> tuple[Any, ...]:
        """All values of *attribute*, in row order.

        Identity is stable: untouched columns of a derived view are the same
        tuple objects as the base view's.
        """
        return self._columns[self.index_of(attribute)]

    @property
    def all_rows_mask(self) -> int:
        """The mask selecting every row (the always-true predicate)."""
        return self._all_rows_mask

    @property
    def cached_term_count(self) -> int:
        """How many distinct term masks are currently cached (diagnostics)."""
        return len(self._term_masks)

    # -------------------------------------------------------------------- masks
    def _term_entry(self, term: Term) -> tuple[int, int, EvaluationError | None]:
        """``(truth mask, error mask, representative error)`` for one term.

        Bit ``i`` of the error mask is set when evaluating the term on row
        ``i`` raised; whether that raise surfaces depends on reachability,
        which the conjunct/predicate combinators decide.
        """
        try:
            key = term.mask_key()
            entry = self._term_masks.get(key)
        except TypeError:  # unhashable constant: evaluate without caching
            key = None
            entry = None
        if entry is None:
            entry = self._build_term_entry(term)
            if key is not None:
                self._term_masks[key] = entry
                self._term_tests[key] = compile_term(term)
        return entry

    def _build_term_entry(self, term: Term) -> tuple[int, int, EvaluationError | None]:
        if self.row_count == 0:
            # The interpreter never evaluates anything on an empty relation,
            # so even a missing attribute goes unnoticed there.
            return (0, 0, None)
        try:
            column = self._columns[self.index_of(term.attribute)]
        except EvaluationError as exc:
            return (0, self._all_rows_mask, exc)  # erroring on every row
        test = compile_term(term)
        try:
            return (pack_bools([test(value) for value in column]), 0, None)
        except EvaluationError:
            # Rare path: some rows are incomparable — record them per row.
            truth_flags: list[bool] = []
            error_flags: list[bool] = []
            first_error: EvaluationError | None = None
            for value in column:
                try:
                    truth_flags.append(test(value))
                    error_flags.append(False)
                except EvaluationError as exc:
                    truth_flags.append(False)
                    error_flags.append(True)
                    if first_error is None:
                        first_error = exc
            return (pack_bools(truth_flags), pack_bools(error_flags), first_error)

    def term_mask(self, term: Term) -> int:
        """The row-selection mask of one term evaluated standalone on all rows.

        Raises :class:`EvaluationError` if the term cannot be evaluated on
        *any* row — matching the interpreter applying the term to every row.
        """
        mask, error_mask, error = self._term_entry(term)
        if error_mask:
            raise error  # type: ignore[misc]  # error is set whenever error_mask is
        return mask

    def conjunct_mask(self, conjunct: Conjunct, pending: int | None = None) -> int:
        """AND of the conjunct's term masks (empty conjunct selects all rows).

        *pending* restricts evaluation to a subset of rows (used by
        :meth:`predicate_mask` for OR-level short-circuiting). A term's
        evaluation error surfaces only if an erroring row is still alive when
        the term is reached — exactly the interpreter's left-to-right,
        short-circuit semantics.
        """
        alive = self._all_rows_mask if pending is None else pending
        for term in conjunct.terms:
            mask, error_mask, error = self._term_entry(term)
            if error_mask & alive:
                raise error  # type: ignore[misc]
            alive &= mask
            if not alive:
                break
        return alive

    def predicate_mask(self, predicate: DNFPredicate) -> int:
        """OR of the conjunct masks (the always-true predicate selects all rows).

        Rows already satisfied by an earlier conjunct are excluded from later
        conjuncts' evaluation, mirroring ``any()``'s short-circuit in the
        interpreter (a later conjunct's error on such a row never surfaces).
        """
        if predicate.is_true:
            return self._all_rows_mask
        satisfied = 0
        remaining = self._all_rows_mask
        for conjunct in predicate.conjuncts:
            if not remaining:
                break
            satisfied |= self.conjunct_mask(conjunct, remaining)
            remaining = self._all_rows_mask & ~satisfied
        return satisfied

    def selected_positions(self, predicate: DNFPredicate) -> list[int]:
        """Row positions satisfying *predicate*, ascending."""
        mask = self.predicate_mask(predicate)
        if mask == self._all_rows_mask:
            return list(range(self.row_count))
        return mask_positions(mask)

    # ------------------------------------------------------------------- gather
    def gather(self, mask: int, positions: Sequence[int]) -> list[tuple[Any, ...]]:
        """Materialize the rows selected by *mask*, projected to *positions*."""
        columns = [self._columns[p] for p in positions]
        if mask == self._all_rows_mask:
            return list(zip(*columns)) if columns else [() for _ in range(self.row_count)]
        return [tuple(column[row] for column in columns) for row in mask_positions(mask)]

    def clear_term_masks(self) -> None:
        """Drop the cached term masks (the columns themselves are immutable)."""
        self._term_masks.clear()
        self._term_tests.clear()

    # ------------------------------------------------------------------- derive
    def derive(
        self,
        patches: Mapping[int, Mapping[int, Any]],
        removed: Sequence[int],
        appended: Sequence[Sequence[Any]],
    ) -> "ColumnarView":
        """A copy-on-write view with cells patched, rows removed and rows added.

        *patches* maps base row positions to ``{column position: new value}``;
        *removed* lists base row positions to drop; *appended* holds full new
        value rows (in column order) placed after the surviving base rows —
        exactly the shape :meth:`JoinedRelation.apply_delta` produces.

        Columns untouched by any change are shared with the base view by
        reference, and so are their cached term-mask entries. Affected cached
        masks are *patched*, not recomputed: changed bits are re-evaluated at
        the affected positions only, removals compact the masks with O(|removed|)
        big-int shifts, and appended rows contribute freshly evaluated bits —
        O(|Δ|) term evaluations plus O(rows/64) word operations per mask,
        versus O(rows) Python-level evaluations for a cold rebuild. Error
        masks (and the short-circuit error semantics they encode) are
        maintained the same way; a patched entry's representative error is
        re-evaluated at its lowest erroring row, as a cold view would report.
        """
        removed_descending = sorted(removed, reverse=True)
        structural = bool(removed_descending or appended)
        survivor_count = self.row_count - len(removed_descending)
        new_row_count = survivor_count + len(appended)

        by_column: dict[int, list[tuple[int, Any]]] = {}
        for position, cells in patches.items():
            for column_position, value in cells.items():
                by_column.setdefault(column_position, []).append((position, value))

        view = ColumnarView.__new__(ColumnarView)
        view.names = self.names
        view._index = self._index
        view.row_count = new_row_count
        view._all_rows_mask = (1 << new_row_count) - 1

        columns: list[tuple[Any, ...]] = []
        for column_position, column in enumerate(self._columns):
            cell_patches = by_column.get(column_position)
            if not structural and not cell_patches:
                columns.append(column)  # shared with the base view
                continue
            values = list(column)
            if cell_patches:
                for position, value in cell_patches:
                    values[position] = value
            for position in removed_descending:
                del values[position]
            if appended:
                values.extend(row[column_position] for row in appended)
            columns.append(tuple(values))
        view._columns = columns

        view._term_masks = {}
        view._term_tests = {}
        for key, entry in self._term_masks.items():
            column_position = self._index.get(key[0])
            test = self._term_tests.get(key)
            if column_position is None or test is None:
                # Missing-attribute error entries (or untracked tests) are
                # rebuilt lazily against the derived view instead.
                continue
            cell_patches = by_column.get(column_position)
            if not structural and not cell_patches:
                view._term_masks[key] = entry
                view._term_tests[key] = test
                continue
            mask, error_mask, _ = entry
            if cell_patches:
                for position, value in cell_patches:
                    bit = 1 << position
                    truth, raised = _evaluate_guarded(test, value)
                    mask = (mask | bit) if truth else (mask & ~bit)
                    error_mask = (error_mask | bit) if raised is not None else (error_mask & ~bit)
            for position in removed_descending:
                low = (1 << position) - 1
                mask = (mask & low) | ((mask >> (position + 1)) << position)
                error_mask = (error_mask & low) | ((error_mask >> (position + 1)) << position)
            if appended:
                added_mask = 0
                added_errors = 0
                for offset, row in enumerate(appended):
                    truth, raised = _evaluate_guarded(test, row[column_position])
                    if truth:
                        added_mask |= 1 << offset
                    if raised is not None:
                        added_errors |= 1 << offset
                mask |= added_mask << survivor_count
                error_mask |= added_errors << survivor_count
            error = None
            if error_mask:
                first = (error_mask & -error_mask).bit_length() - 1
                _, error = _evaluate_guarded(test, columns[column_position][first])
            view._term_masks[key] = (mask, error_mask, error)
            view._term_tests[key] = test
        return view

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({len(self.names)} columns, {self.row_count} rows, "
            f"{len(self._term_masks)} cached masks)"
        )
