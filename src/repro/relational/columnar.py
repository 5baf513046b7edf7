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

Columns are stored compactly when the declared attribute type allows it:

* :class:`IntColumn` — ``array('q')`` (int64) with an exact big-int *side
  table* for values outside the int64 range, so the 2^53±1 regime and true
  big ints keep Python-exact semantics;
* :class:`FloatColumn` — ``array('d')`` (float64, bit-exact for Python
  floats);
* :class:`StringColumn` — dictionary encoding: an ``array('i')`` of codes
  into a *sorted* tuple of distinct strings (code order == value order);
* :class:`BoolColumn` — a bit-packed big-int of truth bits.

Every typed column carries a sparse ``{position: boxed value}`` side table
holding NULLs and any value the buffer cannot represent; columns whose data
does not match the declared type fall back to the plain object-tuple layout.
On top of the buffers sit two lazily-built acceleration structures:

* a **sorted term index** (row positions sorted by buffer value), built on
  the first range/equality term against the column, turning selective mask
  construction into ``O(log n + k)`` bisects instead of a full scan;
* **zone maps** (min/max per fixed-width block of rows), used to skip or
  wholesale-fill blocks for ordering terms before the index exists.

:class:`ColumnarViewReference` retains the original object-tuple layout for
every column and is the differential oracle: typed views must produce
bit-identical masks, errors and gathers.

:class:`ColumnarView` carries the term-level mask cache, keyed on
``Term.mask_key()`` — ``(attribute, op, normalized constant)`` — so the many
QBO-generated candidates that share terms evaluate each distinct term exactly
once per join. Views are built from an immutable snapshot of a relation: if
the underlying database copy is modified, the view must be invalidated and
rebuilt (see ``JoinedRelation.invalidate_columnar`` and
``JoinCache.invalidate``).
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import EvaluationError
from repro.obs.registry import RegistryStats
from repro.relational.predicates import (
    ORDERING_OPS as _ORDERING_OPS,
    Conjunct,
    ComparisonOp,
    DNFPredicate,
    Term,
    compile_term,
)
from repro.relational.types import INT64_MAX, INT64_MIN, AttributeType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (join imports us lazily)
    from repro.relational.relation import Relation

__all__ = [
    "ColumnarView",
    "ColumnarViewReference",
    "TypedColumn",
    "IntColumn",
    "FloatColumn",
    "StringColumn",
    "BoolColumn",
    "build_typed_column",
    "object_column_bytes",
    "pack_bools",
    "pack_bools_reference",
    "mask_positions",
    "mask_from_positions",
    "mask_count",
    "COLUMNAR_STATS",
]

#: Bits packed per inner chunk by the reference packer; keeps every shift
#: small so packing a column of n values costs O(n) word operations.
_PACK_CHUNK = 256

#: Rows per zone-map block. A multiple of 8 so a full block always covers
#: whole bytes of the position bitmap.
_ZONE_BLOCK = 4096

#: A column with more than this fraction of unrepresentable/NULL values is
#: stored as a plain object tuple instead (the side table would dominate).
_SPECIAL_FALLBACK_DENOMINATOR = 4

#: ``mask_positions`` switches to the bit-stripping sparse path when the
#: population count is this many times smaller than the bit length.
_SPARSE_POSITIONS_FACTOR = 16

_MISSING = object()


class ColumnarStats(RegistryStats):
    """Process-wide counters for typed-column storage behaviour.

    Purely diagnostic: benchmarks and tests use these to pin that the
    acceleration structures (sorted term index, zone maps) actually engage.
    Registry-backed (``qfe_columnar_*``), so the Prometheus endpoint sees
    them.
    """

    _PREFIX = "qfe_columnar"
    _FIELDS = (
        "typed_columns",
        "object_columns",
        "typed_term_masks",
        "fallback_term_scans",
        "index_builds",
        "index_probes",
        "zone_builds",
        "zone_block_fills",
        "zone_block_skips",
        "zone_boundary_rows",
    )
    _HELP = {
        "typed_columns": "Columns stored in typed compact form.",
        "object_columns": "Columns kept as plain object tuples.",
        "typed_term_masks": "Term masks answered from typed columns.",
        "fallback_term_scans": "Term masks computed by row scan fallback.",
        "index_builds": "Sorted term index builds.",
        "index_probes": "Sorted term index probes.",
        "zone_builds": "Zone map builds.",
        "zone_block_fills": "Zone blocks answered wholesale (all-match).",
        "zone_block_skips": "Zone blocks skipped wholesale (no-match).",
        "zone_boundary_rows": "Rows tested individually at zone boundaries.",
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


def pack_bools_reference(flags: Sequence[Any]) -> int:
    """The original chunked-shift packer, kept as the property-test oracle."""
    mask = 0
    for start in range(0, len(flags), _PACK_CHUNK):
        chunk = 0
        for offset, flag in enumerate(flags[start : start + _PACK_CHUNK]):
            if flag:
                chunk |= 1 << offset
        if chunk:
            mask |= chunk << start
    return mask


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


def mask_from_positions(positions: Iterable[int], row_count: int | None = None) -> int:
    """Bitmask with exactly the given row positions set.

    The inverse of :func:`mask_positions`; assembles through a byte buffer so
    cost is O(row_count / 8 + len(positions)) regardless of bit spread.
    """
    if row_count is None:
        positions = positions if isinstance(positions, (list, tuple)) else list(positions)
        if not positions:
            return 0
        row_count = max(positions) + 1
    buffer = bytearray((row_count + 7) >> 3)
    for position in positions:
        buffer[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(buffer, "little")


def mask_count(mask: int) -> int:
    """Number of selected rows in a mask."""
    return mask.bit_count()


def _evaluate_guarded(test: Callable[[Any], bool], value: Any) -> tuple[bool, EvaluationError | None]:
    """Evaluate a compiled term on one value, capturing its evaluation error."""
    try:
        return test(value), None
    except EvaluationError as exc:
        return False, exc


def _positions_mask(order: Sequence[int], lo: int, hi: int, byte_count: int) -> int:
    """Mask of the row positions in ``order[lo:hi]`` (a sorted-index slice)."""
    if lo >= hi:
        return 0
    buffer = bytearray(byte_count)
    for idx in range(lo, hi):
        position = order[idx]
        buffer[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(buffer, "little")


def _set_range_bits(buffer: bytearray, start: int, stop: int) -> None:
    """Set bits [start, stop) of a little-endian bitmap; start is byte-aligned."""
    first_byte = start >> 3
    last_full = stop >> 3
    if last_full > first_byte:
        buffer[first_byte:last_full] = b"\xff" * (last_full - first_byte)
    for i in range(last_full << 3, stop):
        buffer[i >> 3] |= 1 << (i & 7)


def object_column_bytes(column: Sequence[Any]) -> int:
    """Approximate heap bytes of an object-tuple column (pointers + boxes).

    Boxes are deduplicated by identity within the column, so interned values
    (small ints, singletons) are charged once — the comparison against typed
    storage stays honest.
    """
    total = sys.getsizeof(tuple(column)) if not isinstance(column, tuple) else sys.getsizeof(column)
    seen: set[int] = set()
    for value in column:
        marker = id(value)
        if marker not in seen:
            seen.add(marker)
            total += sys.getsizeof(value)
    return total


# --------------------------------------------------------------------------- typed columns


class TypedColumn:
    """Compact column: a typed buffer plus a sparse boxed side table.

    ``_special`` maps row positions to the exact boxed value whenever the
    buffer cannot represent it — SQL NULLs, ints beyond int64, strings absent
    from the dictionary after a derive, or stray values of unexpected type.
    Buffer cells at those positions hold a sentinel and are never trusted.

    Subclasses provide the buffer representation plus ``_buffer_term_masks``,
    the fast path producing ``(truth mask, error mask)`` over buffer rows for
    one term; :meth:`term_entry` folds the side table back in. A ``None``
    return means "unsupported term/constant shape" and the view falls back to
    the generic boxed scan — semantics never depend on the fast path.
    """

    __slots__ = ("_length", "_special", "_special_mask", "_order", "_sorted_values", "_zones")

    kind = "typed"

    def __init__(self) -> None:  # pragma: no cover - subclasses use _make
        raise TypeError("TypedColumn subclasses are constructed via build_typed_column")

    # ------------------------------------------------------------- basic access
    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Any]:
        return iter(self.boxed())

    def __getitem__(self, position: int) -> Any:
        length = self._length
        if position < 0:
            position += length
        if not 0 <= position < length:
            raise IndexError("column position out of range")
        value = self._special.get(position, _MISSING)
        if value is not _MISSING:
            return value
        return self._buffer_get(position)

    def boxed(self) -> list[Any]:
        """All values as a plain boxed list, in row order (uncached)."""
        values = self._boxed_buffer()
        for position, value in self._special.items():
            values[position] = value
        return values

    @property
    def special_count(self) -> int:
        """How many positions live in the boxed side table (NULLs included)."""
        return len(self._special)

    @property
    def special_mask(self) -> int:
        """Mask of side-table positions (lazy)."""
        mask = self._special_mask
        if mask is None:
            mask = mask_from_positions(self._special.keys(), self._length)
            self._special_mask = mask
        return mask

    def _buffer_mask(self) -> int:
        """Mask of rows represented in the buffer (everything but specials)."""
        return ((1 << self._length) - 1) & ~self.special_mask

    # ------------------------------------------------------------- term masking
    def term_entry(
        self, term: Term, test: Callable[[Any], bool]
    ) -> tuple[int, int, EvaluationError | None] | None:
        """``(truth mask, error mask, representative error)`` for one term.

        Returns ``None`` when the term's shape is outside the fast paths; the
        caller then falls back to the generic boxed scan.
        """
        buffer_masks = self._buffer_term_masks(term, test)
        if buffer_masks is None:
            return None
        mask, error_mask = buffer_masks
        if self._special:
            for position, value in self._special.items():
                truth, raised = _evaluate_guarded(test, value)
                if truth:
                    mask |= 1 << position
                if raised is not None:
                    error_mask |= 1 << position
        first_error: EvaluationError | None = None
        if error_mask:
            # The representative error must be the error of the *first*
            # erroring row in row order, with the interpreter's exact message:
            # re-evaluate that one row.
            position = (error_mask & -error_mask).bit_length() - 1
            try:
                test(self[position])
            except EvaluationError as exc:
                first_error = exc
            if first_error is None:  # pragma: no cover - defensive consistency check
                return None
        return (mask, error_mask, first_error)

    def _buffer_term_masks(
        self, term: Term, test: Callable[[Any], bool]
    ) -> tuple[int, int] | None:
        raise NotImplementedError

    # ----------------------------------------------------------- sorted index
    def _order_data(self) -> "array[Any]":
        raise NotImplementedError

    def _ensure_order(self) -> tuple["array[int]", "array[Any]"]:
        """Build (lazily) row positions sorted by buffer value, plus the values."""
        order = self._order
        if order is None:
            data = self._order_data()
            special = self._special
            if special:
                positions = [i for i in range(self._length) if i not in special]
            else:
                positions = list(range(self._length))
            positions.sort(key=data.__getitem__)
            order = array("l", positions)
            self._order = order
            self._sorted_values = array(data.typecode, map(data.__getitem__, positions))
            COLUMNAR_STATS.index_builds += 1
        return order, self._sorted_values

    def _index_range_mask(self, lo: int, hi: int) -> int:
        """Mask of the sorted-index slice [lo, hi), complementing when large."""
        order, values = self._ensure_order()
        COLUMNAR_STATS.index_probes += 1
        total = len(order)
        byte_count = (self._length + 7) >> 3
        k = hi - lo
        if k <= 0:
            return 0
        if 2 * k <= total:
            return _positions_mask(order, lo, hi, byte_count)
        outside = _positions_mask(order, 0, lo, byte_count) | _positions_mask(
            order, hi, total, byte_count
        )
        return self._buffer_mask() & ~outside

    # -------------------------------------------------------------------- derive
    def derive(
        self,
        cell_patches: Sequence[tuple[int, Any]],
        removed_descending: Sequence[int],
        appended_values: Sequence[Any],
    ) -> "TypedColumn":
        """Copy-on-write: patch cells, drop rows, append rows.

        The buffer is copied (a C-level memcpy); the side table is rebuilt in
        O(|side table| + |Δ|). Acceleration structures start cold on the
        derived column and rebuild lazily.
        """
        data = self._copy_data()
        special = dict(self._special)
        for position, value in cell_patches:
            if self._store(data, position, value):
                special.pop(position, None)
            else:
                special[position] = value
        if removed_descending:
            for position in removed_descending:
                del data[position]
            if special:
                removed_ascending = removed_descending[::-1]
                removed_set = set(removed_ascending)
                remapped: dict[int, Any] = {}
                for position, value in special.items():
                    if position in removed_set:
                        continue
                    remapped[position - bisect_right(removed_ascending, position)] = value
                special = remapped
        for value in appended_values:
            position = len(data)
            if not self._store_append(data, value):
                data.append(self._sentinel())
                special[position] = value
        return self._with(data, special)

    # ------------------------------------------------------------------- memory
    def memory_bytes(self) -> int:
        """Approximate heap bytes: buffer + side table + lazy structures."""
        total = self._payload_bytes()
        special = self._special
        if special:
            total += sys.getsizeof(special)
            for value in special.values():
                total += sys.getsizeof(value)
        if self._order is not None:
            total += sys.getsizeof(self._order) + sys.getsizeof(self._sorted_values)
        if self._zones is not None:
            total += sys.getsizeof(self._zones) + 96 * len(self._zones)
        return total

    # subclass hooks -----------------------------------------------------------
    def _buffer_get(self, position: int) -> Any:
        raise NotImplementedError

    def _boxed_buffer(self) -> list[Any]:
        raise NotImplementedError

    def _copy_data(self) -> Any:
        raise NotImplementedError

    def _store(self, data: Any, position: int, value: Any) -> bool:
        raise NotImplementedError

    def _store_append(self, data: Any, value: Any) -> bool:
        raise NotImplementedError

    def _sentinel(self) -> Any:
        raise NotImplementedError

    def _with(self, data: Any, special: dict[int, Any]) -> "TypedColumn":
        raise NotImplementedError

    def _payload_bytes(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self._length} rows, {len(self._special)} special)"


def _init_lazy(column: TypedColumn) -> None:
    column._special_mask = None
    column._order = None
    column._sorted_values = None
    column._zones = None


class _NumericColumn(TypedColumn):
    """Shared machinery for int64/float64 buffers: bisect + zone-map masking."""

    __slots__ = ("_data",)

    typecode = ""

    @classmethod
    def _make(cls, data: "array[Any]", special: dict[int, Any]) -> "_NumericColumn":
        column = object.__new__(cls)
        column._data = data
        column._special = special
        column._length = len(data)
        _init_lazy(column)
        return column

    # basic access
    def _buffer_get(self, position: int) -> Any:
        return self._data[position]

    def _boxed_buffer(self) -> list[Any]:
        return self._data.tolist()

    def _order_data(self) -> "array[Any]":
        return self._data

    # derive hooks
    def _copy_data(self) -> "array[Any]":
        return array(self.typecode, self._data)

    def _sentinel(self) -> Any:
        return 0 if self.typecode == "q" else 0.0

    def _with(self, data: "array[Any]", special: dict[int, Any]) -> "_NumericColumn":
        return type(self)._make(data, special)

    def _payload_bytes(self) -> int:
        return sys.getsizeof(self._data)

    # zone maps
    def _ensure_zones(self) -> list[tuple[Any, Any]]:
        """Per-block (min, max) over raw buffer values, sentinels included.

        Sentinels at side-table positions only widen a block's range — the
        classification below asserts facts about buffer cells, and side-table
        bits are masked off afterwards, so the conservative widening is safe.
        """
        zones = self._zones
        if zones is None:
            data = self._data
            zones = []
            for start in range(0, self._length, _ZONE_BLOCK):
                block = data[start : start + _ZONE_BLOCK]
                zones.append((min(block), max(block)))
            self._zones = zones
            COLUMNAR_STATS.zone_builds += 1
        return zones

    # term masking
    def _buffer_term_masks(
        self, term: Term, test: Callable[[Any], bool]
    ) -> tuple[int, int] | None:
        op = term.op
        constant = term.constant
        if op is ComparisonOp.EQ or op is ComparisonOp.NE:
            eq = self._equality_mask(constant)
            if eq is None:
                return None
            if op is ComparisonOp.EQ:
                return (eq, 0)
            return (self._buffer_mask() & ~eq, 0)
        if op is ComparisonOp.IN or op is ComparisonOp.NOT_IN:
            if not isinstance(constant, tuple):
                return None
            union = 0
            for item in constant:
                eq = self._equality_mask(item)
                if eq is None:
                    return None
                union |= eq
            if op is ComparisonOp.IN:
                return (union, 0)
            return (self._buffer_mask() & ~union, 0)
        if op in _ORDERING_OPS:
            return self._ordering_masks(op, constant)
        return None  # pragma: no cover - exhaustive over ComparisonOp

    def _equality_mask(self, constant: Any) -> int | None:
        """Mask of buffer rows whose value ``== constant`` (exact), else None."""
        if constant is None or isinstance(constant, str):
            return 0  # a numeric buffer value never equals these
        if isinstance(constant, float):
            if constant != constant:  # NaN equals nothing
                return 0
        elif not isinstance(constant, int):  # bool is int; big ints are exact
            return None
        if self._order is None and self._zones is not None:
            # Cheap reject off the already-built zone maps before paying for
            # the sorted index.
            low = min(mn for mn, _ in self._zones)
            high = max(mx for _, mx in self._zones)
            if constant < low or constant > high:
                COLUMNAR_STATS.zone_block_skips += len(self._zones)
                return 0
        _, values = self._ensure_order()
        lo = bisect_left(values, constant)
        hi = bisect_right(values, constant, lo)
        return self._index_range_mask(lo, hi)

    def _ordering_masks(self, op: ComparisonOp, constant: Any) -> tuple[int, int] | None:
        if isinstance(constant, float):
            if constant != constant:  # NaN: every comparison is False, no error
                return (0, 0)
        elif isinstance(constant, int):
            pass  # bool included; comparisons are exact
        elif constant is None or isinstance(
            constant, (str, bytes, tuple, list, dict, set, frozenset)
        ):
            return (0, self._buffer_mask())  # every buffer comparison raises
        else:
            return None
        if self._order is not None:
            return (self._ordering_mask_via_index(op, constant), 0)
        # Zone-map path: classify whole blocks, scan only boundary blocks.
        zones = self._ensure_zones()
        length = self._length
        full_in: list[tuple[int, int]] = []
        boundary: list[tuple[int, int]] = []
        skipped = 0
        boundary_rows = 0
        for block_index, (low, high) in enumerate(zones):
            start = block_index * _ZONE_BLOCK
            stop = min(start + _ZONE_BLOCK, length)
            if op is ComparisonOp.LT:
                all_in, all_out = high < constant, low >= constant
            elif op is ComparisonOp.LE:
                all_in, all_out = high <= constant, low > constant
            elif op is ComparisonOp.GT:
                all_in, all_out = low > constant, high <= constant
            else:  # GE
                all_in, all_out = low >= constant, high < constant
            if all_in:
                full_in.append((start, stop))
            elif all_out:
                skipped += 1
            else:
                boundary.append((start, stop))
                boundary_rows += stop - start
        if boundary_rows > length // 4:
            # Mostly-boundary (unclustered) data: the sorted index amortizes
            # far better than repeated boundary scans.
            self._ensure_order()
            return (self._ordering_mask_via_index(op, constant), 0)
        COLUMNAR_STATS.zone_block_fills += len(full_in)
        COLUMNAR_STATS.zone_block_skips += skipped
        COLUMNAR_STATS.zone_boundary_rows += boundary_rows
        buffer = bytearray((length + 7) >> 3)
        for start, stop in full_in:
            _set_range_bits(buffer, start, stop)
        data = self._data
        if op is ComparisonOp.LT:
            for start, stop in boundary:
                for i in range(start, stop):
                    if data[i] < constant:
                        buffer[i >> 3] |= 1 << (i & 7)
        elif op is ComparisonOp.LE:
            for start, stop in boundary:
                for i in range(start, stop):
                    if data[i] <= constant:
                        buffer[i >> 3] |= 1 << (i & 7)
        elif op is ComparisonOp.GT:
            for start, stop in boundary:
                for i in range(start, stop):
                    if data[i] > constant:
                        buffer[i >> 3] |= 1 << (i & 7)
        else:  # GE
            for start, stop in boundary:
                for i in range(start, stop):
                    if data[i] >= constant:
                        buffer[i >> 3] |= 1 << (i & 7)
        return (int.from_bytes(buffer, "little") & self._buffer_mask(), 0)

    def _ordering_mask_via_index(self, op: ComparisonOp, constant: Any) -> int:
        _, values = self._ensure_order()
        total = len(values)
        if op is ComparisonOp.LT:
            lo, hi = 0, bisect_left(values, constant)
        elif op is ComparisonOp.LE:
            lo, hi = 0, bisect_right(values, constant)
        elif op is ComparisonOp.GT:
            lo, hi = bisect_right(values, constant), total
        else:  # GE
            lo, hi = bisect_left(values, constant), total
        return self._index_range_mask(lo, hi)

    # pickling
    def __getstate__(self) -> tuple:
        return (self._data, self._special)

    def __setstate__(self, state: tuple) -> None:
        self._data, self._special = state
        self._length = len(self._data)
        _init_lazy(self)


class IntColumn(_NumericColumn):
    """Integer buffer, bit-width-reduced to the narrowest ``array`` typecode
    (``b``/``h``/``i``/``q``) that holds the column's value range at build
    time; ints a narrow buffer (or int64 itself) cannot hold live exact in
    the boxed side table."""

    __slots__ = ()
    typecode = "q"

    @property
    def kind(self) -> str:  # type: ignore[override]
        return f"int{8 * self._data.itemsize}"

    def _store(self, data: "array[int]", position: int, value: Any) -> bool:
        if type(value) is int:
            try:
                data[position] = value
                return True
            except OverflowError:
                return False  # outside this buffer's width — keep it boxed
        return False

    def _store_append(self, data: "array[int]", value: Any) -> bool:
        if type(value) is int:
            try:
                data.append(value)
                return True
            except OverflowError:
                return False
        return False

    def _copy_data(self) -> "array[int]":
        return array(self._data.typecode, self._data)

    def _sentinel(self) -> int:
        return 0


class FloatColumn(_NumericColumn):
    """float64 buffer (bit-exact for Python floats); NaN is kept boxed."""

    __slots__ = ()
    typecode = "d"
    kind = "float64"

    def _store(self, data: "array[float]", position: int, value: Any) -> bool:
        if type(value) is float and value == value:
            data[position] = value
            return True
        return False

    def _store_append(self, data: "array[float]", value: Any) -> bool:
        if type(value) is float and value == value:
            data.append(value)
            return True
        return False


class StringColumn(TypedColumn):
    """Dictionary-encoded strings: codes into a sorted distinct-value tuple.

    The dictionary is sorted, so code order equals lexicographic value order
    and ordering terms reduce to a code threshold found by bisecting the
    dictionary itself. Strings introduced later (derive patches/appends) that
    are absent from the dictionary go to the boxed side table — the
    dictionary is immutable and shared across derived columns.
    """

    __slots__ = ("_codes", "_dictionary", "_code_of")

    kind = "dict-string"

    @classmethod
    def _make(
        cls,
        codes: "array[int]",
        dictionary: tuple[str, ...],
        code_of: dict[str, int],
        special: dict[int, Any],
    ) -> "StringColumn":
        column = object.__new__(cls)
        column._codes = codes
        column._dictionary = dictionary
        column._code_of = code_of
        column._special = special
        column._length = len(codes)
        _init_lazy(column)
        return column

    @property
    def dictionary(self) -> tuple[str, ...]:
        return self._dictionary

    # basic access
    def _buffer_get(self, position: int) -> str:
        return self._dictionary[self._codes[position]]

    def _boxed_buffer(self) -> list[Any]:
        return list(map(self._dictionary.__getitem__, self._codes))

    def _order_data(self) -> "array[int]":
        return self._codes

    # derive hooks
    def _copy_data(self) -> "array[int]":
        return array(self._codes.typecode, self._codes)

    def _store(self, data: "array[int]", position: int, value: Any) -> bool:
        if type(value) is str:
            code = self._code_of.get(value)
            if code is not None:
                data[position] = code
                return True
        return False

    def _store_append(self, data: "array[int]", value: Any) -> bool:
        if type(value) is str:
            code = self._code_of.get(value)
            if code is not None:
                data.append(code)
                return True
        return False

    def _sentinel(self) -> int:
        return 0

    def _with(self, data: "array[int]", special: dict[int, Any]) -> "StringColumn":
        return StringColumn._make(data, self._dictionary, self._code_of, special)

    def _payload_bytes(self) -> int:
        total = sys.getsizeof(self._codes) + sys.getsizeof(self._dictionary)
        for value in self._dictionary:
            total += sys.getsizeof(value)
        total += sys.getsizeof(self._code_of)
        return total

    # term masking
    def _buffer_term_masks(
        self, term: Term, test: Callable[[Any], bool]
    ) -> tuple[int, int] | None:
        op = term.op
        constant = term.constant
        if op is ComparisonOp.EQ or op is ComparisonOp.NE:
            eq = self._equality_mask(constant)
            if eq is None:
                return None
            if op is ComparisonOp.EQ:
                return (eq, 0)
            return (self._buffer_mask() & ~eq, 0)
        if op is ComparisonOp.IN or op is ComparisonOp.NOT_IN:
            if not isinstance(constant, tuple):
                return None
            union = 0
            for item in constant:
                eq = self._equality_mask(item)
                if eq is None:
                    return None
                union |= eq
            if op is ComparisonOp.IN:
                return (union, 0)
            return (self._buffer_mask() & ~union, 0)
        if op in _ORDERING_OPS:
            return self._ordering_masks(op, constant)
        return None  # pragma: no cover - exhaustive over ComparisonOp

    def _equality_mask(self, constant: Any) -> int | None:
        if type(constant) is str:
            code = self._code_of.get(constant)
            if code is None:
                return 0
            _, codes = self._ensure_order()
            lo = bisect_left(codes, code)
            hi = bisect_right(codes, code, lo)
            return self._index_range_mask(lo, hi)
        if constant is None or isinstance(constant, (int, float, bytes, tuple, frozenset)):
            return 0  # a str never equals these
        return None

    def _ordering_masks(self, op: ComparisonOp, constant: Any) -> tuple[int, int] | None:
        if type(constant) is str:
            # Sorted dictionary: values < constant are exactly the codes below
            # the insertion point.
            lower = bisect_left(self._dictionary, constant)
            upper = bisect_right(self._dictionary, constant, lower)
            _, codes = self._ensure_order()
            total = len(codes)
            if op is ComparisonOp.LT:
                lo, hi = 0, bisect_left(codes, lower)
            elif op is ComparisonOp.LE:
                lo, hi = 0, bisect_left(codes, upper)
            elif op is ComparisonOp.GT:
                lo, hi = bisect_left(codes, upper), total
            else:  # GE
                lo, hi = bisect_left(codes, lower), total
            return (self._index_range_mask(lo, hi), 0)
        if constant is None or isinstance(
            constant, (int, float, bytes, tuple, list, dict, set, frozenset)
        ):
            return (0, self._buffer_mask())  # str vs non-str ordering raises
        return None

    # pickling
    def __getstate__(self) -> tuple:
        return (self._codes, self._dictionary, self._special)

    def __setstate__(self, state: tuple) -> None:
        self._codes, self._dictionary, self._special = state
        self._code_of = {value: code for code, value in enumerate(self._dictionary)}
        self._length = len(self._codes)
        _init_lazy(self)


class BoolColumn(TypedColumn):
    """Bit-packed booleans: one big-int of truth bits plus the side table.

    Terms broadcast: the compiled test is evaluated once on ``False`` and
    once on ``True`` and the results are fanned out over the value bitmap —
    every op and constant shape is covered, including erroring comparisons.
    """

    __slots__ = ("_ones",)

    kind = "bitmap-bool"

    @classmethod
    def _make(cls, ones: int, length: int, special: dict[int, Any]) -> "BoolColumn":
        column = object.__new__(cls)
        column._ones = ones
        column._length = length
        column._special = special
        _init_lazy(column)
        return column

    @property
    def truth_mask(self) -> int:
        """Bitmask of buffer positions holding ``True`` (side table excluded)."""
        return self._ones

    # basic access
    def _buffer_get(self, position: int) -> bool:
        return bool((self._ones >> position) & 1)

    def _boxed_buffer(self) -> list[Any]:
        values = [False] * self._length
        for position in mask_positions(self._ones):
            values[position] = True
        return values

    # term masking
    def _buffer_term_masks(
        self, term: Term, test: Callable[[Any], bool]
    ) -> tuple[int, int] | None:
        buffer_mask = self._buffer_mask()
        ones = self._ones & buffer_mask
        zeros = buffer_mask & ~ones
        mask = 0
        error_mask = 0
        truth, raised = _evaluate_guarded(test, True)
        if truth:
            mask |= ones
        if raised is not None:
            error_mask |= ones
        truth, raised = _evaluate_guarded(test, False)
        if truth:
            mask |= zeros
        if raised is not None:
            error_mask |= zeros
        return (mask, error_mask)

    # derive (mask arithmetic instead of array surgery)
    def derive(
        self,
        cell_patches: Sequence[tuple[int, Any]],
        removed_descending: Sequence[int],
        appended_values: Sequence[Any],
    ) -> "BoolColumn":
        ones = self._ones
        special = dict(self._special)
        for position, value in cell_patches:
            bit = 1 << position
            if value is True:
                ones |= bit
                special.pop(position, None)
            elif value is False:
                ones &= ~bit
                special.pop(position, None)
            else:
                ones &= ~bit
                special[position] = value
        length = self._length
        if removed_descending:
            for position in removed_descending:
                low = (1 << position) - 1
                ones = (ones & low) | ((ones >> (position + 1)) << position)
            length -= len(removed_descending)
            if special:
                removed_ascending = removed_descending[::-1]
                removed_set = set(removed_ascending)
                remapped: dict[int, Any] = {}
                for position, value in special.items():
                    if position in removed_set:
                        continue
                    remapped[position - bisect_right(removed_ascending, position)] = value
                special = remapped
        for value in appended_values:
            if value is True:
                ones |= 1 << length
            elif value is not False:
                special[length] = value
            length += 1
        return BoolColumn._make(ones, length, special)

    def _payload_bytes(self) -> int:
        return sys.getsizeof(self._ones)

    # pickling
    def __getstate__(self) -> tuple:
        return (self._ones, self._length, self._special)

    def __setstate__(self, state: tuple) -> None:
        self._ones, self._length, self._special = state
        _init_lazy(self)


def _int_typecode(minimum: int, maximum: int) -> str:
    """Narrowest signed ``array`` typecode covering [minimum, maximum]."""
    if -128 <= minimum and maximum <= 127:
        return "b"
    if -32768 <= minimum and maximum <= 32767:
        return "h"
    if -2147483648 <= minimum and maximum <= 2147483647:
        return "i"
    return "q"


def build_typed_column(attribute_type: AttributeType, values: Sequence[Any]) -> TypedColumn | None:
    """Build the compact column for *values*, or ``None`` to keep object tuples.

    The builder is defensive: values are classified one by one against the
    declared type (``extend_raw``/``adopt_tuples`` bypass coercion, so stray
    types are possible) and anything unrepresentable goes to the boxed side
    table. When the side table would exceed a quarter of the rows the column
    is not worth encoding and ``None`` is returned.
    """
    count = len(values)
    if count == 0:
        return None
    special: dict[int, Any] = {}
    if attribute_type is AttributeType.INTEGER:
        minimum = maximum = 0
        for position, value in enumerate(values):
            if type(value) is int and INT64_MIN <= value <= INT64_MAX:
                if value < minimum:
                    minimum = value
                elif value > maximum:
                    maximum = value
            else:
                special[position] = value
        if len(special) * _SPECIAL_FALLBACK_DENOMINATOR > count:
            return None
        typecode = _int_typecode(minimum, maximum)
        data = array(typecode, bytes(array(typecode).itemsize * count))
        for position, value in enumerate(values):
            if position not in special:
                data[position] = value
        return IntColumn._make(data, special)
    if attribute_type is AttributeType.FLOAT:
        data = array("d", bytes(8 * count))
        for position, value in enumerate(values):
            if type(value) is float and value == value:
                data[position] = value
            else:
                special[position] = value
        if len(special) * _SPECIAL_FALLBACK_DENOMINATOR > count:
            return None
        return FloatColumn._make(data, special)
    if attribute_type is AttributeType.STRING:
        distinct: set[str] = set()
        for position, value in enumerate(values):
            if type(value) is str:
                distinct.add(value)
            else:
                special[position] = value
        if len(special) * _SPECIAL_FALLBACK_DENOMINATOR > count:
            return None
        dictionary = tuple(sorted(distinct))
        code_of = {value: code for code, value in enumerate(dictionary)}
        typecode = _int_typecode(0, max(len(dictionary) - 1, 0))
        codes = array(typecode, bytes(array(typecode).itemsize * count))
        lookup = code_of.get
        for position, value in enumerate(values):
            if position not in special:
                codes[position] = lookup(value)  # type: ignore[arg-type]
        return StringColumn._make(codes, dictionary, code_of, special)
    if attribute_type is AttributeType.BOOLEAN:
        ones = 0
        for position, value in enumerate(values):
            if value is True:
                ones |= 1 << position
            elif value is not False:
                special[position] = value
        if len(special) * _SPECIAL_FALLBACK_DENOMINATOR > count:
            return None
        return BoolColumn._make(ones, count, special)
    return None  # pragma: no cover - exhaustive over AttributeType


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
    Term entries therefore carry an error mask alongside the truth mask.

    Columns are stored compactly (see the module docstring) when the declared
    attribute type allows; :class:`ColumnarViewReference` keeps every column
    as a plain object tuple and serves as the differential oracle.
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

    #: Subclasses flip this to keep the plain object-tuple layout.
    _TYPED = True

    def __init__(self, relation: "Relation") -> None:
        self.names: tuple[str, ...] = relation.schema.attribute_names
        self._index = {name: position for position, name in enumerate(self.names)}
        tuples = relation.tuples
        self.row_count = len(tuples)
        if tuples:
            raw_columns: list[Any] = list(zip(*(t.values for t in tuples)))
        else:
            raw_columns = [() for _ in self.names]
        if self._TYPED and tuples:
            columns: list[Any] = []
            for attribute, values in zip(relation.schema.attributes, raw_columns):
                typed = build_typed_column(attribute.type, values)
                if typed is None:
                    COLUMNAR_STATS.object_columns += 1
                    columns.append(values)
                else:
                    COLUMNAR_STATS.typed_columns += 1
                    columns.append(typed)
            self._columns = columns
        else:
            self._columns = raw_columns
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

    def column(self, attribute: str) -> Sequence[Any]:
        """All values of *attribute*, in row order.

        Either a plain tuple or a :class:`TypedColumn`; both are immutable,
        indexable, iterable sequences. Identity is stable: untouched columns
        of a derived view are the same objects as the base view's.
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
        if isinstance(column, TypedColumn):
            entry = column.term_entry(term, test)
            if entry is not None:
                COLUMNAR_STATS.typed_term_masks += 1
                return entry
            COLUMNAR_STATS.fallback_term_scans += 1
            column = column.boxed()
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
            boxed = [c.boxed() if isinstance(c, TypedColumn) else c for c in columns]
            return list(zip(*boxed)) if boxed else [() for _ in range(self.row_count)]
        selected = mask_positions(mask)
        if columns and len(selected) * 4 >= self.row_count:
            # Large gathers: unbox each column once (C-speed tolist/map)
            # instead of paying per-cell accessor calls.
            columns = [c.boxed() if isinstance(c, TypedColumn) else c for c in columns]
        return [tuple(column[row] for column in columns) for row in selected]

    def clear_term_masks(self) -> None:
        """Drop the cached term masks (the columns themselves are immutable)."""
        self._term_masks.clear()
        self._term_tests.clear()

    # ------------------------------------------------------------------- memory
    def memory_report(self) -> dict[str, Any]:
        """Per-column storage bytes plus the bytes-per-row aggregate.

        Typed columns report buffer + side-table bytes; object columns report
        pointer array + identity-deduplicated boxed values. This is the
        number behind the "bytes per joined row" claim, measured not assumed.
        """
        columns: dict[str, Any] = {}
        total = 0
        for name, column in zip(self.names, self._columns):
            if isinstance(column, TypedColumn):
                info = {
                    "kind": column.kind,
                    "bytes": column.memory_bytes(),
                    "special_count": column.special_count,
                }
            else:
                info = {"kind": "object", "bytes": object_column_bytes(column)}
            columns[name] = info
            total += info["bytes"]
        return {
            "row_count": self.row_count,
            "total_bytes": total,
            "bytes_per_row": (total / self.row_count) if self.row_count else 0.0,
            "columns": columns,
        }

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
        maintained the same way. Typed columns copy their compact buffers
        (a C-level memcpy) rather than re-boxing values.
        """
        removed_descending = sorted(removed, reverse=True)
        structural = bool(removed_descending or appended)
        survivor_count = self.row_count - len(removed_descending)
        new_row_count = survivor_count + len(appended)

        by_column: dict[int, list[tuple[int, Any]]] = {}
        for position, cells in patches.items():
            for column_position, value in cells.items():
                by_column.setdefault(column_position, []).append((position, value))

        cls = type(self)
        view = cls.__new__(cls)
        view.names = self.names
        view._index = self._index
        view.row_count = new_row_count
        view._all_rows_mask = (1 << new_row_count) - 1

        columns: list[Any] = []
        for column_position, column in enumerate(self._columns):
            cell_patches = by_column.get(column_position)
            if not structural and not cell_patches:
                columns.append(column)  # shared with the base view
                continue
            if isinstance(column, TypedColumn):
                appended_values = (
                    [row[column_position] for row in appended] if appended else ()
                )
                columns.append(
                    column.derive(cell_patches or (), removed_descending, appended_values)
                )
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
            mask, error_mask, error = entry
            if cell_patches:
                for position, value in cell_patches:
                    bit = 1 << position
                    truth, raised = _evaluate_guarded(test, value)
                    mask = (mask | bit) if truth else (mask & ~bit)
                    if raised is not None:
                        error_mask |= bit
                        error = error or raised
                    else:
                        error_mask &= ~bit
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
                        error = error or raised
                mask |= added_mask << survivor_count
                error_mask |= added_errors << survivor_count
            if not error_mask:
                error = None
            view._term_masks[key] = (mask, error_mask, error)
            view._term_tests[key] = test
        return view

    # ----------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        """Picklable state: the immutable columns, without the mask caches.

        Compiled term tests are closures and cannot cross a process boundary,
        and a term-mask entry without its retained test would silently break
        :meth:`derive` (the entry would exist but could never be patched), so
        both caches are dropped together. A rehydrated view is a *cold* view
        over the same columns; its masks rebuild lazily. Typed columns
        pickle their compact buffers (their lazy index/zone structures are
        dropped and rebuilt on demand), keeping the payload small.
        """
        return {
            "names": self.names,
            "row_count": self.row_count,
            "_index": self._index,
            "_columns": self._columns,
            "_all_rows_mask": self._all_rows_mask,
        }

    def __setstate__(self, state: dict) -> None:
        self.names = state["names"]
        self.row_count = state["row_count"]
        self._index = state["_index"]
        self._columns = state["_columns"]
        self._all_rows_mask = state["_all_rows_mask"]
        self._term_masks = {}
        self._term_tests = {}

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({len(self.names)} columns, {self.row_count} rows, "
            f"{len(self._term_masks)} cached masks)"
        )


class ColumnarViewReference(ColumnarView):
    """The object-tuple layout for every column — the differential oracle.

    Semantically identical to :class:`ColumnarView`; used by tests and
    benchmarks to pin the typed representation bit-for-bit and to quantify
    the storage/footprint difference.
    """

    __slots__ = ()

    _TYPED = False
