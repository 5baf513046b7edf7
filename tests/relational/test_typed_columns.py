"""Typed compact column storage: differential and structural coverage.

The typed columns (`IntColumn`/`FloatColumn`/`StringColumn`/`BoolColumn`)
must be observationally identical to the boxed object-tuple path — same term
masks, same error masks, same error *messages* — while storing values in
narrow buffers with a boxed side table for anything the buffer cannot hold
(NULLs, huge integers, strings outside the dictionary). These tests pin:

* the differential contract (`ColumnarView` vs `ColumnarViewReference`) over
  a grid of operators and adversarial constants (NaN, ±2^63, 2^53±1, strings
  on numeric columns);
* the side-table regime: exact big integers beyond int64, derive patches
  escaping a narrowed buffer, strings appended outside the dictionary;
* engagement of the acceleration structures (zone maps, sorted term index)
  via `COLUMNAR_STATS`, and their agreement with the plain scan;
* copy-on-write identity sharing.
"""

from __future__ import annotations

import math

import pytest

from repro.relational.columnar import (
    COLUMNAR_STATS,
    BoolColumn,
    ColumnarView,
    ColumnarViewReference,
    FloatColumn,
    IntColumn,
    StringColumn,
    build_typed_column,
    mask_positions,
)
from repro.relational.evaluator import JoinCache
from repro.relational.predicates import ComparisonOp, Term
from repro.relational.relation import Relation
from repro.relational.types import AttributeType

_SCALAR_OPS = [
    ComparisonOp.EQ,
    ComparisonOp.NE,
    ComparisonOp.LT,
    ComparisonOp.LE,
    ComparisonOp.GT,
    ComparisonOp.GE,
]


def _entry_signature(view, term):
    """(truth mask, error mask, error message) — the full observable state."""
    mask, error_mask, error = view._term_entry(term)
    return (mask, error_mask, None if error is None else str(error))


def _assert_views_agree(relation, terms):
    typed = ColumnarView(relation)
    reference = ColumnarViewReference(relation)
    for term in terms:
        assert _entry_signature(typed, term) == _entry_signature(reference, term), term
    # Cell access must agree too (side-table values come back exact).
    for name in typed.names:
        typed_column = typed.column(name)
        reference_column = reference.column(name)
        assert len(typed_column) == len(reference_column)
        for i in range(len(typed_column)):
            t, r = typed_column[i], reference_column[i]
            assert t == r and type(t) is type(r), (name, i, t, r)
    return typed, reference


def _terms_on(attribute, constants):
    terms = [Term(attribute, op, c) for op in _SCALAR_OPS for c in constants]
    terms.append(Term(attribute, ComparisonOp.IN, list(constants)[:3]))
    terms.append(Term(attribute, ComparisonOp.NOT_IN, list(constants)[:3]))
    return terms


# ------------------------------------------------------------- differential
class TestTypedDifferential:
    def test_int_column_with_overflow_side_table(self):
        values = [0, 1, -3, 7, 2**53, 2**53 + 1, 2**31, -(2**31), 55, 56, 57, 58, 59, 60]
        values += [None, 2**63, -(2**64)]  # NULL + two beyond-int64 specials
        relation = Relation.from_rows("T", ["v"], [[v] for v in values])
        constants = [0, 1, 7, 2**53, 2**53 + 1, 2**63, -(2**64), 1.5, 0.0, "IT", True, math.nan]
        typed, _ = _assert_views_agree(relation, _terms_on("v", constants))
        column = typed.column("v")
        assert isinstance(column, IntColumn)
        assert column.special_count == 3
        assert column[15] == 2**63  # exact, not a float round-trip
        assert column[16] == -(2**64)

    def test_two_pow_53_neighbours_stay_distinct(self):
        relation = Relation.from_rows("T", ["v"], [[2**53], [2**53 + 1], [2**53 - 1], [0]])
        typed = ColumnarView(relation)
        eq = Term("v", ComparisonOp.EQ, 2**53 + 1)
        assert mask_positions(typed.term_mask(eq)) == [1]
        # The float 2.0**53 equals the int 2**53 exactly — and only it.
        eq_float = Term("v", ComparisonOp.EQ, 2.0**53)
        assert mask_positions(typed.term_mask(eq_float)) == [0]

    def test_float_column_with_nulls(self):
        values = [0.0, -1.5, 3.25, 1e300, -0.0, 2.5, 100.25, 8.0, None, None]
        relation = Relation.from_rows("T", ["v"], [[v] for v in values])
        constants = [0.0, -1.5, 1e300, 3, "x", math.nan, math.inf, True]
        typed, _ = _assert_views_agree(relation, _terms_on("v", constants))
        assert isinstance(typed.column("v"), FloatColumn)
        assert typed.column("v").special_count == 2

    def test_string_column_dictionary_comparisons(self):
        values = ["IT", "Sales", "", "zz", "IT", "Service", "Ann", "Bo", None]
        relation = Relation.from_rows("T", ["v"], [[v] for v in values])
        constants = ["IT", "", "M", "zzz", "Aa", 5, 1.5, True, math.nan]
        typed, _ = _assert_views_agree(relation, _terms_on("v", constants))
        column = typed.column("v")
        assert isinstance(column, StringColumn)
        # The code dictionary is sorted, so code order is lexicographic order.
        assert list(column.dictionary) == sorted(set(v for v in values if v is not None))

    def test_bool_column_broadcast(self):
        values = [True, False, True, None, False, True]
        relation = Relation.from_rows("T", ["v"], [[v] for v in values])
        constants = [True, False, 0, 1, 0.5, "x"]
        typed, _ = _assert_views_agree(relation, _terms_on("v", constants))
        column = typed.column("v")
        assert isinstance(column, BoolColumn)
        assert mask_positions(column.truth_mask) == [0, 2, 5]

    def test_error_messages_match_interpreter_exactly(self, two_table_db):
        joined_cache = JoinCache()
        joined = joined_cache.join_for(two_table_db, ("Dept", "Emp"))
        typed = ColumnarView(joined.relation)
        reference = ColumnarViewReference(joined.relation)
        term = Term("Emp.salary", ComparisonOp.LT, "high")
        assert _entry_signature(typed, term) == _entry_signature(reference, term)
        _, error_mask, message = _entry_signature(typed, term)
        assert error_mask == typed.all_rows_mask
        assert message == "cannot compare 90 < 'high'"  # first row in row order


# --------------------------------------------------------------- structures
class TestAccelerationStructures:
    def _large_int_relation(self, rows=20_000):
        # Mostly-sorted data over several zone blocks: a selective ordering
        # constant leaves one boundary block, below the quarter-of-rows
        # threshold that escalates to the sorted index.
        return Relation.from_rows("T", ["v"], [[i * 3 + (i % 7)] for i in range(rows)])

    def test_zone_maps_engage_on_ordering_terms(self):
        relation = self._large_int_relation()
        typed = ColumnarView(relation)
        reference = ColumnarViewReference(relation)
        COLUMNAR_STATS.reset()
        term = Term("v", ComparisonOp.LT, 5000)
        assert typed.term_mask(term) == reference.term_mask(term)
        stats = COLUMNAR_STATS.snapshot()
        assert stats["zone_builds"] == 1
        assert stats["zone_block_fills"] + stats["zone_block_skips"] > 0
        # A second ordering term reuses the built zones.
        term2 = Term("v", ComparisonOp.GE, 20000)
        assert typed.term_mask(term2) == reference.term_mask(term2)
        assert COLUMNAR_STATS.zone_builds == 1

    def test_sorted_index_engages_on_equality(self):
        relation = self._large_int_relation()
        typed = ColumnarView(relation)
        reference = ColumnarViewReference(relation)
        COLUMNAR_STATS.reset()
        term = Term("v", ComparisonOp.EQ, 3 * 4000 + 4000 % 7)
        assert typed.term_mask(term) == reference.term_mask(term)
        assert COLUMNAR_STATS.index_builds == 1
        assert COLUMNAR_STATS.index_probes >= 1
        # Warm probes reuse the index.
        term2 = Term("v", ComparisonOp.EQ, -1)
        assert typed.term_mask(term2) == reference.term_mask(term2) == 0
        assert COLUMNAR_STATS.index_builds == 1

    def test_typed_masks_do_not_fall_back(self):
        relation = self._large_int_relation(1000)
        typed = ColumnarView(relation)
        COLUMNAR_STATS.reset()
        for op in _SCALAR_OPS:
            typed.term_mask(Term("v", op, 1500))
        assert COLUMNAR_STATS.typed_term_masks == len(_SCALAR_OPS)
        assert COLUMNAR_STATS.fallback_term_scans == 0


# --------------------------------------------------------------------- build
class TestBuildTypedColumn:
    def test_narrow_widths(self):
        assert build_typed_column(AttributeType.INTEGER, [0, 100, -100]).kind == "int8"
        assert build_typed_column(AttributeType.INTEGER, [0, 1000]).kind == "int16"
        assert build_typed_column(AttributeType.INTEGER, [0, 2**20]).kind == "int32"
        assert build_typed_column(AttributeType.INTEGER, [0, 2**40]).kind == "int64"
        assert build_typed_column(AttributeType.FLOAT, [0.5]).kind == "float64"

    def test_special_heavy_columns_stay_boxed(self):
        # More than a quarter NULLs → the side table would dominate.
        assert build_typed_column(AttributeType.INTEGER, [1, None, None, 4]) is None
        assert build_typed_column(AttributeType.INTEGER, []) is None
        column = build_typed_column(AttributeType.INTEGER, [1, 2, 3, 4, 5, 6, 7, None])
        assert column is not None and column.special_count == 1

    def test_beyond_int64_values_are_specials(self):
        column = build_typed_column(
            AttributeType.INTEGER, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 2**63]
        )
        assert column.special_count == 1
        assert column[11] == 2**63


# ------------------------------------------------------------------- derive
class TestTypedDerive:
    def _view(self):
        rows = [[i, float(i) / 2, f"s{i % 5}", i % 2 == 0] for i in range(40)]
        relation = Relation.from_rows("T", ["i", "f", "s", "b"], rows)
        return relation, ColumnarView(relation)

    def test_untouched_columns_shared_by_reference(self):
        _, view = self._view()
        derived = view.derive({3: {0: 999}}, [], [])
        assert derived.column("f") is view.column("f")
        assert derived.column("s") is view.column("s")
        assert derived.column("i") is not view.column("i")
        assert derived.column("i")[3] == 999

    def test_derive_escapes_to_side_table(self):
        _, view = self._view()
        base_int = view.column("i")
        assert isinstance(base_int, IntColumn) and base_int.kind == "int8"
        derived = view.derive(
            {5: {0: 2**70, 2: "unseen-string"}}, [0], [[-7, 0.25, "s1", None]]
        )
        # Patch beyond the narrow int8 width lands in the side table, exact;
        # row 0 was removed so base position 5 is now 4, append is last.
        patched_int = derived.column("i")
        assert patched_int[4] == 2**70
        assert patched_int[-1] == -7
        patched_str = derived.column("s")
        assert patched_str[4] == "unseen-string"
        assert isinstance(patched_str, StringColumn)
        assert "unseen-string" not in patched_str.dictionary  # side table, not dict
        patched_bool = derived.column("b")
        assert patched_bool[-1] is None
        # The derived view must agree with a cold reference of the same rows.
        rows = [tuple(derived.column(name)[i] for name in derived.names) for i in range(len(patched_int))]
        rebuilt = ColumnarViewReference(Relation.from_rows("T", ["i", "f", "s", "b"], rows))
        for term in _terms_on("i", [0, -7, 2**70, 1.5]):
            assert _entry_signature(derived, term) == _entry_signature(rebuilt, term)

    def test_derived_masks_match_cold_masks(self):
        _, view = self._view()
        term = Term("i", ComparisonOp.GE, 10)
        warm = view.term_mask(term)
        derived = view.derive({12: {0: 3}}, [39], [[100, 0.0, "s0", True]])
        derived_mask = derived.term_mask(term)
        fresh = ColumnarView(
            Relation.from_rows(
                "T",
                ["i", "f", "s", "b"],
                [
                    tuple(derived.column(n)[i] for n in derived.names)
                    for i in range(derived.row_count)
                ],
            )
        )
        assert derived_mask == fresh.term_mask(term)
        assert warm == view.term_mask(term)  # base view untouched


# ------------------------------------------------------------------- memory
class TestMemoryReports:
    def test_typed_view_is_smaller_than_object_view(self):
        rows = [[i, float(i), f"name{i % 8}", i % 3 == 0] for i in range(2000)]
        relation = Relation.from_rows("T", ["i", "f", "s", "b"], rows)
        typed_report = ColumnarView(relation).memory_report()
        object_report = ColumnarViewReference(relation).memory_report()
        assert typed_report["row_count"] == object_report["row_count"] == 2000
        assert typed_report["total_bytes"] * 4 <= object_report["total_bytes"]
        kinds = {info["kind"] for info in typed_report["columns"].values()}
        assert kinds == {"int16", "float64", "dict-string", "bitmap-bool"}

    def test_join_cache_memory_report(self, two_table_db):
        cache = JoinCache()
        joined = cache.join_for(two_table_db, ("Dept", "Emp"))
        assert joined.columnar_memory_report() is None  # never forces a build
        empty = cache.memory_report()
        assert empty["view_count"] == 0 and empty["bytes_per_joined_row"] is None
        joined.columnar()
        report = cache.memory_report()
        assert report["view_count"] == 1
        assert report["joined_rows"] == len(joined)
        assert report["views"][0]["signature"] == ["Dept", "Emp"]
        assert report["total_bytes"] > 0
        assert report["bytes_per_joined_row"] == pytest.approx(
            report["total_bytes"] / len(joined)
        )
