"""Cross-engine numeric/type-semantics consistency.

One property drives four implementations of the same comparison — the
row-at-a-time interpreter (``Term.evaluate_value``), the compiled term
closures, the columnar batch masks, and the SQLite oracle — over mixed
``True/1/1.0`` domains and integers straddling 2^53, and demands they all
agree. This is the contract the scenario engine leans on: a single wrong
comparison silently corrupts partition signatures and with them the whole
QFE interaction transcript.

Where SQL cannot follow — integers beyond int64, NaN/inf constants,
cross-type ordering on string columns (an engine error) — the columnar
view's full term state (truth mask, error mask, error message) is held
against the compiled per-row test instead.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.relational.columnar import ColumnarView, pack_bools
from repro.relational.database import Database
from repro.relational.evaluator import evaluate
from repro.relational.predicates import ComparisonOp, DNFPredicate, Term, compile_term
from repro.relational.query import SPJQuery
from repro.sql.sqlite_backend import SQLiteBackend
from tests.oracles.evaluator_reference import term_entry_reference

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BIG = 2**53

# Per-column value pools (mixed representations of the same numbers, plus the
# 2^53 neighbourhood; columns stay type-homogeneous as the engine requires).
_INT_VALUES = [0, 1, 2, -1, BIG - 1, BIG, BIG + 1, None]
_FLOAT_VALUES = [0.0, 1.0, 0.5, 2.0, -1.0, 0.1234567, float(BIG), None]
_BOOL_VALUES = [True, False]
_STRING_VALUES = ["", "IT", "Sales", "aa", "zz", None]

# Constants deliberately cross type boundaries: bools against numeric
# columns, ints against floats, floats against ints, 2^53 ± 1. String
# columns draw string constants (present, absent, and bounds) — cross-type
# *ordering* on strings errors in our engine but not in SQL, so that regime
# lives in the view-vs-interpreter property below instead.
_CONSTANTS = [True, False, 0, 1, 1.0, 0.0, 2, 0.5, 0.1234567, BIG, BIG + 1, float(BIG)]
_STRING_CONSTANTS = ["", "IT", "M", "zz", "zzz", "Sales"]
_CONSTANT_POOLS = {
    "i": _CONSTANTS,
    "f": _CONSTANTS,
    "b": _CONSTANTS,
    "s": _STRING_CONSTANTS,
}

_SCALAR_OPS = [
    ComparisonOp.EQ,
    ComparisonOp.NE,
    ComparisonOp.LT,
    ComparisonOp.LE,
    ComparisonOp.GT,
    ComparisonOp.GE,
]

_row = st.tuples(
    st.sampled_from(_INT_VALUES),
    st.sampled_from(_FLOAT_VALUES),
    st.sampled_from(_BOOL_VALUES),
    st.sampled_from(_STRING_VALUES),
)
_term_spec = st.sampled_from(["i", "f", "b", "s"]).flatmap(
    lambda column: st.tuples(
        st.just(column),
        st.sampled_from(_SCALAR_OPS + [ComparisonOp.IN, ComparisonOp.NOT_IN]),
        st.sampled_from(_CONSTANT_POOLS[column]),
        st.sampled_from(_CONSTANT_POOLS[column]),  # second member for IN/NOT IN
    )
)


def _database(rows) -> Database:
    return Database.from_tables({"T": (["i", "f", "b", "s"], [list(r) for r in rows])})


class TestFourPathConsistency:
    @_SETTINGS
    @given(rows=st.lists(_row, min_size=1, max_size=10), spec=_term_spec)
    def test_interpreter_compiled_mask_and_sqlite_agree(self, rows, spec):
        column, op, constant, second = spec
        if op.is_membership:
            constant = (constant, second)
        qualified = Term(f"T.{column}", op, constant)
        database = _database(rows)
        relation = database.relation("T")
        values = relation.column(column)

        # Path 1 vs 2: interpreter vs compiled closure, value by value.
        compiled = compile_term(qualified)
        interpreted = [qualified.evaluate_value(v) for v in values]
        assert [compiled(v) for v in values] == interpreted

        # Path 3: the columnar term mask, bit for bit.
        bare = Term(column, op, constant)
        view = ColumnarView(relation)
        assert view.term_mask(bare) == pack_bools(interpreted)

        # Path 4: the SQLite oracle on the rendered SQL.
        query = SPJQuery(
            ["T"], ["T.i", "T.f", "T.b", "T.s"], DNFPredicate.from_terms([qualified])
        )
        ours = evaluate(query, database)
        with SQLiteBackend(database) as backend:
            theirs = backend.execute(query)
        assert ours.bag_equal(theirs), (op, constant)

    @_SETTINGS
    @given(rows=st.lists(_row, min_size=1, max_size=8))
    def test_distinct_dedup_agrees_with_sqlite(self, rows):
        database = _database(rows)
        query = SPJQuery(["T"], ["T.i", "T.b"], distinct=True)
        ours = evaluate(query, database)
        with SQLiteBackend(database) as backend:
            theirs = backend.execute(query)
        assert ours.set_equal(theirs)


#: Value/constant pools for the view-vs-interpreter property: everything the
#: SQLite path cannot express — beyond-int64 integers, NaN/inf constants,
#: cross-type ordering on string columns (engine errors).
_EXTREME_INT_VALUES = [0, -1, BIG + 1, 2**63 - 1, 2**63, -(2**64), 7, None]
_EXTREME_CONSTANTS = [
    0,
    2**63,
    2**63 - 1,
    -(2**64),
    BIG + 1,
    math.nan,
    math.inf,
    -math.inf,
    1.5,
    "IT",
    True,
    None,
]
_extreme_row = st.tuples(
    st.sampled_from(_EXTREME_INT_VALUES),
    st.sampled_from(_STRING_VALUES),
)
_extreme_spec = st.tuples(
    st.sampled_from(["i", "s"]),
    st.sampled_from(_SCALAR_OPS + [ComparisonOp.IN, ComparisonOp.NOT_IN]),
    st.sampled_from(_EXTREME_CONSTANTS),
    st.sampled_from(_EXTREME_CONSTANTS),
)


class TestViewVsInterpreterExtremes:
    """The view must match the per-row interpreter where SQL cannot follow."""

    @_SETTINGS
    @given(rows=st.lists(_extreme_row, min_size=1, max_size=12), spec=_extreme_spec)
    def test_view_matches_interpreter(self, rows, spec):
        column, op, constant, second = spec
        if op.is_membership:
            constant = (constant, second)
        relation = Database.from_tables(
            {"T": (["i", "s"], [list(r) for r in rows])}
        ).relation("T")
        term = Term(column, op, constant)
        mask, errors, error = ColumnarView(relation)._term_entry(term)
        expected_mask, expected_errors, message = term_entry_reference(relation.column(column), term)
        assert (mask, errors) == (expected_mask, expected_errors)
        # The representative error is the first erroring row's, verbatim.
        assert (None if error is None else str(error)) == message

    def test_beyond_int64_values_stay_exact_in_masks(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 2**63, -(2**64), BIG, BIG + 1]
        relation = Database.from_tables(
            {"T": (["i"], [[v] for v in values])}
        ).relation("T")
        view = ColumnarView(relation)
        assert view.term_mask(Term("i", ComparisonOp.EQ, 2**63)) == 1 << 8
        assert view.term_mask(Term("i", ComparisonOp.GT, BIG + 1)) == 1 << 8
        assert view.term_mask(Term("i", ComparisonOp.LT, 0)) == 1 << 9
        # 2^63 is a power of two, so the double equals the boxed int exactly
        # — cross-type equality must stay mathematically exact, not bitwise.
        assert view.term_mask(Term("i", ComparisonOp.EQ, float(2**63))) == 1 << 8
        # 2^53 + 1 is *not* double-representable: float(2^53 + 1) rounds to
        # 2^53, so the float constant selects row 2^53 and only it.
        assert view.term_mask(Term("i", ComparisonOp.EQ, float(BIG + 1))) == 1 << 10
        assert view.term_mask(Term("i", ComparisonOp.EQ, BIG + 1)) == 1 << 11

    def test_nan_constant_bitmap_semantics(self):
        relation = Database.from_tables(
            {"T": (["f"], [[0.0], [1.5], [None], [-2.0]])}
        ).relation("T")
        view = ColumnarView(relation)
        for op in _SCALAR_OPS:
            term = Term("f", op, math.nan)
            # NaN compares False to everything and never errors; NULLs stay
            # filtered. NE is the one truth-bearing case: x != NaN is True
            # for every non-NULL x.
            mask, errors, error = view._term_entry(term)
            assert (mask, errors) == term_entry_reference(relation.column("f"), term)[:2]
            assert error is None
            expected = view.all_rows_mask & ~(1 << 2) if op is ComparisonOp.NE else 0
            assert view.term_mask(term) == expected


class TestCacheKeyAliasing:
    """Bools must never alias numerics (and big ints never each other)."""

    @pytest.mark.parametrize("numeric", [1, 1.0, 0, 0.0])
    def test_bool_constants_never_share_keys_with_numerics(self, numeric):
        for op in _SCALAR_OPS:
            bool_key = Term("a", op, bool(numeric)).mask_key()
            assert bool_key != Term("a", op, numeric).mask_key()

    def test_equal_int_float_constants_share_one_key(self):
        assert Term("a", ComparisonOp.LE, 60).mask_key() == Term(
            "a", ComparisonOp.LE, 60.0
        ).mask_key()

    def test_big_int_neighbours_never_collide(self):
        keys = {Term("a", ComparisonOp.EQ, BIG + d).mask_key() for d in (-1, 0, 1)}
        assert len(keys) == 3

    def test_membership_keys_are_exact_too(self):
        left = Term("a", ComparisonOp.IN, (BIG, 1)).mask_key()
        right = Term("a", ComparisonOp.IN, (BIG + 1, 1)).mask_key()
        assert left != right
        assert Term("a", ComparisonOp.IN, (1, True)).mask_key() != Term(
            "a", ComparisonOp.IN, (1, 1)
        ).mask_key()


class TestTupleClassExactness:
    """Domain partitioning must keep huge-int representatives exact."""

    def test_neighbouring_breakpoints_partition_separately(self):
        from repro.core.tuple_class import DomainPartition

        terms = [Term("T.a", ComparisonOp.LE, BIG), Term("T.a", ComparisonOp.LE, BIG + 1)]
        partition = DomainPartition("T.a", terms, [BIG - 1, BIG, BIG + 1])
        assert partition.subset_of_value(BIG) != partition.subset_of_value(BIG + 1)

    def test_representatives_preserve_exact_active_values(self):
        from repro.core.tuple_class import DomainPartition

        partition = DomainPartition(
            "T.a", [Term("T.a", ComparisonOp.GE, BIG)], [BIG - 1, BIG + 1]
        )
        representatives = {
            value for subset in partition.subsets for value in subset.representatives
        }
        # The odd value 2^53 + 1 — unrepresentable as a double — must appear
        # exactly; a float() round-trip would silently rewrite it to 2^53.
        assert BIG + 1 in representatives
        assert BIG - 1 in representatives
