"""Cross-path NULL / three-valued-logic consistency.

One property drives three implementations of the same comparison over
columns containing NULLs and constants that are NULL, NaN or
type-incomparable — the row-at-a-time interpreter (the oracle
:func:`~tests.oracles.evaluator_reference.evaluate_value_reference`), the
compiled term closures, and the columnar batch masks — and demands they
all agree. The evaluator's semantics are *not* SQL's: ``NULL`` values fail
every predicate outright (no three-valued ``UNKNOWN`` propagation), ``NOT
IN`` with a NULL in the list still selects rows, and ordering a value
against a NULL constant is an error.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.exceptions import EvaluationError
from repro.relational.columnar import pack_bools
from repro.relational.database import Database
from repro.relational.predicates import ComparisonOp, Term, compile_term
from tests.columns import view_of
from tests.oracles.evaluator_reference import evaluate_value_reference

_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BIG = 2**53
NAN = float("nan")

# Per-column value pools; every column contains NULLs alongside ordinary
# values (columns stay type-homogeneous as the engine requires).
_INT_VALUES = [None, 0, 1, -1, BIG, BIG + 1]
_FLOAT_VALUES = [None, 0.0, 1.0, -0.5, float(BIG)]
_BOOL_VALUES = [None, True, False]
_STR_VALUES = [None, "x", "y", "1"]

# Constants deliberately include NULL, NaN, and values whose type cannot be
# compared with some columns ('1' against INTEGER must never match — the
# evaluator compares exactly, without SQLite's affinity coercion).
_CONSTANTS = [None, NAN, True, False, 0, 1, 1.0, 0.5, BIG, BIG + 1, "x", "1"]

_SCALAR_OPS = [
    ComparisonOp.EQ,
    ComparisonOp.NE,
    ComparisonOp.LT,
    ComparisonOp.LE,
    ComparisonOp.GT,
    ComparisonOp.GE,
]

# The first row pins every column's inferred type; hypothesis rows layer the
# NULL-heavy mixtures on top.
_ANCHOR_ROW = (1, 1.0, True, "x")

_row = st.tuples(
    st.sampled_from(_INT_VALUES),
    st.sampled_from(_FLOAT_VALUES),
    st.sampled_from(_BOOL_VALUES),
    st.sampled_from(_STR_VALUES),
)
_term_spec = st.tuples(
    st.sampled_from(["i", "f", "b", "s"]),
    st.sampled_from(_SCALAR_OPS + [ComparisonOp.IN, ComparisonOp.NOT_IN]),
    st.sampled_from(_CONSTANTS),
    st.sampled_from(_CONSTANTS),  # second member for IN/NOT IN
)

_COLUMNS = ["i", "f", "b", "s"]

#: IN/NOT IN lists mixing one number in three types, the 2^53 neighbourhood,
#: NaN and NULL: the hashed membership lookup must give the verdicts of
#: ``any(value == c)``.
_MEMBERS = [True, 1, 1.0, BIG - 1, BIG, BIG + 1, NAN, None, "x"]
_membership_spec = st.tuples(
    st.sampled_from(_COLUMNS),
    st.sampled_from([ComparisonOp.IN, ComparisonOp.NOT_IN]),
    st.lists(st.sampled_from(_MEMBERS), max_size=5),
)


def _ids(relation):
    return [t.tuple_id for t in relation.tuples]


def _database(rows) -> Database:
    all_rows = [list(_ANCHOR_ROW)] + [list(r) for r in rows]
    return Database.from_tables({"T": (_COLUMNS, all_rows)})


def _interpret(term: Term, values):
    """Per-row interpreter verdicts; ``None`` marks an evaluation error."""
    verdicts = []
    errored = False
    for value in values:
        try:
            verdicts.append(evaluate_value_reference(term, value))
        except EvaluationError:
            verdicts.append(None)
            errored = True
    return verdicts, errored


class TestThreePathNullConsistency:
    @_SETTINGS
    @given(rows=st.lists(_row, min_size=0, max_size=8), spec=_term_spec)
    def test_interpreter_compiled_and_mask_agree(self, rows, spec):
        column, op, constant, second = spec
        if op.is_membership:
            constant = (constant, second)
        qualified = Term(f"T.{column}", op, constant)
        relation = _database(rows).relation("T")
        values = relation.column(column)

        verdicts, errored = _interpret(qualified, values)
        if errored:
            return

        # Path 1 vs 2: interpreter vs compiled closure, value by value.
        compiled = compile_term(qualified)
        assert [compiled(v) for v in values] == verdicts

        # Path 3: the columnar term mask, bit for bit.
        view = view_of(relation)
        assert view.term_mask(Term(column, op, constant)) == pack_bools(verdicts)

    @_SETTINGS
    @given(rows=st.lists(_row, min_size=0, max_size=8), spec=_membership_spec)
    def test_membership_lists_agree(self, rows, spec):
        column, op, constants = spec
        qualified = Term(f"T.{column}", op, tuple(constants))
        relation = _database(rows).relation("T")
        values = relation.column(column)
        verdicts, errored = _interpret(qualified, values)
        assert not errored

        compiled = compile_term(qualified)
        assert [compiled(v) for v in values] == verdicts

        view = view_of(relation)
        assert view.term_mask(Term(column, op, tuple(constants))) == pack_bools(verdicts)


class TestPinnedNullCases:
    """The specific traps, pinned so a pool change never un-tests them."""

    def _selected(self, database, term):
        relation = database.relation("T")
        column = term.attribute.split(".", 1)[1]
        verdicts, errored = _interpret(term, relation.column(column))
        assert not errored, term
        mask = view_of(relation).term_mask(Term(column, term.op, term.constant))
        assert mask == pack_bools(verdicts), term
        return {
            tuple_id for tuple_id, verdict in zip(_ids(relation), verdicts) if verdict
        }

    def test_not_in_with_null_in_list_still_selects(self):
        # SQL's ``x NOT IN (1, NULL)`` selects nothing; the evaluator's
        # selects every row whose value differs from 1.
        database = _database([(2, 1.0, True, "x"), (1, 1.0, True, "x")])
        term = Term("T.i", ComparisonOp.NOT_IN, (1, None))
        ids = self._selected(database, term)
        values = dict(zip(_ids(database.relation("T")),
                          database.relation("T").column("i")))
        assert ids == {i for i, v in values.items() if v is not None and v != 1}

    def test_in_with_only_null_matches_nothing(self):
        database = _database([(None, None, None, None)])
        term = Term("T.i", ComparisonOp.IN, (None,))
        assert self._selected(database, term) == set()

    def test_null_rows_fail_equality_against_null_constant(self):
        # The evaluator is not SQL: NULL == NULL is False, not UNKNOWN,
        # and NULL != NULL is also False (NULL fails every predicate).
        database = _database([(None, None, None, None)])
        assert self._selected(database, Term("T.i", ComparisonOp.EQ, None)) == set()

    def test_ne_null_constant_selects_exactly_non_null_rows(self):
        database = _database([(None, None, None, None), (7, None, None, None)])
        ids = self._selected(database, Term("T.i", ComparisonOp.NE, None))
        values = dict(zip(_ids(database.relation("T")),
                          database.relation("T").column("i")))
        assert ids == {i for i, v in values.items() if v is not None}

    def test_ordering_against_null_constant_is_an_error(self):
        with pytest.raises(EvaluationError):
            compile_term(Term("T.i", ComparisonOp.LT, None))(1)

    def test_string_literal_never_matches_integers(self):
        # Unlike SQLite's affinity coercion ('1' = 1 on a TEXT column), the
        # evaluator never cross-matches a string literal and an integer.
        database = _database([(1, 1.0, True, "1")])
        assert self._selected(database, Term("T.i", ComparisonOp.EQ, "1")) == set()
        relation = database.relation("T")
        ids = {
            i for i, v in zip(_ids(relation), relation.column("s")) if v == "1"
        }
        assert self._selected(database, Term("T.s", ComparisonOp.EQ, "1")) == ids
        assert self._selected(database, Term("T.s", ComparisonOp.EQ, 1)) == set()

    def test_nan_constant_behaves_like_python_not_sql(self):
        # Python: every comparison against NaN is False except ``!=`` which
        # is True — so EQ/orderings select nothing, NE selects every
        # non-NULL row, and NaN inside an IN list is dead weight.
        database = _database([(0, 0.0, True, "x"), (None, None, None, None)])
        relation = database.relation("T")
        non_null_f = {
            i for i, v in zip(_ids(relation), relation.column("f")) if v is not None
        }
        for op in _SCALAR_OPS:
            selected = self._selected(database, Term("T.f", op, NAN))
            expected = non_null_f if op is ComparisonOp.NE else set()
            assert selected == expected, op
        zero_f = {
            i for i, v in zip(_ids(relation), relation.column("f")) if v == 0.0
        }
        assert self._selected(
            database, Term("T.f", ComparisonOp.IN, (NAN, 0.0))
        ) == zero_f

    def test_ordering_against_nan_is_an_error_only_on_strings(self):
        # ``"x" < nan`` is a cross-type ordering *error*, not a benign False;
        # over numeric columns every ordering against NaN is just False.
        with pytest.raises(EvaluationError):
            compile_term(Term("T.s", ComparisonOp.LT, NAN))("x")
        assert compile_term(Term("T.f", ComparisonOp.LT, NAN))(0.0) is False

    def test_nan_value_never_matches_a_nan_member(self):
        # Relations hold no NaN, but a compiled test may meet one. It is the
        # same object as the member, and ``nan == nan`` is False: a lookup
        # that matched by identity would say it is a member.
        for constants in [(NAN,), (NAN, 1.0), (1.0, NAN, None)]:
            for op in (ComparisonOp.IN, ComparisonOp.NOT_IN):
                term = Term("T.f", op, constants)
                assert compile_term(term)(NAN) is (op is ComparisonOp.NOT_IN)
                assert compile_term(term)(NAN) == evaluate_value_reference(term, NAN)

    def test_huge_int_neighbours_stay_exact(self):
        # 2^53 and 2^53 + 1 collapse after a float() round-trip; every path
        # must keep them apart.
        database = _database([(BIG, None, None, None), (BIG + 1, None, None, None)])
        relation = database.relation("T")
        by_value = dict(zip(relation.column("i"), _ids(relation)))
        assert self._selected(database, Term("T.i", ComparisonOp.EQ, BIG)) == {
            by_value[BIG]
        }
        assert self._selected(database, Term("T.i", ComparisonOp.EQ, BIG + 1)) == {
            by_value[BIG + 1]
        }
