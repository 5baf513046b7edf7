"""Differential tests: the columnar engine against the row-at-a-time oracle.

The columnar engine (compiled terms, cached bitmasks, batch evaluation) must
be *indistinguishable* from the original row-at-a-time evaluator, which is
kept as :func:`~tests.oracles.evaluator_reference.evaluate_on_join_reference`.
These tests hold the two against each other on handcrafted predicates
covering every operator and value-type combination, on adversarial columns
(NULLs, ints straddling 2^53 and 2^63, NaN/inf, cross-type constants) term
by term against the compiled per-row test, on copy-on-write derived views
against cold views, and on all six paper workloads (Q1–Q6) including
constant-mutated candidate variants.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EvaluationError
from repro.qbo.mutation import mutate_candidates
from repro.relational.columnar import COLUMNAR_STATS, ColumnarView, mask_positions, pack_bools
from repro.relational.database import Database
from repro.relational.evaluator import evaluate_batch, evaluate_on_join, result_fingerprint
from repro.relational.join import full_join
from repro.relational.predicates import (
    ComparisonOp,
    Conjunct,
    DNFPredicate,
    Term,
    compile_term,
)
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.workloads import WORKLOADS, build_pair
from tests.columns import view_of
from tests.oracles.evaluator_reference import (
    evaluate_on_join_reference,
    evaluate_row_reference,
    evaluate_value_reference,
    pack_bools_reference,
    term_entry_reference,
)
from tests.oracles.prologue_reference import compile_predicate

#: Tiny scale keeps the six workload pairs fast while exercising real data.
_SCALE = 0.03


def mask_from_positions(positions, row_count=None) -> int:
    """Bitmask with exactly the given row positions set (inverse of mask_positions)."""
    if row_count is None:
        positions = list(positions)
        row_count = max(positions) + 1 if positions else 0
    buffer = bytearray((row_count + 7) >> 3)
    for position in positions:
        buffer[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(buffer, "little")


# ------------------------------------------------------------------ mask helpers
class TestMaskHelpers:
    def test_pack_and_positions_roundtrip(self):
        flags = [True, False, True, True, False, False, True]
        mask = pack_bools(flags)
        assert mask_positions(mask) == [0, 2, 3, 6]
        assert mask.bit_count() == 4

    def test_empty_and_all_set(self):
        assert pack_bools([]) == 0
        assert mask_positions(0) == []
        assert mask_positions(pack_bools([True] * 5)) == [0, 1, 2, 3, 4]

    @given(st.lists(st.booleans(), max_size=700))
    @settings(max_examples=50, deadline=None)
    def test_pack_positions_roundtrip_property(self, flags):
        mask = pack_bools(flags)
        assert mask_positions(mask) == [i for i, f in enumerate(flags) if f]
        assert mask.bit_count() == sum(flags)

    def test_sparse_positions_match_dense_path(self):
        # Few set bits spread over a huge bit range → the bit-stripping
        # sparse path; pinned against the dense bin()-scan equivalent.
        positions = [0, 7, 4_099, 54_321, 400_000]
        mask = mask_from_positions(positions)
        assert mask.bit_count() * 16 <= mask.bit_length()  # sparse path taken
        assert mask_positions(mask) == positions
        dense = [i for i, ch in enumerate(bin(mask)[:1:-1]) if ch == "1"]
        assert mask_positions(mask) == dense

    @given(st.sets(st.integers(min_value=0, max_value=300_000), max_size=14))
    @settings(max_examples=50, deadline=None)
    def test_sparse_positions_property(self, positions):
        expected = sorted(positions)
        mask = mask_from_positions(expected)
        assert mask_positions(mask) == expected
        assert mask.bit_count() == len(expected)

    @given(st.lists(st.booleans(), max_size=1200))
    @settings(max_examples=60, deadline=None)
    def test_pack_bools_matches_reference_oracle(self, flags):
        # The chunked int.from_bytes packer against the per-bit shift loop.
        assert pack_bools(flags) == pack_bools_reference(flags)

    def test_mask_from_positions_inverse(self):
        assert mask_from_positions([], 0) == 0
        assert mask_from_positions([1, 3], 8) == 0b1010
        assert mask_from_positions(iter([0, 2])) == 0b101


# ------------------------------------------------------------ compiled terms
_VALUES = [None, True, False, 0, 1, 4200, -3, 0.05, 4200.0, -0.5, "IT", "Sales", ""]
_CONSTANTS = [True, False, 0, 1, 4200, 0.05, 4200.0, -0.5, "IT", ""]
_SCALAR_OPS = [
    ComparisonOp.EQ,
    ComparisonOp.NE,
    ComparisonOp.LT,
    ComparisonOp.LE,
    ComparisonOp.GT,
    ComparisonOp.GE,
]


class TestCompiledTerms:
    def test_scalar_ops_match_interpreter(self):
        for op in _SCALAR_OPS:
            for constant in _CONSTANTS:
                term = Term("T.a", op, constant)
                compiled = compile_term(term)
                for value in _VALUES:
                    try:
                        expected = evaluate_value_reference(term, value)
                    except EvaluationError:
                        with pytest.raises(EvaluationError):
                            compiled(value)
                        continue
                    assert compiled(value) == expected, (op, constant, value)

    def test_membership_ops_match_interpreter(self):
        for op in (ComparisonOp.IN, ComparisonOp.NOT_IN):
            for constants in ([1, 2.0, "IT"], ["IT", "Sales"], [True, 0], []):
                term = Term("T.a", op, constants)
                compiled = compile_term(term)
                for value in _VALUES:
                    assert compiled(value) == evaluate_value_reference(term, value), (
                        op,
                        constants,
                        value,
                    )

    def test_numeric_constants_share_mask_key(self):
        assert Term("T.a", ComparisonOp.GT, 60).mask_key() == Term(
            "T.a", ComparisonOp.GT, 60.0
        ).mask_key()
        assert Term("T.a", ComparisonOp.GT, 60).mask_key() != Term(
            "T.a", ComparisonOp.GE, 60
        ).mask_key()
        # Boolean constants never alias numeric ones in cache keys (even
        # though ``==`` gives EQ True and EQ 1.0 identical row-level
        # semantics today): cache identity must stay conservative.
        assert Term("T.a", ComparisonOp.EQ, True).mask_key() != Term(
            "T.a", ComparisonOp.EQ, 1.0
        ).mask_key()
        assert Term("T.a", ComparisonOp.EQ, True).mask_key() != Term(
            "T.a", ComparisonOp.EQ, 1
        ).mask_key()
        for value in [None, True, False, 0, 1, 1.0, 2, "1", ""]:
            assert compile_term(Term("T.a", ComparisonOp.EQ, True))(value) == compile_term(
                Term("T.a", ComparisonOp.EQ, 1.0)
            )(value)

    # The prologue oracle's positional predicate compiler against the
    # interpreter oracle.
    def test_compile_predicate_matches_evaluate_row(self):
        predicate = DNFPredicate(
            (
                Conjunct((Term("a", ComparisonOp.GT, 10), Term("b", ComparisonOp.EQ, "x"))),
                Conjunct((Term("a", ComparisonOp.LE, -1),)),
            )
        )
        index_of = {"a": 0, "b": 1}
        compiled = compile_predicate(predicate, index_of)
        for a in [None, -5, -1, 0, 10, 11, 2.5]:
            for b in [None, "x", "y"]:
                row = {"a": a, "b": b}
                assert compiled((a, b)) == evaluate_row_reference(predicate, row), row

    def test_compile_predicate_unknown_attribute(self):
        predicate = DNFPredicate.from_terms([Term("missing", ComparisonOp.EQ, 1)])
        with pytest.raises(EvaluationError):
            compile_predicate(predicate, {"present": 0})

    def test_true_predicate_compiles_to_constant(self):
        assert compile_predicate(DNFPredicate.true(), {})(()) is True


# ------------------------------------------------------------- columnar views
class TestColumnarView:
    def test_view_snapshots_columns(self, two_table_db):
        joined = full_join(two_table_db)
        view = joined.columnar()
        assert view.row_count == len(joined)
        assert view.column("Emp.ename")[0] == "Ann"
        assert view.has_attribute("Dept.budget")
        assert not view.has_attribute("Dept.nope")

    def test_view_of_no_rows_has_one_empty_column_per_name(self):
        view = ColumnarView(["a", "b"], [])
        assert view.row_count == 0
        assert view.all_rows_mask == 0
        assert [view.column("a"), view.column("b")] == [(), ()]
        assert view.term_mask(Term("a", ComparisonOp.GT, 1)) == 0
        assert view.gather(view.all_rows_mask, [0, 1]) == []

    def test_term_masks_are_cached_and_shared(self, two_table_db):
        joined = full_join(two_table_db)
        view = joined.columnar()
        assert view is joined.columnar()  # the join's one view
        term_int = Term("Emp.salary", ComparisonOp.GT, 60)
        term_float = Term("Emp.salary", ComparisonOp.GT, 60.0)
        mask = view.term_mask(term_int)
        assert view.cached_term_count == 1
        assert view.term_mask(term_float) == mask  # normalized key: cache hit
        assert view.cached_term_count == 1
        assert mask.bit_count() == 3  # Ann 90, Cy 70, Ed 65

    def test_columnar_stats_keep_only_the_two_benchmark_fields(self, two_table_db):
        query = SPJQuery(
            ["Emp"], ["Emp.ename"],
            DNFPredicate.from_terms([Term("Emp.salary", ComparisonOp.GT, 60)]),
        )
        evaluate_batch([query], full_join(two_table_db), two_table_db)
        assert COLUMNAR_STATS.snapshot() == {"typed_term_masks": 0, "zone_block_skips": 0}


# ------------------------------------------- term entries vs the interpreter
def _terms_on(attribute, constants):
    terms = [Term(attribute, op, c) for op in _SCALAR_OPS for c in constants]
    terms.append(Term(attribute, ComparisonOp.IN, list(constants)[:3]))
    terms.append(Term(attribute, ComparisonOp.NOT_IN, list(constants)[:3]))
    return terms


def _entry_signature(view, term):
    """(truth mask, error mask, error message): the full observable term state."""
    mask, error_mask, error = view._term_entry(term)
    return (mask, error_mask, None if error is None else str(error))


def _assert_view_matches_interpreter(values, constants):
    relation = Relation.from_rows("T", ["v"], [[v] for v in values])
    view = view_of(relation)
    # A column holds the relation's own value objects: exact, one pointer each.
    assert all(
        cell is row.values[0] for cell, row in zip(view.column("v"), relation.tuples)
    )
    for term in _terms_on("v", constants):
        assert _entry_signature(view, term) == term_entry_reference(values, term), term
    return view


class TestTermEntriesMatchInterpreter:
    def test_int_column_with_nulls_and_beyond_int64_values(self):
        values = [0, 1, -3, 7, 2**53, 2**53 + 1, 2**31, -(2**31), 55, 56, 57, 58, 59, 60]
        values += [None, 2**63, -(2**64)]
        constants = [0, 1, 7, 2**53, 2**53 + 1, 2**63, -(2**64), 1.5, 0.0, "IT", True, math.nan]
        view = _assert_view_matches_interpreter(values, constants)
        assert view.column("v")[15] == 2**63  # exact, not a float round-trip
        assert view.column("v")[16] == -(2**64)

    def test_float_column_with_nulls(self):
        values = [0.0, -1.5, 3.25, 1e300, -0.0, 2.5, 100.25, 8.0, None, None]
        constants = [0.0, -1.5, 1e300, 3, "x", math.nan, math.inf, True]
        _assert_view_matches_interpreter(values, constants)

    def test_string_column_with_cross_type_constants(self):
        values = ["IT", "Sales", "", "zz", "IT", "Service", "Ann", "Bo", None]
        constants = ["IT", "", "M", "zzz", "Aa", 5, 1.5, True, math.nan]
        _assert_view_matches_interpreter(values, constants)

    def test_bool_column_with_cross_type_constants(self):
        values = [True, False, True, None, False, True]
        constants = [True, False, 0, 1, 0.5, "x"]
        _assert_view_matches_interpreter(values, constants)

    def test_two_pow_53_neighbours_stay_distinct(self):
        view = view_of(Relation.from_rows("T", ["v"], [[2**53], [2**53 + 1], [2**53 - 1], [0]]))
        eq = Term("v", ComparisonOp.EQ, 2**53 + 1)
        assert mask_positions(view.term_mask(eq)) == [1]
        # The float 2.0**53 equals the int 2**53 exactly — and only it.
        eq_float = Term("v", ComparisonOp.EQ, 2.0**53)
        assert mask_positions(view.term_mask(eq_float)) == [0]

    def test_error_message_is_the_first_erroring_rows(self, two_table_db):
        view = full_join(two_table_db).columnar()
        term = Term("Emp.salary", ComparisonOp.LT, "high")
        assert _entry_signature(view, term) == (
            0,
            view.all_rows_mask,
            "cannot compare 90 < 'high'",  # the interpreter's message, first row
        )


class TestGather:
    def _view(self):
        rows = [[i, f"r{i}", i % 2 == 0] for i in range(6)]
        return rows, view_of(Relation.from_rows("T", ["a", "b", "c"], rows))

    def test_gather_projects_the_selected_rows(self):
        rows, view = self._view()
        assert view.gather(view.all_rows_mask, [2, 0]) == [(r[2], r[0]) for r in rows]
        mask = pack_bools([True, False, False, True, False, True])
        assert view.gather(mask, [1]) == [("r0",), ("r3",), ("r5",)]
        assert view.gather(0, [0, 1]) == []

    def test_gather_without_columns_keeps_row_multiplicity(self):
        _, view = self._view()
        assert view.gather(view.all_rows_mask, []) == [()] * 6
        assert view.gather(0b101, []) == [(), ()]


# ------------------------------------------------------------- derived views
class TestDerivedViews:
    def _view(self):
        rows = [[i, float(i) / 2, f"s{i % 5}", i % 2 == 0] for i in range(40)]
        return view_of(Relation.from_rows("T", ["i", "f", "s", "b"], rows))

    @staticmethod
    def _cold(view):
        """A view built from scratch over the rows *view* holds."""
        rows = [tuple(view.column(n)[i] for n in view.names) for i in range(view.row_count)]
        return view_of(Relation.from_rows("T", list(view.names), rows))

    def test_untouched_columns_shared_by_reference(self):
        view = self._view()
        derived = view.derive({3: {0: 999}})
        assert derived.column("f") is view.column("f")
        assert derived.column("s") is view.column("s")
        assert derived.column("i") is not view.column("i")
        assert derived.column("i")[3] == 999
        assert derived.row_count == view.row_count

    def test_derived_masks_match_cold_masks(self):
        view = self._view()
        term = Term("i", ComparisonOp.GE, 10)
        warm = view.term_mask(term)
        derived = view.derive({12: {0: 3}, 39: {0: 100}})
        assert derived.term_mask(term) == self._cold(derived).term_mask(term)
        assert warm == view.term_mask(term)  # base view untouched

    def test_patches_agree_with_a_cold_view(self):
        view = self._view()
        terms = _terms_on("i", [0, -7, 2**70, 1.5]) + _terms_on("s", ["s1", "new", 3])
        terms += _terms_on("b", [True, 0, "x"])
        for term in terms:
            view._term_entry(term)  # warm: derive patches the cached entries
        derived = view.derive({5: {0: 2**70, 2: "new"}, 0: {0: -7, 1: 0.25, 2: "s1", 3: None}})
        assert derived.column("i")[5] == 2**70 and derived.column("i")[0] == -7
        assert derived.column("s")[5] == "new" and derived.column("b")[0] is None
        cold = self._cold(derived)
        for name in derived.names:
            assert derived.column(name) == cold.column(name)
        for term in terms:
            assert _entry_signature(derived, term) == _entry_signature(cold, term), term

    def test_missing_attribute_entries_are_rebuilt_on_the_derived_view(self):
        view = self._view()
        missing = Term("nope", ComparisonOp.EQ, 1)
        assert _entry_signature(view, missing)[1] == view.all_rows_mask
        derived = view.derive({0: {0: 5}})
        assert _entry_signature(derived, missing) == _entry_signature(self._cold(derived), missing)


# ------------------------------------------------- differential: paper workloads
def _candidate_pool(database, result, target):
    """The target plus result-preserving constant mutants and edge variants."""
    pool = [target]
    pool += mutate_candidates(database, result, [target], limit=8)
    pool.append(target.with_predicate(DNFPredicate.true()))
    pool.append(target.with_distinct(True))
    return pool


def _assert_sqlite_agrees(queries, batch, database, context):
    from repro.sql.sqlite_backend import SQLiteBackend

    with SQLiteBackend(database) as backend:
        for query, ours in zip(queries, batch.results):
            theirs = backend.execute(query)
            if query.distinct:
                assert ours.set_equal(theirs), f"{context}: SQLite disagrees on {query}"
            else:
                assert ours.bag_equal(theirs), f"{context}: SQLite disagrees on {query}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_batch_agrees_with_sqlite_oracle(name):
    """Second oracle: ``evaluate_batch`` vs SQLite on ``D`` *and* derived ``D'``.

    ``evaluate_on_join_reference`` shares our predicate semantics, so it
    cannot catch a systematic interpretation bug; SQLite is an independent
    engine. Evaluation goes through a :class:`JoinCache` (one join per query
    signature — bag multiplicities depend on the join, so a superset join
    would not match SQL semantics), over the original database and over
    several deltas of it (``delta=``), so the incrementally maintained
    join/mask state is also held against the independent oracle, which loads
    each ``D'`` built by copy.
    """
    import random

    from repro.relational.evaluator import JoinCache
    from tests.relational.test_delta_maintenance import random_delta

    database, result, target = build_pair(name, _SCALE)
    queries = _candidate_pool(database, result, target)

    cache = JoinCache()
    batch = cache.evaluate_batch(queries, database, set_semantics=False)
    _assert_sqlite_agrees(queries, batch, database, name)

    for seed in (11, 12):
        derived_db, delta = random_delta(database, random.Random(seed), operations=5)
        derived_batch = cache.evaluate_batch(
            queries, database, delta=delta, set_semantics=False
        )
        _assert_sqlite_agrees(queries, derived_batch, derived_db, f"{name}/seed {seed} (derived)")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_columnar_matches_reference_on_paper_workloads(name):
    database, result, target = build_pair(name, _SCALE)
    joined = full_join(database)
    queries = _candidate_pool(database, result, target)

    batch = evaluate_batch(queries, joined, database, set_semantics=False)
    for query, batch_result, fingerprint in zip(queries, batch.results, batch.fingerprints):
        reference = evaluate_on_join_reference(query, joined, database)
        columnar = evaluate_on_join(query, joined, database)
        assert columnar.bag_equal(reference), f"{name}: bag mismatch for {query}"
        assert columnar.set_equal(reference), f"{name}: set mismatch for {query}"
        assert batch_result.bag_equal(reference), f"{name}: batch mismatch for {query}"
        assert fingerprint == result_fingerprint(reference)
        assert result_fingerprint(columnar, set_semantics=True) == result_fingerprint(
            reference, set_semantics=True
        )


def test_batch_shares_results_between_equivalent_candidates(two_table_db):
    joined = full_join(two_table_db)
    # Two syntactically different predicates selecting the same rows, plus one
    # genuinely different candidate.
    same_a = SPJQuery(
        ["Emp"], ["Emp.ename"],
        DNFPredicate.from_terms([Term("Emp.salary", ComparisonOp.GT, 60)]),
    )
    same_b = SPJQuery(
        ["Emp"], ["Emp.ename"],
        DNFPredicate.from_terms([Term("Emp.salary", ComparisonOp.GE, 65)]),
    )
    other = SPJQuery(
        ["Emp"], ["Emp.ename"],
        DNFPredicate.from_terms([Term("Emp.salary", ComparisonOp.GT, 80)]),
    )
    batch = evaluate_batch([same_a, same_b, other], joined, two_table_db)
    assert batch.results[0] is batch.results[1]  # identical mask+projection share
    assert batch.fingerprints[0] == batch.fingerprints[1]
    assert batch.fingerprints[0] != batch.fingerprints[2]


def test_short_circuit_suppresses_unreachable_term_errors(two_table_db):
    # AND short-circuit: rows where the first term fails must never evaluate
    # the incomparable second term (the interpreter never reaches it).
    conjunct_query = SPJQuery(
        ["Emp"], ["Emp.ename"],
        DNFPredicate(
            (
                Conjunct(
                    (
                        Term("Emp.salary", ComparisonOp.GT, 1000),  # false for all
                        Term("Emp.ename", ComparisonOp.LT, 10),  # would raise
                    )
                ),
            )
        ),
    )
    joined = full_join(two_table_db)
    reference = evaluate_on_join_reference(conjunct_query, joined, two_table_db)
    columnar = evaluate_on_join(conjunct_query, joined, two_table_db)
    assert len(reference) == 0 and columnar.bag_equal(reference)

    # OR short-circuit: rows satisfied by the first conjunct must never
    # evaluate the erroring second conjunct.
    disjunct_query = SPJQuery(
        ["Emp"], ["Emp.ename"],
        DNFPredicate(
            (
                Conjunct((Term("Emp.salary", ComparisonOp.GT, 0),)),  # true for all
                Conjunct((Term("Emp.ename", ComparisonOp.LT, 10),)),  # would raise
            )
        ),
    )
    reference = evaluate_on_join_reference(disjunct_query, joined, two_table_db)
    columnar = evaluate_on_join(disjunct_query, joined, two_table_db)
    assert columnar.bag_equal(reference)


def test_columnar_raises_like_reference_on_incomparable(two_table_db):
    query = SPJQuery(
        ["Emp"], ["Emp.ename"],
        DNFPredicate.from_terms([Term("Emp.ename", ComparisonOp.LT, 10)]),
    )
    joined = full_join(two_table_db)
    with pytest.raises(EvaluationError):
        evaluate_on_join_reference(query, joined, two_table_db)
    with pytest.raises(EvaluationError):
        evaluate_on_join(query, joined, two_table_db)


def test_columnar_and_reference_agree_on_distinct(two_table_db):
    database = two_table_db.copy()
    database.relation("Dept").insert([4, "Extra", 100])
    query = SPJQuery(["Dept"], ["Dept.budget"], distinct=True)
    joined = full_join(database)
    reference = evaluate_on_join_reference(query, joined, database)
    columnar = evaluate_on_join(query, joined, database)
    assert columnar.bag_equal(reference)
    assert len(columnar) == 3
