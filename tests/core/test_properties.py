"""Hypothesis property tests for the QFE core.

Invariants covered:

* Tuple classes: every joined row belongs to exactly one class, and every
  candidate query is constant on every class (the defining property of
  Section 5.1) — checked over randomly generated databases and predicates.
* Pair-set simulation: group sizes always sum to |QC| and a single-pair
  modification never induces more than four groups (Lemma 5.1).
* Balance score: permutation-invariant and minimized by perfect balance.
* Iteration estimates are monotone in the largest subset size.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.cost_model import balance_score, estimate_iterations_naive, estimate_iterations_refined
from repro.core.modification import ClassPair, simulate_pair_set
from repro.core.tuple_class import TupleClassSpace
from repro.relational.database import Database
from repro.relational.join import full_join
from repro.relational.predicates import ComparisonOp, DNFPredicate, Term
from repro.relational.query import SPJQuery
from tests.columns import joined_dicts
from tests.oracles.evaluator_reference import evaluate_row_reference

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_rows = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.sampled_from(["red", "green", "blue", "black"]),
        st.integers(0, 10),
    ),
    min_size=2,
    max_size=12,
)

_numeric_term = st.builds(
    Term,
    st.just("T.a"),
    st.sampled_from([ComparisonOp.LT, ComparisonOp.LE, ComparisonOp.GT, ComparisonOp.GE]),
    st.integers(0, 40),
)
_categorical_term = st.builds(
    Term,
    st.just("T.b"),
    st.just(ComparisonOp.EQ),
    st.sampled_from(["red", "green", "blue", "black"]),
)
_term = st.one_of(_numeric_term, _categorical_term)
_queries = st.lists(
    st.builds(
        lambda terms: SPJQuery(["T"], ["T.c"], DNFPredicate.from_terms(terms)),
        st.lists(_term, min_size=1, max_size=2),
    ),
    min_size=2,
    max_size=5,
    unique_by=lambda q: q.canonical_key(),
)


def _space(rows, queries):
    database = Database.from_tables({"T": (["a", "b", "c"], [list(r) for r in rows])})
    return TupleClassSpace(full_join(database), queries)


class TestTupleClassProperties:
    @_SETTINGS
    @given(_rows, _queries)
    def test_rows_partitioned_exactly_once(self, rows, queries):
        space = _space(rows, queries)
        total = sum(len(space.rows_in_class(tc)) for tc in space.source_tuple_classes())
        assert total == len(rows)

    @_SETTINGS
    @given(_rows, _queries)
    def test_queries_constant_on_classes(self, rows, queries):
        space = _space(rows, queries)
        mappings = joined_dicts(space.joined)
        for position, row in enumerate(mappings):
            tuple_class = space.class_of_row(position)
            for query_index, query in enumerate(queries):
                expected = evaluate_row_reference(query.predicate, row)
                assert space.matches(query_index, tuple_class) == expected


class TestSimulationProperties:
    @_SETTINGS
    @given(_rows, _queries)
    def test_single_pair_group_bounds(self, rows, queries):
        space = _space(rows, queries)
        sources = space.source_tuple_classes()
        checked = 0
        for source in sources:
            for destination in space.destination_classes(source, 1):
                effect = simulate_pair_set(space, [ClassPair(source, destination)], result_arity=1)
                assert 1 <= effect.group_count <= 4
                assert sum(effect.group_sizes) == len(queries)
                checked += 1
                if checked >= 12:
                    return


class TestScoreProperties:
    @_SETTINGS
    @given(st.lists(st.integers(1, 30), min_size=2, max_size=6))
    def test_balance_permutation_invariant_and_nonnegative(self, sizes):
        forward = balance_score(sizes)
        backward = balance_score(list(reversed(sizes)))
        assert forward == pytest.approx(backward)
        assert forward >= 0

    @_SETTINGS
    @given(st.integers(2, 40))
    def test_perfect_balance_is_minimal(self, n):
        assert balance_score([n, n]) <= balance_score([2 * n - 1, 1])

    @_SETTINGS
    @given(st.integers(1, 64), st.integers(1, 64))
    def test_naive_estimate_monotone(self, a, b):
        low, high = sorted((a, b))
        assert estimate_iterations_naive([low]) <= estimate_iterations_naive([high])

    @_SETTINGS
    @given(st.integers(2, 64), st.integers(1, 8))
    def test_refined_estimate_nonnegative_and_finite(self, largest, x):
        estimate = estimate_iterations_refined([largest, x], x)
        assert 0 <= estimate < 10 * largest
