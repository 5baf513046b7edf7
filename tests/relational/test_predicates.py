"""Unit tests for terms, conjuncts and DNF predicates.

A term's semantics are its compiled test (``compile_term(term)(value)``), the
only term evaluator the library has; conjuncts and predicates are evaluated
through the columnar engine's masks. The interpreter they replaced is the
oracle in :mod:`tests.oracles.evaluator_reference`.
"""

import pytest

from repro.exceptions import EvaluationError
from repro.relational.columnar import mask_positions
from repro.relational.predicates import ComparisonOp, Conjunct, DNFPredicate, Term, compile_term
from repro.relational.relation import Relation
from tests.columns import view_of
from tests.oracles.evaluator_reference import evaluate_value_reference


def _holds(term, value):
    return compile_term(term)(value)


def _selected(predicate, rows):
    """Positions of the ``(a, b)`` rows the predicate (or conjunct) selects."""
    view = view_of(Relation.from_rows("T", ["a", "b"], rows))
    if isinstance(predicate, Conjunct):
        return mask_positions(view.conjunct_mask(predicate))
    return mask_positions(view.predicate_mask(predicate))


class TestComparisonOp:
    def test_negate_roundtrip(self):
        for op in ComparisonOp:
            assert op.negate().negate() is op

    def test_categories(self):
        assert ComparisonOp.IN.is_membership
        assert not ComparisonOp.GT.is_membership


class TestTermEvaluation:
    def test_equality_and_inequality(self):
        assert _holds(Term("a", ComparisonOp.EQ, 5), 5)
        assert _holds(Term("a", ComparisonOp.EQ, 5), 5.0)
        assert not _holds(Term("a", ComparisonOp.EQ, 5), 6)
        assert _holds(Term("a", ComparisonOp.NE, 5), 6)

    def test_orderings(self):
        assert _holds(Term("a", ComparisonOp.LT, 5), 4)
        assert not _holds(Term("a", ComparisonOp.LT, 5), 5)
        assert _holds(Term("a", ComparisonOp.LE, 5), 5)
        assert _holds(Term("a", ComparisonOp.GT, 5), 6)
        assert _holds(Term("a", ComparisonOp.GE, 5), 5)

    def test_membership(self):
        term = Term("a", ComparisonOp.IN, ("x", "y"))
        assert _holds(term, "x")
        assert not _holds(term, "z")
        negated = Term("a", ComparisonOp.NOT_IN, ("x", "y"))
        assert _holds(negated, "z")
        assert not _holds(negated, "x")

    def test_membership_with_unhashable_constants_or_values(self):
        # The hashed lookup falls back to scanning with ``==``.
        term = Term("a", ComparisonOp.IN, ([1], 2))
        assert _holds(term, [1]) and _holds(term, 2) and not _holds(term, 3)
        assert not _holds(Term("a", ComparisonOp.IN, (1, 2)), [1])
        assert _holds(Term("a", ComparisonOp.NOT_IN, (1, 2)), [1])
        # An unhashable value can still equal a hashable constant.
        assert _holds(Term("a", ComparisonOp.IN, (b"a", 2)), bytearray(b"a"))
        assert not _holds(Term("a", ComparisonOp.NOT_IN, (b"a", 2)), bytearray(b"a"))

    def test_null_never_matches(self):
        for op in ComparisonOp:
            constant = ("x",) if op.is_membership else "x"
            assert not _holds(Term("a", op, constant), None)

    def test_string_ordering(self):
        assert _holds(Term("a", ComparisonOp.LT, "m"), "a")

    def test_mixed_type_comparison_raises(self):
        with pytest.raises(EvaluationError):
            _holds(Term("a", ComparisonOp.LT, "x"), 5)

    def test_predicate_requires_attribute(self):
        predicate = DNFPredicate.from_terms([Term("c", ComparisonOp.EQ, 1)])
        with pytest.raises(EvaluationError, match="no attribute 'c'"):
            _selected(predicate, [[1, "x"]])


class TestTermStructure:
    def test_constants(self):
        assert Term("a", ComparisonOp.IN, (1, 2)).constants() == (1, 2)
        assert Term("a", ComparisonOp.EQ, 1).constants() == (1,)

    def test_with_constant(self):
        term = Term("a", ComparisonOp.GT, 1)
        assert term.with_constant(2).constant == 2
        assert term.constant == 1

    def test_str_rendering(self):
        assert str(Term("a", ComparisonOp.EQ, "it's")) == "a = 'it''s'"
        assert str(Term("a", ComparisonOp.IN, (1, 2))) == "a IN (1, 2)"
        assert str(Term("a", ComparisonOp.GE, 2.5)) == "a >= 2.5"


class TestConjunct:
    def test_empty_conjunct_is_true(self):
        assert _selected(Conjunct(()), [[1, "x"]]) == [0]

    def test_all_terms_must_hold(self):
        conjunct = Conjunct((Term("a", ComparisonOp.GT, 1), Term("b", ComparisonOp.EQ, "x")))
        assert _selected(conjunct, [[2, "x"], [2, "y"]]) == [0]

    def test_attributes_and_terms_on(self):
        conjunct = Conjunct((Term("a", ComparisonOp.GT, 1), Term("b", ComparisonOp.EQ, 2),
                             Term("a", ComparisonOp.LT, 9)))
        assert conjunct.attributes() == ("a", "b")
        assert len(conjunct.terms_on("a")) == 2
        assert len(conjunct) == 3

    def test_str(self):
        assert str(Conjunct(())) == "TRUE"
        assert "AND" in str(Conjunct((Term("a", ComparisonOp.GT, 1), Term("b", ComparisonOp.LT, 2))))


class TestDNFPredicate:
    def test_true_predicate(self):
        assert DNFPredicate.true().is_true
        assert _selected(DNFPredicate.true(), [[1, "x"]]) == [0]
        assert str(DNFPredicate.true()) == "TRUE"

    def test_single_conjunct(self):
        predicate = DNFPredicate.from_terms([Term("a", ComparisonOp.GT, 1)])
        assert _selected(predicate, [[2, "x"], [0, "x"]]) == [0]

    def test_disjunction(self):
        predicate = DNFPredicate(
            (
                Conjunct((Term("a", ComparisonOp.EQ, 1),)),
                Conjunct((Term("b", ComparisonOp.EQ, 2),)),
            )
        )
        assert _selected(predicate, [[1, 0], [0, 2], [0, 0]]) == [0, 1]
        assert "OR" in str(predicate)

    def test_attributes_and_term_count(self):
        predicate = DNFPredicate(
            (
                Conjunct((Term("a", ComparisonOp.EQ, 1), Term("b", ComparisonOp.GT, 2))),
                Conjunct((Term("a", ComparisonOp.EQ, 3),)),
            )
        )
        assert predicate.attributes() == ("a", "b")
        assert predicate.term_count() == 3
        assert len(predicate.terms_on("a")) == 2

    def test_equality_is_order_insensitive(self):
        left = DNFPredicate.from_terms([Term("a", ComparisonOp.EQ, 1), Term("b", ComparisonOp.EQ, 2)])
        right = DNFPredicate.from_terms([Term("b", ComparisonOp.EQ, 2), Term("a", ComparisonOp.EQ, 1)])
        assert left == right
        assert hash(left) == hash(right)

    def test_inequality(self):
        left = DNFPredicate.from_terms([Term("a", ComparisonOp.EQ, 1)])
        right = DNFPredicate.from_terms([Term("a", ComparisonOp.EQ, 2)])
        assert left != right


class TestLargeIntegerExactness:
    """Regression suite for the 2^53 ± 1 float() round-trip corruption.

    ``float(2**53) == float(2**53 + 1)``, so any comparison or cache key that
    normalized integer constants through ``float()`` silently equated two
    distinct constants — corrupting partition signatures downstream.
    """

    BIG = 2**53

    def test_equality_is_exact_at_2_pow_53(self):
        term = Term("a", ComparisonOp.EQ, self.BIG)
        assert _holds(term, self.BIG)
        assert not _holds(term, self.BIG + 1)
        assert not _holds(term, self.BIG - 1)
        neighbour = Term("a", ComparisonOp.EQ, self.BIG + 1)
        assert _holds(neighbour, self.BIG + 1)
        assert not _holds(neighbour, self.BIG)

    def test_ordering_is_exact_at_2_pow_53(self):
        # float-normalized: 2^53 + 1 > 2^53 evaluated False.
        assert _holds(Term("a", ComparisonOp.GT, self.BIG), self.BIG + 1)
        assert not _holds(Term("a", ComparisonOp.GT, self.BIG), self.BIG)
        assert _holds(Term("a", ComparisonOp.LT, self.BIG + 1), self.BIG)
        assert _holds(Term("a", ComparisonOp.LE, self.BIG), self.BIG)
        assert not _holds(Term("a", ComparisonOp.LE, self.BIG), self.BIG + 1)

    def test_membership_is_exact_at_2_pow_53(self):
        term = Term("a", ComparisonOp.IN, (self.BIG, self.BIG + 2))
        assert _holds(term, self.BIG)
        assert not _holds(term, self.BIG + 1)
        assert _holds(Term("a", ComparisonOp.NOT_IN, (self.BIG,)), self.BIG + 1)

    def test_compiled_terms_agree_with_interpreter(self):
        values = [self.BIG - 1, self.BIG, self.BIG + 1, float(self.BIG), None]
        for op in ComparisonOp:
            constant = (self.BIG, self.BIG + 1) if op.is_membership else self.BIG
            term = Term("a", op, constant)
            compiled = compile_term(term)
            for value in values:
                assert compiled(value) == evaluate_value_reference(term, value), (op, value)

    def test_mask_keys_distinguish_neighbouring_big_ints(self):
        # Distinct constants must never share a term-mask cache entry.
        low = Term("a", ComparisonOp.EQ, self.BIG).mask_key()
        high = Term("a", ComparisonOp.EQ, self.BIG + 1).mask_key()
        assert low != high
        # ...while exactly-equal int/float constants still share one.
        assert Term("a", ComparisonOp.EQ, self.BIG).mask_key() == Term(
            "a", ComparisonOp.EQ, float(self.BIG)
        ).mask_key()

    def test_float_constants_keep_exact_python_semantics(self):
        # float(2^53 + 1) literally IS 2^53, so an EQ against it matches the
        # int 2^53 (exact mathematical equality) and not 2^53 + 1.
        term = Term("a", ComparisonOp.EQ, float(self.BIG + 1))
        assert _holds(term, self.BIG)
        assert not _holds(term, self.BIG + 1)


class TestCompiledTermMemo:
    """Equal terms whose constants differ in type keep their own compiled closures."""

    @staticmethod
    def _message(test, value):
        with pytest.raises(EvaluationError) as raised:
            test(value)
        return str(raised.value)

    @pytest.mark.parametrize(
        "op, constants",
        [
            (ComparisonOp.LT, (1, True)),
            (ComparisonOp.LT, (True, 1)),
            (ComparisonOp.GT, (2.0, 2)),
            (ComparisonOp.GT, (2, 2.0)),
        ],
        ids=["int-then-bool", "bool-then-int", "float-then-int", "int-then-float"],
    )
    def test_compiled_message_names_the_terms_own_constant(self, op, constants):
        from repro.relational.predicates import _compile_term_cached

        _compile_term_cached.cache_clear()  # the compile order is the point
        terms = [Term("t.v", op, constant) for constant in constants]
        assert terms[0] == terms[1]
        compiled = [compile_term(term) for term in terms]
        for term, test in zip(terms, compiled):
            with pytest.raises(EvaluationError) as interpreted:
                evaluate_value_reference(term, "x")
            assert self._message(test, "x") == str(interpreted.value)
            assert repr(term.constant) in str(interpreted.value)
