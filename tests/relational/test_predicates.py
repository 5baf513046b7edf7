"""Unit tests for terms, conjuncts and DNF predicates."""

import pytest

from repro.exceptions import EvaluationError
from repro.relational.predicates import ComparisonOp, Conjunct, DNFPredicate, Term, always_true


class TestComparisonOp:
    def test_negate_roundtrip(self):
        for op in ComparisonOp:
            assert op.negate().negate() is op

    def test_categories(self):
        assert ComparisonOp.LT.is_ordering
        assert not ComparisonOp.EQ.is_ordering
        assert ComparisonOp.IN.is_membership
        assert not ComparisonOp.GT.is_membership


class TestTermEvaluation:
    def test_equality_and_inequality(self):
        assert Term("a", ComparisonOp.EQ, 5).evaluate_value(5)
        assert Term("a", ComparisonOp.EQ, 5).evaluate_value(5.0)
        assert not Term("a", ComparisonOp.EQ, 5).evaluate_value(6)
        assert Term("a", ComparisonOp.NE, 5).evaluate_value(6)

    def test_orderings(self):
        assert Term("a", ComparisonOp.LT, 5).evaluate_value(4)
        assert not Term("a", ComparisonOp.LT, 5).evaluate_value(5)
        assert Term("a", ComparisonOp.LE, 5).evaluate_value(5)
        assert Term("a", ComparisonOp.GT, 5).evaluate_value(6)
        assert Term("a", ComparisonOp.GE, 5).evaluate_value(5)

    def test_membership(self):
        term = Term("a", ComparisonOp.IN, ("x", "y"))
        assert term.evaluate_value("x")
        assert not term.evaluate_value("z")
        negated = Term("a", ComparisonOp.NOT_IN, ("x", "y"))
        assert negated.evaluate_value("z")
        assert not negated.evaluate_value("x")

    def test_null_never_matches(self):
        for op in ComparisonOp:
            constant = ("x",) if op.is_membership else "x"
            assert not Term("a", op, constant).evaluate_value(None)

    def test_string_ordering(self):
        assert Term("a", ComparisonOp.LT, "m").evaluate_value("a")

    def test_mixed_type_comparison_raises(self):
        with pytest.raises(EvaluationError):
            Term("a", ComparisonOp.LT, "x").evaluate_value(5)

    def test_evaluate_row_requires_attribute(self):
        term = Term("T.a", ComparisonOp.EQ, 1)
        assert term.evaluate_row({"T.a": 1})
        with pytest.raises(EvaluationError):
            term.evaluate_row({"T.b": 1})

    def test_satisfied_by_all_and_none(self):
        term = Term("a", ComparisonOp.GT, 3)
        assert term.satisfied_by_all([4, 5])
        assert not term.satisfied_by_all([4, 2])
        assert term.satisfied_by_none([1, 2])
        assert not term.satisfied_by_none([1, 4])


class TestTermStructure:
    def test_constants(self):
        assert Term("a", ComparisonOp.IN, (1, 2)).constants() == (1, 2)
        assert Term("a", ComparisonOp.EQ, 1).constants() == (1,)

    def test_with_constant(self):
        term = Term("a", ComparisonOp.GT, 1)
        assert term.with_constant(2).constant == 2
        assert term.constant == 1

    def test_numeric_breakpoints_direction(self):
        assert (5.0, True) in Term("a", ComparisonOp.LE, 5).numeric_breakpoints()
        assert (5.0, False) in Term("a", ComparisonOp.LT, 5).numeric_breakpoints()
        assert len(Term("a", ComparisonOp.EQ, 5).numeric_breakpoints()) == 2
        assert Term("a", ComparisonOp.EQ, "x").numeric_breakpoints() == []

    def test_str_rendering(self):
        assert str(Term("a", ComparisonOp.EQ, "it's")) == "a = 'it''s'"
        assert str(Term("a", ComparisonOp.IN, (1, 2))) == "a IN (1, 2)"
        assert str(Term("a", ComparisonOp.GE, 2.5)) == "a >= 2.5"


class TestConjunct:
    def test_empty_conjunct_is_true(self):
        assert Conjunct(()).evaluate_row({"a": 1})

    def test_all_terms_must_hold(self):
        conjunct = Conjunct((Term("a", ComparisonOp.GT, 1), Term("b", ComparisonOp.EQ, "x")))
        assert conjunct.evaluate_row({"a": 2, "b": "x"})
        assert not conjunct.evaluate_row({"a": 2, "b": "y"})

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
        assert always_true().is_true
        assert always_true().evaluate_row({"anything": 1})
        assert str(always_true()) == "TRUE"

    def test_single_conjunct(self):
        predicate = DNFPredicate.from_terms([Term("a", ComparisonOp.GT, 1)])
        assert predicate.evaluate_row({"a": 2})
        assert not predicate.evaluate_row({"a": 0})

    def test_disjunction(self):
        predicate = DNFPredicate(
            (
                Conjunct((Term("a", ComparisonOp.EQ, 1),)),
                Conjunct((Term("b", ComparisonOp.EQ, 2),)),
            )
        )
        assert predicate.evaluate_row({"a": 1, "b": 0})
        assert predicate.evaluate_row({"a": 0, "b": 2})
        assert not predicate.evaluate_row({"a": 0, "b": 0})
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
        assert term.evaluate_value(self.BIG)
        assert not term.evaluate_value(self.BIG + 1)
        assert not term.evaluate_value(self.BIG - 1)
        neighbour = Term("a", ComparisonOp.EQ, self.BIG + 1)
        assert neighbour.evaluate_value(self.BIG + 1)
        assert not neighbour.evaluate_value(self.BIG)

    def test_ordering_is_exact_at_2_pow_53(self):
        # float-normalized: 2^53 + 1 > 2^53 evaluated False.
        assert Term("a", ComparisonOp.GT, self.BIG).evaluate_value(self.BIG + 1)
        assert not Term("a", ComparisonOp.GT, self.BIG).evaluate_value(self.BIG)
        assert Term("a", ComparisonOp.LT, self.BIG + 1).evaluate_value(self.BIG)
        assert Term("a", ComparisonOp.LE, self.BIG).evaluate_value(self.BIG)
        assert not Term("a", ComparisonOp.LE, self.BIG).evaluate_value(self.BIG + 1)

    def test_membership_is_exact_at_2_pow_53(self):
        term = Term("a", ComparisonOp.IN, (self.BIG, self.BIG + 2))
        assert term.evaluate_value(self.BIG)
        assert not term.evaluate_value(self.BIG + 1)
        assert Term("a", ComparisonOp.NOT_IN, (self.BIG,)).evaluate_value(self.BIG + 1)

    def test_compiled_terms_agree_with_interpreter(self):
        from repro.relational.predicates import compile_term

        values = [self.BIG - 1, self.BIG, self.BIG + 1, float(self.BIG), None]
        for op in ComparisonOp:
            constant = (self.BIG, self.BIG + 1) if op.is_membership else self.BIG
            term = Term("a", op, constant)
            compiled = compile_term(term)
            for value in values:
                assert compiled(value) == term.evaluate_value(value), (op, value)

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
        assert term.evaluate_value(self.BIG)
        assert not term.evaluate_value(self.BIG + 1)

    def test_numeric_breakpoints_stay_distinct(self):
        low = Term("a", ComparisonOp.LE, self.BIG).numeric_breakpoints()
        high = Term("a", ComparisonOp.LE, self.BIG + 1).numeric_breakpoints()
        assert {v for v, _ in low} != {v for v, _ in high}


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
        from repro.relational.predicates import _compile_term_cached, compile_term

        _compile_term_cached.cache_clear()  # the compile order is the point
        terms = [Term("t.v", op, constant) for constant in constants]
        assert terms[0] == terms[1]
        compiled = [compile_term(term) for term in terms]
        for term, test in zip(terms, compiled):
            with pytest.raises(EvaluationError) as interpreted:
                term.evaluate_value("x")
            assert self._message(test, "x") == str(interpreted.value)
            assert repr(term.constant) in str(interpreted.value)
