"""Selection predicates in disjunctive normal form (DNF).

The paper's candidate queries are of the form ``π_ℓ(σ_p(J))`` where ``p`` is
in DNF: ``p = p_1 ∨ ... ∨ p_m`` and each ``p_i`` is a conjunction of *terms*,
each term comparing an attribute against a constant (Section 4).

This module provides the predicate algebra used across the library:

* :class:`Term` — ``attribute op constant`` where ``op`` is one of
  ``= ≠ < ≤ > ≥ IN NOT IN``;
* :class:`Conjunct` — a conjunction of terms;
* :class:`DNFPredicate` — a disjunction of conjuncts (an empty disjunction is
  the always-true predicate, matching an unrestricted SPJ query).

Terms can be evaluated against a single value, against a named row (a mapping
from qualified attribute names to values), and — crucially for the tuple-class
machinery of Section 5.1 — against a *set of values at once* via
:meth:`Term.satisfied_by_all` / :meth:`Term.satisfied_by_none`, and they can
report the numeric *breakpoints* they induce on an ordered domain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.exceptions import EvaluationError
from repro.relational.types import float_literal

__all__ = [
    "ComparisonOp",
    "ORDERING_OPS",
    "MEMBERSHIP_OPS",
    "Term",
    "Conjunct",
    "DNFPredicate",
    "always_true",
    "compile_term",
    "compile_predicate",
]


class ComparisonOp(enum.Enum):
    """Comparison operators allowed in selection terms."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    IN = "IN"
    NOT_IN = "NOT IN"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_ordering(self) -> bool:
        """Whether the operator relies on an ordered domain."""
        return self in ORDERING_OPS

    @property
    def is_membership(self) -> bool:
        """Whether the operator compares against a set of constants."""
        return self in MEMBERSHIP_OPS

    def negate(self) -> "ComparisonOp":
        """The complementary operator (used by query mutation)."""
        return {
            ComparisonOp.EQ: ComparisonOp.NE,
            ComparisonOp.NE: ComparisonOp.EQ,
            ComparisonOp.LT: ComparisonOp.GE,
            ComparisonOp.LE: ComparisonOp.GT,
            ComparisonOp.GT: ComparisonOp.LE,
            ComparisonOp.GE: ComparisonOp.LT,
            ComparisonOp.IN: ComparisonOp.NOT_IN,
            ComparisonOp.NOT_IN: ComparisonOp.IN,
        }[self]


#: Operators that rely on an ordered domain — the ones whose compiled tests
#: may raise on cross-type comparisons.
ORDERING_OPS = frozenset(
    {ComparisonOp.LT, ComparisonOp.LE, ComparisonOp.GT, ComparisonOp.GE}
)

#: Operators that compare against a set of constants.
MEMBERSHIP_OPS = frozenset({ComparisonOp.IN, ComparisonOp.NOT_IN})


# Ordering comparisons use Python's exact cross-type ``<``/``<=`` on raw
# values: ``int`` vs ``float`` compares true mathematical values, so there is
# deliberately no ``float()`` normalization step — a round-trip through a
# double would make ``2**53 + 1 > 2**53`` evaluate False.


@dataclass(frozen=True)
class Term:
    """A single comparison ``attribute op constant`` (or ``attribute IN {..}``)."""

    attribute: str
    op: ComparisonOp
    constant: Any

    def __post_init__(self) -> None:
        if self.op.is_membership:
            values = tuple(self.constant) if isinstance(self.constant, Iterable) and not isinstance(self.constant, str) else (self.constant,)
            object.__setattr__(self, "constant", tuple(values))

    # ---------------------------------------------------------------- evaluate
    def evaluate_value(self, value: Any) -> bool:
        """Evaluate the term against a single attribute value.

        NULL never satisfies any comparison (SQL three-valued logic collapsed
        to "not selected", which is the behaviour of ``WHERE``).
        """
        if value is None:
            return False
        if self.op is ComparisonOp.IN:
            return any(_safe_eq(value, c) for c in self.constant)
        if self.op is ComparisonOp.NOT_IN:
            return not any(_safe_eq(value, c) for c in self.constant)
        if self.op is ComparisonOp.EQ:
            return _safe_eq(value, self.constant)
        if self.op is ComparisonOp.NE:
            return not _safe_eq(value, self.constant)
        left = value
        right = self.constant
        try:
            if self.op is ComparisonOp.LT:
                return left < right
            if self.op is ComparisonOp.LE:
                return left <= right
            if self.op is ComparisonOp.GT:
                return left > right
            if self.op is ComparisonOp.GE:
                return left >= right
        except TypeError as exc:
            raise EvaluationError(
                f"cannot compare {value!r} {self.op.value} {self.constant!r}"
            ) from exc
        raise EvaluationError(f"unsupported operator {self.op!r}")  # pragma: no cover

    def evaluate_row(self, row: Mapping[str, Any]) -> bool:
        """Evaluate against a row given as a mapping of attribute name to value."""
        if self.attribute not in row:
            raise EvaluationError(f"row has no attribute {self.attribute!r}")
        return self.evaluate_value(row[self.attribute])

    def satisfied_by_all(self, values: Iterable[Any]) -> bool:
        """Whether every value in *values* satisfies the term."""
        return all(self.evaluate_value(v) for v in values)

    def satisfied_by_none(self, values: Iterable[Any]) -> bool:
        """Whether no value in *values* satisfies the term."""
        return not any(self.evaluate_value(v) for v in values)

    # ------------------------------------------------------------- structure
    def constants(self) -> tuple[Any, ...]:
        """All constants mentioned by the term."""
        if self.op.is_membership:
            return tuple(self.constant)
        return (self.constant,)

    def numeric_breakpoints(self) -> list[tuple[float, bool]]:
        """Breakpoints this term induces on an ordered domain.

        Each breakpoint is ``(value, boundary_belongs_to_lower_side)``: the
        domain is cut *after* ``value`` when the flag is true (as for ``<=``
        and ``>``), and *before* ``value`` when false (as for ``<`` and
        ``>=``). Equality terms induce cuts on both sides of the constant.
        """
        cuts: list[tuple[float, bool]] = []
        for constant in self.constants():
            if isinstance(constant, bool) or not isinstance(constant, (int, float)):
                continue
            # Keep integer constants exact: converting to float here would
            # merge breakpoints at neighbouring integers ≥ 2^53.
            value = constant
            if self.op in (ComparisonOp.LE, ComparisonOp.GT):
                cuts.append((value, True))
            elif self.op in (ComparisonOp.LT, ComparisonOp.GE):
                cuts.append((value, False))
            else:  # EQ / NE / IN / NOT IN isolate the exact value
                cuts.append((value, False))
                cuts.append((value, True))
        return cuts

    def with_constant(self, constant: Any) -> "Term":
        """A copy of the term with a different constant (used by mutation)."""
        return Term(self.attribute, self.op, constant)

    def mask_key(self) -> tuple:
        """A hashable identity for sharing column masks between candidates.

        Exactly-equal numeric constants are collapsed (``salary > 60`` and
        ``salary > 60.0`` select the same rows and share one cached mask per
        columnar view) without any precision loss: distinct large integers
        keep distinct keys, and boolean constants never alias numeric ones.
        """
        constant = self.constant
        if self.op.is_membership:
            normalized: Any = tuple(_normalize_constant(c) for c in constant)
        else:
            normalized = _normalize_constant(constant)
        return (self.attribute, self.op.value, normalized)

    def __str__(self) -> str:
        if self.op.is_membership:
            inner = ", ".join(_format_constant(c) for c in self.constant)
            return f"{self.attribute} {self.op.value} ({inner})"
        return f"{self.attribute} {self.op.value} {_format_constant(self.constant)}"


def _safe_eq(left: Any, right: Any) -> bool:
    # Python's ``==`` already compares int/float by exact mathematical value
    # and never equates numbers with strings; routing numerics through
    # ``float()`` (as earlier versions did) corrupted integers ≥ 2^53, making
    # distinct large constants compare equal. Booleans compare by their
    # numeric value (``True == 1``), matching SQLite's integer encoding.
    return left == right


def _format_constant(constant: Any) -> str:
    if isinstance(constant, str):
        escaped = constant.replace("'", "''")
        return f"'{escaped}'"
    if constant is None:
        return "NULL"
    if isinstance(constant, bool):
        return "TRUE" if constant else "FALSE"
    if isinstance(constant, float):
        # Round-trip precision: "{:g}" keeps only 6 significant digits, so a
        # predicate printed and re-parsed (or shipped to a SQL oracle) would
        # select different rows than the in-memory term.
        return float_literal(constant)
    return str(constant)


@dataclass(frozen=True)
class Conjunct:
    """A conjunction of terms (one disjunct of a DNF predicate)."""

    terms: tuple[Term, ...]

    def __init__(self, terms: Iterable[Term]) -> None:
        object.__setattr__(self, "terms", tuple(terms))

    def evaluate_row(self, row: Mapping[str, Any]) -> bool:
        """True when every term is satisfied (an empty conjunct is true)."""
        return all(term.evaluate_row(row) for term in self.terms)

    def attributes(self) -> tuple[str, ...]:
        """Attributes mentioned, in first-appearance order."""
        return tuple(dict.fromkeys(term.attribute for term in self.terms))

    def terms_on(self, attribute: str) -> tuple[Term, ...]:
        """Terms constraining the given attribute."""
        return tuple(term for term in self.terms if term.attribute == attribute)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "TRUE"
        return " AND ".join(str(term) for term in self.terms)


class DNFPredicate:
    """A disjunction of conjuncts; the empty disjunction is always true."""

    __slots__ = ("conjuncts",)

    def __init__(self, conjuncts: Iterable[Conjunct] = ()) -> None:
        self.conjuncts: tuple[Conjunct, ...] = tuple(conjuncts)

    # ----------------------------------------------------------- construction
    @classmethod
    def from_terms(cls, terms: Iterable[Term]) -> "DNFPredicate":
        """A predicate that is a single conjunction of *terms*."""
        return cls((Conjunct(terms),))

    @classmethod
    def true(cls) -> "DNFPredicate":
        """The always-true predicate."""
        return cls(())

    # --------------------------------------------------------------- evaluate
    def evaluate_row(self, row: Mapping[str, Any]) -> bool:
        """True when any conjunct is satisfied (or there are no conjuncts)."""
        if not self.conjuncts:
            return True
        return any(conjunct.evaluate_row(row) for conjunct in self.conjuncts)

    # -------------------------------------------------------------- structure
    @property
    def is_true(self) -> bool:
        """Whether this is the unrestricted (always-true) predicate."""
        return not self.conjuncts

    def attributes(self) -> tuple[str, ...]:
        """All attributes mentioned across conjuncts, in first-appearance order."""
        ordered: dict[str, None] = {}
        for conjunct in self.conjuncts:
            for attribute in conjunct.attributes():
                ordered.setdefault(attribute, None)
        return tuple(ordered)

    def terms(self) -> tuple[Term, ...]:
        """All terms across all conjuncts."""
        return tuple(term for conjunct in self.conjuncts for term in conjunct.terms)

    def terms_on(self, attribute: str) -> tuple[Term, ...]:
        """All terms constraining the given attribute."""
        return tuple(term for term in self.terms() if term.attribute == attribute)

    def term_count(self) -> int:
        """Total number of terms (used by the QBO search-space limits)."""
        return sum(len(conjunct) for conjunct in self.conjuncts)

    def canonical_key(self) -> tuple:
        """A hashable, order-insensitive key for deduplicating predicates.

        Terms within a conjunct and conjuncts within the disjunction are
        sorted by a deterministic textual form, so logically identical
        predicates written in different orders compare (and hash) equal.
        """
        conjunct_keys = []
        for conjunct in self.conjuncts:
            term_keys = tuple(
                sorted(repr((t.attribute, t.op.value, t.constants())) for t in conjunct.terms)
            )
            conjunct_keys.append(term_keys)
        return tuple(sorted(conjunct_keys))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DNFPredicate):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __str__(self) -> str:
        if not self.conjuncts:
            return "TRUE"
        if len(self.conjuncts) == 1:
            return str(self.conjuncts[0])
        return " OR ".join(f"({conjunct})" for conjunct in self.conjuncts)


def always_true() -> DNFPredicate:
    """Convenience constructor for the unrestricted predicate."""
    return DNFPredicate.true()


# ------------------------------------------------------------------ compilation
#
# The QFE inner loops evaluate the same small set of terms against thousands of
# rows (and the same rows against dozens of candidate predicates). Compiling a
# term into a single-argument closure hoists every constant-side type check out
# of the per-value hot path; compiling a predicate against a name→position map
# removes the per-row dict construction the row-at-a-time evaluator needed.
# Compiled forms are behaviourally identical to ``Term.evaluate_value`` /
# ``DNFPredicate.evaluate_row`` (NULL never satisfies a comparison, numeric
# values compare as floats, incomparable values raise ``EvaluationError``).


def _normalize_constant(constant: Any) -> Any:
    # Cache-key normalization must collapse *exactly equal* numeric constants
    # (``60`` and ``60.0`` select the same rows) without ever identifying
    # distinct ones: an integral float collapses onto the equal int, large
    # integers stay exact (a ``float()`` round-trip would alias 2^53 ± 1 in
    # the term-mask cache), and bools keep their own identity so ``x = TRUE``
    # never shares a cache entry with ``x = 1``.
    if isinstance(constant, bool):
        return (bool, constant)
    if isinstance(constant, float) and constant.is_integer():
        return int(constant)
    return constant


def _compile_membership(term: Term) -> Callable[[Any], bool]:
    constants = tuple(term.constant)
    negate = term.op is ComparisonOp.NOT_IN

    def member(value: Any) -> bool:
        if value is None:
            return False
        hit = any(_safe_eq(value, c) for c in constants)
        return (not hit) if negate else hit

    return member


def _compile_equality(term: Term) -> Callable[[Any], bool]:
    # ``==`` on raw values is already exact across int/float (and bools
    # compare by numeric value, as in SQLite); the old ``float()`` fast path
    # silently equated distinct integers ≥ 2^53.
    constant = term.constant
    negate = term.op is ComparisonOp.NE

    def equal(value: Any) -> bool:
        if value is None:
            return False
        hit = value == constant
        return (not hit) if negate else hit

    return equal


def _compile_ordering(term: Term) -> Callable[[Any], bool]:
    op = term.op
    constant = term.constant
    right = constant

    def compare(value: Any) -> bool:
        if value is None:
            return False
        left = value
        try:
            if op is ComparisonOp.LT:
                return left < right
            if op is ComparisonOp.LE:
                return left <= right
            if op is ComparisonOp.GT:
                return left > right
            return left >= right
        except TypeError as exc:
            raise EvaluationError(
                f"cannot compare {value!r} {op.value} {constant!r}"
            ) from exc

    return compare


@lru_cache(maxsize=8192)
def _compile_term_cached(term: Term, constant_types: tuple[type, ...]) -> Callable[[Any], bool]:
    return _compile_term(term)


def _compile_term(term: Term) -> Callable[[Any], bool]:
    if term.op.is_membership:
        return _compile_membership(term)
    if term.op in (ComparisonOp.EQ, ComparisonOp.NE):
        return _compile_equality(term)
    return _compile_ordering(term)


def compile_term(term: Term) -> Callable[[Any], bool]:
    """Compile *term* into a ``value -> bool`` closure.

    The closure is memoized per term (terms are immutable value objects), so
    the many QBO-generated candidates that share terms compile each distinct
    term once per process. The memo key includes the types of the term's
    constants: ``v < 1`` and ``v < True`` are equal terms, but their closures
    name their own constant in an evaluation error. Terms with unhashable
    constants — which the row-at-a-time interpreter accepted — compile
    uncached.
    """
    try:
        return _compile_term_cached(term, tuple(type(c) for c in term.constants()))
    except TypeError:
        return _compile_term(term)


def compile_predicate(
    predicate: DNFPredicate, index_of: Mapping[str, int]
) -> Callable[[Sequence[Any]], bool]:
    """Compile a DNF predicate into a positional ``row values -> bool`` closure.

    *index_of* maps qualified attribute names to positions in the row value
    sequence the closure will be applied to. Unknown attributes raise
    :class:`EvaluationError` at compile time rather than per row.
    """
    if predicate.is_true:
        return lambda values: True
    compiled_conjuncts: list[tuple[tuple[int, Callable[[Any], bool]], ...]] = []
    for conjunct in predicate.conjuncts:
        compiled_terms = []
        for term in conjunct.terms:
            try:
                position = index_of[term.attribute]
            except KeyError:
                raise EvaluationError(f"row has no attribute {term.attribute!r}") from None
            compiled_terms.append((position, compile_term(term)))
        compiled_conjuncts.append(tuple(compiled_terms))

    def evaluate_positional(values: Sequence[Any]) -> bool:
        for terms in compiled_conjuncts:
            for position, test in terms:
                if not test(values[position]):
                    break
            else:
                return True
        return False

    return evaluate_positional
