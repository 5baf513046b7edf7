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

A term is evaluated only through :func:`compile_term`, which turns it into a
``value -> bool`` closure; the columnar term masks and the tuple-class
partitions of Section 5.1 both call that closure.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable

from repro.exceptions import EvaluationError
from repro.relational.types import exact_repr, float_literal

__all__ = [
    "ComparisonOp",
    "MEMBERSHIP_OPS",
    "Term",
    "Conjunct",
    "DNFPredicate",
    "compile_term",
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


#: Operators that compare against a set of constants.
MEMBERSHIP_OPS = frozenset({ComparisonOp.IN, ComparisonOp.NOT_IN})


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

    # ------------------------------------------------------------- structure
    def constants(self) -> tuple[Any, ...]:
        """All constants mentioned by the term."""
        if self.op.is_membership:
            return tuple(self.constant)
        return (self.constant,)

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
    return exact_repr(constant) if isinstance(constant, int) else str(constant)


@dataclass(frozen=True)
class Conjunct:
    """A conjunction of terms (one disjunct of a DNF predicate)."""

    terms: tuple[Term, ...]

    def __init__(self, terms: Iterable[Term]) -> None:
        object.__setattr__(self, "terms", tuple(terms))

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
                sorted(exact_repr((t.attribute, t.op.value, t.constants())) for t in conjunct.terms)
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


# ------------------------------------------------------------------ compilation
#
# The QFE inner loops evaluate the same small set of terms against thousands of
# values. Compiling a term into a single-argument closure hoists every
# constant-side check out of the per-value hot path. The closures define the
# term semantics: NULL never satisfies a comparison, values compare exactly
# with Python's ``==`` and ``<`` (``int`` against ``float`` by mathematical
# value, with no ``float()`` round-trip that would make ``2**53 + 1 > 2**53``
# false; ``True == 1``, as in SQLite's integer encoding), and an ordering
# between incomparable values raises ``EvaluationError``.


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
    # Verdicts equal ``any(value == c)``: a NaN constant equals nothing, so it
    # is dropped; ``in`` tests identity before equality, and identity implies
    # equality for every constant kept; equal values hash equal.
    kept = tuple(c for c in term.constant if c == c)
    negate = term.op is ComparisonOp.NOT_IN
    try:
        lookup: frozenset[Any] | tuple[Any, ...] = frozenset(kept)
    except TypeError:  # an unhashable constant
        lookup = kept

    def member(value: Any) -> bool:
        if value is None:
            return False
        try:
            hit = value in lookup
        except TypeError:  # an unhashable value
            hit = value in kept
        return (not hit) if negate else hit

    return member


def _compile_equality(term: Term) -> Callable[[Any], bool]:
    constant = term.constant
    negate = term.op is ComparisonOp.NE

    def equal(value: Any) -> bool:
        if value is None:
            return False
        hit = value == constant
        return (not hit) if negate else hit

    return equal


#: The comparison each ordering operator applies, bound once per compiled term.
_ORDERINGS = {
    ComparisonOp.LT: operator.lt,
    ComparisonOp.LE: operator.le,
    ComparisonOp.GT: operator.gt,
    ComparisonOp.GE: operator.ge,
}


def _compile_ordering(term: Term) -> Callable[[Any], bool]:
    op = term.op
    constant = term.constant
    holds = _ORDERINGS[op]

    def compare(value: Any) -> bool:
        if value is None:
            return False
        try:
            return holds(value, constant)
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
    constants compile uncached.
    """
    try:
        return _compile_term_cached(term, tuple(type(c) for c in term.constants()))
    except TypeError:
        return _compile_term(term)
