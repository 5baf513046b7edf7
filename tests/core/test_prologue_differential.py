"""Differential oracle: the bitmask round prologue against the per-pair reference.

The engine matches tuple classes with ANDs of per-slot conjunct masks,
interns pair reactions and memoises groupings; the reference
(:mod:`tests.oracles.prologue_reference`) evaluates compiled predicates on
representative values and regroups the candidates for every pair. On
round-1 spaces (δ off) of the paper workloads and the scenario presets the
two must agree field for field: the skyline at the default cap, at a cap
of 5 and under a 2,000-pair ``δ`` budget that cuts the larger rounds (Q2's
22,241 pairs among them) pair for pair, every single pair's effect, a seeded sample of 2–4-pair sets, and
Algorithm 4's choice. Underneath, every domain partition must file each
active value and each row's cell in the block whose signature the term
interpreter (:mod:`tests.oracles.evaluator_reference`) computes. The light
cases run in tier-1; the heavier ones are marked ``slow``.
"""

from __future__ import annotations

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.config import QFEConfig
from repro.core.modification import ClassPair, PairSetSimulator
from repro.core.skyline import skyline_stc_dtc_pairs
from repro.core.subset_selection import pick_stc_dtc_subset
from repro.core.tuple_class import TupleClassSpace
from repro.experiments.runner import prepare_candidates
from repro.relational.database import Database
from repro.relational.evaluator import JoinCache
from repro.relational.join import full_join
from repro.relational.predicates import ComparisonOp, Conjunct, DNFPredicate, Term
from repro.relational.query import SPJQuery
from repro.workloads import build_pair
from tests.oracles.evaluator_reference import evaluate_value_reference
from tests.oracles.prologue_reference import (
    ReferencePairSetSimulator,
    destination_classes,
    reference_pick_subset,
    reference_skyline,
)

_DELTA_OFF = 1e6
_CAPS = {
    "default": QFEConfig(delta_seconds=_DELTA_OFF),
    "cap5": QFEConfig(delta_seconds=_DELTA_OFF, max_skyline_pairs=5),
    "budget": QFEConfig(delta_seconds=0.002),
}

# (workload, scale, candidate count); a preset's candidates are its own.
_LIGHT = [
    ("Q1", 0.1, 10),
    ("Q2", 0.1, 10),
    ("Q3", 0.1, 10),
    ("Q5", 0.1, 10),
    ("scenario:mixed", 0.1, None),
]
_HEAVY = [
    ("Q4", 0.1, 10),
    ("Q6", 0.1, 10),
    ("scenario:chain@29", 0.1, None),
    ("scenario:star@7", 0.1, None),
    ("scenario:mixed@2", 0.1, None),
    ("scenario:chain", 0.1, None),
    ("scenario:star", 0.1, None),
]
# Light cases whose full (default-cap) reference enumeration takes seconds.
_HEAVY_DEFAULT = {"Q1", "Q2"}

_ROUND_ONE: dict[str, tuple[TupleClassSpace, int]] = {}


def _round_one(name: str, scale: float, count: int | None) -> tuple[TupleClassSpace, int]:
    """The round-1 tuple-class space of a workload and its result arity (cached)."""
    if name not in _ROUND_ONE:
        database, result, target = build_pair(name, scale)
        candidates, _ = prepare_candidates(database, result, target, candidate_count=count)
        referenced = tuple(sorted({table for query in candidates for table in query.tables}))
        joined = JoinCache().join_for(database, referenced)
        _ROUND_ONE[name] = (TupleClassSpace(joined, candidates), result.schema.arity)
    return _ROUND_ONE[name]


def _cases(cases, *, slow: bool):
    marks = [pytest.mark.slow] if slow else []
    return [pytest.param(case, id=case[0], marks=marks) for case in cases]


def _skyline_cases():
    params = []
    for case in _LIGHT + _HEAVY:
        for cap in _CAPS:
            slow = case in _HEAVY or (cap == "default" and case[0] in _HEAVY_DEFAULT)
            marks = [pytest.mark.slow] if slow else []
            params.append(pytest.param(case, cap, id=f"{case[0]}-{cap}", marks=marks))
    return params


# ---------------------------------------------------------------- partitions
@pytest.mark.parametrize("case", _cases(_LIGHT, slow=False) + _cases(_HEAVY, slow=True))
def test_domain_partitions_match_interpreter_signatures(case):
    space, _ = _round_one(*case)
    for slot, attribute in enumerate(space.selection_attributes):
        partition = space.partitions[attribute]
        block_of = {subset.signature: subset.index for subset in partition.subsets}

        def expected(value):
            return block_of[tuple(evaluate_value_reference(t, value) for t in partition.terms)]

        column = space.joined.columnar().column(attribute)
        for value in {value for value in column if value is not None}:
            assert partition.subset_of_value(value) == expected(value), (attribute, value)
        # A NULL cell's block is the known defect TestNullRowClasses pins.
        for position, value in enumerate(column):
            if value is not None:
                index = space.class_of_row(position).subset_indexes[slot]
                assert index == expected(value), (attribute, position)


# ------------------------------------------------------------------ skyline
@pytest.mark.parametrize(("case", "cap"), _skyline_cases())
def test_skyline_matches_reference(case, cap):
    space, arity = _round_one(*case)
    config = _CAPS[cap]
    engine = skyline_stc_dtc_pairs(space, config, result_arity=arity)
    reference = reference_skyline(space, config, result_arity=arity)
    assert engine == reference
    if cap == "budget" and case[0] == "Q2":
        assert (engine.enumerated_pairs, engine.truncated_by) == (2_000, "time")


# ------------------------------------------------------------------ effects
def _level_one_pairs(space: TupleClassSpace) -> list[ClassPair]:
    return [
        ClassPair(source, destination)
        for source in space.source_tuple_classes()
        for destination in destination_classes(space, source, 1)
    ]


def _check_effects(space: TupleClassSpace, arity: int, *, sample: int = 150) -> None:
    engine = PairSetSimulator(space, result_arity=arity)
    reference = ReferencePairSetSimulator(space, result_arity=arity)
    skyline = skyline_stc_dtc_pairs(space, _CAPS["default"], result_arity=arity)
    singles = list(dict.fromkeys(skyline.pairs + _level_one_pairs(space)))
    for pair in singles:
        assert engine.effect([pair]) == reference.effect([pair])
    rng = random.Random(0)
    for _ in range(sample if len(singles) > 1 else 0):
        pairs = rng.sample(singles, rng.randint(2, min(4, len(singles))))
        assert engine.effect(pairs) == reference.effect(pairs)


@pytest.mark.parametrize("case", _cases(_LIGHT, slow=False) + _cases(_HEAVY, slow=True))
def test_single_and_set_effects_match_reference(case):
    _check_effects(*_round_one(*case))


# ------------------------------------------------------------------- subset
def _check_subset(space: TupleClassSpace, arity: int, config: QFEConfig) -> None:
    skyline = skyline_stc_dtc_pairs(space, config, result_arity=arity)
    kwargs = dict(result_arity=arity, most_balanced_binary_x=skyline.most_balanced_binary_x)
    engine = pick_stc_dtc_subset(space, skyline.pairs, config, **kwargs)
    reference = reference_pick_subset(space, skyline.pairs, config, **kwargs)
    assert engine.chosen_pairs == reference.chosen_pairs
    assert engine.chosen_effect == reference.chosen_effect
    assert engine.chosen_cost == reference.chosen_cost
    assert engine.sets_evaluated == reference.sets_evaluated
    assert engine.effects_built <= engine.sets_evaluated


@pytest.mark.parametrize(
    "case",
    _cases(_LIGHT[-1:], slow=False) + _cases(_LIGHT[:-1] + _HEAVY, slow=True),
)
def test_subset_selection_matches_reference(case):
    space, arity = _round_one(*case)
    _check_subset(space, arity, _CAPS["default"])


# --------------------------------------------------------------- hypothesis
def _term(attribute: str, op: ComparisonOp, constant) -> Term:
    return Term(f"T.{attribute}", op, constant)


@st.composite
def _fresh_block_spaces(draw):
    """A one-table space whose candidates include a DNF, a TRUE predicate and ``b >= 'A'``.

    Every ``b`` is an upper-case letter, so no value fails ``b >= 'A'`` and
    the partition of ``b`` gets a fresh block declared ``(False, ...)``
    whose representative ``QFE_OTHER`` does satisfy the term.
    """
    count = draw(st.integers(2, 8))
    numbers = st.integers(0, 20)
    rows = [
        [
            index,
            draw(numbers) if index == 0 or not draw(st.booleans()) else None,
            draw(st.sampled_from("ABCDE")),
            draw(numbers),
            f"p{draw(st.integers(0, 3))}",
        ]
        for index in range(count)
    ]
    database = Database.from_tables({"T": (["id", "a", "b", "c", "p"], rows)})
    projection = draw(st.sampled_from([["T.p"], ["T.b"], ["T.a", "T.p"]]))
    x, y, z, w = (draw(numbers) for _ in range(4))
    predicates = [
        DNFPredicate(
            (
                Conjunct((_term("a", ComparisonOp.GT, x), _term("b", ComparisonOp.EQ, "B"))),
                Conjunct((_term("c", ComparisonOp.LE, y),)),
            )
        ),
        DNFPredicate.true(),
        DNFPredicate.from_terms([_term("b", ComparisonOp.GE, "A")]),
        DNFPredicate.from_terms([_term("a", ComparisonOp.LE, z), _term("c", ComparisonOp.GT, w)]),
        DNFPredicate.from_terms([_term("b", ComparisonOp.IN, ("C", "D"))]),
    ]
    queries = [SPJQuery(["T"], projection, predicate) for predicate in predicates]
    return TupleClassSpace(full_join(database), queries), len(projection)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_fresh_block_spaces())
def test_fresh_block_dnf_and_true_predicates_match_reference(drawn):
    space, arity = drawn
    reference = ReferencePairSetSimulator(space, result_arity=arity)
    partition = space.partitions["T.b"]
    assert any(subset.description == "{fresh}" for subset in partition.subsets)
    classes = set(space.source_tuple_classes())
    for source in space.source_tuple_classes():
        for level in range(1, space.attribute_count + 1):
            classes.update(destination_classes(space, source, level))
    for tuple_class in classes:
        expected = reference.vector(tuple_class)
        assert tuple(space.matches(q, tuple_class) for q in range(len(space.queries))) == expected

    config = _CAPS["default"]
    skyline = skyline_stc_dtc_pairs(space, config, result_arity=arity)
    assert skyline == reference_skyline(space, config, result_arity=arity)
    engine = PairSetSimulator(space, result_arity=arity)
    for size in (1, 2):
        for pairs in itertools.combinations(skyline.pairs[:8], size):
            assert engine.effect(pairs) == reference.effect(pairs)
    _check_subset(space, arity, config)
