"""Differential tests: identical-row matching on stored rows against canonical keys.

``_match_identical_rows`` buckets rows by their stored value tuples; its
reference canonicalizes every cell first. Python's ``==`` and ``hash`` make
the two keys agree (``1``, ``1.0`` and ``True`` are one key; ``2**53 + 1``
is not ``2.0**53``), so both must pair the same rows in the same order, on
hand-picked edge values and on random small relations.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.edit import _match_identical_rows, min_edit_script
from repro.relational.relation import Relation, Tuple
from tests.oracles.edit_reference import match_identical_rows_reference

#: Values whose stored form differs from their canonical one, or whose
#: equality Python's numeric tower decides: the cases a raw key could get wrong.
EDGE_VALUES = (
    None, 0, 1, 1.0, True, False, 0.0, -0.0, 2**53, 2.0**53, 2**53 + 1, -(2**53) - 1,
    float("inf"), 2.5, "", "1", "a", "é",
)


def _stored(rows: list[tuple]) -> Relation:
    """A relation holding *rows* exactly as given (no column coercion)."""
    arity = len(rows[0]) if rows else 2
    relation = Relation.from_rows("R", [f"c{k}" for k in range(arity)], [])
    relation._tuples = [Tuple(row, index) for index, row in enumerate(rows)]
    return relation


def _assert_same(source_rows: list[tuple], target_rows: list[tuple]) -> None:
    source, target = _stored(source_rows), _stored(target_rows)
    assert _match_identical_rows(source, target) == match_identical_rows_reference(
        source, target
    ), (source_rows, target_rows)


class TestEdgeValues:
    def test_equal_numbers_of_every_type_match(self):
        source = [(1, "a"), (1.0, "a"), (True, "a"), (0, None), (-0.0, None), (2.0**53, "b")]
        target = [(True, "a"), (0.0, None), (1.0, "a"), (2**53, "b"), (1, "a"), (False, None)]
        _assert_same(source, target)
        matched, _, _ = _match_identical_rows(_stored(source), _stored(target))
        assert len(matched) == 6

    def test_integers_beyond_two_to_the_53_stay_apart(self):
        source = [(2**53 + 1, 0), (2**53, 0), (-(2**53) - 1, 0)]
        target = [(2.0**53, 0), (2**53 + 1, 0), (float(-(2**53) - 1), 0)]
        _assert_same(source, target)
        matched, leftover_source, leftover_target = _match_identical_rows(
            _stored(source), _stored(target)
        )
        assert matched == [(0, 1), (1, 0)]
        assert (leftover_source, leftover_target) == ([2], [2])

    def test_duplicates_nulls_and_strings(self):
        source = [("x", None), ("x", None), ("x", None), ("1", 1), (None, None)]
        target = [(None, None), ("x", None), ("1", 1.0), ("x", None), ("1", "1")]
        _assert_same(source, target)

    def test_every_pair_of_edge_values(self):
        rows = [(left, right) for left in EDGE_VALUES for right in EDGE_VALUES]
        _assert_same(rows, list(reversed(rows)))
        _assert_same(rows[::3], rows[1::2])

    def test_the_edit_script_is_unchanged(self):
        source = [(1, "a", 2.0**53), (True, "b", 0.5), (-0.0, None, 3)]
        target = [(0, None, 3.0), (1.0, "a", 2**53 + 1), (1, "b", 0.5)]
        script = min_edit_script(_stored(source), _stored(target))
        assert script.describe() == [
            "R: change c2 from 9007199254740992.0 to 9007199254740993 "
            "in row (1, 'a', 9007199254740992.0)"
        ]


_values = st.sampled_from(EDGE_VALUES)


@st.composite
def _relation_pair(draw):
    arity = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(*[_values] * arity)
    # Few distinct rows, so matches and duplicates are common.
    pool = draw(st.lists(row, min_size=1, max_size=5))
    rows = st.lists(st.sampled_from(pool), max_size=8)
    return draw(rows), draw(rows)


@settings(max_examples=300, deadline=None)
@given(_relation_pair())
def test_raw_matching_equals_the_canonicalizing_reference(pair):
    source_rows, target_rows = pair
    _assert_same(source_rows, target_rows)
